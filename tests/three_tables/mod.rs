//! Three small correlated tables and eight two-table queries over them,
//! shared by the service chaos suite and the front-door suite.

use sqe::engine::table::TableBuilder;
use sqe::prelude::*;

/// Three small correlated tables; `salt` varies the content so two
/// tenants can hold genuinely different catalogs.
pub fn db(salt: usize) -> Database {
    let rows = 256usize;
    let mut db = Database::new();
    for t in 0..3 {
        let a: Vec<i64> = (0..rows)
            .map(|r| ((r * 7 + t * 3 + salt * 5) % 23) as i64)
            .collect();
        let b: Vec<i64> = (0..rows)
            .map(|r| ((r * 13 + t * 5 + salt * 11) % 17) as i64)
            .collect();
        db.add_table(
            TableBuilder::new(format!("t{t}"))
                .column("a", a)
                .column("b", b)
                .build()
                .unwrap(),
        );
    }
    db
}

/// Eight join + filter + range queries over [`db`]'s tables.
pub fn queries() -> Vec<SpjQuery> {
    let mut queries = Vec::new();
    for v in 0..4i64 {
        for (l, r) in [(0u32, 1u32), (1, 2)] {
            queries.push(
                SpjQuery::from_predicates(vec![
                    Predicate::join(ColRef::new(TableId(l), 0), ColRef::new(TableId(r), 0)),
                    Predicate::filter(ColRef::new(TableId(l), 1), CmpOp::Eq, v),
                    Predicate::range(ColRef::new(TableId(r), 1), 0, 8 + v),
                ])
                .unwrap(),
            );
        }
    }
    queries
}
