//! Fixtures shared by more than one test binary.

use sqe::engine::table::TableBuilder;
use sqe::prelude::*;

/// Five tables `t0..t4` of 24 rows, each with columns `a` and `b` over
/// `0..8`.
pub fn five_tables() -> Database {
    let mut db = Database::new();
    for t in 0..5 {
        let vals: Vec<i64> = (0..24).map(|i| (i * 7 + t * 3) % 8).collect();
        let vals2: Vec<i64> = (0..24).map(|i| (i * 5 + t * 11) % 8).collect();
        db.add_table(
            TableBuilder::new(format!("t{t}"))
                .column("a", vals)
                .column("b", vals2)
                .build()
                .unwrap(),
        );
    }
    db
}

/// An 18-predicate query, wider than the dense peel layout's `n ≤ 16`:
/// two filters on every column of [`five_tables`] (the last table's `b`
/// left out) and no join. Each table's filters form one non-separable
/// component of at most four predicates, so the dense engine solves 63
/// masks of its 2¹⁸-mask lattice.
pub fn spread_filters() -> (Database, SpjQuery) {
    let mut preds = Vec::new();
    for t in 0..5u32 {
        for col in 0..2u16 {
            let c = ColRef::new(TableId(t), col);
            preds.push(Predicate::filter(c, CmpOp::Le, i64::from(t) + 3));
            preds.push(Predicate::filter(c, CmpOp::Ge, 1));
        }
    }
    preds.truncate(18);
    let q = SpjQuery::from_predicates(preds).unwrap();
    assert_eq!(q.predicates.len(), 18);
    (five_tables(), q)
}
