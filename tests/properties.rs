//! Property-based tests (proptest) for the paper's exact identities and the
//! substrates' invariants, on randomly generated databases and predicates.

use proptest::prelude::*;

use sqe::engine::brute::{count_brute_force, DEFAULT_LIMIT};
use sqe::engine::table::TableBuilder;
use sqe::histogram::Frequencies;
use sqe::prelude::*;

/// Strategy: a small database of 3 tables with 2 columns each, values in a
/// narrow domain so joins actually match.
fn small_db() -> impl Strategy<Value = Database> {
    let col = prop::collection::vec(0i64..8, 1..12);
    (
        col.clone(),
        col.clone(),
        col.clone(),
        col.clone(),
        col.clone(),
        col,
    )
        .prop_map(|(a0, b0, a1, b1, a2, b2)| {
            fn tab(name: &str, a: Vec<i64>, b: Vec<i64>) -> sqe::engine::Table {
                let n = a.len().min(b.len());
                TableBuilder::new(name)
                    .column("a", a[..n].to_vec())
                    .column("b", b[..n].to_vec())
                    .build()
                    .expect("consistent")
            }
            let mut db = Database::new();
            db.add_table(tab("t0", a0, b0));
            db.add_table(tab("t1", a1, b1));
            db.add_table(tab("t2", a2, b2));
            db
        })
}

/// Strategy: a predicate over the 3-table schema.
fn pred() -> impl Strategy<Value = Predicate> {
    let colref = (0u32..3, 0u16..2).prop_map(|(t, c)| ColRef::new(TableId(t), c));
    prop_oneof![
        (colref.clone(), 0i64..8, 0i64..8)
            .prop_map(|(c, lo, hi)| { Predicate::range(c, lo.min(hi), lo.max(hi)) }),
        (colref.clone(), 0i64..8).prop_map(|(c, v)| Predicate::filter(c, CmpOp::Eq, v)),
        (colref.clone(), colref.clone()).prop_filter_map("self-column join", |(l, r)| {
            (l != r).then(|| Predicate::join(l, r))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1 (atomic decomposition) holds exactly on real data:
    /// Sel(P,Q) = Sel(P|Q)·Sel(Q).
    #[test]
    fn atomic_decomposition_is_exact(
        db in small_db(),
        p in prop::collection::vec(pred(), 1..3),
        q in prop::collection::vec(pred(), 1..3),
    ) {
        let tables = [TableId(0), TableId(1), TableId(2)];
        let mut oracle = CardinalityOracle::new(&db);
        let mut all = p.clone();
        all.extend(q.iter().copied());
        let joint = oracle.selectivity(&tables, &all).unwrap();
        let cond = oracle.conditional_selectivity(&tables, &p, &q).unwrap();
        let marginal = oracle.selectivity(&tables, &q).unwrap();
        prop_assert!((joint - cond * marginal).abs() < 1e-9,
            "joint {joint} vs {cond}·{marginal}");
    }

    /// The memoized oracle agrees with brute-force cross-product counting.
    #[test]
    fn oracle_matches_brute_force(
        db in small_db(),
        preds in prop::collection::vec(pred(), 0..4),
    ) {
        let tables = [TableId(0), TableId(1), TableId(2)];
        let mut oracle = CardinalityOracle::new(&db);
        let fast = oracle.cardinality(&tables, &preds).unwrap();
        let slow = count_brute_force(&db, &tables, &preds, DEFAULT_LIMIT).unwrap();
        prop_assert_eq!(fast, slow as u128);
    }

    /// Property 2 (separable decomposition): for predicates on disjoint
    /// tables the selectivity factors exactly.
    #[test]
    fn separable_decomposition_is_exact(
        db in small_db(),
        v0 in 0i64..8,
        v1 in 0i64..8,
    ) {
        let tables = [TableId(0), TableId(1)];
        let p0 = Predicate::range(ColRef::new(TableId(0), 0), 0, v0);
        let p1 = Predicate::range(ColRef::new(TableId(1), 0), 0, v1);
        let mut oracle = CardinalityOracle::new(&db);
        let joint = oracle.selectivity(&tables, &[p0, p1]).unwrap();
        let s0 = oracle.selectivity(&[TableId(0)], &[p0]).unwrap();
        let s1 = oracle.selectivity(&[TableId(1)], &[p1]).unwrap();
        prop_assert!((joint - s0 * s1).abs() < 1e-9);
    }

    /// Lemma 2: the standard decomposition partitions any predicate set
    /// into non-separable components.
    #[test]
    fn standard_decomposition_partitions(
        db in small_db(),
        preds in prop::collection::vec(pred(), 1..6),
    ) {
        let q = SpjQuery::new(vec![TableId(0), TableId(1), TableId(2)], preds).unwrap();
        let ctx = QueryContext::new(&db, &q);
        let all = ctx.all();
        let comps = ctx.standard_decomposition(all);
        let mut union = PredSet::EMPTY;
        for (i, c) in comps.iter().enumerate() {
            prop_assert!(!c.is_empty());
            prop_assert!(!ctx.is_separable(*c));
            for later in &comps[i + 1..] {
                prop_assert!(c.intersect(*later).is_empty());
            }
            union = union.union(*c);
        }
        prop_assert_eq!(union, all);
    }

    /// Histogram invariants: mass conservation and estimates within [0, 1]
    /// for every builder.
    #[test]
    fn histogram_invariants(
        values in prop::collection::vec(-50i64..50, 0..300),
        nulls in 0usize..10,
        buckets in 1usize..40,
        lo in -60i64..60,
        width in 0i64..40,
    ) {
        for build in [
            sqe::histogram::build_maxdiff,
            sqe::histogram::build_equi_depth,
            sqe::histogram::build_equi_width,
        ] {
            let h = build(&values, nulls, buckets);
            prop_assert!((h.valid_rows() - values.len() as f64).abs() < 1e-6);
            prop_assert!((h.null_count() - nulls as f64).abs() < 1e-9);
            let sel = h.range_selectivity(lo, lo + width);
            prop_assert!((0.0..=1.0).contains(&sel));
            let exact_in_range = values.iter().filter(|&&v| lo <= v && v <= lo + width).count();
            // The estimate can be off inside buckets but never exceeds the
            // bucket mass overlapping the range: sanity-bound it by 1.
            prop_assert!(sel <= 1.0 + 1e-9);
            let _ = exact_in_range;
        }
    }

    /// Exact histograms estimate ranges exactly.
    #[test]
    fn exact_histogram_is_exact(
        values in prop::collection::vec(-20i64..20, 1..200),
        lo in -25i64..25,
        width in 0i64..20,
    ) {
        let h = sqe::histogram::build_exact(&values, 0);
        let hi = lo + width;
        let expected = values.iter().filter(|&&v| lo <= v && v <= hi).count() as f64;
        prop_assert!((h.range_rows(lo, hi) - expected).abs() < 1e-6);
    }

    /// The diff metric is a [0,1] total-variation distance: symmetric,
    /// zero on identical inputs.
    #[test]
    fn diff_metric_properties(
        a in prop::collection::vec(0i64..30, 1..100),
        b in prop::collection::vec(0i64..30, 1..100),
    ) {
        let (a, b) = (Frequencies::from_values(a), Frequencies::from_values(b));
        let d_ab = sqe::histogram::diff_exact(&a, &b);
        let d_ba = sqe::histogram::diff_exact(&b, &a);
        prop_assert!((0.0..=1.0).contains(&d_ab));
        prop_assert!((d_ab - d_ba).abs() < 1e-12);
        prop_assert!(sqe::histogram::diff_exact(&a, &a) < 1e-12);
    }

    /// Sample statistics: mass-preserving conversion, estimates in [0,1],
    /// deterministic per seed.
    #[test]
    fn sample_invariants(
        values in prop::collection::vec(-40i64..40, 0..400),
        nulls in 0usize..8,
        capacity in 1usize..64,
        seed in 0u64..1000,
        lo in -50i64..50,
        width in 0i64..40,
    ) {
        let s = sqe::histogram::Sample::build(&values, nulls, capacity, seed);
        prop_assert!(s.len() <= capacity.max(1));
        prop_assert!(s.len() <= values.len());
        let sel = s.range_selectivity(lo, lo + width);
        prop_assert!((0.0..=1.0).contains(&sel));
        let h = s.to_histogram();
        prop_assert!((h.valid_rows() - values.len() as f64).abs() < 1e-6
            || values.is_empty());
        // Determinism.
        let s2 = sqe::histogram::Sample::build(&values, nulls, capacity, seed);
        prop_assert_eq!(s, s2);
    }

    /// Wavelet synopses: budget respected, estimates within [0,1], exact
    /// under an unlimited budget.
    #[test]
    fn wavelet_invariants(
        values in prop::collection::vec(-30i64..30, 1..300),
        budget in 1usize..64,
        lo in -40i64..40,
        width in 0i64..30,
    ) {
        let w = sqe::histogram::WaveletSynopsis::build(&values, 0, budget);
        prop_assert!(w.len() <= budget.max(1));
        let sel = w.range_selectivity(lo, lo + width);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&sel));
        // Unlimited budget reconstructs the range count exactly.
        let full = sqe::histogram::WaveletSynopsis::build(&values, 0, usize::MAX / 2);
        let hi = lo + width;
        let expected = values.iter().filter(|&&v| lo <= v && v <= hi).count() as f64;
        prop_assert!((full.range_rows(lo, hi) - expected).abs() < 1e-6,
            "full-budget wavelet range {} vs {}", full.range_rows(lo, hi), expected);
    }

    /// 2-D grids: mass conservation and marginal consistency with a direct
    /// 1-D histogram of the y values.
    #[test]
    fn hist2d_invariants(
        pairs in prop::collection::vec((-20i64..20, -20i64..20), 0..300),
        xb in 1usize..16,
        yb in 1usize..16,
        xlo in -25i64..25,
        xw in 0i64..20,
    ) {
        let g = sqe::histogram::Hist2d::build(&pairs, 0, xb, yb);
        prop_assert!((g.valid_rows() - pairs.len() as f64).abs() < 1e-6);
        // Conditional mass never exceeds the total.
        let cond = g.conditional_y(xlo, xlo + xw);
        prop_assert!(cond.valid_rows() <= g.valid_rows() + 1e-6);
        // Marginal mass equals the total.
        prop_assert!((g.y_marginal().valid_rows() - g.valid_rows()).abs() < 1e-6);
    }

    /// Catalog persistence: any catalog of built SITs round-trips.
    #[test]
    fn catalog_persistence_round_trips(
        db in small_db(),
        n_sits in 1usize..5,
    ) {
        let mut cat = SitCatalog::new();
        for t in 0..3u32 {
            for c in 0..2u16 {
                cat.add(Sit::build_base(&db, ColRef::new(TableId(t), c)).unwrap());
            }
        }
        let join = Predicate::join(ColRef::new(TableId(0), 0), ColRef::new(TableId(1), 0));
        for c in 0..(n_sits.min(2)) as u16 {
            if let Ok(s) = Sit::build(&db, ColRef::new(TableId(0), c), vec![join]) {
                cat.add(s);
            }
        }
        let json = serde_json::to_string(&cat).unwrap();
        let loaded: SitCatalog = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(loaded.len(), cat.len());
        for ((_, a), (_, b)) in cat.iter().zip(loaded.iter()) {
            prop_assert_eq!(a.attr, b.attr);
            prop_assert_eq!(&a.cond, &b.cond);
            prop_assert_eq!(&a.histogram, &b.histogram);
        }
    }

    /// The histogram join never reports selectivity outside [0, 1] and its
    /// H3 mass equals selectivity × |H1| × |H2|.
    #[test]
    fn histogram_join_mass_consistency(
        a in prop::collection::vec(0i64..20, 1..150),
        b in prop::collection::vec(0i64..20, 1..150),
        buckets in 2usize..30,
    ) {
        let ha = sqe::histogram::build_maxdiff(&a, 0, buckets);
        let hb = sqe::histogram::build_maxdiff(&b, 0, buckets);
        let r = ha.join(&hb);
        prop_assert!((0.0..=1.0).contains(&r.selectivity));
        let expected_mass = r.selectivity * ha.total_rows() * hb.total_rows();
        prop_assert!((r.histogram.valid_rows() - expected_mass).abs() < 1e-6 * (1.0 + expected_mass));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Theorem 1, checked empirically: the DP's error equals the best
    /// error over ALL exhaustively enumerated decomposition chains (it may
    /// be lower still, because the separable path can split factors beyond
    /// what plain chains express — but it must never be higher).
    #[test]
    fn dp_error_is_minimal_over_exhaustive_chains(
        db in small_db(),
        preds in prop::collection::vec(pred(), 1..4),
        sit_join in prop::option::of((0u32..3, 0u16..2, 1u32..3, 0u16..2)),
        mode_diff in any::<bool>(),
    ) {
        let q = SpjQuery::new(vec![TableId(0), TableId(1), TableId(2)], preds).unwrap();
        // Catalog: base histograms for every column, plus (sometimes) one
        // join-expression SIT so the search space is not degenerate.
        let mut catalog = SitCatalog::new();
        for t in 0..3u32 {
            for c in 0..2u16 {
                catalog.add(Sit::build_base(&db, ColRef::new(TableId(t), c)).unwrap());
            }
        }
        if let Some((t1, c1, dt, c2)) = sit_join {
            let t2 = (t1 + dt) % 3;
            let join = Predicate::join(ColRef::new(TableId(t1), c1), ColRef::new(TableId(t2), c2));
            let attr = ColRef::new(TableId(t1), 1 - c1);
            if let Ok(sit) = Sit::build(&db, attr, vec![join]) {
                catalog.add(sit);
            }
        }
        let mode = if mode_diff { ErrorMode::Diff } else { ErrorMode::NInd };
        let mut est = SelectivityEstimator::new(&db, &q, &catalog, mode);
        let all = est.context().all();
        let (_, dp_err) = est.get_selectivity(all);

        // Evaluate every chain with the same factor machinery the DP uses.
        let mut best_chain = f64::INFINITY;
        for chain in sqe::core::decomposition::enumerate_decompositions(all) {
            let mut remaining = all;
            let mut err = 0.0f64;
            for part in chain {
                remaining = remaining.minus(part);
                let (_, e) = est.conditional_factor(part, remaining);
                err += e;
            }
            best_chain = best_chain.min(err);
        }
        prop_assert!(
            dp_err <= best_chain + 1e-9,
            "DP error {dp_err} exceeds best exhaustive chain {best_chain}"
        );
    }
}
