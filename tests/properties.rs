//! Workspace-level property-based tests: randomized point sets, random
//! parameters, invariants from the paper's analysis.

use proptest::prelude::*;
use rknn::baselines::NaiveRknn;
use rknn::prelude::*;
use rknn::rdt::RdtParams;
use std::collections::HashSet;

fn arb_points(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(
        proptest::collection::vec(-50.0f64..50.0, dim),
        (dim + 3)..max_n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// RDT never reports a non-member, at any t (its accepts are
    /// certificates: either Assertion 2 or an explicit verification).
    #[test]
    fn rdt_has_perfect_precision(
        pts in arb_points(60, 2),
        k in 1usize..6,
        t_scaled in 5u32..120,
        qi in 0usize..60,
    ) {
        let t = t_scaled as f64 / 10.0;
        let ds = Dataset::from_rows(&pts).unwrap().into_shared();
        let q = qi % ds.len();
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        let mut st = SearchStats::new();
        let truth: HashSet<_> = bf.rknn(q, k, &mut st).iter().map(|n| n.id).collect();
        let ans = RdtAlgorithm::new(RdtParams::new(k, t)).answer(&idx, q);
        for n in &ans.result {
            prop_assert!(truth.contains(&n.id), "false positive {} at t={t} k={k}", n.id);
        }
    }

    /// At an exhaustive t the filter phase sees everything, so plain RDT is
    /// exact. RDT+ guarantees *recall* only: its exclusions remove witness
    /// providers, so lazy accepts can act on undercounted witness sets and
    /// admit false positives — the precision drop §4.3 trades for speed.
    #[test]
    fn rdt_exhaustive_matches_truth(
        pts in arb_points(50, 3),
        k in 1usize..5,
        qi in 0usize..50,
    ) {
        let ds = Dataset::from_rows(&pts).unwrap().into_shared();
        let q = qi % ds.len();
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        let mut st = SearchStats::new();
        let truth: Vec<_> = bf.rknn(q, k, &mut st).iter().map(|n| n.id).collect();
        let params = RdtParams::new(k, 60.0);
        let plain = RdtAlgorithm::new(params).answer(&idx, q);
        prop_assert_eq!(&plain.ids(), &truth);
        let stats = &plain.stats;
        prop_assert_eq!(
            stats.verified + stats.lazy_accepts + stats.lazy_rejects + stats.excluded,
            stats.retrieved
        );
        let plus = RdtAlgorithm::plus(params).answer(&idx, q);
        let plus_ids: std::collections::HashSet<_> = plus.ids().into_iter().collect();
        for id in &truth {
            prop_assert!(plus_ids.contains(id), "RDT+ missed true member {id}");
        }
    }

    /// The naive index-served method equals the O(n²) brute force for any
    /// random configuration (they share no code path beyond the metric).
    #[test]
    fn naive_equals_brute(
        pts in arb_points(40, 2),
        k in 1usize..5,
        qi in 0usize..40,
    ) {
        let ds = Dataset::from_rows(&pts).unwrap().into_shared();
        let q = qi % ds.len();
        let idx = CoverTree::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        let mut st = SearchStats::new();
        let a: Vec<_> = NaiveRknn::new(k).query(&idx, q, &mut st).iter().map(|n| n.id).collect();
        let b: Vec<_> = bf.rknn(q, k, &mut st).iter().map(|n| n.id).collect();
        prop_assert_eq!(a, b);
    }

    /// Monotonicity: enlarging k can only grow the reverse neighborhood.
    #[test]
    fn rknn_monotone_in_k(
        pts in arb_points(40, 2),
        qi in 0usize..40,
    ) {
        let ds = Dataset::from_rows(&pts).unwrap().into_shared();
        let q = qi % ds.len();
        let bf = BruteForce::new(ds, Euclidean);
        let mut st = SearchStats::new();
        let small: HashSet<_> = bf.rknn(q, 2, &mut st).iter().map(|n| n.id).collect();
        let large: HashSet<_> = bf.rknn(q, 4, &mut st).iter().map(|n| n.id).collect();
        prop_assert!(small.is_subset(&large));
    }

    /// Dynamic cover-tree inserts preserve exact kNN semantics.
    #[test]
    fn dynamic_inserts_preserve_knn(
        pts in arb_points(40, 2),
        extra in proptest::collection::vec(proptest::collection::vec(-50.0f64..50.0, 2), 1..10),
    ) {
        use rknn::index::DynamicIndex;
        let ds = Dataset::from_rows(&pts).unwrap().into_shared();
        let mut tree = CoverTree::build(ds.clone(), Euclidean);
        for p in &extra {
            tree.insert(p).unwrap();
        }
        // Rebuild from scratch over the union; kNN distance multisets match.
        let mut all = pts.clone();
        all.extend(extra.iter().cloned());
        let full = Dataset::from_rows(&all).unwrap().into_shared();
        let reference = LinearScan::build(full.clone(), Euclidean);
        let mut st = SearchStats::new();
        let q = full.point(0).to_vec();
        let a = tree.knn(&q, 5, Some(0), &mut st);
        let b = reference.knn(&q, 5, Some(0), &mut st);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x.dist - y.dist).abs() < 1e-9);
        }
    }
}
