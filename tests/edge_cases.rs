//! Failure injection and degenerate-input behavior across the whole stack.

use rknn::baselines::{MRkNNCoP, NaiveRknn, RdnnTree, Sft, Tpl};
use rknn::index::DynamicIndex;
use rknn::prelude::*;
use rknn::rdt::RdtParams;
use std::sync::Arc;

fn duplicates_heavy() -> Arc<rknn::core::Dataset> {
    // 30 copies of one point, 30 of another, plus a few distinct points.
    let mut rows = vec![vec![0.0, 0.0]; 30];
    rows.extend(vec![vec![5.0, 5.0]; 30]);
    rows.push(vec![1.0, 0.0]);
    rows.push(vec![0.0, 1.5]);
    rows.push(vec![9.0, 9.0]);
    Dataset::from_rows(&rows).unwrap().into_shared()
}

#[test]
fn dataset_construction_rejects_bad_input() {
    assert!(Dataset::from_rows(&[vec![f64::NAN]]).is_err());
    assert!(Dataset::from_rows(&[vec![f64::INFINITY, 0.0]]).is_err());
    assert!(Dataset::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    assert!(Dataset::from_flat(0, vec![]).is_err());
    let mut b = DatasetBuilder::new(2);
    assert!(b.push(&[0.0, f64::NEG_INFINITY]).is_err());
    assert!(b.push(&[0.0]).is_err());
    assert!(b.push(&[0.0, 0.0]).is_ok());
}

#[test]
fn duplicates_are_consistent_across_all_methods() {
    let ds = duplicates_heavy();
    let forward = CoverTree::build(ds.clone(), Euclidean);
    let bf = BruteForce::new(ds.clone(), Euclidean);
    let mut st = SearchStats::new();
    let k = 5;
    // Query at a duplicate-pile member: with 30 co-located points and k=5,
    // behavior depends entirely on tie conventions — every method must
    // still agree with the brute-force reference.
    for q in [0usize, 35, 60] {
        let truth: Vec<_> = bf.rknn(q, k, &mut st).iter().map(|n| n.id).collect();
        let naive: Vec<_> = NaiveRknn::new(k)
            .query(&forward, q, &mut st)
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(naive, truth, "naive, q={q}");
        let rdt: Vec<_> = RdtAlgorithm::new(RdtParams::new(k, 50.0))
            .answer(&forward, q)
            .ids();
        assert_eq!(rdt, truth, "rdt, q={q}");
        let mrk = MRkNNCoP::build(ds.clone(), Euclidean, k, &forward);
        let got: Vec<_> = mrk
            .query(q, k, &forward, &mut st)
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(got, truth, "mrknncop, q={q}");
        let rdnn = RdnnTree::build(ds.clone(), Euclidean, k, &forward);
        let got: Vec<_> = rdnn.query(q, &mut st).iter().map(|n| n.id).collect();
        assert_eq!(got, truth, "rdnn, q={q}");
        let tpl = Tpl::build(ds.clone(), Euclidean);
        let got: Vec<_> = tpl.query(q, k, &mut st).iter().map(|n| n.id).collect();
        assert_eq!(got, truth, "tpl, q={q}");
    }
}

#[test]
fn k_of_one_and_k_beyond_n() {
    let ds = rknn::data::uniform_cube(20, 2, 501).into_shared();
    let forward = LinearScan::build(ds.clone(), Euclidean);
    let bf = BruteForce::new(ds.clone(), Euclidean);
    let mut st = SearchStats::new();
    // k = 1.
    let truth: Vec<_> = bf.rknn(3, 1, &mut st).iter().map(|n| n.id).collect();
    assert_eq!(
        RdtAlgorithm::new(RdtParams::new(1, 30.0))
            .answer(&forward, 3)
            .ids(),
        truth
    );
    // k ≥ n: everything is a reverse neighbor.
    let ans = RdtAlgorithm::plus(RdtParams::new(100, 5.0)).answer(&forward, 3);
    assert_eq!(ans.result.len(), 19);
    let sft = Sft::new(100, 1.0);
    assert_eq!(sft.query(&forward, 3, &mut st).len(), 19);
    let rdnn = RdnnTree::build(ds.clone(), Euclidean, 100, &forward);
    assert_eq!(rdnn.query(3, &mut st).len(), 19);
}

#[test]
fn two_point_and_singleton_datasets() {
    let ds = Dataset::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]])
        .unwrap()
        .into_shared();
    let forward = CoverTree::build(ds.clone(), Euclidean);
    let ans = RdtAlgorithm::new(RdtParams::new(1, 10.0)).answer(&forward, 0);
    assert_eq!(ans.ids(), vec![1], "mutual 1-NN pair");

    let single = Dataset::from_rows(&[vec![7.0]]).unwrap().into_shared();
    let forward = LinearScan::build(single, Euclidean);
    let ans = RdtAlgorithm::new(RdtParams::new(1, 10.0)).answer(&forward, 0);
    assert!(ans.result.is_empty(), "no other points exist");
}

#[test]
fn zero_variance_dimensions_are_harmless() {
    // Coordinates constant in most dimensions (common in sparse features).
    let rows: Vec<Vec<f64>> = (0..60)
        .map(|i| {
            let mut v = vec![3.0; 10];
            v[0] = i as f64;
            v
        })
        .collect();
    let ds = Dataset::from_rows(&rows).unwrap().into_shared();
    let forward = CoverTree::build(ds.clone(), Euclidean);
    let bf = BruteForce::new(ds.clone(), Euclidean);
    let mut st = SearchStats::new();
    let truth: Vec<_> = bf.rknn(30, 3, &mut st).iter().map(|n| n.id).collect();
    assert_eq!(
        RdtAlgorithm::new(RdtParams::new(3, 30.0))
            .answer(&forward, 30)
            .ids(),
        truth
    );
    // Standardization maps the constant dims to zero without NaNs.
    let z = rknn::data::paperlike::standardize(&ds);
    assert!(z.iter().all(|(_, p)| p.iter().all(|x| x.is_finite())));
}

#[test]
fn dynamic_churn_keeps_every_index_consistent() {
    let ds = rknn::data::uniform_cube(100, 3, 502).into_shared();
    let mut cover = CoverTree::build(ds.clone(), Euclidean);
    let mut scan = LinearScan::build(ds.clone(), Euclidean);
    let mut rtree = RTree::build(ds.clone(), Euclidean);
    // Interleave inserts and removes identically.
    for i in 0..40usize {
        let p = vec![i as f64 / 10.0, 0.5, 0.5];
        let a = cover.insert(&p).unwrap();
        let b = scan.insert(&p).unwrap();
        let c = DynamicIndex::insert(&mut rtree, &p).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        if i % 3 == 0 {
            assert!(cover.remove(i));
            assert!(scan.remove(i));
            assert!(DynamicIndex::remove(&mut rtree, i));
        }
    }
    assert_eq!(cover.num_points(), scan.num_points());
    assert_eq!(cover.num_points(), rtree.num_points());
    // Queries agree across all three after churn.
    let q = vec![0.5, 0.5, 0.5];
    let mut st = SearchStats::new();
    let a: Vec<_> = cover
        .knn(&q, 10, None, &mut st)
        .iter()
        .map(|n| n.id)
        .collect();
    let b: Vec<_> = scan
        .knn(&q, 10, None, &mut st)
        .iter()
        .map(|n| n.id)
        .collect();
    let c: Vec<_> = rtree
        .knn(&q, 10, None, &mut st)
        .iter()
        .map(|n| n.id)
        .collect();
    assert_eq!(a, b);
    assert_eq!(b, c);
}

#[test]
fn adaptive_rdt_on_degenerate_data() {
    // All-duplicates: the online Hill estimate never sees positive
    // distances; the search must fall through to exhaustion + verification
    // without panicking.
    let ds = Dataset::from_rows(&vec![vec![1.0, 1.0]; 25])
        .unwrap()
        .into_shared();
    let forward = LinearScan::build(ds, Euclidean);
    let ans = RdtAlgorithm::adaptive(3, 2.0, 1.0).answer(&forward, 0);
    assert_eq!(
        ans.result.len(),
        24,
        "co-located points are mutual reverse neighbors"
    );
}

#[test]
fn queries_far_outside_the_data_envelope() {
    let ds = rknn::data::uniform_cube(200, 2, 503).into_shared();
    let forward = CoverTree::build(ds.clone(), Euclidean);
    let bf = BruteForce::new(ds, Euclidean);
    let mut st = SearchStats::new();
    let q = vec![1000.0, -1000.0];
    let truth: Vec<_> = bf
        .rknn_external(&q, 5, &mut st)
        .iter()
        .map(|n| n.id)
        .collect();
    let got = RdtAlgorithm::new(RdtParams::new(5, 30.0))
        .answer_at(&forward, &q)
        .ids();
    assert_eq!(
        got, truth,
        "external far query must still be exact at high t"
    );
}
