//! Workspace wiring smoke test.
//!
//! Asserts that every facade re-export (`rknn::prelude`, `rknn::core`,
//! `rknn::index`, `rknn::lid`, `rknn::rdt`, `rknn::baselines`,
//! `rknn::data`, `rknn::eval`) stays reachable, so a future manifest edit
//! cannot silently drop a crate from the facade: if any edge breaks, this
//! file stops compiling.

use rknn::prelude::*;

/// Touch one item from every re-exported crate module, through the
/// `rknn::<module>` paths (not the underlying `rknn_*` crate names).
#[test]
fn every_facade_module_is_wired() {
    // rknn::core
    let ds: rknn::core::Dataset =
        rknn::core::Dataset::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]])
            .expect("valid rows");
    let ds = ds.into_shared();
    let _: &dyn rknn::core::Metric = &rknn::core::Euclidean;

    // rknn::index
    let scan = rknn::index::LinearScan::build(ds.clone(), Euclidean);
    let cover = rknn::index::CoverTree::build(ds.clone(), Euclidean);

    // rknn::lid
    let _: rknn::lid::HillEstimator = rknn::lid::HillEstimator::default();

    // rknn::rdt
    let rdt = rknn::rdt::RdtAlgorithm::new(rknn::rdt::RdtParams::new(2, 4.0));
    let a = rdt.answer(&scan, 0);
    let b = rdt.answer(&cover, 0);
    assert_eq!(a.ids(), b.ids(), "substrates agree through the facade");

    // rknn::baselines
    let mut st = SearchStats::new();
    let naive = rknn::baselines::NaiveRknn::new(2);
    let _ = naive.query(&scan, 0, &mut st);

    // rknn::data
    let blobs = rknn::data::gaussian_blobs(64, 2, 3, 0.1, 7);
    assert_eq!(blobs.len(), 64);

    // rknn::eval
    let table = rknn::eval::DkTable::compute(&scan, &[1, 2], 2);
    assert!(table.dk_of(0, 1).is_finite());
}

/// The prelude itself: every name it promises resolves and is usable
/// without naming the member crates.
#[test]
fn prelude_names_resolve() {
    let ds = Dataset::from_rows(&[vec![0.0], vec![1.0], vec![3.0]])
        .expect("valid rows")
        .into_shared();
    let bf = BruteForce::new(ds.clone(), Euclidean);
    let mut st = SearchStats::new();
    let rnn = bf.rknn(0, 1, &mut st);
    assert!(rnn.iter().all(|n: &Neighbor| n.id < ds.len()));

    // One name per prelude line, proving the use-glob carries them.
    let _ = (Manhattan.dist(&[0.0], &[2.0]), PointId::default());
    let _ = NaiveRknn::new(1);
    let _ = RdtAlgorithm::new(RdtParams::new(1, 2.0));
    let _ = RdtAlgorithm::plus(RdtParams::new(1, 2.0));
    let _: VpTree<Euclidean> = VpTree::build(ds.clone(), Euclidean);
    let _: BallTree<Euclidean> = BallTree::build(ds.clone(), Euclidean);
    let _: MTree<Euclidean> = MTree::build(ds.clone(), Euclidean);
    let _: RTree<Euclidean> = RTree::build(ds.clone(), Euclidean);
    let _ = GedEstimator::new(2);
}
