//! Substrate-independence: RDT/RDT+ answers are a function of the point
//! set, not of the forward index serving the incremental stream.

use rknn::prelude::*;
use rknn::rdt::RdtParams;
use std::sync::Arc;

fn dataset(seed: u64) -> Arc<rknn::core::Dataset> {
    rknn::data::fct_like(600, seed).into_shared()
}

#[test]
fn rdt_results_identical_across_six_substrates() {
    let ds = dataset(301);
    let cover = CoverTree::build(ds.clone(), Euclidean);
    let linear = LinearScan::build(ds.clone(), Euclidean);
    let vp = VpTree::build(ds.clone(), Euclidean);
    let rtree = RTree::build(ds.clone(), Euclidean);
    let mtree = MTree::build(ds.clone(), Euclidean);
    let ball = BallTree::build(ds.clone(), Euclidean);
    let rdt = RdtAlgorithm::new(RdtParams::new(7, 9.0));
    for q in [0usize, 250, 599] {
        let reference = rdt.answer(&linear, q).ids();
        assert_eq!(rdt.answer(&cover, q).ids(), reference, "cover, q={q}");
        assert_eq!(rdt.answer(&vp, q).ids(), reference, "vp, q={q}");
        assert_eq!(rdt.answer(&rtree, q).ids(), reference, "rtree, q={q}");
        assert_eq!(rdt.answer(&mtree, q).ids(), reference, "mtree, q={q}");
        assert_eq!(rdt.answer(&ball, q).ids(), reference, "ball, q={q}");
    }
}

#[test]
fn rdt_plus_results_identical_across_substrates() {
    let ds = dataset(302);
    let cover = CoverTree::build(ds.clone(), Euclidean);
    let linear = LinearScan::build(ds.clone(), Euclidean);
    let plus = RdtAlgorithm::plus(RdtParams::new(10, 5.0));
    for q in [3usize, 300] {
        assert_eq!(
            plus.answer(&cover, q).ids(),
            plus.answer(&linear, q).ids(),
            "q={q}"
        );
    }
}

#[test]
fn cursor_streams_agree_on_distances() {
    // All six substrates must produce the same nondecreasing distance
    // multiset from the same query.
    let ds = dataset(303);
    let q = ds.point(42).to_vec();
    let cover = CoverTree::build(ds.clone(), Euclidean);
    let linear = LinearScan::build(ds.clone(), Euclidean);
    let vp = VpTree::build(ds.clone(), Euclidean);
    let rtree = RTree::build(ds.clone(), Euclidean);
    let mtree = MTree::build(ds.clone(), Euclidean);
    let ball = BallTree::build(ds.clone(), Euclidean);

    let drain = |cur: &mut dyn rknn::index::NnCursor| -> Vec<f64> {
        std::iter::from_fn(|| cur.next()).map(|n| n.dist).collect()
    };
    let reference = drain(&mut *linear.cursor(&q, Some(42)));
    assert_eq!(reference.len(), ds.len() - 1);
    for (name, dists) in [
        ("cover", drain(&mut *cover.cursor(&q, Some(42)))),
        ("vp", drain(&mut *vp.cursor(&q, Some(42)))),
        ("rtree", drain(&mut *rtree.cursor(&q, Some(42)))),
        ("mtree", drain(&mut *mtree.cursor(&q, Some(42)))),
        ("ball", drain(&mut *ball.cursor(&q, Some(42)))),
    ] {
        assert_eq!(dists.len(), reference.len(), "{name}: completeness");
        for (a, b) in dists.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-9, "{name}: distance stream mismatch");
        }
        assert!(
            dists.windows(2).all(|w| w[0] <= w[1] + 1e-12),
            "{name}: ordering"
        );
    }
}

#[test]
fn stats_reflect_substrate_efficiency() {
    // On low-intrinsic-dimensional data the cover tree must expand fewer
    // distances than the scan for small-radius work.
    let ds = rknn::data::sequoia_like(4000, 304).into_shared();
    let cover = CoverTree::build(ds.clone(), Euclidean);
    let linear = LinearScan::build(ds.clone(), Euclidean);
    let rdt = RdtAlgorithm::new(RdtParams::new(10, 2.0));
    let a = rdt.answer(&cover, 17);
    let b = rdt.answer(&linear, 17);
    assert_eq!(a.ids(), b.ids());
    assert!(
        a.stats.search.dist_computations < b.stats.search.dist_computations,
        "cover tree {} vs scan {}",
        a.stats.search.dist_computations,
        b.stats.search.dist_computations
    );
}
