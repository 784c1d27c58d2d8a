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

#[test]
fn bounded_drains_save_only_pushes() {
    // A bounded cursor prunes only entries it would queue after its
    // `limit`-th emission: drained to that length it evaluates the same
    // distances and visits the same nodes as the unbounded cursor, and
    // queues no more entries. `usize::MAX` (no bound at all) must neither
    // panic nor reserve `2·limit` selection slots.
    let grid: Vec<Vec<f64>> = (0..400)
        .map(|i| (0..3).map(|j| ((i * 7 + j * 3) % 9) as f64 * 0.5).collect())
        .collect();
    let sets = [
        ("grid", rknn::core::Dataset::from_rows(&grid).unwrap()),
        ("blobs", rknn::data::gaussian_blobs(1500, 8, 6, 0.3, 305)),
        ("sequoia", rknn::data::sequoia_like(1500, 306)),
    ];
    let mut scratch = rknn::core::CursorScratch::new();
    let mut pruned = 0u64;
    for (set, ds) in sets {
        let ds = ds.into_shared();
        let trees: Vec<Box<dyn KnnIndex<Euclidean>>> = vec![
            Box::new(CoverTree::build(ds.clone(), Euclidean)),
            Box::new(VpTree::build(ds.clone(), Euclidean)),
            Box::new(BallTree::build(ds.clone(), Euclidean)),
            Box::new(MTree::build(ds.clone(), Euclidean)),
            Box::new(RTree::build(ds.clone(), Euclidean)),
        ];
        for tree in &trees {
            for q in [0usize, ds.len() / 2, ds.len() - 1] {
                let at = ds.point(q).to_vec();
                for limit in [1usize, 10, 64, 300, usize::MAX] {
                    let len = limit.min(ds.len() - 1);
                    let mut drain = |bounded: bool| {
                        let mut cur = if bounded {
                            tree.cursor_bounded(&at, Some(q), limit, &mut scratch)
                        } else {
                            tree.cursor_with(&at, Some(q), &mut scratch)
                        };
                        let ids: Vec<(usize, u64)> = (0..len)
                            .map(|_| cur.next().map(|n| (n.id, n.dist.to_bits())).unwrap())
                            .collect();
                        (ids, cur.stats())
                    };
                    let (want, full) = drain(false);
                    let (got, cut) = drain(true);
                    let what = format!("{set} {} q={q} limit={limit}", tree.name());
                    assert_eq!(got, want, "{what}: stream");
                    assert_eq!(cut.dist_computations, full.dist_computations, "{what}");
                    assert_eq!(cut.nodes_visited, full.nodes_visited, "{what}");
                    assert!(cut.heap_pushes <= full.heap_pushes, "{what}");
                    pruned += full.heap_pushes - cut.heap_pushes;
                }
            }
        }
    }
    assert!(pruned > 0, "no bound discarded a single push");
}
