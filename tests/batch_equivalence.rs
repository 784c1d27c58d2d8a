//! Equivalence of the optimized execution paths with the sequential
//! scalar reference, across dimensions, metrics, and ranks.
//!
//! Two properties, per the batch-engine PR's acceptance:
//!
//! 1. the early-abandoning fast path (threshold-pruned metrics through the
//!    bounded cursor, witness pass, and verification) produces
//!    byte-identical result sets, terminations, and work counters to the
//!    same engine run with [`FullPrecision`]-wrapped metrics (every
//!    `dist_lt` falls back to the full scalar distance);
//! 2. the parallel batch driver produces byte-identical result sets,
//!    terminations, and — with `d_k` reuse disabled — work counters to the
//!    sequential per-query loop, at every worker count.
//!
//! Coordinates are drawn from a coarse half-integer grid so exact distance
//! ties (the adversarial case for any strict-inequality threshold test)
//! occur constantly.

use proptest::prelude::*;
use rknn_core::{Chebyshev, Dataset, Euclidean, FullPrecision, Manhattan, Metric, Minkowski};
use rknn_index::LinearScan;
use rknn_rdt::{run_algorithm_all_points, RdtAlgorithm, RdtParams, RdtVariant, RknnAlgorithm};
use std::sync::Arc;

/// Builds a dataset on the half-integer grid `{0, 0.5, …, 4}` from raw
/// proptest levels, so duplicate points and tied distances are common.
fn grid_dataset(levels: &[u8], dim: usize) -> Arc<Dataset> {
    let n = levels.len() / dim;
    let coords: Vec<f64> = levels[..n * dim]
        .iter()
        .map(|&v| f64::from(v % 9) * 0.5)
        .collect();
    Dataset::from_flat(dim, coords)
        .expect("grid coordinates are finite")
        .into_shared()
}

/// Runs every all-points query through the fast path and the
/// full-precision scalar path and demands byte-identical answers.
fn assert_fast_path_equivalence<M: Metric + Clone>(
    ds: Arc<Dataset>,
    metric: M,
    k: usize,
    t: f64,
    variant: RdtVariant,
) {
    let fast = LinearScan::build(ds.clone(), metric.clone());
    let scalar = LinearScan::build(ds.clone(), FullPrecision(metric));
    let rdt = RdtAlgorithm::new(RdtParams::new(k, t)).with_variant(variant);
    for q in 0..ds.len() {
        let a = rdt.answer(&fast, q);
        let b = rdt.answer(&scalar, q);
        prop_assert_eq!(a.ids(), b.ids(), "result sets diverged at q={}", q);
        for (x, y) in a.result.iter().zip(&b.result) {
            prop_assert_eq!(
                x.dist.to_bits(),
                y.dist.to_bits(),
                "distances diverged at q={}",
                q
            );
        }
        prop_assert_eq!(a.stats, b.stats, "stats diverged at q={}", q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn fast_path_matches_scalar_path(
        levels in proptest::collection::vec(0u8..9, 24..96),
        dim in 1usize..5,
        k in 1usize..4,
        t_idx in 0usize..3,
        plus in 0usize..2,
    ) {
        let t = [1.5, 3.0, 8.0][t_idx];
        let variant = if plus == 1 { RdtVariant::Plus } else { RdtVariant::Plain };
        // 24+ levels at dim <= 4 always yield at least 6 points.
        let ds = grid_dataset(&levels, dim);
        assert_fast_path_equivalence(ds.clone(), Euclidean, k, t, variant);
        assert_fast_path_equivalence(ds.clone(), Manhattan, k, t, variant);
        assert_fast_path_equivalence(ds.clone(), Chebyshev, k, t, variant);
        assert_fast_path_equivalence(ds, Minkowski::new(2.5), k, t, variant);
    }

    #[test]
    fn batch_driver_matches_sequential_loop(
        levels in proptest::collection::vec(0u8..9, 30..90),
        dim in 1usize..4,
        k in 1usize..4,
        threads in 1usize..5,
        plus in 0usize..2,
    ) {
        let ds = grid_dataset(&levels, dim);
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let params = RdtParams::new(k, 4.0);
        let variant = if plus == 1 { RdtVariant::Plus } else { RdtVariant::Plain };

        // Work counters included: dk reuse off.
        let mut algo = RdtAlgorithm::new(params).with_variant(variant).with_dk_reuse(false);
        algo.prepare(&idx);
        let out = run_algorithm_all_points(&algo, &idx, threads);
        prop_assert_eq!(out.answers.len(), ds.len());
        for (q, ans) in out.answers.iter().enumerate() {
            let want = algo.answer(&idx, q);
            prop_assert_eq!(ans.ids(), want.ids(), "threads={} q={}", threads, q);
            prop_assert_eq!(ans.stats, want.stats, "threads={} q={}", threads, q);
        }

        // With dk reuse: identical results and terminations, reduced or
        // equal index work.
        let mut cached_algo = RdtAlgorithm::new(params).with_variant(variant);
        cached_algo.prepare(&idx);
        let cached = run_algorithm_all_points(&cached_algo, &idx, threads);
        for (q, (a, b)) in cached.answers.iter().zip(&out.answers).enumerate() {
            prop_assert_eq!(a.ids(), b.ids(), "cached threads={} q={}", threads, q);
            prop_assert_eq!(
                a.stats.termination, b.stats.termination,
                "cached threads={} q={}", threads, q
            );
        }
        prop_assert!(
            cached.stats.search.dist_computations <= out.stats.search.dist_computations
        );
    }
}
