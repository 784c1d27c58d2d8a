//! End-to-end checks of the paper's qualitative claims, at test scale.
//! The full-size counterparts live in the `rknn-bench` harness binaries;
//! these assertions keep the claims from silently regressing.

use rknn::baselines::{MRkNNCoP, RdnnTree, Sft};
use rknn::prelude::*;
use rknn::rdt::RdtParams;
use std::collections::HashSet;
use std::sync::Arc;

fn truth_sets(
    ds: &Arc<rknn::core::Dataset>,
    queries: &[PointId],
    k: usize,
) -> Vec<HashSet<PointId>> {
    let bf = BruteForce::new(ds.clone(), Euclidean);
    let mut st = SearchStats::new();
    queries
        .iter()
        .map(|&q| bf.rknn(q, k, &mut st).iter().map(|n| n.id).collect())
        .collect()
}

fn mean_recall(answers: impl Iterator<Item = Vec<PointId>>, truths: &[HashSet<PointId>]) -> f64 {
    let mut hits = 0usize;
    let mut total = 0usize;
    for (ans, truth) in answers.zip(truths) {
        hits += ans.iter().filter(|id| truth.contains(id)).count();
        total += truth.len();
    }
    if total == 0 {
        1.0
    } else {
        hits as f64 / total as f64
    }
}

#[test]
fn recall_grows_with_t_and_reaches_one() {
    // §8.1: "mean recall rates achieved by RDT+, RDT and SFT grow
    // monotonically with the choices of the respective parameters".
    let ds = rknn::data::sequoia_like(1500, 401).into_shared();
    let idx = CoverTree::build(ds.clone(), Euclidean);
    let queries = rknn::data::sample_queries(ds.len(), 15, 1);
    let k = 10;
    let truths = truth_sets(&ds, &queries, k);
    let mut last = 0.0;
    for t in [1.0, 2.0, 4.0, 8.0, 16.0] {
        let rdt = RdtAlgorithm::plus(RdtParams::new(k, t));
        let r = mean_recall(queries.iter().map(|&q| rdt.answer(&idx, q).ids()), &truths);
        assert!(r >= last - 0.05, "recall regressed at t={t}: {r} < {last}");
        last = last.max(r);
    }
    assert!(last >= 0.99, "recall saturates near 1, got {last}");
}

#[test]
fn rdt_needs_fewer_candidates_than_sft_at_matched_recall() {
    // §9: at an equal number of processed candidates the methods answer
    // identically, but RDT adapts its candidate budget to the local
    // distance distribution. Verify the practical consequence: at matched
    // recall ≥ 0.95, RDT+'s candidate count is competitive with SFT's.
    let ds = rknn::data::aloi_like(1200, 402).into_shared();
    let idx = CoverTree::build(ds.clone(), Euclidean);
    let queries = rknn::data::sample_queries(ds.len(), 10, 2);
    let k = 10;
    let truths = truth_sets(&ds, &queries, k);

    let mut rdt_candidates = None;
    for t in [2.0, 3.0, 4.0, 6.0, 8.0, 12.0] {
        let rdt = RdtAlgorithm::plus(RdtParams::new(k, t));
        let mut total_retrieved = 0usize;
        let answers: Vec<_> = queries
            .iter()
            .map(|&q| {
                let a = rdt.answer(&idx, q);
                total_retrieved += a.stats.retrieved;
                a.ids()
            })
            .collect();
        if mean_recall(answers.into_iter(), &truths) >= 0.95 {
            rdt_candidates = Some(total_retrieved);
            break;
        }
    }
    let mut sft_candidates = None;
    let mut st = SearchStats::new();
    for alpha in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
        let sft = Sft::new(k, alpha);
        let answers: Vec<_> = queries
            .iter()
            .map(|&q| {
                sft.query(&idx, q, &mut st)
                    .iter()
                    .map(|n| n.id)
                    .collect::<Vec<_>>()
            })
            .collect();
        if mean_recall(answers.into_iter(), &truths) >= 0.95 {
            sft_candidates = Some(sft.candidate_budget() * queries.len());
            break;
        }
    }
    let (rdt_c, sft_c) = (
        rdt_candidates.expect("RDT+ reaches 0.95 recall"),
        sft_candidates.expect("SFT reaches 0.95 recall"),
    );
    assert!(
        rdt_c <= sft_c * 2,
        "RDT+ candidate budget should be competitive: {rdt_c} vs SFT {sft_c}"
    );
}

#[test]
fn exact_methods_pay_orders_of_magnitude_more_precompute() {
    // Figures 3–6's right-hand panels: heuristic setup (index build) is
    // orders of magnitude cheaper than RdNN/MRkNNCoP precomputation.
    let ds = rknn::data::fct_like(2000, 403).into_shared();
    let start = std::time::Instant::now();
    let forward = CoverTree::build(ds.clone(), Euclidean);
    let rdt_setup = start.elapsed();
    let rdnn = RdnnTree::build(ds.clone(), Euclidean, 10, &forward);
    let mrk = MRkNNCoP::build(ds.clone(), Euclidean, 10, &forward);
    assert!(
        rdnn.precompute_time() > rdt_setup * 2,
        "RdNN precompute {:?} should dwarf index build {:?}",
        rdnn.precompute_time(),
        rdt_setup
    );
    assert!(mrk.precompute_time() > rdt_setup * 2);
}

#[test]
fn lazy_rejection_dominates_at_large_t() {
    // Figure 7: "for increasingly large numbers of candidates, the
    // majority of points are rejected by this mechanism".
    let ds = rknn::data::sequoia_like(2000, 404).into_shared();
    let idx = CoverTree::build(ds.clone(), Euclidean);
    let rdt = RdtAlgorithm::plus(RdtParams::new(10, 12.0));
    let queries = rknn::data::sample_queries(ds.len(), 10, 3);
    let mut reject = 0.0;
    let mut verify = 0.0;
    let mut accept = 0.0;
    for &q in &queries {
        let (v, a, r) = rdt.answer(&idx, q).stats.proportions();
        verify += v;
        accept += a;
        reject += r;
    }
    assert!(
        reject > verify && reject > accept,
        "rejection must dominate at t=12: verify={verify} accept={accept} reject={reject}"
    );
}

#[test]
fn rdt_plus_reduces_filter_cost_on_high_dim_data() {
    // §4.3: RDT+ exists to keep witness maintenance affordable on large
    // high-dimensional data.
    let ds = rknn::data::mnist_like(800, 405).into_shared();
    let idx = LinearScan::build(ds.clone(), Euclidean);
    let params = RdtParams::new(10, 8.0);
    let queries = rknn::data::sample_queries(ds.len(), 8, 4);
    let mut plain_cost = 0u64;
    let mut plus_cost = 0u64;
    for &q in &queries {
        plain_cost += RdtAlgorithm::new(params)
            .answer(&idx, q)
            .stats
            .witness_pairs;
        plus_cost += RdtAlgorithm::plus(params)
            .answer(&idx, q)
            .stats
            .witness_pairs;
    }
    assert!(
        plus_cost <= plain_cost,
        "RDT+ witness cost {plus_cost} must not exceed RDT {plain_cost}"
    );
}
