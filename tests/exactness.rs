//! Cross-crate exactness tests: every exact method agrees with brute force
//! and with each other, and RDT becomes exact above the Theorem 1
//! threshold.

use rknn::baselines::{MRkNNCoP, NaiveRknn, RdnnTree, Sft, Tpl};
use rknn::prelude::*;
use rknn::rdt::{theory, RdtParams};
use std::collections::HashSet;
use std::sync::Arc;

fn dataset(n: usize, seed: u64) -> Arc<rknn::core::Dataset> {
    rknn::data::gaussian_blobs(n, 3, 5, 0.6, seed).into_shared()
}

fn truth_sets(bf: &BruteForce<Euclidean>, queries: &[PointId], k: usize) -> Vec<HashSet<PointId>> {
    let mut st = SearchStats::new();
    queries
        .iter()
        .map(|&q| bf.rknn(q, k, &mut st).iter().map(|n| n.id).collect())
        .collect()
}

#[test]
fn all_exact_methods_agree_with_brute_force() {
    let ds = dataset(400, 201);
    let forward = CoverTree::build(ds.clone(), Euclidean);
    let bf = BruteForce::new(ds.clone(), Euclidean);
    let queries = rknn::data::sample_queries(ds.len(), 12, 7);
    for k in [1usize, 5, 15] {
        let truths = truth_sets(&bf, &queries, k);
        let naive = NaiveRknn::new(k);
        let mrk = MRkNNCoP::build(ds.clone(), Euclidean, 20, &forward);
        let rdnn = RdnnTree::build(ds.clone(), Euclidean, k, &forward);
        let tpl = Tpl::build(ds.clone(), Euclidean);
        for (i, &q) in queries.iter().enumerate() {
            let mut st = SearchStats::new();
            let truth = &truths[i];
            let a: HashSet<_> = naive
                .query(&forward, q, &mut st)
                .iter()
                .map(|n| n.id)
                .collect();
            let b: HashSet<_> = mrk
                .query(q, k, &forward, &mut st)
                .iter()
                .map(|n| n.id)
                .collect();
            let c: HashSet<_> = rdnn.query(q, &mut st).iter().map(|n| n.id).collect();
            let d: HashSet<_> = tpl.query(q, k, &mut st).iter().map(|n| n.id).collect();
            assert_eq!(&a, truth, "naive k={k} q={q}");
            assert_eq!(&b, truth, "mrknncop k={k} q={q}");
            assert_eq!(&c, truth, "rdnn k={k} q={q}");
            assert_eq!(&d, truth, "tpl k={k} q={q}");
        }
    }
}

#[test]
fn theorem1_exactness_above_maxged() {
    // With t above MaxGED(S, k) (+0.5 safety margin for the rank-convention
    // offset documented in DESIGN.md §2), RDT returns exact answers.
    let ds = dataset(250, 202);
    let forward = CoverTree::build(ds.clone(), Euclidean);
    let bf = BruteForce::new(ds.clone(), Euclidean);
    let k = 4;
    let t = theory::exactness_threshold(&ds, &Euclidean, k) + 0.5;
    let rdt = RdtAlgorithm::new(RdtParams::new(k, t));
    let queries = rknn::data::sample_queries(ds.len(), 20, 8);
    let truths = truth_sets(&bf, &queries, k);
    for (i, &q) in queries.iter().enumerate() {
        let got: HashSet<_> = rdt.answer(&forward, q).ids().into_iter().collect();
        assert_eq!(&got, &truths[i], "q={q}, t={t}");
    }
}

#[test]
fn sft_exact_when_candidate_budget_covers_dataset() {
    let ds = dataset(300, 203);
    let forward = CoverTree::build(ds.clone(), Euclidean);
    let bf = BruteForce::new(ds.clone(), Euclidean);
    let k = 6;
    let alpha = ds.len() as f64 / k as f64; // alpha·k ≥ n.
    let sft = Sft::new(k, alpha);
    let queries = rknn::data::sample_queries(ds.len(), 10, 9);
    let truths = truth_sets(&bf, &queries, k);
    let mut st = SearchStats::new();
    for (i, &q) in queries.iter().enumerate() {
        let got: HashSet<_> = sft
            .query(&forward, q, &mut st)
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(&got, &truths[i], "q={q}");
    }
}

#[test]
fn exactness_holds_across_metrics() {
    // The analysis holds for any metric; check naive/RDT agreement in L1.
    let ds = dataset(250, 204);
    let forward = CoverTree::build(ds.clone(), rknn::core::Manhattan);
    let rdt = RdtAlgorithm::new(RdtParams::new(5, 40.0));
    let naive = NaiveRknn::new(5);
    let mut st = SearchStats::new();
    for q in [0usize, 100, 249] {
        let a: Vec<_> = rdt.answer(&forward, q).ids();
        let b: Vec<_> = naive
            .query(&forward, q, &mut st)
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(a, b, "q={q}");
    }
}
