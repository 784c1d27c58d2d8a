//! Figure 7: efficacy of lazy acceptance and lazy rejection.
//!
//! "Comparison of the proportion of lazy accepts, lazy rejects and
//! explicitly verified candidates performed by RDT+ as a function of the
//! scale parameter t, for a fixed reverse neighbor rank of k = 10. The
//! dashed line represents the achieved levels of recall."

use crate::forward::Forward;
use crate::metrics::QualityAccum;
use crate::truth::{DkTable, GroundTruth};
use rknn_core::{Dataset, Euclidean};
use rknn_data::sample_queries;
use rknn_rdt::{run_algorithm_batch, RdtAlgorithm, RdtParams, RknnAlgorithm};
use std::sync::Arc;

/// Configuration for the lazy-mechanism profile.
#[derive(Debug, Clone)]
pub struct LazyConfig {
    /// Dataset label.
    pub dataset: String,
    /// Fixed reverse rank (paper: 10).
    pub k: usize,
    /// Scale-parameter grid (paper: 2–14).
    pub t_grid: Vec<f64>,
    /// Number of queries.
    pub queries: usize,
    /// Substrate selection.
    pub use_cover_tree: bool,
    /// Workload seed.
    pub seed: u64,
    /// Ground-truth worker threads.
    pub threads: usize,
}

impl LazyConfig {
    /// Paper-like defaults.
    pub fn new(dataset: impl Into<String>) -> Self {
        LazyConfig {
            dataset: dataset.into(),
            k: 10,
            t_grid: vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0],
            queries: 40,
            use_cover_tree: true,
            seed: 0x5eed,
            threads: 8,
        }
    }
}

/// One Figure 7 point: candidate-treatment proportions and recall at one t.
#[derive(Debug, Clone)]
pub struct LazyRow {
    /// Dataset label.
    pub dataset: String,
    /// Scale parameter.
    pub t: f64,
    /// Fraction of retrieved candidates verified explicitly.
    pub verify: f64,
    /// Fraction lazily accepted (Assertion 2).
    pub accept: f64,
    /// Fraction lazily rejected (Assertion 1 + RDT+ exclusions).
    pub reject: f64,
    /// Mean recall at this t.
    pub recall: f64,
    /// Mean retrieved candidates per query.
    pub mean_retrieved: f64,
}

/// Profiles RDT+ candidate treatment across the t grid.
pub fn run_lazy_profile(ds: Arc<Dataset>, cfg: &LazyConfig) -> Vec<LazyRow> {
    let (forward, _) = Forward::build(ds.clone(), Euclidean, cfg.use_cover_tree);
    let queries = sample_queries(ds.len(), cfg.queries, cfg.seed);
    let table = DkTable::compute(&forward, &[cfg.k], cfg.threads);
    let truth = GroundTruth::compute(&forward, &table, &queries, cfg.k, cfg.threads);
    let mut rows = Vec::new();
    for &t in &cfg.t_grid {
        // The whole query batch runs through the parallel driver; the
        // per-query proportions (a per-answer quantity) are then averaged
        // in query order, identical to a sequential loop.
        let mut algo = RdtAlgorithm::plus(RdtParams::new(cfg.k, t));
        algo.prepare(&forward);
        let out = run_algorithm_batch(&algo, &forward, &queries, cfg.threads);
        let mut verify = 0.0;
        let mut accept = 0.0;
        let mut reject = 0.0;
        let mut quality = QualityAccum::new();
        for (i, ans) in out.answers.iter().enumerate() {
            let (v, a, r) = ans.stats.proportions();
            verify += v;
            accept += a;
            reject += r;
            quality.add(&ans.ids(), truth.answer(i));
        }
        let retrieved: usize = out.answers.iter().map(|a| a.stats.retrieved).sum();
        let nq = queries.len().max(1) as f64;
        rows.push(LazyRow {
            dataset: cfg.dataset.clone(),
            t,
            verify: verify / nq,
            accept: accept / nq,
            reject: reject / nq,
            recall: quality.recall(),
            mean_retrieved: retrieved as f64 / nq,
        });
    }
    rows
}

/// Renders Figure 7 rows.
pub fn rows_to_table(rows: &[LazyRow]) -> crate::report::Table {
    use crate::report::f3;
    let mut t = crate::report::Table::new(
        "Figure 7: lazy accept / lazy reject / verify proportions (RDT+, k=10)",
        &[
            "dataset",
            "t",
            "verify",
            "accept",
            "reject",
            "recall",
            "retrieved",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.dataset.clone(),
            format!("{:.0}", r.t),
            f3(r.verify),
            f3(r.accept),
            f3(r.reject),
            f3(r.recall),
            format!("{:.0}", r.mean_retrieved),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportions_partition_and_recall_grows() {
        let ds = rknn_data::sequoia_like(900, 41).into_shared();
        let cfg = LazyConfig {
            k: 5,
            t_grid: vec![2.0, 6.0, 12.0],
            queries: 10,
            threads: 2,
            ..LazyConfig::new("seq")
        };
        let rows = run_lazy_profile(ds, &cfg);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                (r.verify + r.accept + r.reject - 1.0).abs() < 1e-9,
                "proportions must partition: {r:?}"
            );
        }
        assert!(rows.last().unwrap().recall >= rows[0].recall - 0.05);
        // More candidates are retrieved at larger t.
        assert!(rows.last().unwrap().mean_retrieved >= rows[0].mean_retrieved);
        assert!(rows_to_table(&rows).render().contains("seq"));
    }
}
