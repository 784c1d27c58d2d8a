//! Ablation: what the witness machinery and the RDT+ exclusion actually
//! buy (§4.1/§4.3/§8.2 — the design choices `DESIGN.md` calls out).
//!
//! Runs the same queries through three engine variants — plain RDT, RDT+,
//! and RDT with witness maintenance disabled (every surviving candidate is
//! explicitly verified) — and reports verification counts, witness costs,
//! query times and result quality side by side.

use crate::forward::Forward;
use crate::metrics::QualityAccum;
use crate::truth::{DkTable, GroundTruth};
use rknn_core::{Dataset, Euclidean};
use rknn_data::sample_queries;
use rknn_rdt::{run_algorithm_batch, RdtAlgorithm, RdtParams, RdtVariant, RknnAlgorithm};
use std::sync::Arc;

/// Configuration of the ablation run.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Dataset label.
    pub dataset: String,
    /// Reverse rank.
    pub k: usize,
    /// Scale parameters to compare at.
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

impl AblationConfig {
    /// Defaults mirroring the Figure 7 setup.
    pub fn new(dataset: impl Into<String>) -> Self {
        AblationConfig {
            dataset: dataset.into(),
            k: 10,
            t_grid: vec![2.0, 4.0, 8.0],
            queries: 30,
            use_cover_tree: true,
            seed: 0x5eed,
            threads: 8,
        }
    }
}

/// One measured variant at one t.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Dataset label.
    pub dataset: String,
    /// Scale parameter (NaN for the adaptive schedule).
    pub t: f64,
    /// Variant label.
    pub variant: String,
    /// Micro-averaged recall.
    pub recall: f64,
    /// Micro-averaged precision.
    pub precision: f64,
    /// Mean query milliseconds.
    pub query_ms: f64,
    /// Mean explicit verifications per query.
    pub verified: f64,
    /// Mean witness-maintenance pair updates per query (the paper's
    /// filter-phase cost model; comparable across variants, unlike raw
    /// distance evaluations — see [`rknn_rdt::RdtQueryStats`]).
    pub witness_pairs: f64,
}

/// Runs the ablation.
pub fn run_ablation(ds: Arc<Dataset>, cfg: &AblationConfig) -> Vec<AblationRow> {
    let (forward, _) = Forward::build(ds.clone(), Euclidean, cfg.use_cover_tree);
    let queries = sample_queries(ds.len(), cfg.queries, cfg.seed);
    let table = DkTable::compute(&forward, &[cfg.k], cfg.threads);
    let truth = GroundTruth::compute(&forward, &table, &queries, cfg.k, cfg.threads);
    let mut rows = Vec::new();
    let mut contenders: Vec<(f64, &str, RdtAlgorithm)> = Vec::new();
    for &t in &cfg.t_grid {
        let params = RdtParams::new(cfg.k, t);
        contenders.push((t, "RDT", RdtAlgorithm::new(params)));
        contenders.push((t, "RDT+", RdtAlgorithm::plus(params)));
        let no_witness = RdtAlgorithm::new(params).with_variant(RdtVariant::NoWitness);
        contenders.push((t, "no-witness", no_witness));
    }
    // The adaptive-t schedule (§9 future work) as a fourth contender.
    let adaptive = RdtAlgorithm::adaptive(cfg.k, 2.0, 1.0);
    contenders.push((f64::NAN, "RDT+(adaptive)", adaptive));
    let nq = queries.len().max(1) as f64;
    for (t, label, algo) in contenders {
        // Sequential batch execution: scratch reuse across the query list
        // without changing what a "mean query time" means. The d_k cache
        // stays off — this ablation's whole point is the per-query
        // verification cost gap between variants, which cross-query
        // threshold reuse would collapse.
        let mut algo = algo.with_dk_reuse(false);
        algo.prepare(&forward);
        let out = run_algorithm_batch(&algo, &forward, &queries, 1);
        let mut quality = QualityAccum::new();
        let (mut verified, mut witness_pairs) = (0usize, 0u64);
        for (i, ans) in out.answers.iter().enumerate() {
            quality.add(&ans.ids(), truth.answer(i));
            verified += ans.stats.verified;
            witness_pairs += ans.stats.witness_pairs;
        }
        rows.push(AblationRow {
            dataset: cfg.dataset.clone(),
            t,
            variant: label.to_string(),
            recall: quality.recall(),
            precision: quality.precision(),
            query_ms: out.elapsed.as_secs_f64() * 1e3 / nq,
            verified: verified as f64 / nq,
            witness_pairs: witness_pairs as f64 / nq,
        });
    }
    rows
}

/// Renders ablation rows.
pub fn rows_to_table(rows: &[AblationRow]) -> crate::report::Table {
    use crate::report::{f3, ms};
    let mut t = crate::report::Table::new(
        "Ablation: witness machinery, RDT+ exclusion, adaptive t (k=10)",
        &[
            "dataset",
            "t",
            "variant",
            "recall",
            "precision",
            "query_ms",
            "verified/q",
            "witness_pairs/q",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.dataset.clone(),
            f3(r.t),
            r.variant.clone(),
            f3(r.recall),
            f3(r.precision),
            ms(r.query_ms),
            format!("{:.1}", r.verified),
            format!("{:.0}", r.witness_pairs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_witness_variant_verifies_most() {
        let ds = rknn_data::sequoia_like(800, 71).into_shared();
        let cfg = AblationConfig {
            k: 5,
            t_grid: vec![4.0],
            queries: 8,
            threads: 2,
            ..AblationConfig::new("seq")
        };
        let rows = run_ablation(ds, &cfg);
        // 3 fixed-variant rows + 1 adaptive row.
        assert_eq!(rows.len(), 4);
        let get = |v: &str| rows.iter().find(|r| r.variant == v).unwrap();
        let plain = get("RDT");
        let plus = get("RDT+");
        let nw = get("no-witness");
        let adaptive = get("RDT+(adaptive)");
        assert!(
            nw.verified > plain.verified,
            "witnesses must remove verifications"
        );
        assert_eq!(nw.witness_pairs, 0.0);
        assert!(plus.witness_pairs <= plain.witness_pairs);
        // All variants are high-quality at this t.
        for r in [plain, plus, nw] {
            assert!(r.recall > 0.9, "{}: recall {}", r.variant, r.recall);
        }
        assert!(
            adaptive.recall > 0.85,
            "adaptive recall {}",
            adaptive.recall
        );
        assert!(rows_to_table(&rows).render().contains("no-witness"));
    }
}
