//! Substrate sweep: the batch all-points RkNN workload on every forward
//! index.
//!
//! The paper demonstrates index-agnosticism by swapping the cover tree for
//! a sequential scan (§7.1); this experiment runs the same batch workload
//! over *all six* substrates of `rknn-index` through the shared traversal
//! core, verifying identical result sets and reporting where each
//! substrate's work goes (build time, batch time, metric evaluations, node
//! expansions). It is the experiment behind the per-substrate section of
//! `BENCH_rdt.json`.

use rknn_core::{Dataset, Euclidean};
use rknn_index::{BallTree, CoverTree, KnnIndex, LinearScan, MTree, RTree, VpTree};
use rknn_rdt::{
    run_algorithm_all_points, AlgorithmOutcome, RdtAlgorithm, RdtParams, RknnAlgorithm, RknnAnswer,
};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the substrate sweep.
#[derive(Debug, Clone)]
pub struct SubstrateSweepConfig {
    /// Dataset size.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Gaussian blob count of the generated dataset.
    pub clusters: usize,
    /// Blob standard deviation.
    pub sigma: f64,
    /// Reverse rank.
    pub k: usize,
    /// Scale parameter.
    pub t: f64,
    /// Batch worker threads (0 = one per CPU).
    pub threads: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for SubstrateSweepConfig {
    fn default() -> Self {
        SubstrateSweepConfig {
            n: 2000,
            dim: 16,
            clusters: 8,
            sigma: 0.3,
            k: 10,
            t: 4.0,
            threads: 4,
            seed: 0x5b57,
        }
    }
}

/// One substrate's measurements.
#[derive(Debug, Clone)]
pub struct SubstrateRow {
    /// Substrate name as reported by [`KnnIndex::name`].
    pub substrate: &'static str,
    /// Index construction time in milliseconds.
    pub build_ms: f64,
    /// Batch all-points RkNN time in milliseconds.
    pub batch_ms: f64,
    /// Total metric evaluations (index work + witness maintenance).
    pub total_dist_comps: u64,
    /// Tree nodes expanded across the batch.
    pub nodes_visited: u64,
    /// Heap insertions across the batch.
    pub heap_pushes: u64,
    /// Total reported reverse neighbors.
    pub result_members: usize,
    /// Whether every per-query result set matched the linear-scan run.
    pub matches_linear: bool,
}

/// Builds every substrate over the same dataset and runs the identical
/// batch all-points workload on each; the linear scan is the reference
/// every other substrate's answers are compared against.
pub fn run_substrate_sweep(cfg: &SubstrateSweepConfig) -> Vec<SubstrateRow> {
    let ds =
        rknn_data::gaussian_blobs(cfg.n, cfg.dim, cfg.clusters, cfg.sigma, cfg.seed).into_shared();
    let params = RdtParams::new(cfg.k, cfg.t);
    let threads = cfg.threads.max(1);

    let builds: Vec<(BoxedIndex, f64)> = substrate_builders()
        .into_iter()
        .map(|build| {
            let start = Instant::now();
            let index = build(&ds);
            (index, start.elapsed().as_secs_f64() * 1e3)
        })
        .collect();

    let mut reference: Option<AlgorithmOutcome<RknnAnswer>> = None;
    let mut rows = Vec::with_capacity(builds.len());
    for (index, build_ms) in &builds {
        // The timed batch includes preparing the shared d_k cache.
        let start = Instant::now();
        let mut algo = RdtAlgorithm::new(params);
        algo.prepare(&**index);
        let out = run_algorithm_all_points(&algo, &**index, threads);
        let batch_ms = start.elapsed().as_secs_f64() * 1e3;
        let matches_linear = match &reference {
            None => true, // the linear scan itself
            Some(r) => r
                .answers
                .iter()
                .zip(&out.answers)
                .all(|(a, b)| a.ids() == b.ids()),
        };
        rows.push(SubstrateRow {
            substrate: index.name(),
            build_ms: *build_ms,
            batch_ms,
            // Index work plus witness maintenance (`AlgorithmAnswer::work`).
            total_dist_comps: out.stats.search.dist_computations,
            nodes_visited: out.stats.search.nodes_visited,
            heap_pushes: out.stats.search.heap_pushes,
            result_members: out.stats.result_members,
            matches_linear,
        });
        if reference.is_none() {
            reference = Some(out);
        }
    }
    rows
}

/// A type-erased forward index over the experiment's metric.
type BoxedIndex = Box<dyn KnnIndex<Euclidean>>;

/// The six substrates, linear scan first (it is the reference).
fn substrate_builders() -> Vec<fn(&Arc<Dataset>) -> BoxedIndex> {
    vec![
        |ds| Box::new(LinearScan::build(ds.clone(), Euclidean)),
        |ds| Box::new(CoverTree::build(ds.clone(), Euclidean)),
        |ds| Box::new(VpTree::build(ds.clone(), Euclidean)),
        |ds| Box::new(BallTree::build(ds.clone(), Euclidean)),
        |ds| Box::new(MTree::build(ds.clone(), Euclidean)),
        |ds| Box::new(RTree::build(ds.clone(), Euclidean)),
    ]
}

/// Renders sweep rows as a report table.
pub fn rows_to_table(rows: &[SubstrateRow]) -> crate::report::Table {
    use crate::report::ms;
    let mut t = crate::report::Table::new(
        "Substrate sweep: batch all-points RkNN through the shared traversal core",
        &[
            "substrate",
            "build_ms",
            "batch_ms",
            "dist_comps",
            "nodes_visited",
            "heap_pushes",
            "result_members",
            "matches_linear",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.substrate.to_string(),
            ms(r.build_ms),
            ms(r.batch_ms),
            r.total_dist_comps.to_string(),
            r.nodes_visited.to_string(),
            r.heap_pushes.to_string(),
            r.result_members.to_string(),
            r.matches_linear.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_six_substrates_agree_with_linear_scan() {
        let cfg = SubstrateSweepConfig {
            n: 250,
            dim: 4,
            clusters: 4,
            k: 4,
            t: 3.0,
            threads: 2,
            ..SubstrateSweepConfig::default()
        };
        let rows = run_substrate_sweep(&cfg);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].substrate, "linear-scan");
        for r in &rows {
            assert!(
                r.matches_linear,
                "{} diverged from the linear scan",
                r.substrate
            );
            assert_eq!(r.result_members, rows[0].result_members, "{}", r.substrate);
        }
        // The scan expands no tree nodes; every tree substrate does.
        assert_eq!(rows[0].nodes_visited, 0);
        for r in &rows[1..] {
            assert!(r.nodes_visited > 0, "{}", r.substrate);
        }
        assert!(rows_to_table(&rows).render().contains("cover-tree"));
    }
}
