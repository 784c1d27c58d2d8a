//! The five baselines as [`RknnAlgorithm`] implementations.
//!
//! Every method of the paper's comparison study plugs into the
//! algorithm-generic batch driver of `rknn_rdt::algorithm`: free methods
//! ([`NaiveRknn`], [`Sft`]) implement the trait directly with a no-op
//! `prepare`, while the precomputation-heavy methods get adapter structs
//! ([`TplAlgorithm`], [`MrknncopAlgorithm`], [`RdnnAlgorithm`]) that defer
//! their builds to [`RknnAlgorithm::prepare`] — so the driver's uniform
//! precompute-time reporting covers exactly the setup cost the paper's
//! Figures 3–6 and 9 charge them with.
//!
//! All adapters answer the all-points protocol (query located at dataset
//! point `q`, self-excluding) and route their hot loops through per-worker
//! scratch and threshold-pruned distances; see the individual method
//! modules for what is pruned where.

use crate::mrknncop::MRkNNCoP;
use crate::naive::NaiveRknn;
use crate::rdnn::RdnnTree;
use crate::sft::{Sft, SftScratch};
use crate::tpl::{Tpl, TplScratch};
use rknn_core::{CursorScratch, Dataset, Metric, PointId, SearchStats};
use rknn_index::KnnIndex;
use rknn_rdt::algorithm::{BasicAnswer, MaintenanceCost, RknnAlgorithm};
use std::sync::Arc;
use std::time::Duration;

impl<M, I> RknnAlgorithm<M, I> for NaiveRknn
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    type Worker = CursorScratch;
    type Answer = BasicAnswer;

    fn name(&self) -> String {
        "naive".to_string()
    }

    fn make_worker(&self, _index: &I) -> CursorScratch {
        CursorScratch::new()
    }

    fn query(&self, index: &I, q: PointId, worker: &mut CursorScratch) -> BasicAnswer {
        let mut stats = SearchStats::new();
        let result = self.query_with(index, q, worker, &mut stats);
        BasicAnswer { result, stats }
    }
}

impl<M, I> RknnAlgorithm<M, I> for Sft
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    type Worker = SftScratch;
    type Answer = BasicAnswer;

    fn name(&self) -> String {
        format!("SFT(α={})", self.alpha())
    }

    fn make_worker(&self, _index: &I) -> SftScratch {
        SftScratch::new()
    }

    fn query(&self, index: &I, q: PointId, worker: &mut SftScratch) -> BasicAnswer {
        let mut stats = SearchStats::new();
        let result = self.query_with(index, q, worker, &mut stats);
        BasicAnswer { result, stats }
    }
}

/// TPL as a prepared algorithm: [`RknnAlgorithm::prepare`] builds the
/// method's own R-tree over the dataset (its only setup), and queries run
/// the trimmed generation + verified refinement against it. The shared
/// forward index is unused — TPL is self-contained, which is exactly the
/// "cheapest setup" position it occupies in the study.
#[derive(Debug)]
pub struct TplAlgorithm<M: Metric + Clone> {
    k: usize,
    ds: Arc<Dataset>,
    metric: M,
    tree: Option<Arc<Tpl<M>>>,
}

impl<M: Metric + Clone> TplAlgorithm<M> {
    /// An unprepared TPL handle for reverse rank `k`.
    pub fn new(ds: Arc<Dataset>, metric: M, k: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        TplAlgorithm {
            k,
            ds,
            metric,
            tree: None,
        }
    }

    /// A handle answering a different rank `k` over the **same** prepared
    /// R-tree (shared, not rebuilt) — TPL's structure is k-independent, so
    /// re-ranking costs nothing.
    pub fn with_rank(&self, k: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        TplAlgorithm {
            k,
            ds: self.ds.clone(),
            metric: self.metric.clone(),
            tree: self.tree.clone(),
        }
    }

    /// The prepared TPL structure, if [`RknnAlgorithm::prepare`] ran.
    pub fn inner(&self) -> Option<&Tpl<M>> {
        self.tree.as_deref()
    }
}

impl<M, I> RknnAlgorithm<M, I> for TplAlgorithm<M>
where
    M: Metric + Clone,
    I: KnnIndex<M> + ?Sized,
{
    type Worker = TplScratch;
    type Answer = BasicAnswer;

    fn name(&self) -> String {
        "TPL".to_string()
    }

    fn prepare(&mut self, _index: &I) {
        self.tree = Some(Arc::new(Tpl::build(self.ds.clone(), self.metric.clone())));
    }

    fn precompute_time(&self) -> Duration {
        self.tree
            .as_ref()
            .map_or(Duration::ZERO, |t| t.build_time())
    }

    fn make_worker(&self, _index: &I) -> TplScratch {
        TplScratch::new()
    }

    fn query(&self, _index: &I, q: PointId, worker: &mut TplScratch) -> BasicAnswer {
        let tree = self
            .tree
            .as_ref()
            .expect("TplAlgorithm: query before prepare");
        let mut stats = SearchStats::new();
        let result = tree.query_with(q, self.k, worker, &mut stats);
        BasicAnswer { result, stats }
    }

    /// TPL's R-tree snapshots the dataset at `prepare`; there is no
    /// incremental repair — re-`prepare` against a fresh snapshot under
    /// churn (`apply_updates` keeps the no-op default).
    fn maintenance_cost(&self) -> MaintenanceCost {
        MaintenanceCost::Rebuild
    }
}

/// MRkNNCoP as a prepared algorithm: [`RknnAlgorithm::prepare`] runs the
/// `k_max`-NN pass for every point *against the shared forward index*,
/// fits the conservative bound lines and builds the aggregate M-tree;
/// queries answer any `k ≤ k_max` with the same forward index serving the
/// refinement verifications.
#[derive(Debug)]
pub struct MrknncopAlgorithm<M: Metric + Clone> {
    k: usize,
    k_max: usize,
    ds: Arc<Dataset>,
    metric: M,
    index: Option<Arc<MRkNNCoP<M>>>,
}

impl<M: Metric + Clone> MrknncopAlgorithm<M> {
    /// An unprepared MRkNNCoP handle answering reverse rank `k` with bound
    /// lines fitted up to `k_max ≥ k`.
    pub fn new(ds: Arc<Dataset>, metric: M, k: usize, k_max: usize) -> Self {
        assert!(k >= 1 && k <= k_max, "k must be within 1..=k_max");
        MrknncopAlgorithm {
            k,
            k_max,
            ds,
            metric,
            index: None,
        }
    }

    /// A handle answering a different rank `k ≤ k_max` over the **same**
    /// prepared structure (shared, not rebuilt) — the paper's selling point
    /// for MRkNNCoP over the RdNN-Tree, whose structure is welded to one
    /// `k`.
    pub fn with_rank(&self, k: usize) -> Self {
        assert!(k >= 1 && k <= self.k_max, "k must be within 1..=k_max");
        MrknncopAlgorithm {
            k,
            k_max: self.k_max,
            ds: self.ds.clone(),
            metric: self.metric.clone(),
            index: self.index.clone(),
        }
    }

    /// The prepared MRkNNCoP structure, if [`RknnAlgorithm::prepare`] ran.
    pub fn inner(&self) -> Option<&MRkNNCoP<M>> {
        self.index.as_deref()
    }
}

impl<M, I> RknnAlgorithm<M, I> for MrknncopAlgorithm<M>
where
    M: Metric + Clone,
    I: KnnIndex<M> + ?Sized,
{
    type Worker = CursorScratch;
    type Answer = BasicAnswer;

    fn name(&self) -> String {
        "MRkNNCoP".to_string()
    }

    fn prepare(&mut self, index: &I) {
        self.index = Some(Arc::new(MRkNNCoP::build(
            self.ds.clone(),
            self.metric.clone(),
            self.k_max,
            index,
        )));
    }

    fn precompute_time(&self) -> Duration {
        self.index
            .as_ref()
            .map_or(Duration::ZERO, |i| i.precompute_time())
    }

    fn precompute_stats(&self) -> SearchStats {
        self.index
            .as_ref()
            .map_or_else(SearchStats::new, |i| i.precompute_stats())
    }

    fn make_worker(&self, _index: &I) -> CursorScratch {
        CursorScratch::new()
    }

    fn query(&self, index: &I, q: PointId, worker: &mut CursorScratch) -> BasicAnswer {
        let cop = self
            .index
            .as_ref()
            .expect("MrknncopAlgorithm: query before prepare");
        let mut stats = SearchStats::new();
        let result = cop.query_with(q, self.k, index, worker, &mut stats);
        BasicAnswer { result, stats }
    }

    /// The fitted bound lines and aggregate M-tree snapshot the dataset at
    /// `prepare`; conservative bounds do not survive inserts (a new point
    /// has no fitted line) — re-`prepare` under churn (`apply_updates`
    /// keeps the no-op default).
    fn maintenance_cost(&self) -> MaintenanceCost {
        MaintenanceCost::Rebuild
    }
}

/// The RdNN-Tree as a prepared algorithm: [`RknnAlgorithm::prepare`] runs
/// the per-point `k`-NN pass against the shared forward index and bulk
/// loads the aux-augmented R-tree; queries are pure containment traversals
/// (no per-query verification, no worker state) and are exact for the
/// single `k` the tree was built with.
#[derive(Debug)]
pub struct RdnnAlgorithm<M: Metric + Clone> {
    k: usize,
    ds: Arc<Dataset>,
    metric: M,
    tree: Option<RdnnTree<M>>,
}

impl<M: Metric + Clone> RdnnAlgorithm<M> {
    /// An unprepared RdNN-Tree handle fixed at reverse rank `k`.
    pub fn new(ds: Arc<Dataset>, metric: M, k: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        RdnnAlgorithm {
            k,
            ds,
            metric,
            tree: None,
        }
    }

    /// The prepared RdNN-Tree, if [`RknnAlgorithm::prepare`] ran.
    pub fn inner(&self) -> Option<&RdnnTree<M>> {
        self.tree.as_ref()
    }
}

impl<M, I> RknnAlgorithm<M, I> for RdnnAlgorithm<M>
where
    M: Metric + Clone,
    I: KnnIndex<M> + ?Sized,
{
    type Worker = ();
    type Answer = BasicAnswer;

    fn name(&self) -> String {
        "RdNN".to_string()
    }

    fn prepare(&mut self, index: &I) {
        self.tree = Some(RdnnTree::build(
            self.ds.clone(),
            self.metric.clone(),
            self.k,
            index,
        ));
    }

    fn precompute_time(&self) -> Duration {
        self.tree
            .as_ref()
            .map_or(Duration::ZERO, |t| t.precompute_time())
    }

    fn precompute_stats(&self) -> SearchStats {
        self.tree
            .as_ref()
            .map_or_else(SearchStats::new, |t| t.precompute_stats())
    }

    fn make_worker(&self, _index: &I) {}

    fn query(&self, _index: &I, q: PointId, _worker: &mut ()) -> BasicAnswer {
        let tree = self
            .tree
            .as_ref()
            .expect("RdnnAlgorithm: query before prepare");
        let mut stats = SearchStats::new();
        let result = tree.query(q, &mut stats);
        BasicAnswer { result, stats }
    }

    /// The aux-augmented R-tree stores every point's `d_k` at `prepare`
    /// time; an insert or delete can change the `d_k` of arbitrary other
    /// points, so the structure must be rebuilt under churn (`apply_updates`
    /// keeps the no-op default).
    fn maintenance_cost(&self) -> MaintenanceCost {
        MaintenanceCost::Rebuild
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknn_core::Euclidean;
    use rknn_index::LinearScan;
    use rknn_rdt::algorithm::run_algorithm_batch;

    fn setup(n: usize, dim: usize, seed: u64) -> (Arc<Dataset>, LinearScan<Euclidean>) {
        let ds = rknn_data::uniform_cube(n, dim, seed).into_shared();
        let idx = LinearScan::build(ds.clone(), Euclidean);
        (ds, idx)
    }

    #[test]
    fn all_exact_adapters_agree_through_the_generic_driver() {
        let (ds, idx) = setup(220, 3, 900);
        let k = 4;
        let queries: Vec<PointId> = vec![0, 17, 119, 219];

        let naive = NaiveRknn::new(k);
        let reference = run_algorithm_batch(&naive, &idx, &queries, 2);

        let mut tpl = TplAlgorithm::new(ds.clone(), Euclidean, k);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut tpl, &idx);
        let mut cop = MrknncopAlgorithm::new(ds.clone(), Euclidean, k, 8);
        cop.prepare(&idx);
        let mut rdnn = RdnnAlgorithm::new(ds.clone(), Euclidean, k);
        rdnn.prepare(&idx);

        let tpl_out = run_algorithm_batch(&tpl, &idx, &queries, 2);
        let cop_out = run_algorithm_batch(&cop, &idx, &queries, 2);
        let rdnn_out = run_algorithm_batch(&rdnn, &idx, &queries, 2);
        for (i, want) in reference.answers.iter().enumerate() {
            assert_eq!(
                tpl_out.answers[i].result, want.result,
                "TPL q={}",
                queries[i]
            );
            assert_eq!(
                cop_out.answers[i].result, want.result,
                "CoP q={}",
                queries[i]
            );
            assert_eq!(
                rdnn_out.answers[i].result, want.result,
                "RdNN q={}",
                queries[i]
            );
        }
    }

    #[test]
    fn prepared_adapters_report_their_precomputation() {
        let (ds, idx) = setup(120, 2, 901);
        let mut rdnn = RdnnAlgorithm::new(ds.clone(), Euclidean, 3);
        assert_eq!(
            RknnAlgorithm::<_, LinearScan<Euclidean>>::precompute_time(&rdnn),
            Duration::ZERO
        );
        rdnn.prepare(&idx);
        assert!(RknnAlgorithm::<_, LinearScan<Euclidean>>::precompute_time(&rdnn) > Duration::ZERO);
        assert!(
            RknnAlgorithm::<_, LinearScan<Euclidean>>::precompute_stats(&rdnn).dist_computations
                > 0
        );

        let mut cop = MrknncopAlgorithm::new(ds, Euclidean, 3, 6);
        cop.prepare(&idx);
        assert!(
            RknnAlgorithm::<_, LinearScan<Euclidean>>::precompute_stats(&cop).dist_computations > 0
        );
    }

    #[test]
    fn sft_adapter_matches_the_direct_path() {
        let (_, idx) = setup(260, 2, 902);
        let sft = Sft::new(5, 4.0);
        let out = run_algorithm_batch(&sft, &idx, &[3, 100, 250], 1);
        let mut st = SearchStats::new();
        for (i, &q) in [3usize, 100, 250].iter().enumerate() {
            assert_eq!(out.answers[i].result, sft.query(&idx, q, &mut st), "q={q}");
        }
        assert_eq!(
            RknnAlgorithm::<_, LinearScan<Euclidean>>::name(&sft),
            "SFT(α=4)"
        );
    }

    #[test]
    #[should_panic(expected = "query before prepare")]
    fn unprepared_adapter_panics_clearly() {
        let (ds, idx) = setup(30, 2, 903);
        let tpl = TplAlgorithm::new(ds, Euclidean, 2);
        let _ = run_algorithm_batch(&tpl, &idx, &[0], 1);
    }
}
