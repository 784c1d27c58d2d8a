//! The algorithm-generic RkNN abstraction: one trait, one batch driver,
//! every method.
//!
//! The paper's experimental story (§7) is a head-to-head comparison of
//! RDT/RDT+ against five baselines, all answering the same queries against
//! the same forward index. This module is the execution contract that makes
//! such comparisons fair *by construction*:
//!
//! * [`RknnAlgorithm`] — the lifecycle every method implements: one-off
//!   [`prepare`](RknnAlgorithm::prepare) precomputation (kNN passes,
//!   auxiliary trees — reported uniformly via
//!   [`precompute_time`](RknnAlgorithm::precompute_time) and
//!   [`precompute_stats`](RknnAlgorithm::precompute_stats)), a per-worker
//!   [`Worker`](RknnAlgorithm::Worker) state (cursor scratch and any other
//!   per-thread buffers, allocated once per worker and reused across
//!   queries), and a per-query [`query`](RknnAlgorithm::query).
//! * [`run_algorithm_batch`] — the one batch driver all methods run
//!   through: contiguous query chunks across `std::thread::scope` workers,
//!   one worker state per thread, answers written into disjoint output
//!   slots, statistics merged in query order so the outcome is
//!   deterministic and independent of worker count and scheduling.
//!
//! RDT itself runs on the trait as [`RdtAlgorithm`], which is also the one
//! handle for one-off RDT queries ([`RdtAlgorithm::answer`]). The five
//! baselines implement the trait in `rknn_baselines::algorithm`.

use crate::answer::RknnAnswer;
use crate::engine::{run_query, DkCache, RdtVariant, TSchedule};
use crate::params::RdtParams;
use rknn_core::{
    CancelToken, Cancelled, CoreError, Metric, Neighbor, PointId, QueryScratch, SearchStats,
};
use rknn_index::KnnIndex;
use std::time::{Duration, Instant};

/// The per-query outcome any RkNN algorithm can report.
///
/// The generic driver and the evaluation harness only need two things from
/// an answer: the reported reverse neighbors and the work spent producing
/// them. Methods with richer accounting (RDT's [`RknnAnswer`]) expose it
/// through their concrete answer type; the uniform view is what cross-method
/// comparisons are computed on.
pub trait AlgorithmAnswer {
    /// The reported reverse k-nearest neighbors, ascending by distance.
    fn neighbors(&self) -> &[Neighbor];

    /// Total work spent answering the query. `dist_computations` counts
    /// **every** metric evaluation the method performed — index work,
    /// witness maintenance, pairwise filtering — so the field is the
    /// paper's dominant cost measure on identical footing for all methods.
    fn work(&self) -> SearchStats;
}

/// A plain `(result, work)` answer for methods without richer accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BasicAnswer {
    /// Reported reverse neighbors, ascending by distance.
    pub result: Vec<Neighbor>,
    /// Work spent on this query.
    pub stats: SearchStats,
}

impl BasicAnswer {
    /// Ids of the reported reverse neighbors.
    pub fn ids(&self) -> Vec<PointId> {
        self.result.iter().map(|n| n.id).collect()
    }
}

impl AlgorithmAnswer for BasicAnswer {
    fn neighbors(&self) -> &[Neighbor] {
        &self.result
    }

    fn work(&self) -> SearchStats {
        self.stats
    }
}

impl AlgorithmAnswer for RknnAnswer {
    fn neighbors(&self) -> &[Neighbor] {
        &self.result
    }

    /// RDT's index work plus its witness-maintenance distance evaluations,
    /// folded into one counter ([`crate::answer::RdtQueryStats::total_dist_comps`])
    /// so RDT's filter-phase metric evaluations are charged on the same
    /// scale as the baselines' pairwise filtering.
    fn work(&self) -> SearchStats {
        SearchStats {
            dist_computations: self.stats.total_dist_comps(),
            ..self.stats.search
        }
    }
}

/// A change applied to the forward index that a prepared algorithm may
/// need to react to before answering further queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexUpdate {
    /// Point `id` was inserted and is live in the index.
    Inserted(PointId),
    /// Point `id` was tombstoned (its coordinates stay addressable through
    /// [`KnnIndex::point`]).
    Removed(PointId),
}

/// How much maintained state a method must touch per index update — the
/// dynamic-workload analogue of the precompute-cost column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceCost {
    /// No maintained state: every query reads the live index directly, so
    /// updates cost nothing beyond the index's own repair.
    None,
    /// Maintained state is repaired locally per update (RDT's `d_k` cache:
    /// only thresholds whose ball contains the updated point are evicted).
    Localized,
    /// Precomputation snapshots the point set and must be rebuilt
    /// (re-[`prepare`](RknnAlgorithm::prepare), typically against a fresh
    /// dataset snapshot) to stay correct under churn.
    Rebuild,
}

/// A reverse-kNN method executable by the algorithm-generic batch driver.
///
/// The lifecycle separates the three cost classes the paper's Figures 3–6
/// and 9 weigh against each other:
///
/// 1. **Precomputation** — [`prepare`](Self::prepare) runs exactly once
///    before any query, against the forward index the queries will use.
///    Methods that need setup (MRkNNCoP's bound-line fitting, the
///    RdNN-Tree's kNN pass, TPL's R-tree) do it here and report its cost
///    through [`precompute_time`](Self::precompute_time) /
///    [`precompute_stats`](Self::precompute_stats); free methods keep the
///    no-op defaults.
/// 2. **Per-worker state** — [`make_worker`](Self::make_worker) builds the
///    buffers one executor thread reuses across all its queries (cursor
///    scratch, candidate vectors). Workers are created per thread by the
///    driver, so implementations need no internal synchronization.
/// 3. **Per-query work** — [`query`](Self::query) answers the reverse-kNN
///    query located at dataset point `q`, self-excluding, matching the
///    paper's experimental protocol. It takes `&self`: all mutable state
///    lives in the worker.
///
/// Queries must be deterministic: the same `(index, q)` must produce the
/// same answer regardless of worker identity or execution order, so the
/// batch driver's outcome is reproducible at any thread count. (Shared
/// caches that only *reduce work* without changing answers — RDT's
/// [`DkCache`] — are the documented exception: results stay deterministic,
/// per-query work counters may vary with scheduling.)
///
/// # Unwind safety (the serving contract)
///
/// The serving engine runs each query under
/// [`std::panic::catch_unwind`] so one panicking query fails exactly its
/// own submitter instead of the whole worker. Implementations must
/// therefore tolerate a query being abandoned at *any* point:
///
/// * A [`Worker`](Self::Worker) whose query panicked is **discarded** —
///   the driver never reuses it and builds a replacement through
///   [`make_worker`](Self::make_worker) — so worker state may be left
///   arbitrarily inconsistent by an unwind.
/// * Shared state reachable through `&self` (caches like [`DkCache`])
///   must stay valid mid-unwind. `DkCache` satisfies this by
///   construction: slots are single atomic stores of complete values, so
///   an abandoned query has either published a correct threshold or
///   nothing.
///
/// No implementation in this workspace holds locks or performs multi-step
/// shared mutations during [`query`](Self::query), so all are unwind-safe
/// under this contract.
pub trait RknnAlgorithm<M: Metric, I: KnnIndex<M> + ?Sized>: Sync {
    /// Per-worker mutable state: scratch buffers reused across the queries
    /// one thread executes.
    type Worker;

    /// Per-query answer type.
    type Answer: AlgorithmAnswer + Send;

    /// Method label for reports and experiment rows.
    fn name(&self) -> String;

    /// One-off precomputation against the forward index. Default: no-op.
    fn prepare(&mut self, index: &I) {
        let _ = index;
    }

    /// Wall-clock time spent in [`prepare`](Self::prepare) (zero before it
    /// ran, and for methods without precomputation).
    fn precompute_time(&self) -> Duration {
        Duration::ZERO
    }

    /// Work spent in [`prepare`](Self::prepare).
    fn precompute_stats(&self) -> SearchStats {
        SearchStats::new()
    }

    /// Fresh per-worker state for executing queries against `index`.
    fn make_worker(&self, index: &I) -> Self::Worker;

    /// Answers the reverse-kNN query located at dataset point `q`
    /// (self-excluding).
    fn query(&self, index: &I, q: PointId, worker: &mut Self::Worker) -> Self::Answer;

    /// [`query`](Self::query) with a cooperative [`CancelToken`].
    ///
    /// The default checks the token once up front and then runs the query
    /// to completion — correct for every method, coarse for long queries.
    /// Methods with interruptible engines (RDT's tile-block checkpoints)
    /// override this to honor the token at block granularity, so a
    /// past-deadline or explicitly cancelled query releases its worker
    /// promptly. A query whose token never trips must be byte-identical
    /// to [`query`](Self::query).
    fn query_cancellable(
        &self,
        index: &I,
        q: PointId,
        worker: &mut Self::Worker,
        cancel: &CancelToken,
    ) -> Result<Self::Answer, Cancelled> {
        if cancel.is_cancelled() {
            return Err(Cancelled);
        }
        Ok(self.query(index, q, worker))
    }

    /// Answers a reverse-kNN query located at arbitrary coordinates (not a
    /// dataset point, nothing excluded), honoring `cancel` as in
    /// [`query_cancellable`](Self::query_cancellable).
    ///
    /// Returns `None` when the method cannot answer external-coordinate
    /// queries (the default); drivers surface that as a typed
    /// "unsupported" error instead of a panic. `coords` has already passed
    /// [`validate_query`](Self::validate_query) when called through the
    /// serving engine.
    fn query_at(
        &self,
        index: &I,
        coords: &[f64],
        worker: &mut Self::Worker,
        cancel: &CancelToken,
    ) -> Option<Result<Self::Answer, Cancelled>> {
        let _ = (index, coords, worker, cancel);
        None
    }

    /// Boundary validation for an external-coordinate query: the hook
    /// serving drivers call **at submit time**, before malformed input can
    /// reach a kernel or a worker thread. The default enforces what every
    /// metric kernel assumes — the index's dimensionality and finite
    /// coordinates — and methods with stricter preconditions can extend it.
    fn validate_query(&self, index: &I, coords: &[f64]) -> Result<(), CoreError> {
        if coords.len() != index.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: index.dim(),
                got: coords.len(),
            });
        }
        if let Some(coordinate) = coords.iter().position(|c| !c.is_finite()) {
            return Err(CoreError::NonFinite {
                point: 0,
                coordinate,
            });
        }
        Ok(())
    }

    /// Repairs maintained state after a batch of index updates, called
    /// once per batch with every update already applied to the index
    /// (removed points already tombstoned); a caller applying one op at a
    /// time passes one-element slices. The repair is one pass over the
    /// batch, not one per update. Methods whose maintained state is
    /// [`MaintenanceCost::Rebuild`] keep the no-op default and document
    /// that callers must re-[`prepare`](Self::prepare) instead; the work
    /// spent here is reported through
    /// [`maintenance_time`](Self::maintenance_time) /
    /// [`maintenance_stats`](Self::maintenance_stats), uniformly with
    /// precomputation.
    fn apply_updates(&mut self, index: &I, updates: &[IndexUpdate]) {
        let _ = (index, updates);
    }

    /// How this method's maintained state reacts to index updates.
    fn maintenance_cost(&self) -> MaintenanceCost {
        MaintenanceCost::None
    }

    /// Cumulative wall-clock time spent in
    /// [`apply_updates`](Self::apply_updates) since the last
    /// [`prepare`](Self::prepare).
    fn maintenance_time(&self) -> Duration {
        Duration::ZERO
    }

    /// Cumulative work spent in [`apply_updates`](Self::apply_updates) since
    /// the last [`prepare`](Self::prepare).
    fn maintenance_stats(&self) -> SearchStats {
        SearchStats::new()
    }
}

/// Resolves a worker-count request into the count actually used when the
/// caller passed no explicit number: a non-zero request wins as-is; `0`
/// defers to the `RKNN_THREADS` environment override (any positive
/// integer), and only then to [`std::thread::available_parallelism`].
///
/// Every driver in the workspace (the batch driver here, the serving
/// engine, the CLI) routes its "use the default" path through this one
/// function, so `RKNN_THREADS=4` reproduces a four-worker run on any host
/// regardless of its core count.
pub fn requested_threads(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("RKNN_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a requested worker count (`0` = `RKNN_THREADS` or one per CPU)
/// against the number of jobs.
pub(crate) fn resolve_threads(requested: usize, jobs: usize) -> usize {
    requested_threads(requested).clamp(1, jobs.max(1))
}

/// Deterministic query-order aggregate of a batch run, uniform across
/// methods.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AlgorithmBatchStats {
    /// Number of queries executed.
    pub queries: usize,
    /// Total reported reverse neighbors.
    pub result_members: usize,
    /// Total work, summed in query order ([`AlgorithmAnswer::work`]).
    pub search: SearchStats,
}

/// The outcome of an algorithm-generic batch run.
#[derive(Debug, Clone)]
pub struct AlgorithmOutcome<T> {
    /// One answer per query, in the order the queries were supplied.
    pub answers: Vec<T>,
    /// Query-order aggregate of the per-query work.
    pub stats: AlgorithmBatchStats,
    /// Wall-clock time of the whole batch (excluding `prepare`).
    pub elapsed: Duration,
    /// Worker threads actually used.
    pub threads: usize,
}

/// Executes one query per supplied dataset point through any
/// [`RknnAlgorithm`], sharded across scoped worker threads with one
/// [`RknnAlgorithm::Worker`] per thread.
///
/// `threads == 0` uses one worker per available CPU. Answers land in query
/// order and statistics are merged in query order, so the outcome is
/// byte-identical to a sequential loop over the same queries (for methods
/// whose per-query work is scheduling-independent; see the trait docs).
///
/// The algorithm must already be [`prepared`](RknnAlgorithm::prepare);
/// the driver never calls `prepare` (it takes `&A`), so precomputation is
/// paid — and measured — exactly once even across repeated batches.
pub fn run_algorithm_batch<M, I, A>(
    algo: &A,
    index: &I,
    queries: &[PointId],
    threads: usize,
) -> AlgorithmOutcome<A::Answer>
where
    M: Metric,
    I: KnnIndex<M> + Sync + ?Sized,
    A: RknnAlgorithm<M, I> + ?Sized,
{
    let start = Instant::now();
    let threads = resolve_threads(threads, queries.len());
    let mut answers: Vec<Option<A::Answer>> = Vec::new();
    answers.resize_with(queries.len(), || None);

    let run_chunk = |ids: &[PointId], out: &mut [Option<A::Answer>]| {
        let mut worker = algo.make_worker(index);
        for (&q, slot) in ids.iter().zip(out.iter_mut()) {
            *slot = Some(algo.query(index, q, &mut worker));
        }
    };

    if threads <= 1 {
        run_chunk(queries, &mut answers);
    } else {
        let chunk = queries.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (ids, out) in queries.chunks(chunk).zip(answers.chunks_mut(chunk)) {
                scope.spawn(move || run_chunk(ids, out));
            }
        });
    }

    let answers: Vec<A::Answer> = answers
        .into_iter()
        .map(|a| a.expect("every query slot was filled"))
        .collect();
    let mut stats = AlgorithmBatchStats::default();
    for ans in &answers {
        stats.queries += 1;
        stats.result_members += ans.neighbors().len();
        stats.search.absorb(&ans.work());
    }
    AlgorithmOutcome {
        answers,
        stats,
        elapsed: start.elapsed(),
        threads,
    }
}

/// Runs [`run_algorithm_batch`] over **every** point of the index — the
/// paper's all-points experimental workload.
pub fn run_algorithm_all_points<M, I, A>(
    algo: &A,
    index: &I,
    threads: usize,
) -> AlgorithmOutcome<A::Answer>
where
    M: Metric,
    I: KnnIndex<M> + Sync + ?Sized,
    A: RknnAlgorithm<M, I> + ?Sized,
{
    let queries: Vec<PointId> = (0..index.num_points()).collect();
    run_algorithm_batch(algo, index, &queries, threads)
}

/// RDT, RDT+, the no-witness ablation, and the adaptive-`t` variant as one
/// [`RknnAlgorithm`] — the one handle for RDT queries.
///
/// The handle owns the whole query configuration: parameters, engine
/// variant, scale-parameter schedule, and the shared [`DkCache`] of
/// verification thresholds (created in [`prepare`](RknnAlgorithm::prepare)
/// when [`with_dk_reuse`](Self::with_dk_reuse) is on and shared by every
/// worker of a batch). Batches run through [`run_algorithm_batch`];
/// one-off queries through [`answer`](Self::answer) and
/// [`answer_at`](Self::answer_at), which need no preparation.
///
/// # Example
///
/// ```
/// use rknn_core::{Dataset, Euclidean};
/// use rknn_index::LinearScan;
/// use rknn_rdt::{RdtAlgorithm, RdtParams};
///
/// let ds = Dataset::from_rows(&[
///     vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0], vec![9.0, 9.0],
/// ]).unwrap().into_shared();
/// let index = LinearScan::build(ds, Euclidean);
/// let rdt = RdtAlgorithm::new(RdtParams::new(1, 8.0));
/// let answer = rdt.answer(&index, 0);
/// // The two near points have point 0 as their nearest neighbor;
/// // the far point does not.
/// assert_eq!(answer.ids(), vec![1, 2]);
/// ```
#[derive(Debug)]
pub struct RdtAlgorithm {
    params: RdtParams,
    variant: RdtVariant,
    schedule: TSchedule,
    reuse_dk: bool,
    prewarm: usize,
    cache: Option<DkCache>,
    prepare_time: Duration,
    prepare_stats: SearchStats,
    maint_time: Duration,
    maint_stats: SearchStats,
}

impl RdtAlgorithm {
    /// An unprepared copy of this configuration: same parameters, variant,
    /// schedule and `d_k`-reuse setting, but no cache and zeroed time
    /// accounting. This is the "rebuild-from-scratch" counterpart of a
    /// long-lived maintained instance — prepare it against the current
    /// index and compare.
    pub fn fresh(&self) -> RdtAlgorithm {
        RdtAlgorithm::new(self.params)
            .with_variant(self.variant)
            .with_schedule(self.schedule)
            .with_dk_reuse(self.reuse_dk)
            .with_prewarm(self.prewarm)
    }

    /// An **already-prepared** successor carrying this instance's warm
    /// [`DkCache`] ([`DkCache::warm_copy`]): same configuration, thresholds
    /// copied bit-for-bit, counters and time accounting zeroed. This is the
    /// snapshot-advance path of the serving engine — build the next index
    /// off to the side, apply every churn op to it, carry the cache over,
    /// then evict locally with one [`RknnAlgorithm::apply_updates`] pass
    /// over the whole batch. Do **not** call
    /// [`RknnAlgorithm::prepare`] on the result: that would discard the
    /// carried cache and recreate it cold.
    pub fn warmed(&self) -> RdtAlgorithm {
        RdtAlgorithm {
            cache: self.cache.as_ref().map(DkCache::warm_copy),
            ..self.fresh()
        }
    }

    /// Plain RDT at the given parameters (fixed schedule, `d_k` reuse on).
    pub fn new(params: RdtParams) -> Self {
        RdtAlgorithm {
            params,
            variant: RdtVariant::Plain,
            schedule: TSchedule::Fixed,
            reuse_dk: true,
            prewarm: 0,
            cache: None,
            prepare_time: Duration::ZERO,
            prepare_stats: SearchStats::new(),
            maint_time: Duration::ZERO,
            maint_stats: SearchStats::new(),
        }
    }

    /// RDT+ (the §4.3 candidate-set reduction) at the given parameters.
    ///
    /// A newly retrieved point that accumulates `k` or more witnesses
    /// during its first witness pass is excluded from the filter set: it
    /// cannot be a reverse neighbor (Assertion 1), and the paper argues such
    /// points are unlikely to be decisive witnesses for other candidates.
    /// The exclusion keeps the quadratic witness maintenance affordable on
    /// large, high-dimensional data, at the risk of a precision drop: lazy
    /// accepts then act on *undercounted* witness sets, so — unlike plain
    /// RDT — RDT+ can report false positives.
    pub fn plus(params: RdtParams) -> Self {
        RdtAlgorithm::new(params).with_variant(RdtVariant::Plus)
    }

    /// The adaptive-`t` variant — the paper's stated future work (§9): RDT+
    /// whose scale parameter follows an online Hill/MLE estimate of the
    /// local intrinsic dimensionality over the distances the query's own
    /// expanding search has observed, as `t = safety · estimate`, floored
    /// at `t_floor` ([`TSchedule::Adaptive`]). The dimensional test stays
    /// disarmed until the estimate has seen `max(k, 8)` positive distances,
    /// so warm-up noise cannot terminate the search early. A `safety`
    /// above 1 trades time for accuracy exactly like `t` does in plain RDT
    /// (sensible range 1.0–4.0). Pair with
    /// [`with_variant`](Self::with_variant) for adaptive plain RDT.
    ///
    /// # Panics
    ///
    /// Panics if `safety` is not positive and finite, or if `k` or
    /// `t_floor` fail [`RdtParams::new`]'s checks.
    pub fn adaptive(k: usize, safety: f64, t_floor: f64) -> Self {
        let params = RdtParams::new(k, t_floor);
        assert!(
            safety.is_finite() && safety > 0.0,
            "safety factor must be positive and finite"
        );
        RdtAlgorithm::plus(params).with_schedule(TSchedule::Adaptive { safety })
    }

    /// Sets the engine variant.
    pub fn with_variant(mut self, variant: RdtVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets the scale-parameter schedule.
    pub fn with_schedule(mut self, schedule: TSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Enables or disables the shared verification-threshold cache. With
    /// reuse on, answers are unchanged but per-query work counters of
    /// cache-hitting queries shrink, scheduling-dependently (see
    /// [`DkCache`]).
    pub fn with_dk_reuse(mut self, reuse: bool) -> Self {
        self.reuse_dk = reuse;
        self
    }

    /// Prewarms up to `sample` verification thresholds during
    /// [`prepare`](RknnAlgorithm::prepare): a deterministic stride sample
    /// of the live ids gets its `d_k` computed eagerly, so a fresh
    /// snapshot's first queries don't all pay the cold-cache `d_k` miss
    /// storm. The sample is answered in one batched pass
    /// ([`DkCache::prewarm`]): `n·√n` distances to build a list of
    /// clusters over the `n` live points, then a few thousand per sampled
    /// point on clustered data, where one cursor per point costs `n` each
    /// (`DESIGN.md` §3). The cache keeps that list, whatever the sample
    /// size, and every [`apply_updates`](RknnAlgorithm::apply_updates) on
    /// this instance or a [`warmed`](Self::warmed) successor uses it to
    /// skip far buckets. `0` (the default) disables prewarming.
    /// The work is charged to
    /// [`precompute_stats`](RknnAlgorithm::precompute_stats) /
    /// [`precompute_time`](RknnAlgorithm::precompute_time), keeping the
    /// precompute-vs-query cost split honest. No-op without `d_k` reuse.
    pub fn with_prewarm(mut self, sample: usize) -> Self {
        self.prewarm = sample;
        self
    }

    /// The configured parameters.
    pub fn params(&self) -> RdtParams {
        self.params
    }

    /// The configured variant.
    pub fn variant(&self) -> RdtVariant {
        self.variant
    }

    /// The shared verification-threshold cache, if prepared with `d_k`
    /// reuse on (read access for cache-occupancy reporting).
    pub fn dk_cache(&self) -> Option<&DkCache> {
        self.cache.as_ref()
    }

    /// Answers one reverse-kNN query located at dataset point `q`
    /// (self-excluding) with fresh working memory: the one-off counterpart
    /// of [`RknnAlgorithm::query`], for callers without a worker. Uses the
    /// `d_k` cache only if the handle was prepared; an unprepared handle
    /// computes every verification threshold itself.
    pub fn answer<M, I>(&self, index: &I, q: PointId) -> RknnAnswer
    where
        M: Metric,
        I: KnnIndex<M> + ?Sized,
    {
        let mut scratch = QueryScratch::new(index.dim().max(1));
        self.run_uncancelled(index, index.point(q), Some(q), &mut scratch)
    }

    /// [`answer`](Self::answer) at arbitrary coordinates `coords ∉ S`
    /// (nothing excluded).
    pub fn answer_at<M, I>(&self, index: &I, coords: &[f64]) -> RknnAnswer
    where
        M: Metric,
        I: KnnIndex<M> + ?Sized,
    {
        let mut scratch = QueryScratch::new(index.dim().max(1));
        self.run_uncancelled(index, coords, None, &mut scratch)
    }

    /// This configuration's [`run_query`] call.
    fn run<M, I>(
        &self,
        index: &I,
        q: &[f64],
        exclude: Option<PointId>,
        scratch: &mut QueryScratch,
        cancel: &CancelToken,
    ) -> Result<RknnAnswer, Cancelled>
    where
        M: Metric,
        I: KnnIndex<M> + ?Sized,
    {
        let (params, variant, schedule) = (self.params, self.variant, self.schedule);
        let cache = self.cache.as_ref();
        run_query(
            index, q, exclude, params, variant, schedule, scratch, cache, cancel,
        )
    }

    /// [`run`](Self::run) under a token that never trips.
    fn run_uncancelled<M, I>(
        &self,
        index: &I,
        q: &[f64],
        exclude: Option<PointId>,
        scratch: &mut QueryScratch,
    ) -> RknnAnswer
    where
        M: Metric,
        I: KnnIndex<M> + ?Sized,
    {
        match self.run(index, q, exclude, scratch, &CancelToken::never()) {
            Ok(answer) => answer,
            Err(Cancelled) => unreachable!("a never-token cannot cancel"),
        }
    }
}

impl<M, I> RknnAlgorithm<M, I> for RdtAlgorithm
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    type Worker = QueryScratch;
    type Answer = RknnAnswer;

    fn name(&self) -> String {
        let base = match self.variant {
            RdtVariant::Plain => "RDT",
            RdtVariant::Plus => "RDT+",
            RdtVariant::NoWitness => "RDT(no-witness)",
        };
        match self.schedule {
            TSchedule::Fixed => base.to_string(),
            TSchedule::Adaptive { .. } => format!("{base}(adaptive)"),
        }
    }

    fn prepare(&mut self, index: &I) {
        let start = Instant::now();
        let bound = index.id_bound();
        self.cache = self.reuse_dk.then(|| DkCache::new(self.params.k, bound));
        self.prepare_stats = SearchStats::new();
        self.maint_time = Duration::ZERO;
        self.maint_stats = SearchStats::new();
        let prewarm = self.prewarm;
        if let Some(cache) = self.cache.as_mut().filter(|_| prewarm > 0) {
            // Deterministic stride sample of the live ids, so the warm set
            // covers them independently of any RNG state and identically
            // on every host.
            let mut ids: Vec<PointId> = (0..bound).filter(|&id| index.has_point(id)).collect();
            let sample = prewarm.min(ids.len());
            let step = ids.len().checked_div(sample).unwrap_or(1).max(1);
            let mut pos = 0..;
            ids.retain(|_| {
                pos.next()
                    .is_some_and(|i| i % step == 0 && i / step < sample)
            });
            cache.prewarm(index, &ids, &mut self.prepare_stats);
        }
        self.prepare_time = start.elapsed();
    }

    fn precompute_time(&self) -> Duration {
        self.prepare_time
    }

    fn precompute_stats(&self) -> SearchStats {
        self.prepare_stats
    }

    fn apply_updates(&mut self, index: &I, updates: &[IndexUpdate]) {
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        let start = Instant::now();
        let mut stats = SearchStats::new();
        let mut points = Vec::with_capacity(updates.len());
        let mut bound = 0;
        for &update in updates {
            match update {
                IndexUpdate::Inserted(id) => {
                    bound = bound.max(id + 1);
                    points.push(id);
                }
                IndexUpdate::Removed(id) => points.push(id),
            }
        }
        cache.grow(bound);
        cache.invalidate_near(index, &points, &mut stats);
        self.maint_stats.absorb(&stats);
        self.maint_time += start.elapsed();
    }

    fn maintenance_cost(&self) -> MaintenanceCost {
        if self.reuse_dk {
            MaintenanceCost::Localized
        } else {
            MaintenanceCost::None
        }
    }

    fn maintenance_time(&self) -> Duration {
        self.maint_time
    }

    fn maintenance_stats(&self) -> SearchStats {
        self.maint_stats
    }

    fn make_worker(&self, index: &I) -> QueryScratch {
        QueryScratch::new(index.dim().max(1))
    }

    fn query(&self, index: &I, q: PointId, worker: &mut QueryScratch) -> RknnAnswer {
        self.run_uncancelled(index, index.point(q), Some(q), worker)
    }

    fn query_cancellable(
        &self,
        index: &I,
        q: PointId,
        worker: &mut QueryScratch,
        cancel: &CancelToken,
    ) -> Result<RknnAnswer, Cancelled> {
        self.run(index, index.point(q), Some(q), worker, cancel)
    }

    fn query_at(
        &self,
        index: &I,
        coords: &[f64],
        worker: &mut QueryScratch,
        cancel: &CancelToken,
    ) -> Option<Result<RknnAnswer, Cancelled>> {
        Some(self.run(index, coords, None, worker, cancel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rknn_core::{BruteForce, Dataset, Euclidean};
    use rknn_index::{CoverTree, LinearScan, VpTree};
    use std::collections::HashSet;
    use std::sync::Arc;

    fn index(n: usize, dim: usize, seed: u64) -> LinearScan<Euclidean> {
        let ds = rknn_data::uniform_cube(n, dim, seed).into_shared();
        LinearScan::build(ds, Euclidean)
    }

    /// Four well-separated 2-d unit squares.
    fn clustered(n: usize, seed: u64) -> Arc<Dataset> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let c = (i % 4) as f64 * 8.0;
                vec![c + rng.random::<f64>(), c + rng.random::<f64>()]
            })
            .collect();
        Dataset::from_rows(&rows).unwrap().into_shared()
    }

    /// A uniform cloud in `[0, 10)^dim`.
    fn uniform(n: usize, dim: usize, seed: u64) -> Arc<Dataset> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.random::<f64>() * 10.0).collect())
            .collect();
        Dataset::from_rows(&rows).unwrap().into_shared()
    }

    /// The engine called directly: fresh scratch, no cache, never cancelled.
    fn engine_answer(
        idx: &LinearScan<Euclidean>,
        q: PointId,
        params: RdtParams,
        variant: RdtVariant,
        schedule: TSchedule,
    ) -> RknnAnswer {
        let mut scratch = QueryScratch::new(idx.dim());
        let never = CancelToken::never();
        let (qp, ex) = (idx.point(q), Some(q));
        run_query(
            idx,
            qp,
            ex,
            params,
            variant,
            schedule,
            &mut scratch,
            None,
            &never,
        )
        .unwrap()
    }

    fn truth_set(bf: &BruteForce<Euclidean>, q: PointId, k: usize) -> HashSet<PointId> {
        let mut st = SearchStats::new();
        bf.rknn(q, k, &mut st).iter().map(|n| n.id).collect()
    }

    #[test]
    fn generic_driver_matches_the_engine_exactly() {
        let idx = index(250, 3, 400);
        let params = RdtParams::new(4, 4.0);
        let mut algo = RdtAlgorithm::new(params).with_dk_reuse(false);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut algo, &idx);
        let out = run_algorithm_all_points(&algo, &idx, 3);
        assert_eq!(out.answers.len(), 250);
        assert_eq!(out.stats.queries, 250);
        for (q, ans) in out.answers.iter().enumerate() {
            let want = engine_answer(&idx, q, params, RdtVariant::Plain, TSchedule::Fixed);
            assert_eq!(ans.ids(), want.ids(), "q={q}");
            assert_eq!(ans.stats, want.stats, "q={q}");
            // The one-off handle path agrees too (unprepared: no cache).
            let one_off = RdtAlgorithm::new(params).answer(&idx, q);
            assert_eq!(one_off.ids(), want.ids(), "q={q}");
            assert_eq!(one_off.stats, want.stats, "q={q}");
        }
    }

    #[test]
    fn aggregate_work_folds_witness_cost_into_dist_computations() {
        let idx = index(180, 2, 401);
        let mut algo = RdtAlgorithm::plus(RdtParams::new(3, 5.0)).with_dk_reuse(false);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut algo, &idx);
        let out = run_algorithm_all_points(&algo, &idx, 2);
        let want: u64 = out.answers.iter().map(|a| a.stats.total_dist_comps()).sum();
        assert_eq!(out.stats.search.dist_computations, want);
        let members: usize = out.answers.iter().map(|a| a.result.len()).sum();
        assert_eq!(out.stats.result_members, members);
    }

    #[test]
    fn thread_count_does_not_change_the_outcome() {
        let idx = index(200, 2, 402);
        let mut algo = RdtAlgorithm::new(RdtParams::new(3, 3.0)).with_dk_reuse(false);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut algo, &idx);
        let base = run_algorithm_all_points(&algo, &idx, 1);
        for threads in [2usize, 5] {
            let out = run_algorithm_all_points(&algo, &idx, threads);
            assert_eq!(out.stats, base.stats, "threads={threads}");
            for (a, b) in out.answers.iter().zip(&base.answers) {
                assert_eq!(a.ids(), b.ids());
            }
        }
    }

    #[test]
    fn adaptive_constructor_matches_the_adaptive_wrapper() {
        let idx = index(300, 3, 403);
        let mut algo = RdtAlgorithm::adaptive(5, 2.0, 1.0).with_dk_reuse(false);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut algo, &idx);
        let out = run_algorithm_batch(&algo, &idx, &[7, 99], 1);
        for (i, &q) in [7usize, 99].iter().enumerate() {
            let adaptive = TSchedule::Adaptive { safety: 2.0 };
            let want = engine_answer(&idx, q, RdtParams::new(5, 1.0), RdtVariant::Plus, adaptive);
            assert_eq!(out.answers[i].ids(), want.ids(), "q={q}");
            assert_eq!(out.answers[i].stats, want.stats, "q={q}");
        }
        assert_eq!(
            RknnAlgorithm::<Euclidean, LinearScan<Euclidean>>::name(&algo),
            "RDT+(adaptive)"
        );
    }

    #[test]
    fn apply_updates_keeps_cached_answers_exact() {
        use rknn_index::DynamicIndex;
        // Moderate t so refinement runs and fills the cache; the warm-cache
        // run must be byte-identical to a cold prepare at *any* t, because
        // every surviving cached threshold is the bitwise value a fresh
        // computation would produce.
        let mut idx = index(150, 3, 405);
        let params = RdtParams::new(3, 4.0);
        let mut algo = RdtAlgorithm::new(params);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut algo, &idx);
        let _ = run_algorithm_all_points(&algo, &idx, 2); // warm the cache
        let id = idx.insert(&[0.5, 0.5, 0.5]).unwrap();
        assert!(idx.remove(7));
        algo.apply_updates(&idx, &[IndexUpdate::Inserted(id), IndexUpdate::Removed(7)]);
        let queries: Vec<PointId> = (0..=150).filter(|&q| q != 7).collect();
        let warm = run_algorithm_batch(&algo, &idx, &queries, 2);
        // A stale threshold the localized eviction failed to drop would
        // surface as a divergence from the cold rebuild here.
        let mut fresh = RdtAlgorithm::new(params);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut fresh, &idx);
        let cold = run_algorithm_batch(&fresh, &idx, &queries, 2);
        for ((a, b), &q) in warm.answers.iter().zip(&cold.answers).zip(&queries) {
            assert_eq!(a.ids(), b.ids(), "q={q}");
            let av: Vec<u64> = a.result.iter().map(|n| n.dist.to_bits()).collect();
            let bv: Vec<u64> = b.result.iter().map(|n| n.dist.to_bits()).collect();
            assert_eq!(av, bv, "q={q}");
        }
        assert_eq!(
            RknnAlgorithm::<Euclidean, LinearScan<Euclidean>>::maintenance_cost(&algo),
            MaintenanceCost::Localized
        );
        let maint = RknnAlgorithm::<Euclidean, LinearScan<Euclidean>>::maintenance_stats(&algo);
        assert!(maint.dist_computations > 0, "eviction work is accounted");
    }

    #[test]
    fn prewarm_fills_the_cache_and_charges_precompute() {
        let idx = index(120, 3, 406);
        let mut cold = RdtAlgorithm::new(RdtParams::new(4, 4.0));
        let mut warm = RdtAlgorithm::new(RdtParams::new(4, 4.0)).with_prewarm(40);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut cold, &idx);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut warm, &idx);
        assert_eq!(cold.dk_cache().unwrap().filled(), 0);
        assert_eq!(warm.dk_cache().unwrap().filled(), 40);
        let cold_stats = RknnAlgorithm::<Euclidean, LinearScan<Euclidean>>::precompute_stats(&cold);
        let warm_stats = RknnAlgorithm::<Euclidean, LinearScan<Euclidean>>::precompute_stats(&warm);
        assert_eq!(cold_stats.dist_computations, 0);
        assert!(warm_stats.dist_computations > 0, "prewarm work is charged");
        // Prewarming never changes answers, only who pays for the d_k.
        let a = run_algorithm_all_points(&cold, &idx, 1);
        let b = run_algorithm_all_points(&warm, &idx, 1);
        for (x, y) in a.answers.iter().zip(&b.answers) {
            assert_eq!(x.ids(), y.ids());
        }
    }

    #[test]
    fn prepare_on_a_churned_index_caches_inserted_ids() {
        use rknn_index::DynamicIndex;
        let mut idx = index(50, 3, 408);
        let id = idx.insert(&[0.5, 0.5, 0.5]).unwrap();
        assert_eq!(id, 50);
        assert!(idx.remove(7));
        // Live count 50, ids up to 50: the cache must cover id 50.
        let mut algo = RdtAlgorithm::new(RdtParams::new(4, 4.0));
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut algo, &idx);
        let cache = algo.dk_cache().unwrap();
        let mut scratch = rknn_core::CursorScratch::new();
        let mut stats = SearchStats::new();
        let first = cache.dk_or_compute(&idx, id, &mut scratch, &mut stats);
        let again = cache.dk_or_compute(&idx, id, &mut scratch, &mut stats);
        assert_eq!(first.to_bits(), again.to_bits());
        assert_eq!(cache.hit_stats(), (1, 1), "the second lookup hits");

        // A full prewarm covers every live id, the inserted one included,
        // with the thresholds a per-point lookup computes.
        let mut warm = RdtAlgorithm::new(RdtParams::new(4, 4.0)).with_prewarm(50);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut warm, &idx);
        let cache = warm.dk_cache().unwrap();
        assert_eq!(cache.filled(), 50);
        let reference = DkCache::new(4, 51);
        for live in (0..51).filter(|&x| x != 7) {
            let dk = cache.dk_or_compute(&idx, live, &mut scratch, &mut stats);
            let want = reference.dk_or_compute(&idx, live, &mut scratch, &mut stats);
            assert_eq!(dk.to_bits(), want.to_bits(), "id {live}");
        }
        assert_eq!(cache.hit_stats(), (50, 0));
    }

    #[test]
    fn warmed_instance_answers_identically_without_prepare() {
        let idx = index(150, 3, 407);
        let mut algo = RdtAlgorithm::new(RdtParams::new(3, 4.0));
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut algo, &idx);
        let base = run_algorithm_all_points(&algo, &idx, 2);
        let filled = algo.dk_cache().unwrap().filled();
        assert!(filled > 0, "batch fills the cache");
        let successor = algo.warmed();
        // The successor carries the warm thresholds and is query-ready
        // without a prepare call.
        assert_eq!(successor.dk_cache().unwrap().filled(), filled);
        assert_eq!(successor.dk_cache().unwrap().hit_stats(), (0, 0));
        let again = run_algorithm_all_points(&successor, &idx, 2);
        for (x, y) in base.answers.iter().zip(&again.answers) {
            assert_eq!(x.ids(), y.ids());
            let xv: Vec<u64> = x.result.iter().map(|n| n.dist.to_bits()).collect();
            let yv: Vec<u64> = y.result.iter().map(|n| n.dist.to_bits()).collect();
            assert_eq!(xv, yv);
        }
        let (hits, _) = successor.dk_cache().unwrap().hit_stats();
        assert!(hits > 0, "carried thresholds are actually reused");
    }

    #[test]
    fn requested_threads_prefers_explicit_then_env() {
        assert_eq!(super::requested_threads(3), 3);
        // Explicit requests ignore the environment override.
        std::env::set_var("RKNN_THREADS", "7");
        assert_eq!(super::requested_threads(2), 2);
        assert_eq!(super::requested_threads(0), 7);
        std::env::set_var("RKNN_THREADS", "not-a-number");
        assert!(super::requested_threads(0) >= 1);
        std::env::remove_var("RKNN_THREADS");
        assert!(super::requested_threads(0) >= 1);
    }

    #[test]
    fn empty_query_list_is_fine() {
        let idx = index(40, 2, 404);
        let algo = RdtAlgorithm::new(RdtParams::new(3, 3.0));
        let out = run_algorithm_batch(&algo, &idx, &[], 4);
        assert!(out.answers.is_empty());
        assert_eq!(out.stats, AlgorithmBatchStats::default());
        assert_eq!(out.threads, 1);
    }

    #[test]
    fn dk_reuse_changes_work_but_not_answers() {
        let idx = index(350, 4, 95);
        let params = RdtParams::new(5, 6.0);
        let mut plain_algo = RdtAlgorithm::new(params).with_dk_reuse(false);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut plain_algo, &idx);
        let plain = run_algorithm_all_points(&plain_algo, &idx, 1);
        // Per-answer sums of the filter-phase counters and the index work.
        let sums = |answers: &[RknnAnswer]| {
            answers.iter().fold((0usize, 0u64, 0u64, 0u64), |acc, a| {
                (
                    acc.0 + a.stats.retrieved,
                    acc.1 + a.stats.witness_pairs,
                    acc.2 + a.stats.witness_dist_comps,
                    acc.3 + a.stats.search.dist_computations,
                )
            })
        };
        let plain_sums = sums(&plain.answers);
        for threads in [1usize, 3] {
            let mut algo = RdtAlgorithm::new(params).with_dk_reuse(true);
            RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut algo, &idx);
            let cached = run_algorithm_all_points(&algo, &idx, threads);
            for (q, (a, b)) in cached.answers.iter().zip(&plain.answers).enumerate() {
                assert_eq!(a.ids(), b.ids(), "threads={threads} q={q}");
                assert_eq!(a.result, b.result, "threads={threads} q={q}");
                assert_eq!(
                    a.stats.termination, b.stats.termination,
                    "threads={threads} q={q}"
                );
                assert_eq!(
                    a.stats.verified, b.stats.verified,
                    "threads={threads} q={q}"
                );
            }
            let cached_sums = sums(&cached.answers);
            // Filter-phase counters are untouched by verification caching.
            assert_eq!(cached_sums.0, plain_sums.0);
            assert_eq!(cached_sums.1, plain_sums.1);
            assert_eq!(cached_sums.2, plain_sums.2);
            // Reuse can only reduce index work.
            assert!(cached_sums.3 <= plain_sums.3, "threads={threads}");
        }
    }

    #[test]
    fn explicit_query_subset_and_plus_variant() {
        let idx = index(220, 3, 93);
        let params = RdtParams::new(4, 6.0);
        let queries = [0usize, 7, 113, 219];
        let mut algo = RdtAlgorithm::plus(params);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut algo, &idx);
        let out = run_algorithm_batch(&algo, &idx, &queries, 2);
        assert_eq!(out.answers.len(), queries.len());
        for (i, &q) in queries.iter().enumerate() {
            let want = engine_answer(&idx, q, params, RdtVariant::Plus, TSchedule::Fixed);
            assert_eq!(out.answers[i].ids(), want.ids(), "q={q}");
        }
    }

    #[test]
    fn recall_is_monotone_in_t() {
        let ds = clustered(600, 60);
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        let queries = [5usize, 123, 402];
        let mut prev_recall = 0.0;
        for t in [1.0, 2.0, 4.0, 8.0, 16.0] {
            let rdt = RdtAlgorithm::new(RdtParams::new(10, t));
            let mut hits = 0usize;
            let mut total = 0usize;
            for &q in &queries {
                let truth = truth_set(&bf, q, 10);
                let got = rdt.answer(&idx, q);
                hits += got.result.iter().filter(|n| truth.contains(&n.id)).count();
                total += truth.len();
            }
            let recall = if total == 0 {
                1.0
            } else {
                hits as f64 / total as f64
            };
            assert!(recall >= prev_recall - 0.05, "recall dropped hard at t={t}");
            prev_recall = prev_recall.max(recall);
        }
        assert!(
            prev_recall >= 0.99,
            "exhaustive t reaches full recall, got {prev_recall}"
        );
    }

    #[test]
    fn no_false_positives_ever() {
        // RDT's accepts are certificates: every reported point is a true
        // reverse neighbor regardless of t.
        let ds = clustered(400, 61);
        let idx = CoverTree::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        for t in [0.5, 1.5, 3.0, 6.0] {
            let rdt = RdtAlgorithm::new(RdtParams::new(5, t));
            for q in [0usize, 200, 399] {
                let truth = truth_set(&bf, q, 5);
                let got = rdt.answer(&idx, q);
                for n in &got.result {
                    assert!(truth.contains(&n.id), "false positive at t={t}, q={q}");
                }
            }
        }
    }

    #[test]
    fn substrate_agreement() {
        // The same parameters over different substrates give identical
        // result sets (cursor order may differ on ties, results may not).
        let ds = clustered(300, 62);
        let linear = LinearScan::build(ds.clone(), Euclidean);
        let cover = CoverTree::build(ds.clone(), Euclidean);
        let vp = VpTree::build(ds, Euclidean);
        let rdt = RdtAlgorithm::new(RdtParams::new(8, 12.0));
        for q in [1usize, 50, 299] {
            let a = rdt.answer(&linear, q).ids();
            let b = rdt.answer(&cover, q).ids();
            let c = rdt.answer(&vp, q).ids();
            assert_eq!(a, b, "linear vs cover at q={q}");
            assert_eq!(a, c, "linear vs vp at q={q}");
        }
    }

    #[test]
    fn query_stats_reflect_configuration() {
        // The retrieval depth is monotone in t. Total distance work is NOT
        // (§8.1's "conflicting influences"): small t leaves more candidates
        // to explicit verification, large t pays witness maintenance on a
        // bigger filter set — so only structural monotonicities are
        // asserted here.
        let ds = clustered(500, 63);
        let idx = LinearScan::build(ds, Euclidean);
        let small = RdtAlgorithm::new(RdtParams::new(10, 1.0)).answer(&idx, 0);
        let large = RdtAlgorithm::new(RdtParams::new(10, 6.0)).answer(&idx, 0);
        assert!(small.stats.retrieved <= large.stats.retrieved);
        assert!(small.stats.witness_pairs <= large.stats.witness_pairs);
        assert!(small.stats.filter_set_size <= large.stats.filter_set_size);
    }

    #[test]
    fn excludes_candidates_that_plain_rdt_keeps() {
        let ds = uniform(800, 4, 70);
        let idx = LinearScan::build(ds, Euclidean);
        let params = RdtParams::new(5, 5.0);
        let mut total_excluded = 0usize;
        for q in [0usize, 100, 500] {
            let plain = RdtAlgorithm::new(params).answer(&idx, q);
            let plus = RdtAlgorithm::plus(params).answer(&idx, q);
            assert_eq!(plain.stats.excluded, 0, "plain RDT never excludes");
            assert!(plus.stats.filter_set_size <= plain.stats.filter_set_size);
            total_excluded += plus.stats.excluded;
        }
        assert!(
            total_excluded > 0,
            "exclusion fires on a uniform cloud at moderate t"
        );
    }

    #[test]
    fn witness_cost_not_higher_than_plain() {
        let ds = uniform(1500, 6, 71);
        let idx = LinearScan::build(ds, Euclidean);
        let params = RdtParams::new(10, 4.0);
        let plain = RdtAlgorithm::new(params).answer(&idx, 3);
        let plus = RdtAlgorithm::plus(params).answer(&idx, 3);
        assert!(
            plus.stats.witness_pairs <= plain.stats.witness_pairs,
            "RDT+ must not pay more witness maintenance: {} vs {}",
            plus.stats.witness_pairs,
            plain.stats.witness_pairs
        );
    }

    #[test]
    fn recall_close_to_plain_at_matched_t() {
        let ds = uniform(600, 3, 72);
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        let params = RdtParams::new(8, 8.0);
        let (plain, plus) = (RdtAlgorithm::new(params), RdtAlgorithm::plus(params));
        let mut plain_hits = 0usize;
        let mut plus_hits = 0usize;
        let mut total = 0usize;
        for q in 0..25usize {
            let truth = truth_set(&bf, q, 8);
            let hits =
                |ans: RknnAnswer| ans.result.iter().filter(|n| truth.contains(&n.id)).count();
            plain_hits += hits(plain.answer(&idx, q));
            plus_hits += hits(plus.answer(&idx, q));
            total += truth.len();
        }
        let plain_recall = plain_hits as f64 / total as f64;
        let plus_recall = plus_hits as f64 / total as f64;
        assert!(plain_recall > 0.95);
        assert!(
            plus_recall > plain_recall - 0.1,
            "{plus_recall} vs {plain_recall}"
        );
    }

    #[test]
    fn first_k_candidates_are_never_excluded() {
        // With a dataset of exactly k points (plus query), nothing can reach
        // k witnesses, so RDT+ degenerates to RDT.
        let ds = uniform(6, 2, 73);
        let idx = LinearScan::build(ds, Euclidean);
        let plus = RdtAlgorithm::plus(RdtParams::new(5, 10.0)).answer(&idx, 0);
        assert_eq!(plus.stats.excluded, 0);
    }

    #[test]
    fn reasonable_recall_without_manual_t() {
        let ds = rknn_data::sequoia_like(2000, 61).into_shared();
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds.clone(), Euclidean);
        let adaptive = RdtAlgorithm::adaptive(10, 2.0, 1.0);
        let queries = rknn_data::sample_queries(ds.len(), 20, 5);
        let mut hits = 0usize;
        let mut total = 0usize;
        for &q in &queries {
            let truth = truth_set(&bf, q, 10);
            let got = adaptive.answer(&idx, q);
            hits += got.result.iter().filter(|n| truth.contains(&n.id)).count();
            total += truth.len();
        }
        let recall = hits as f64 / total.max(1) as f64;
        assert!(recall >= 0.9, "adaptive-t recall {recall} too low");
    }

    #[test]
    fn terminates_well_before_exhaustion_on_low_id_data() {
        let ds = rknn_data::sequoia_like(5000, 62).into_shared();
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let ans = RdtAlgorithm::adaptive(10, 2.0, 1.0).answer(&idx, 17);
        assert!(
            ans.stats.retrieved < ds.len() / 4,
            "adaptive search should stop early on 2-d data, retrieved {}",
            ans.stats.retrieved
        );
    }

    #[test]
    fn safety_factor_trades_work_for_recall() {
        let ds = rknn_data::fct_like(2000, 63).into_shared();
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let small = RdtAlgorithm::adaptive(10, 1.0, 1.0).answer(&idx, 5);
        let large = RdtAlgorithm::adaptive(10, 3.0, 1.0).answer(&idx, 5);
        assert!(small.stats.retrieved <= large.stats.retrieved);
    }

    #[test]
    fn plain_variant_has_no_exclusions_and_no_false_positives() {
        let ds = rknn_data::fct_like(1200, 64).into_shared();
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        let adaptive = RdtAlgorithm::adaptive(5, 2.0, 1.0).with_variant(RdtVariant::Plain);
        for q in [0usize, 600] {
            let ans = adaptive.answer(&idx, q);
            assert_eq!(ans.stats.excluded, 0);
            let truth = truth_set(&bf, q, 5);
            for n in &ans.result {
                assert!(
                    truth.contains(&n.id),
                    "plain adaptive RDT reported non-member"
                );
            }
        }
    }

    #[test]
    fn external_queries_work() {
        let ds = rknn_data::sequoia_like(1000, 65).into_shared();
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let adaptive = RdtAlgorithm::adaptive(5, 2.5, 1.0);
        let ans = adaptive.answer_at(&idx, &[0.5, 0.5]);
        // Sanity: answers are dataset members with consistent distances.
        for n in &ans.result {
            assert!(n.id < ds.len());
        }
    }

    #[test]
    #[should_panic(expected = "safety factor")]
    fn rejects_bad_safety() {
        let _ = RdtAlgorithm::adaptive(5, 0.0, 1.0);
    }
}
