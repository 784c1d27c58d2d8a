//! Perf snapshot: the batch all-points RkNN job against the sequential
//! scalar baseline, plus the same job on every tree substrate, recorded as
//! `BENCH_rdt.json`.
//!
//! The workload is the acceptance scenario of the batch-engine PR — an
//! all-points RkNN job (n≈2000, d=32, k=10) on the sequential-scan
//! substrate — measured three ways:
//!
//! 1. **scalar sequential**: one `RdtAlgorithm::answer` per point with
//!    per-query allocations and full-precision distances
//!    ([`rknn_core::FullPrecision`] disables threshold pruning) — the
//!    pre-batch-engine execution path;
//! 2. **fast sequential**: the batch driver with one worker — scratch
//!    reuse plus early abandonment, no parallelism;
//! 3. **batch**: the batch driver with four workers.
//!
//! A fourth section records one batch run per substrate (linear scan,
//! cover tree, VP-tree, ball tree, M-tree, R-tree), all through the shared
//! tree-traversal core, with build time, batch time and work counters —
//! the perf trajectory's tree-index datapoints.
//!
//! A fifth section (`algorithms`) runs **every method** — RDT, RDT+ and
//! all five baselines — over one sampled query batch on a cover-tree
//! forward index through the algorithm-generic `RknnAlgorithm` driver:
//! per-method wall time (sequential and batch-parallel with the batch
//! speedup), distance computations, precompute time and result counts.
//! For naive and SFT it additionally replays the pre-refactor **boxed**
//! execution path (full-precision metric, allocating `knn`/`range_count`
//! through unbounded cursors) on the same data and asserts the unified
//! path needs no more distance evaluations — the recorded
//! `boxed_dist_comps`-vs-`dist_comps` gap is the `dist_lt`/bounded-cursor
//! pruning dividend. Override the per-algorithm query sample with
//! `RKNN_BENCH_ALGO_QUERIES` (default 48).
//!
//! A `dynamic` section runs a mixed insert/delete workload through the
//! maintained all-points stream ([`rknn_rdt::MaintainedStream`]) on a
//! dynamic cover tree in the exact regime (t = 50), verifies the
//! maintained table byte-identical to a rebuild-from-scratch, and records
//! per-update latency, updates/sec, the `d_k`-cache maintenance cost and
//! the update-vs-rebuild ratio. The workload repeats `RKNN_BENCH_CHURN_REPS`
//! times (same seed, identical update sequence) and records min/max spread
//! next to the best-pass headline, plus requested-vs-effective thread
//! counts (`RKNN_BENCH_CHURN_N`, `RKNN_BENCH_CHURN_UPDATES` override the
//! workload size).
//!
//! A `streaming_build` section assembles a large dataset
//! (`RKNN_BENCH_STREAM_N` rows, default 10^6, at `RKNN_BENCH_STREAM_DIM`)
//! chunk by chunk through [`rknn_core::DatasetBuilder`] and records the
//! builder's own allocation accounting: final vs peak bytes, realloc
//! count, and the peak ratio for both the presized path (reserve-ahead,
//! exactly 1.0x) and the unhinted path (amortized doubling transient,
//! recorded honestly).
//!
//! A `scaling` section runs `rknn_eval`'s scaling experiment: per-algorithm
//! precompute/batch/query-time curves over an n-grid of decades up to
//! `RKNN_BENCH_SCALE_N` (default 10^5; set 1000000 for the 10^6 sweep) and
//! a d-grid (`RKNN_BENCH_SCALE_DIMS`) at fixed n, measured against exact
//! sampled ground truth cached under `RKNN_BENCH_TRUTH_CACHE` (default
//! `target/truth-cache`), with quadratic baselines skipped-with-reason
//! above their honesty caps and RDT-vs-baseline crossover points recorded.
//!
//! The `kernels` and `algorithms` sections additionally record the
//! opt-in **fast kernel tier**: per dimensionality, the FMA fused
//! reduction (`fast_ns_per_dist`, vs the exact dispatched kernel) and the
//! f32-storage tile path (`f32_tile_ns_per_dist`, streaming half the
//! bytes); per algorithm, the same query batch replayed on a cover tree
//! built with [`Euclidean::fast`], asserted answer-identical to the exact
//! tier before its wall times are recorded. Top-level honesty fields pin
//! down what actually ran: `kernel_tier` (the process-default tier),
//! `fma_available` / `fast_ops_fma` (whether the fast tier resolved to
//! real FMA kernels or fell back to the exact backend), and the
//! f64-vs-f32 resident storage bytes.
//!
//! Result sets are asserted identical across every path and substrate
//! before any number is written. Wall times take the best of
//! `RKNN_BENCH_REPS` repetitions (default 3) to damp scheduler noise;
//! distance-computation counters are identical across the three linear
//! paths by design (early abandonment changes coordinate work per
//! evaluation, not the number of evaluations). Environment overrides:
//! `RKNN_BENCH_N`, `RKNN_BENCH_DIM`, `RKNN_BENCH_K`, `RKNN_BENCH_T`,
//! `RKNN_BENCH_THREADS`, `RKNN_BENCH_OUT` (output path, default
//! `BENCH_rdt.json`).

use rknn_baselines::{MrknncopAlgorithm, NaiveRknn, RdnnAlgorithm, Sft, TplAlgorithm};
use rknn_core::kernel::{self, Backend};
use rknn_core::{DatasetBuilder, Euclidean, FullPrecision, Metric, Neighbor, PointId, SearchStats};
use rknn_eval::experiments::churn::{run_churn, ChurnConfig, ChurnReport};
use rknn_eval::experiments::scaling::{run_scaling, ScalingConfig, ScalingPoint};
use rknn_eval::experiments::substrates::{run_substrate_sweep, SubstrateSweepConfig};
use rknn_index::{CoverTree, KnnIndex, LinearScan};
use rknn_rdt::algorithm::{
    run_algorithm_all_points, run_algorithm_batch, AlgorithmAnswer, AlgorithmOutcome, RdtAlgorithm,
    RknnAlgorithm,
};
use rknn_rdt::{RdtParams, RknnAnswer};
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let r = f();
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    (best_ms, last.expect("at least one repetition"))
}

/// One row of the `algorithms` section.
struct AlgoEntry {
    name: String,
    precompute_ms: f64,
    seq_ms: f64,
    batch_ms: f64,
    fast_seq_ms: f64,
    fast_batch_ms: f64,
    dist_comps: u64,
    result_members: usize,
    boxed_dist_comps: Option<u64>,
}

impl AlgoEntry {
    fn to_json(&self) -> String {
        let boxed = self
            .boxed_dist_comps
            .map(|b| format!(", \"boxed_dist_comps\": {b}"))
            .unwrap_or_default();
        format!(
            "    {{ \"algorithm\": \"{name}\", \"precompute_ms\": {pre:.2}, \
             \"seq_ms\": {seq:.2}, \"batch_ms\": {batch:.2}, \"batch_speedup\": {spd:.2}, \
             \"fast_seq_ms\": {fseq:.2}, \"fast_batch_ms\": {fbatch:.2}, \
             \"fast_tier_speedup\": {fspd:.2}, \
             \"dist_comps\": {dist}, \"result_members\": {members}{boxed} }}",
            name = self.name,
            pre = self.precompute_ms,
            seq = self.seq_ms,
            batch = self.batch_ms,
            spd = if self.batch_ms > 0.0 {
                self.seq_ms / self.batch_ms
            } else {
                1.0
            },
            fseq = self.fast_seq_ms,
            fbatch = self.fast_batch_ms,
            fspd = if self.fast_seq_ms > 0.0 {
                self.seq_ms / self.fast_seq_ms
            } else {
                1.0
            },
            dist = self.dist_comps,
            members = self.result_members,
        )
    }
}

/// Prepares `algo` and measures the sampled query batch through the
/// unified driver, sequentially and batch-parallel; batch results are
/// asserted identical to the sequential run before anything is recorded.
fn measure_algorithm<A>(
    mut algo: A,
    index: &CoverTree<Euclidean>,
    queries: &[PointId],
    threads: usize,
    reps: usize,
) -> (AlgoEntry, Vec<Vec<PointId>>)
where
    A: RknnAlgorithm<Euclidean, CoverTree<Euclidean>>,
{
    algo.prepare(index);
    let pre_ms = algo.precompute_time().as_secs_f64() * 1e3;
    let (seq_ms, seq) = best_of(reps, || run_algorithm_batch(&algo, index, queries, 1));
    let (batch_ms, out) = best_of(reps, || run_algorithm_batch(&algo, index, queries, threads));
    let ids: Vec<Vec<PointId>> = seq
        .answers
        .iter()
        .map(|a| a.neighbors().iter().map(|n| n.id).collect())
        .collect();
    for (i, ans) in out.answers.iter().enumerate() {
        let got: Vec<PointId> = ans.neighbors().iter().map(|n| n.id).collect();
        assert_eq!(
            got,
            ids[i],
            "{}: batch diverged from sequential",
            algo.name()
        );
    }
    (
        AlgoEntry {
            name: algo.name(),
            precompute_ms: pre_ms,
            seq_ms,
            batch_ms,
            fast_seq_ms: 0.0,
            fast_batch_ms: 0.0,
            dist_comps: seq.stats.search.dist_computations,
            result_members: seq.stats.result_members,
            boxed_dist_comps: None,
        },
        ids,
    )
}

/// Replays the same query batch with `algo` on the fast-tier cover tree,
/// asserts the answer sets identical to the exact-tier run, and attaches
/// the fast-tier wall times to the exact entry. The assertion is the
/// cross-tier honesty gate: fast-tier numbers are only recorded for runs
/// that produced the exact answers.
fn attach_fast_tier<A>(
    exact: (AlgoEntry, Vec<Vec<PointId>>),
    algo: A,
    fast_index: &CoverTree<Euclidean>,
    queries: &[PointId],
    threads: usize,
    reps: usize,
) -> (AlgoEntry, Vec<Vec<PointId>>)
where
    A: RknnAlgorithm<Euclidean, CoverTree<Euclidean>>,
{
    let (mut entry, ids) = exact;
    let (fast, fast_ids) = measure_algorithm(algo, fast_index, queries, threads, reps);
    assert_eq!(
        ids, fast_ids,
        "{}: fast tier diverged from the exact tier",
        entry.name
    );
    entry.fast_seq_ms = fast.seq_ms;
    entry.fast_batch_ms = fast.batch_ms;
    (entry, ids)
}

/// The pre-refactor naive execution path: full-precision metric, one
/// allocating boxed `range_count` per candidate.
fn legacy_boxed_naive(
    index: &CoverTree<FullPrecision<Euclidean>>,
    queries: &[PointId],
    k: usize,
) -> (u64, Vec<Vec<PointId>>) {
    let metric = *index.metric();
    let mut stats = SearchStats::new();
    let mut all = Vec::new();
    for &q in queries {
        let qp = index.point(q).to_vec();
        let mut out: Vec<Neighbor> = Vec::new();
        for x in 0..index.num_points() {
            if x == q {
                continue;
            }
            stats.count_dist();
            let d = metric.dist(index.point(x), &qp);
            let closer = index.range_count(index.point(x), d, true, Some(x), &mut stats);
            if closer < k {
                out.push(Neighbor::new(x, d));
            }
        }
        rknn_core::neighbor::sort_neighbors(&mut out);
        all.push(out.into_iter().map(|n| n.id).collect());
    }
    (stats.dist_computations, all)
}

/// The pre-refactor SFT execution path: boxed `knn` candidate retrieval,
/// full-precision pairwise filtering, boxed `range_count` verification.
fn legacy_boxed_sft(
    index: &CoverTree<FullPrecision<Euclidean>>,
    queries: &[PointId],
    k: usize,
    alpha: f64,
) -> (u64, Vec<Vec<PointId>>) {
    let metric = *index.metric();
    let budget = Sft::new(k, alpha).candidate_budget();
    let mut stats = SearchStats::new();
    let mut all = Vec::new();
    for &q in queries {
        let candidates = index.knn(index.point(q), budget, Some(q), &mut stats);
        let m = candidates.len();
        let mut alive = vec![true; m];
        for i in 0..m {
            let xi = index.point(candidates[i].id);
            let mut closer = 0usize;
            for (j, other) in candidates.iter().enumerate() {
                if i == j {
                    continue;
                }
                stats.count_dist();
                if metric.dist(xi, index.point(other.id)) < candidates[i].dist {
                    closer += 1;
                    if closer >= k {
                        alive[i] = false;
                        break;
                    }
                }
            }
        }
        let mut out = Vec::new();
        for (i, cand) in candidates.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            let closer = index.range_count(
                index.point(cand.id),
                cand.dist,
                true,
                Some(cand.id),
                &mut stats,
            );
            if closer < k {
                out.push(*cand);
            }
        }
        rknn_core::neighbor::sort_neighbors(&mut out);
        all.push(out.into_iter().map(|n| n.id).collect());
    }
    (stats.dist_computations, all)
}

/// One row of the `kernels` section: scalar-reference vs dispatched-backend
/// throughput of the raw Euclidean kernel at one dimensionality, plus the
/// dispatched one-query-to-many tile path.
struct KernelEntry {
    dim: usize,
    scalar_ns_per_dist: f64,
    dispatched_ns_per_dist: f64,
    fast_ns_per_dist: f64,
    tile_ns_per_dist: f64,
    f32_tile_ns_per_dist: f64,
    scalar_gbps: f64,
    dispatched_gbps: f64,
    f32_gbps: f64,
    /// True when the fast tier's dimension gate routed this dim to the
    /// exact kernel (d below [`kernel::FAST_MIN_DIM`] after padding), so
    /// `fast_speedup ≈ 1` here is the gate working, not the tier failing.
    fast_fallback: bool,
}

impl KernelEntry {
    fn speedup(&self) -> f64 {
        if self.dispatched_ns_per_dist > 0.0 {
            self.scalar_ns_per_dist / self.dispatched_ns_per_dist
        } else {
            1.0
        }
    }

    /// Fast tier vs the exact dispatched kernel — the price of staying
    /// bit-identical, measured.
    fn fast_speedup(&self) -> f64 {
        if self.fast_ns_per_dist > 0.0 {
            self.dispatched_ns_per_dist / self.fast_ns_per_dist
        } else {
            1.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "    {{ \"dim\": {dim}, \"scalar_ns_per_dist\": {s:.2}, \
             \"dispatched_ns_per_dist\": {v:.2}, \"speedup\": {sp:.2}, \
             \"fast_ns_per_dist\": {f:.2}, \"fast_speedup\": {fsp:.2}, \
             \"fast_fallback\": {fb}, \
             \"tile_ns_per_dist\": {t:.2}, \"f32_tile_ns_per_dist\": {t32:.2}, \
             \"scalar_gbps\": {sg:.2}, \"dispatched_gbps\": {vg:.2}, \
             \"f32_gbps\": {g32:.2} }}",
            dim = self.dim,
            s = self.scalar_ns_per_dist,
            v = self.dispatched_ns_per_dist,
            sp = self.speedup(),
            f = self.fast_ns_per_dist,
            fsp = self.fast_speedup(),
            fb = self.fast_fallback,
            t = self.tile_ns_per_dist,
            t32 = self.f32_tile_ns_per_dist,
            sg = self.scalar_gbps,
            vg = self.dispatched_gbps,
            g32 = self.f32_gbps,
        )
    }
}

/// Benchmarks the raw `sum_sq` kernel (scalar reference vs the dispatched
/// backend vs the fast-tier fused reduction), the dispatched unbounded
/// `dist_tile`, and the fast-f32 tile over the dataset's f32 mirror, at
/// one dimensionality. Throughput counts the coordinate bytes both
/// operands stream (`2 · dim · 8` per f64 distance, `2 · dim · 4` per f32
/// distance — the f32 tile's bandwidth win is the point of recording it).
fn measure_kernel_dim(dim: usize, reps: usize) -> KernelEntry {
    let n = 2048usize;
    let ds = rknn_data::uniform_cube(n, dim, 0xd15c);
    let q = ds.point(0).to_vec();
    // Enough passes that even the fastest backend runs for ~a millisecond.
    let passes = (4_000_000 / (n * dim.max(1))).max(1);
    let scalar = kernel::ops(Backend::Scalar).expect("scalar backend always exists");
    let run = |ops: &'static kernel::KernelOps| {
        let mut acc = 0.0f64;
        for _ in 0..passes {
            for (_, p) in ds.iter() {
                acc += ops.sum_sq(std::hint::black_box(&q), std::hint::black_box(p));
            }
        }
        acc
    };
    let (scalar_ms, _) = best_of(reps, || run(scalar));
    let (dispatched_ms, _) = best_of(reps, || run(kernel::selected()));
    let fops = kernel::fast_ops();
    let (fast_tier_ms, _) = best_of(reps, || {
        let mut acc = 0.0f64;
        for _ in 0..passes {
            for (_, p) in ds.iter() {
                acc += fops.sum_sq(std::hint::black_box(&q), std::hint::black_box(p));
            }
        }
        acc
    });

    let stride = ds.stride();
    let mut qpad = vec![0.0; stride];
    qpad[..dim].copy_from_slice(&q);
    let bounds = vec![f64::INFINITY; n];
    let mut out = vec![0.0; n];
    let (tile_ms, _) = best_of(reps, || {
        for _ in 0..passes {
            Euclidean.dist_tile(
                std::hint::black_box(&qpad),
                ds.padded_flat(),
                stride,
                dim,
                &bounds,
                &mut out,
            );
        }
        out[n / 2]
    });

    let f32rows = ds.f32_rows();
    let stride32 = f32rows.stride32();
    let mut q32 = vec![0.0f32; stride32];
    for (dst, &v) in q32.iter_mut().zip(q.iter()) {
        *dst = v as f32;
    }
    let m32 = Euclidean::fast_f32();
    let (f32_ms, accepted) = best_of(reps, || {
        let mut ok = true;
        for _ in 0..passes {
            ok &= m32.dist_tile_f32(
                std::hint::black_box(&q32),
                f32rows.padded_flat(),
                stride32,
                dim,
                &bounds,
                &mut out,
            );
        }
        ok
    });
    assert!(
        accepted,
        "fast-f32 tile path declined the f32 mirror at d={dim}"
    );

    let dists = (passes * n) as f64;
    let bytes_per_dist = (2 * dim * 8) as f64;
    let bytes_per_dist_f32 = (2 * dim * 4) as f64;
    let ns = |ms: f64| ms * 1e6 / dists;
    let gbps = |ms: f64| bytes_per_dist * dists / (ms * 1e6);
    KernelEntry {
        dim,
        scalar_ns_per_dist: ns(scalar_ms),
        dispatched_ns_per_dist: ns(dispatched_ms),
        fast_ns_per_dist: ns(fast_tier_ms),
        tile_ns_per_dist: ns(tile_ms),
        f32_tile_ns_per_dist: ns(f32_ms),
        scalar_gbps: gbps(scalar_ms),
        dispatched_gbps: gbps(dispatched_ms),
        f32_gbps: bytes_per_dist_f32 * dists / (f32_ms * 1e6),
        fast_fallback: fops.fma() && !fops.fma_at(dim),
    }
}

fn main() {
    let n = env_usize("RKNN_BENCH_N", 2000);
    let dim = env_usize("RKNN_BENCH_DIM", 32);
    let k = env_usize("RKNN_BENCH_K", 10);
    let t = env_f64("RKNN_BENCH_T", 4.0);
    let threads = env_usize("RKNN_BENCH_THREADS", 4);
    let reps = env_usize("RKNN_BENCH_REPS", 3);
    let clusters = env_usize("RKNN_BENCH_CLUSTERS", 8);
    let sigma = env_f64("RKNN_BENCH_SIGMA", 0.3);
    let out_path = std::env::var("RKNN_BENCH_OUT").unwrap_or_else(|_| "BENCH_rdt.json".into());
    let params = RdtParams::new(k, t);

    let ds = rknn_data::gaussian_blobs(n, dim, clusters, sigma, 0xbe7c).into_shared();
    let scalar_index = LinearScan::build(ds.clone(), FullPrecision(Euclidean));
    let fast_index = LinearScan::build(ds.clone(), Euclidean);

    // 1. Sequential scalar per-query loop (the pre-batch-engine path).
    let scalar_rdt = RdtAlgorithm::new(params);
    let (scalar_ms, scalar_answers) = best_of(reps, || {
        (0..scalar_index.num_points())
            .map(|q| scalar_rdt.answer(&scalar_index, q))
            .collect::<Vec<_>>()
    });

    // 2./3. The batch driver with a freshly prepared shared d_k cache per
    // repetition, so every repetition starts cold.
    let all_points = |workers: usize| -> AlgorithmOutcome<RknnAnswer> {
        let mut algo = RdtAlgorithm::new(params);
        algo.prepare(&fast_index);
        run_algorithm_all_points(&algo, &fast_index, workers)
    };
    // 2. Batch driver, one worker: scratch reuse + early abandonment only.
    let (fast_seq_ms, fast_seq) = best_of(reps, || all_points(1));

    // 3. Batch driver, `threads` workers.
    let (batch_ms, batch) = best_of(reps, || all_points(threads));

    // Identical result sets (and terminations) across all three paths.
    for (q, scalar_ans) in scalar_answers.iter().enumerate() {
        assert_eq!(
            scalar_ans.ids(),
            fast_seq.answers[q].ids(),
            "fast sequential diverged from scalar at q={q}"
        );
        assert_eq!(
            scalar_ans.ids(),
            batch.answers[q].ids(),
            "batch diverged from scalar at q={q}"
        );
        assert_eq!(
            scalar_ans.stats.termination, batch.answers[q].stats.termination,
            "q={q}"
        );
    }

    // 4. The same batch job per substrate, every one through the shared
    //    traversal core — the `rknn_eval` substrate sweep over the same
    //    generator parameters (single-shot timings, no best-of damping; it
    //    verifies every substrate's answers against the linear scan).
    let sweep = run_substrate_sweep(&SubstrateSweepConfig {
        n,
        dim,
        clusters,
        sigma,
        k,
        t,
        threads,
        seed: 0xbe7c,
    });
    let substrate_entries: Vec<String> = sweep
        .iter()
        .map(|r| {
            assert!(r.matches_linear, "{} diverged from the linear scan", r.substrate);
            format!(
                "    {{ \"substrate\": \"{name}\", \"build_ms\": {build:.2}, \"batch_ms\": {batch:.2}, \"total_dist_comps\": {dist}, \"nodes_visited\": {nodes}, \"heap_pushes\": {pushes}, \"identical_to_linear\": true }}",
                name = r.substrate,
                build = r.build_ms,
                batch = r.batch_ms,
                dist = r.total_dist_comps,
                nodes = r.nodes_visited,
                pushes = r.heap_pushes,
            )
        })
        .collect();

    // 5. Every method — RDT, RDT+ and the five baselines — over one
    //    sampled query batch on a cover-tree forward index, all through
    //    the algorithm-generic driver; naive and SFT additionally replay
    //    the pre-refactor boxed path for the pruning-dividend comparison.
    let algo_queries = env_usize("RKNN_BENCH_ALGO_QUERIES", 48).min(n);
    let aq: Vec<PointId> = rknn_data::sample_queries(n, algo_queries, 0xa1fa);
    let cover = CoverTree::build(ds.clone(), Euclidean);
    // The fast-tier replay index: same data, metric pinned to the FMA
    // tier. Every algorithm below runs on both and must produce identical
    // answer sets before its fast-tier wall times are recorded.
    let cover_fast = CoverTree::build(ds.clone(), Euclidean::fast());
    let boxed_cover = CoverTree::build(ds.clone(), FullPrecision(Euclidean));
    let alpha = 4.0;

    let mut algo_entries: Vec<AlgoEntry> = Vec::new();
    // d_k reuse off so the recorded RDT work counters are
    // scheduling-independent and reproducible.
    algo_entries.push(
        attach_fast_tier(
            measure_algorithm(
                RdtAlgorithm::new(params).with_dk_reuse(false),
                &cover,
                &aq,
                threads,
                reps,
            ),
            RdtAlgorithm::new(params).with_dk_reuse(false),
            &cover_fast,
            &aq,
            threads,
            reps,
        )
        .0,
    );
    algo_entries.push(
        attach_fast_tier(
            measure_algorithm(
                RdtAlgorithm::plus(params).with_dk_reuse(false),
                &cover,
                &aq,
                threads,
                reps,
            ),
            RdtAlgorithm::plus(params).with_dk_reuse(false),
            &cover_fast,
            &aq,
            threads,
            reps,
        )
        .0,
    );

    let (mut sft_entry, sft_ids) = attach_fast_tier(
        measure_algorithm(Sft::new(k, alpha), &cover, &aq, threads, reps),
        Sft::new(k, alpha),
        &cover_fast,
        &aq,
        threads,
        reps,
    );
    let (sft_boxed, sft_boxed_ids) = legacy_boxed_sft(&boxed_cover, &aq, k, alpha);
    assert_eq!(
        sft_ids, sft_boxed_ids,
        "SFT unified path diverged from the boxed path"
    );
    assert!(
        sft_entry.dist_comps <= sft_boxed,
        "SFT unified path must not evaluate more distances than the boxed path \
         ({} vs {})",
        sft_entry.dist_comps,
        sft_boxed
    );
    sft_entry.boxed_dist_comps = Some(sft_boxed);
    algo_entries.push(sft_entry);

    let (mut naive_entry, naive_ids) = attach_fast_tier(
        measure_algorithm(NaiveRknn::new(k), &cover, &aq, threads, reps),
        NaiveRknn::new(k),
        &cover_fast,
        &aq,
        threads,
        reps,
    );
    let (naive_boxed, naive_boxed_ids) = legacy_boxed_naive(&boxed_cover, &aq, k);
    assert_eq!(
        naive_ids, naive_boxed_ids,
        "naive unified path diverged from the boxed path"
    );
    assert!(
        naive_entry.dist_comps <= naive_boxed,
        "naive unified path must not evaluate more distances than the boxed path \
         ({} vs {})",
        naive_entry.dist_comps,
        naive_boxed
    );
    naive_entry.boxed_dist_comps = Some(naive_boxed);
    algo_entries.push(naive_entry);

    algo_entries.push(
        attach_fast_tier(
            measure_algorithm(
                TplAlgorithm::new(ds.clone(), Euclidean, k),
                &cover,
                &aq,
                threads,
                reps,
            ),
            TplAlgorithm::new(ds.clone(), Euclidean::fast(), k),
            &cover_fast,
            &aq,
            threads,
            reps,
        )
        .0,
    );
    algo_entries.push(
        attach_fast_tier(
            measure_algorithm(
                MrknncopAlgorithm::new(ds.clone(), Euclidean, k, k),
                &cover,
                &aq,
                threads,
                reps,
            ),
            MrknncopAlgorithm::new(ds.clone(), Euclidean::fast(), k, k),
            &cover_fast,
            &aq,
            threads,
            reps,
        )
        .0,
    );
    algo_entries.push(
        attach_fast_tier(
            measure_algorithm(
                RdnnAlgorithm::new(ds.clone(), Euclidean, k),
                &cover,
                &aq,
                threads,
                reps,
            ),
            RdnnAlgorithm::new(ds.clone(), Euclidean::fast(), k),
            &cover_fast,
            &aq,
            threads,
            reps,
        )
        .0,
    );
    let algorithm_json: Vec<String> = algo_entries.iter().map(AlgoEntry::to_json).collect();

    // 6. Dynamic maintenance: a mixed insert/delete workload through the
    //    maintained all-points stream on a dynamic cover tree, priced per
    //    update against rebuilding the answer table from scratch. Runs in
    //    the exact regime (t = 50) so the maintained table is verified
    //    byte-identical to the rebuild before any number is recorded. The
    //    workload repeats `RKNN_BENCH_CHURN_REPS` times (same seed, so
    //    every pass replays the identical update sequence): headline
    //    numbers are the best pass, and min/max spread over the passes is
    //    recorded like the other sections' best-of damping. Effective
    //    threads are recorded next to the requested count — on a 1-CPU box
    //    a `threads: 4` request still runs one at a time.
    let churn_n = env_usize("RKNN_BENCH_CHURN_N", n.min(600));
    let churn_updates = env_usize("RKNN_BENCH_CHURN_UPDATES", 30);
    let churn_reps = env_usize("RKNN_BENCH_CHURN_REPS", reps.max(2)).max(1);
    let churn_cfg = ChurnConfig {
        n: churn_n,
        dim,
        clusters,
        sigma,
        k,
        t: 50.0,
        updates: churn_updates,
        threads,
        seed: 0xbe7c,
        verify: true,
    };
    let churn_runs: Vec<_> = (0..churn_reps)
        .map(|_| {
            let r = run_churn(&churn_cfg);
            assert!(r.verified, "maintained table diverged from rebuild");
            r
        })
        .collect();
    // Identical seed ⇒ identical workload: counters must agree across reps.
    for r in &churn_runs[1..] {
        assert_eq!(
            (r.inserts, r.deletes),
            (churn_runs[0].inserts, churn_runs[0].deletes),
            "churn reps replayed different workloads"
        );
    }
    let per_update = |r: &ChurnReport| {
        (r.mean_insert_ms * r.inserts as f64 + r.mean_delete_ms * r.deletes as f64)
            / (r.inserts + r.deletes).max(1) as f64
    };
    let churn = churn_runs
        .iter()
        .min_by(|a, b| per_update(a).total_cmp(&per_update(b)))
        .expect("at least one churn rep");
    let spread = |f: fn(&ChurnReport) -> f64| {
        let lo = churn_runs.iter().map(f).fold(f64::INFINITY, f64::min);
        let hi = churn_runs.iter().map(f).fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    let (ins_lo, ins_hi) = spread(|r| r.mean_insert_ms);
    let (del_lo, del_hi) = spread(|r| r.mean_delete_ms);
    let (ratio_lo, ratio_hi) = spread(|r| r.update_vs_rebuild);
    let churn_mean_ms = per_update(churn);
    // Guarded rate: a zero-duration or zero-update churn section emits an
    // explicit skipped marker instead of an `inf` that breaks JSON parsers.
    let updates_per_sec_json = rknn_bench::rate_json(
        "updates_per_sec",
        (churn.inserts + churn.deletes) as f64,
        churn_mean_ms * (churn.inserts + churn.deletes) as f64 / 1e3,
    );
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let dynamic_json = format!(
        "  \"dynamic\": {{ \"n\": {cn}, \"dim\": {dim}, \"k\": {k}, \"t\": 50, \
         \"substrate\": \"cover-tree\", \"inserts\": {ins}, \"deletes\": {del}, \
         \"mean_insert_ms\": {ims:.3}, \"mean_insert_ms_min\": {imslo:.3}, \"mean_insert_ms_max\": {imshi:.3}, \
         \"mean_delete_ms\": {dms:.3}, \"mean_delete_ms_min\": {dmslo:.3}, \"mean_delete_ms_max\": {dmshi:.3}, \
         {updates_per_sec_json}, \"mean_recomputed_queries\": {rec:.1}, \
         \"mean_affected_points\": {aff:.1}, \"dk_maintenance_ms\": {maint:.3}, \
         \"rebuild_ms\": {reb:.2}, \"update_vs_rebuild\": {ratio:.4}, \
         \"update_vs_rebuild_min\": {ratiolo:.4}, \"update_vs_rebuild_max\": {ratiohi:.4}, \
         \"verified_identical\": true, \"reps\": {creps}, \
         \"threads_requested\": {threads}, \"threads_effective\": {teff} }}",
        cn = churn.n,
        ins = churn.inserts,
        del = churn.deletes,
        ims = churn.mean_insert_ms,
        imslo = ins_lo,
        imshi = ins_hi,
        dms = churn.mean_delete_ms,
        dmslo = del_lo,
        dmshi = del_hi,
        rec = churn.mean_recomputed,
        aff = churn.mean_affected,
        maint = churn.maintenance_ms,
        reb = churn.rebuild_ms,
        ratio = churn.update_vs_rebuild,
        ratiolo = ratio_lo,
        ratiohi = ratio_hi,
        creps = churn_reps,
        teff = threads.min(parallelism),
    );

    // 7. Raw kernel throughput: the scalar reference against the
    //    dispatched SIMD backend at d ∈ {8, 32, 128}, plus the dispatched
    //    tile path. Recorded with the backend name and the host's
    //    parallelism so `batch_speedup ≈ 1` on a 1-CPU box (and
    //    `speedup ≈ 1` when dispatch resolves to scalar) are readable from
    //    the snapshot alone.
    let backend = kernel::selected().backend();
    let kernel_entries: Vec<KernelEntry> = [8usize, 32, 128]
        .iter()
        .map(|&d| measure_kernel_dim(d, reps))
        .collect();
    let kernels_json: Vec<String> = kernel_entries.iter().map(KernelEntry::to_json).collect();
    let available: Vec<String> = kernel::available()
        .iter()
        .map(|b| format!("\"{}\"", b.name()))
        .collect();
    let fops = kernel::fast_ops();

    // 8. Streaming-build honesty: a large dataset assembled chunk by chunk
    //    through `DatasetBuilder`, with the builder's own allocation
    //    accounting recorded. The presized path (what the file loaders use
    //    whenever the row count is known up front) must stay under 1.5x of
    //    the final resident bytes — it lands at exactly 1.0x with zero
    //    reallocs. The unhinted path records the amortized doubling
    //    transient honestly instead of hiding it.
    let stream_n = env_usize("RKNN_BENCH_STREAM_N", 1_000_000);
    let stream_dim = env_usize("RKNN_BENCH_STREAM_DIM", 16);
    const STREAM_CHUNK: usize = 4096;
    let stream_build = |presize: bool| {
        let mut b = if presize {
            DatasetBuilder::with_capacity(stream_dim, stream_n)
        } else {
            DatasetBuilder::new(stream_dim)
        };
        // xorshift64* filler: the cost under test is the builder's append
        // path, not the generator.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut chunk = Vec::with_capacity(STREAM_CHUNK * stream_dim);
        let start = Instant::now();
        let mut left = stream_n;
        while left > 0 {
            let rows = left.min(STREAM_CHUNK);
            chunk.clear();
            for _ in 0..rows * stream_dim {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
                chunk.push((bits >> 11) as f64 / (1u64 << 53) as f64);
            }
            b.push_chunk(&chunk).expect("generated rows are finite");
            left -= rows;
        }
        let (built, stats) = b.build_counted();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(built.len(), stream_n, "streaming build dropped rows");
        (stats, ms)
    };
    let (presized, presized_ms) = stream_build(true);
    let (unhinted, unhinted_ms) = stream_build(false);
    let build_stats_json = |s: &rknn_core::BuildStats, ms: f64| {
        format!(
            "{{ \"final_bytes\": {fb}, \"peak_bytes\": {pb}, \
             \"peak_ratio\": {pr:.4}, \"reallocs\": {ra}, \"build_ms\": {ms:.1} }}",
            fb = s.final_bytes,
            pb = s.peak_bytes,
            pr = s.peak_ratio(),
            ra = s.reallocs,
        )
    };
    let streaming_json = format!(
        "  \"streaming_build\": {{ \"rows\": {stream_n}, \"dim\": {stream_dim}, \
         \"chunk_rows\": {STREAM_CHUNK}, \"presized\": {p}, \"unhinted\": {u} }}",
        p = build_stats_json(&presized, presized_ms),
        u = build_stats_json(&unhinted, unhinted_ms),
    );

    // 9. Scaling curves: per-algorithm wall/distance curves over an n-grid
    //    of decades from 10^3 up to `RKNN_BENCH_SCALE_N` (default 10^5;
    //    set the env to 1000000 for the 10^6 run) and a d-grid at fixed n,
    //    against exact sampled ground truth cached by dataset fingerprint.
    //    Quadratic methods run only below their honesty caps and are
    //    recorded as skipped-with-reason above them; RDT-vs-baseline
    //    crossover points close the section.
    let scale_max_n = env_usize("RKNN_BENCH_SCALE_N", 100_000);
    let scale_dims: Vec<usize> = std::env::var("RKNN_BENCH_SCALE_DIMS")
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_else(|_| vec![8, 32, 128]);
    let mut scale_grid = Vec::new();
    let mut decade = 1_000usize;
    while decade < scale_max_n {
        scale_grid.push(decade);
        decade = decade.saturating_mul(10);
    }
    scale_grid.push(scale_max_n);
    let truth_cache =
        std::env::var("RKNN_BENCH_TRUTH_CACHE").unwrap_or_else(|_| "target/truth-cache".into());
    let scale_cfg = ScalingConfig {
        n_grid: scale_grid,
        d_grid: scale_dims,
        d_grid_n: 10_000.min(scale_max_n),
        k,
        queries: env_usize("RKNN_BENCH_SCALE_QUERIES", 32),
        threads,
        cache_dir: Some(std::path::PathBuf::from(truth_cache)),
        ..ScalingConfig::default()
    };
    eprintln!(
        "[scaling: n-grid {:?}, d-grid {:?} at n={}]",
        scale_cfg.n_grid, scale_cfg.d_grid, scale_cfg.d_grid_n
    );
    let scale_report = run_scaling(&scale_cfg);
    // Exact baselines must agree exactly with the exact sampled truth —
    // result identity is gated unconditionally, like every other section.
    for p in scale_report.n_points.iter().chain(&scale_report.d_points) {
        for e in &p.entries {
            if matches!(e.algorithm.as_str(), "MRkNNCoP" | "RdNN" | "TPL" | "naive") {
                assert!(
                    e.recall >= 1.0,
                    "{} at n={} d={}: exact method recall {:.4} < 1 vs exact truth",
                    e.algorithm,
                    p.n,
                    p.dim,
                    e.recall
                );
            }
        }
    }
    let point_json = |p: &ScalingPoint| {
        let entries: Vec<String> = p
            .entries
            .iter()
            .map(|e| {
                format!(
                    "        {{ \"algorithm\": \"{a}\", \"precompute_ms\": {pre:.2}, \
                     \"precompute_dist\": {pd}, \"batch_ms\": {bm:.2}, \
                     \"query_ms\": {qm:.4}, \"dist_per_query\": {dq:.1}, \
                     \"total_ms\": {tm:.2}, \"recall\": {rc:.4} }}",
                    a = e.algorithm,
                    pre = e.precompute_ms,
                    pd = e.precompute_dist,
                    bm = e.batch_ms,
                    qm = e.query_ms,
                    dq = e.dist_per_query,
                    tm = e.total_ms,
                    rc = e.recall,
                )
            })
            .collect();
        let skipped: Vec<String> = p
            .skipped
            .iter()
            .map(|(a, r)| format!("        {{ \"algorithm\": \"{a}\", \"reason\": \"{r}\" }}"))
            .collect();
        format!(
            "      {{ \"n\": {n}, \"dim\": {d}, \"dataset_build_ms\": {db:.1}, \
             \"index_build_ms\": {ib:.1}, \"truth_ms\": {tms:.1}, \
             \"truth_from_cache\": {tc}, \"truth_mean_size\": {tmean:.2},\n\
             \"entries\": [\n{ent}\n      ],\n      \"skipped\": [{skip}] }}",
            n = p.n,
            d = p.dim,
            db = p.dataset_build_ms,
            ib = p.index_build_ms,
            tms = p.truth_ms,
            tc = p.truth_from_cache,
            tmean = p.truth_mean_size,
            ent = entries.join(",\n"),
            skip = if skipped.is_empty() {
                String::new()
            } else {
                format!("\n{}\n      ", skipped.join(",\n"))
            },
        )
    };
    let n_curve: Vec<String> = scale_report.n_points.iter().map(point_json).collect();
    let d_curve: Vec<String> = scale_report.d_points.iter().map(point_json).collect();
    let crossover_json: Vec<String> = scale_report
        .crossovers
        .iter()
        .map(|c| {
            format!(
                "      {{ \"baseline\": \"{b}\", \"n\": {n}, \"rdt_total_ms\": {r:.2}, \
                 \"baseline_total_ms\": {bl:.2} }}",
                b = c.baseline,
                n = c.n.map(|v| v.to_string()).unwrap_or_else(|| "null".into()),
                r = c.rdt_total_ms,
                bl = c.baseline_total_ms,
            )
        })
        .collect();
    let scaling_json = format!(
        "  \"scaling\": {{ \"dataset\": \"gaussian_blobs\", \"k\": {k}, \"t\": {st}, \
         \"alpha\": {al}, \"sigma\": {sg}, \"clusters\": {cl}, \"queries\": {q}, \
         \"threads\": {threads}, \"seed\": {sd}, \
         \"truth\": \"exact sampled RkNN (pruned naive batch, cached by dataset fingerprint)\", \
         \"naive_max_n\": {nmax}, \"tpl_max_n\": {tmax}, \
         \"n_grid_dim\": {ngd}, \"d_grid_n\": {dgn},\n\
         \"n_curve\": [\n{nc}\n  ],\n  \"d_curve\": [\n{dc}\n  ],\n  \
         \"crossovers\": [\n{cr}\n  ] }}",
        st = scale_cfg.t,
        al = scale_cfg.alpha,
        sg = scale_cfg.sigma,
        cl = scale_cfg.clusters,
        q = scale_cfg.queries,
        sd = scale_cfg.seed,
        nmax = scale_cfg.naive_max_n,
        tmax = scale_cfg.tpl_max_n,
        ngd = scale_cfg.dim,
        dgn = scale_cfg.d_grid_n,
        nc = n_curve.join(",\n"),
        dc = d_curve.join(",\n"),
        cr = crossover_json.join(",\n"),
    );

    // Query-order sums over the batch answers. `total_dist_comps` is index
    // work plus witness maintenance; the other counters are RDT's own.
    let sum = |f: fn(&RknnAnswer) -> u64| batch.answers.iter().map(f).sum::<u64>();
    let index_dist = sum(|a| a.stats.search.dist_computations);
    let witness_pairs = sum(|a| a.stats.witness_pairs);
    let witness_dist = sum(|a| a.stats.witness_dist_comps);
    let retrieved = sum(|a| a.stats.retrieved as u64);
    let speedup_batch = scalar_ms / batch_ms;
    let speedup_fast_seq = scalar_ms / fast_seq_ms;
    let json = format!(
        "{{\n  \"bench\": \"batch_all_points_rknn\",\n  \"substrate\": \"linear-scan\",\n  \"dataset\": \"gaussian_blobs\",\n  \"n\": {n},\n  \"dim\": {dim},\n  \"k\": {k},\n  \"t\": {t},\n  \"threads\": {threads},\n  \"available_parallelism\": {parallelism},\n  \"kernel_backend\": \"{backend_name}\",\n  \"kernel_backends_available\": [{available}],\n  \"kernel_tier\": \"{tier_name}\",\n  \"fma_available\": {fma},\n  \"fast_ops_fma\": {fops_fma},\n  \"fast_min_dim\": {fmd},\n  \"storage\": {{ \"f64_bytes\": {b64}, \"f32_bytes\": {b32} }},\n  \"reps\": {{ \"batch\": {reps}, \"substrates\": 1, \"algorithms\": {reps}, \"kernels\": {reps}, \"dynamic\": {creps}, \"scaling\": 1 }},\n  \"scalar_sequential_ms\": {scalar_ms:.2},\n  \"fast_sequential_ms\": {fast_seq_ms:.2},\n  \"batch_ms\": {batch_ms:.2},\n  \"speedup_fast_sequential\": {speedup_fast_seq:.2},\n  \"speedup_batch\": {speedup_batch:.2},\n  \"identical_results\": true,\n  \"total_dist_comps\": {dist},\n  \"witness_pairs\": {wp},\n  \"witness_dist_comps\": {wd},\n  \"retrieved\": {retr},\n  \"result_members\": {members},\n{dynamics},\n{streaming},\n{scaling},\n  \"kernels\": [\n{kerns}\n  ],\n  \"substrates\": [\n{subs}\n  ],\n  \"algorithms\": {{\n  \"forward_index\": \"cover-tree\",\n  \"queries\": {aqn},\n  \"entries\": [\n{algos}\n  ] }}\n}}\n",
        backend_name = backend.name(),
        available = available.join(", "),
        tier_name = kernel::selected_tier().name(),
        fma = kernel::fma_available(),
        fops_fma = fops.fma(),
        fmd = kernel::FAST_MIN_DIM,
        creps = churn_reps,
        b64 = ds.storage_bytes(),
        b32 = ds.f32_rows().bytes(),
        dist = index_dist + witness_dist,
        wp = witness_pairs,
        wd = witness_dist,
        retr = retrieved,
        members = batch.stats.result_members,
        dynamics = dynamic_json,
        streaming = streaming_json,
        scaling = scaling_json,
        kerns = kernels_json.join(",\n"),
        subs = substrate_entries.join(",\n"),
        aqn = aq.len(),
        algos = algorithm_json.join(",\n"),
    );
    print!("{json}");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("warning: cannot write {out_path}: {e}");
    } else {
        eprintln!("[snapshot written to {out_path}]");
    }
    // The speedup claim is only statistically meaningful at full scale
    // with best-of damping; smoke runs (CI uses n=200, reps=1) gate on
    // result identity above and treat a slow measurement as advisory.
    if n >= 1000 && reps >= 2 {
        assert!(
            speedup_batch >= 1.0,
            "batch driver slower than the scalar baseline: {speedup_batch:.2}x"
        );
    } else if speedup_batch < 1.0 {
        eprintln!(
            "warning: batch measured slower than scalar at smoke scale \
             ({speedup_batch:.2}x) — timing noise, not gated"
        );
    }
    // Kernel-speedup honesty check, advisory like the batch one: with a
    // SIMD backend dispatched, the d=32 per-distance throughput should beat
    // the scalar reference; parity is expected (and recorded) when dispatch
    // resolved to scalar because the host lacks SIMD.
    // Dynamic-maintenance honesty check, advisory like the others: a
    // localized update must be much cheaper than rebuilding the answer
    // table from scratch — but only at a scale where the rebuild takes
    // long enough to measure against. Result identity (`verified`) is
    // gated unconditionally above.
    if churn_n >= 500 && churn_updates >= 10 {
        assert!(
            churn.update_vs_rebuild < 1.0,
            "maintained update not cheaper than rebuild: {:.3}x",
            churn.update_vs_rebuild
        );
    } else if churn.update_vs_rebuild >= 1.0 {
        eprintln!(
            "warning: maintained update measured at {:.3}x of a rebuild at \
             smoke scale — timing noise, not gated",
            churn.update_vs_rebuild
        );
    }
    let d32 = kernel_entries
        .iter()
        .find(|e| e.dim == 32)
        .expect("d=32 entry recorded");
    if backend != Backend::Scalar {
        if n >= 1000 && reps >= 2 {
            assert!(
                d32.speedup() >= 1.0,
                "{} kernel slower than the scalar reference at d=32: {:.2}x",
                backend.name(),
                d32.speedup()
            );
        } else if d32.speedup() < 1.0 {
            eprintln!(
                "warning: {} kernel measured below scalar at smoke scale \
                 ({:.2}x) — timing noise, not gated",
                backend.name(),
                d32.speedup()
            );
        }
    }
    // Fast-tier honesty check, same advisory shape: when the fast tier
    // resolved to real FMA kernels (not the exact-backend fallback), the
    // fused reduction must not lose to the exact dispatched kernel at
    // d=32. When `fast_ops_fma` is false the recorded `fast_speedup ≈ 1`
    // is the honest answer — the host has no FMA and the tier degraded.
    if fops.fma() {
        if n >= 1000 && reps >= 2 {
            assert!(
                d32.fast_speedup() >= 1.0,
                "fast-tier FMA kernel slower than the exact {} kernel at d=32: {:.2}x",
                backend.name(),
                d32.fast_speedup()
            );
        } else if d32.fast_speedup() < 1.0 {
            eprintln!(
                "warning: fast tier measured below the exact kernel at smoke \
                 scale ({:.2}x) — timing noise, not gated",
                d32.fast_speedup()
            );
        }
    }
    // Below the dimension gate the fast tier runs the exact kernel, so the
    // recorded ratio is two timings of the same code: anything far from
    // parity is measurement trouble, and the pre-gate d=8 regression
    // (fast_speedup 0.90) must not reappear.
    for e in kernel_entries.iter().filter(|e| e.fast_fallback) {
        if n >= 1000 && reps >= 2 {
            assert!(
                e.fast_speedup() >= 0.9,
                "fast tier below the exact kernel at gated d={}: {:.2}x \
                 (the gate should have made these identical)",
                e.dim,
                e.fast_speedup()
            );
        } else if e.fast_speedup() < 0.9 {
            eprintln!(
                "warning: gated fast tier measured at {:.2}x of the exact \
                 kernel at d={} at smoke scale — timing noise, not gated",
                e.fast_speedup(),
                e.dim
            );
        }
    }
    // Streaming-build honesty: the presized path must never approach the
    // old 2x repack peak. This is allocation accounting, not timing, so it
    // gates at any scale large enough for the growth policy to matter.
    if stream_n >= 100_000 {
        assert!(
            presized.peak_ratio() < 1.5,
            "presized streaming build peaked at {:.2}x of final bytes",
            presized.peak_ratio()
        );
        assert_eq!(
            presized.reallocs, 0,
            "presized streaming build reallocated {} times",
            presized.reallocs
        );
    }
}
