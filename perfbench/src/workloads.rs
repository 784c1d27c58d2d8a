//! The three workloads. Every input follows from the seed; the offered
//! rates are fixed here, never derived at run time, so latencies compare
//! across commits.

use crate::check::{bits, gate, Answer};
use crate::drive::{
    closed_loop, open_loop, swap, with_writer, Churner, Clocked, ClosedLoop, OpenLoop, SwapLog,
};
use crate::rng::Rng;
use crate::stats::{fast_rate, fast_time, mean, median, ms, peak_rss_mb, percentile, ratio};
use crate::trace::{replay_query, same_answer, QueryTrace};
use rknn_core::{kernel, Dataset, Euclidean, Metric, PointId, QueryScratch};
use rknn_index::{CoverTree, DynamicIndex, LinearScan, VpTree};
use rknn_rdt::{run_algorithm_batch, RdtAlgorithm, RdtParams, RknnAlgorithm, Termination};
use rknn_serve::{advance_snapshot, Engine, EngineConfig, Snapshot};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

type E = Euclidean;
const METRIC: E = Euclidean::exact();

/// Rank of every workload's queries.
const K: usize = 10;
/// `gaussian_blobs` shape shared by all workloads.
const CLUSTERS: usize = 8;
const SIGMA: f64 = 0.08;

/// `serve-warm`: n, d, t and the fixed open-loop rate. The rates are about
/// a quarter of the one-worker capacity measured on a quiet 2-vCPU host at
/// the commit that defined the benchmark (about 800 and 650 qps), so that
/// when other tenants slow the host by a third the engine still runs well
/// below saturation and the median latency measures service, not queueing.
const SERVE_N: usize = 20_000;
const SERVE_DIM: usize = 16;
const SERVE_T: f64 = 5.0;
const SERVE_WARM_RATE_QPS: f64 = 200.0;
/// `churn`: same data shape as `serve-warm`, a `VpTree`, its own rate.
const CHURN_RATE_QPS: f64 = 160.0;
/// One swap per this many reads, each inserting and removing this many.
const CHURN_EVERY: usize = 75;
const CHURN_OPS: usize = 8;
/// `batch-cold`: the `scaling` section's generator at n = 10^5, d = 32.
const BATCH_N: usize = 100_000;
const BATCH_DIM: usize = 32;
const BATCH_T: f64 = 8.0;
const BATCH_QUERIES: usize = 256;
/// Queries per cold batch: the run cycles through the seeded queries in
/// slices of this many, one batch per slice.
const BATCH_SLICE: usize = 16;

/// Distinct query ids the serving workloads cycle through.
const QUERY_POOL: usize = 1000;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Private successor builds after each serving round, with the engine
/// idle.
const PRIVATE_SWAPS: usize = 3;
/// Length of one serving round. Short rounds give many samples, and the
/// host's quiet phases show in some of them.
const ROUND_SECONDS: f64 = 0.5;
/// Engine workers and load-generator threads of the serving workloads;
/// together they may not exceed the CPU count.
const ENGINE_WORKERS: usize = 1;
const GENERATORS: usize = 1;
/// Outstanding requests of the closed-loop probe.
const INFLIGHT: usize = 4;
/// Share of a serving run spent in the closed-loop probe.
const PROBE_SHARE: f64 = 0.25;
/// Open-loop answers checked per serving run; every this-many-th batch
/// answer is checked.
const SERVE_CHECKS: usize = 150;
const BATCH_CHECK_EVERY: usize = 24;
/// Queries of the traced replay (and of its untraced twin).
const SERVE_REPLAY: usize = 1500;
const BATCH_REPLAY: usize = 48;
/// An open-loop run is invalid if the generator fell further behind its
/// schedule than this, or achieved throughput strays from the offered rate
/// by more than `RATE_TOLERANCE`.
const LAG_BOUND_MS: f64 = 250.0;
const RATE_TOLERANCE: f64 = 0.2;

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub mismatches: usize,
    /// Why the run cannot be recorded, when it cannot.
    pub invalid: Option<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub context: Vec<(&'static str, String)>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn note(&mut self, key: &'static str, value: impl ToString) {
        self.context.push((key, value.to_string()));
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn query_seed(seed: u64) -> u64 {
    Rng::new(seed, 1).next_u64()
}

/// Runs `set_up` `reps` times, dropping each result before the next, and
/// returns the last with the median set-up and index-build times.
fn set_up_reps<T>(reps: usize, mut set_up: impl FnMut() -> (T, Duration)) -> (T, f64, f64) {
    let (mut total, mut build) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        let (value, build_time) = set_up();
        total.push(t0.elapsed().as_secs_f64());
        build.push(build_time.as_secs_f64());
        last = Some(value);
    }
    (
        last.expect("at least one set-up"),
        median(&total),
        median(&build),
    )
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

pub fn serve_warm(args: Args) -> Outcome {
    serve(
        args,
        "linear-scan",
        SERVE_WARM_RATE_QPS,
        false,
        LinearScan::build,
    )
}

pub fn churn(args: Args) -> Outcome {
    serve(args, "vp-tree", CHURN_RATE_QPS, true, VpTree::build)
}

/// `serve-warm` and `churn`: a prewarmed snapshot behind a one-worker
/// engine. The run is a sequence of short rounds, each a closed-loop probe
/// window and an open-loop segment at the fixed rate, then a few private
/// successor builds; every metric is the fast decile of its per-round (or
/// per-build) samples over the whole run. With `churn` the writer thread
/// publishes a successor snapshot every `CHURN_EVERY` reads; without it the
/// reads stay on the fully warm epoch 0.
fn serve<I>(
    args: Args,
    substrate: &str,
    rate: f64,
    churn: bool,
    build: fn(Arc<Dataset>, E) -> I,
) -> Outcome
where
    I: DynamicIndex<E> + Clone + 'static,
{
    let params = RdtParams::new(K, SERVE_T);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let ((engine, ds), setup_s, build_s) = set_up_reps(reps, || {
        let ds =
            rknn_data::gaussian_blobs(SERVE_N, SERVE_DIM, CLUSTERS, SIGMA, args.seed).into_shared();
        let (index, build_time) = timed(|| build(ds.clone(), METRIC));
        let algo = RdtAlgorithm::new(params).with_prewarm(SERVE_N);
        let config = EngineConfig {
            workers: ENGINE_WORKERS,
            ..EngineConfig::default()
        };
        let engine = Engine::new(Snapshot::prepare(0, index, algo), config);
        ((engine, ds), build_time)
    });
    let queries = rknn_data::sample_queries(SERVE_N, QUERY_POOL, query_seed(args.seed));
    let base = engine.snapshot();

    // In a traced run the untraced serving phase is only there for the
    // engine-layer metrics, so it takes half the time.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let rounds = ((seconds / ROUND_SECONDS).round() as usize).max(2);
    let round_secs = seconds / rounds as f64;
    let probe_window = Duration::from_secs_f64(round_secs * PROBE_SHARE);
    let per_round = (rate * round_secs * (1.0 - PROBE_SHARE)).round() as usize;
    let stride = (rounds * per_round / SERVE_CHECKS).max(1);
    let offset = (args.seed as usize) % stride;
    // The probe is an instrument, not traffic: only open-loop reads count
    // toward `churn`'s swap cadence.
    let round = |r: usize, hook: &mut dyn FnMut()| {
        let first = r * per_round;
        let probe = closed_loop(&engine, &queries, first, probe_window, INFLIGHT);
        let keep = |i: usize| (first + i) % stride == offset;
        let run = open_loop(&engine, &queries, first, rate, per_round, keep, hook);
        (probe, run)
    };
    // After each round, with the engine idle, the writer builds
    // `PRIVATE_SWAPS` successors of the live snapshot that it never
    // publishes: these give `swap_ms` the write path's own cost, free of
    // contention with the readers.
    let mut churner = Churner::new(ds.clone(), &queries, args.seed, CHURN_OPS);
    let every = churn.then_some(CHURN_EVERY);
    let (results, log) = with_writer(&engine, &mut churner, every, PRIVATE_SWAPS, |writer| {
        let mut results = Vec::with_capacity(rounds);
        for r in 0..rounds {
            results.push(round(r, &mut *writer.on_read));
            (writer.measure)();
        }
        results
    });

    let mut out = Outcome::default();
    let seen = results
        .iter()
        .flat_map(|(_, run)| &run.kept)
        .map(|r| {
            (
                r.epoch,
                r.point_id().expect("point queries"),
                bits(&r.neighbors),
            )
        })
        .collect::<Vec<_>>();
    out.note("checked_answers", seen.len());
    out.mismatches = gate(ds.clone(), params, &log.batches, seen);
    let sum = |f: &dyn Fn(&(ClosedLoop, OpenLoop)) -> usize| results.iter().map(f).sum::<usize>();
    let offered = sum(&|(_, o)| o.offered);
    let rejected = sum(&|(_, o)| o.rejected);
    let completed = sum(&|(_, o)| o.completed);
    let failed = sum(&|(p, o)| p.failed + o.failed);
    let achieved = completed as f64 / results.iter().map(|(_, o)| o.elapsed_s).sum::<f64>();
    let lag_max = results
        .iter()
        .map(|(_, o)| o.lag_max_ms)
        .fold(0.0, f64::max);
    out.attempted = sum(&|(p, o)| p.completed + p.failed + o.offered)
        + log.swap_ms.len()
        + log.private_ms.len()
        + log.failed;
    out.failed = failed + rejected + log.failed + out.mismatches;
    if ENGINE_WORKERS + GENERATORS > nproc() {
        out.invalid = Some(format!(
            "{ENGINE_WORKERS} engine worker and {GENERATORS} generator need {} CPUs, {} available",
            ENGINE_WORKERS + GENERATORS,
            nproc()
        ));
    } else if rejected > 0 {
        out.invalid = Some(format!("{rejected} open-loop requests rejected"));
    } else if lag_max > LAG_BOUND_MS {
        out.invalid = Some(format!(
            "generator lag {lag_max:.1} ms exceeds {LAG_BOUND_MS} ms"
        ));
    } else if (achieved / rate - 1.0).abs() > RATE_TOLERANCE {
        out.invalid = Some(format!("achieved {achieved:.1} qps against {rate} offered"));
    }
    out.note("substrate", substrate);
    out.note("n", SERVE_N);
    out.note("dim", SERVE_DIM);
    out.note("t", SERVE_T);
    out.note("offered_qps", rate);
    out.note("achieved_qps", format!("{achieved:.2}"));
    out.note("open_loop_requests", offered);
    out.note("rounds", rounds);
    out.note("engine_workers", ENGINE_WORKERS);
    out.note("generator_threads", GENERATORS);
    out.note("writer_threads", usize::from(churn));
    out.note("swaps", log.swap_ms.len());
    out.note("private_swaps", log.private_ms.len());

    let per_round_pct = |q: f64| -> Vec<f64> {
        results
            .iter()
            .map(|(_, o)| percentile(&o.latency_ms, q))
            .collect()
    };
    let pooled = |f: &dyn Fn(&OpenLoop) -> &Vec<f64>| -> Vec<f64> {
        results
            .iter()
            .flat_map(|(_, o)| f(o).iter().copied())
            .collect()
    };
    if !args.trace {
        out.set("setup_s", setup_s);
        out.set("latency_p50_ms", fast_time(&per_round_pct(0.50)));
        out.set(
            "throughput_qps",
            fast_rate(&results.iter().map(|(p, _)| p.qps).collect::<Vec<_>>()),
        );
        out.set("swap_ms", fast_time(&log.private_ms));
        out.set("peak_rss_mb", peak_rss_mb());
        return out;
    }

    let (queue, service) = (pooled(&|o| &o.queue_ms), pooled(&|o| &o.service_ms));
    let latency = pooled(&|o| &o.latency_ms);
    out.set("serve.latency_p95_ms", percentile(&latency, 0.95));
    out.set("serve.latency_p99_ms", percentile(&latency, 0.99));
    out.set("serve.queue_wait_p50_ms", percentile(&queue, 0.50));
    out.set("serve.queue_wait_p99_ms", percentile(&queue, 0.99));
    out.set("serve.service_p50_ms", percentile(&service, 0.50));
    out.set("serve.service_p99_ms", percentile(&service, 0.99));
    out.set("serve.submit_lag_max_ms", lag_max);
    out.set("serve.rejected", rejected as f64);
    out.set("serve.failed", failed as f64);
    out.set("index.build_s", build_s);
    advance_metrics(&mut out, &log, engine.snapshot().index(), &churner, SERVE_N);

    let stream: Vec<PointId> = queries.iter().copied().cycle().take(SERVE_REPLAY).collect();
    let replay_churn = churn.then(|| Churner::new(ds.clone(), &queries, args.seed, CHURN_OPS));
    drop(engine);
    let start = || Snapshot::new(0, base.index().clone(), base.algo().warmed());
    let replayed = replay(start, &stream, replay_churn);
    replay_metrics(&mut out, &replayed, &ds, nproc());
    out
}

/// `batch-cold`: rounds of one cold-cache batch through
/// `run_algorithm_batch` (one thread per CPU, the threads sharing the
/// batch's `d_k` cache) and one successor build of the batch-serving
/// snapshot. Round `r` runs slice `r mod slices` of the seeded queries, of
/// `BATCH_SLICE` each, on epoch `r`; the rounds cycle through the slices
/// while time remains, so each slice runs a few times at different moments.
pub fn batch_cold(args: Args) -> Outcome {
    let params = RdtParams::new(K, BATCH_T);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let ((ds, index), setup_s, build_s) = set_up_reps(reps, || {
        let ds =
            rknn_data::gaussian_blobs(BATCH_N, BATCH_DIM, CLUSTERS, SIGMA, args.seed).into_shared();
        let (index, build_time) = timed(|| CoverTree::build(ds.clone(), METRIC));
        ((ds, index), build_time)
    });
    let queries = rknn_data::sample_queries(BATCH_N, BATCH_QUERIES, query_seed(args.seed));
    let slices = queries.len() / BATCH_SLICE;
    let threads = nproc();
    let chunk = BATCH_SLICE.div_ceil(threads);
    let cold = |index: &CoverTree<E>| {
        let mut algo = RdtAlgorithm::new(params);
        RknnAlgorithm::<E, CoverTree<E>>::prepare(&mut algo, index);
        algo
    };

    let mut out = Outcome::default();
    let (mut latency, mut queue, mut lag) = (Vec::new(), Vec::new(), 0.0f64);
    // Every batch rate of each slice.
    let mut slice_qps: Vec<Vec<f64>> = vec![Vec::new(); slices];
    let mut seen: Vec<(u64, PointId, Answer)> = Vec::new();
    let mut churner = Churner::new(ds.clone(), &queries, args.seed, CHURN_OPS);
    let mut log = SwapLog::default();
    let first = cold(&index);
    let mut snap = Snapshot::new(0, index, first);
    // Rounds repeat while another one still fits in the run's time; a
    // traced run needs the engine-layer view of one pass over the queries.
    let started = Instant::now();
    let mut last_round = 0.0;
    let mut r = 0usize;
    while r < slices
        || (!args.trace && started.elapsed().as_secs_f64() + last_round <= args.seconds)
    {
        let round_start = Instant::now();
        let s = r % slices;
        let ids = &queries[s * BATCH_SLICE..][..BATCH_SLICE];
        let algo = cold(snap.index());
        let t0 = Instant::now();
        let batch = run_algorithm_batch(&Clocked(&algo), snap.index(), ids, threads);
        slice_qps[s].push(ids.len() as f64 / batch.elapsed.as_secs_f64());
        for (i, a) in batch.answers.iter().enumerate() {
            latency.push(ms(a.end - a.start));
            queue.push(ms(a.start - t0));
            if i % chunk == 0 {
                lag = lag.max(ms(a.start - t0));
            }
            if (r * BATCH_SLICE + i + args.seed as usize).is_multiple_of(BATCH_CHECK_EVERY) {
                seen.push((snap.epoch(), ids[i], bits(&a.inner.result)));
            }
        }
        out.attempted += ids.len();
        let mut next = None;
        swap(&snap, &mut churner, &mut log, |s| next = Some(s));
        snap = next.unwrap_or(snap);
        last_round = round_start.elapsed().as_secs_f64();
        r += 1;
    }
    out.note("checked_answers", seen.len());
    out.mismatches = gate(ds.clone(), params, &log.batches, seen);
    out.attempted += log.swap_ms.len() + log.failed;
    out.failed = log.failed + out.mismatches;
    out.note("substrate", "cover-tree");
    out.note("n", BATCH_N);
    out.note("dim", BATCH_DIM);
    out.note("t", BATCH_T);
    out.note("batch_queries", BATCH_SLICE);
    out.note("rounds", r);
    out.note("batch_threads", threads);

    if !args.trace {
        // The whole query set at the pace of each slice's fast decile of
        // batches.
        let total_s: f64 = slice_qps
            .iter()
            .map(|v| BATCH_SLICE as f64 / fast_rate(v))
            .sum();
        out.set("setup_s", setup_s);
        out.set("latency_p50_ms", median(&latency));
        out.set("throughput_qps", queries.len() as f64 / total_s);
        out.set("swap_ms", fast_time(&log.swap_ms));
        out.set("peak_rss_mb", peak_rss_mb());
        return out;
    }
    // The batch driver is this workload's executor: every query of a batch
    // is submitted at its start and waits for the queries ahead of it in
    // its chunk; its latency runs from the batch start to its answer.
    let total: Vec<f64> = queue.iter().zip(&latency).map(|(q, s)| q + s).collect();
    out.set("serve.latency_p95_ms", percentile(&total, 0.95));
    out.set("serve.latency_p99_ms", percentile(&total, 0.99));
    out.set("serve.queue_wait_p50_ms", percentile(&queue, 0.50));
    out.set("serve.queue_wait_p99_ms", percentile(&queue, 0.99));
    out.set("serve.service_p50_ms", percentile(&latency, 0.50));
    out.set("serve.service_p99_ms", percentile(&latency, 0.99));
    out.set("serve.submit_lag_max_ms", lag);
    out.set("serve.rejected", 0.0);
    out.set("serve.failed", 0.0);
    out.set("index.build_s", build_s);
    advance_metrics(&mut out, &log, snap.index(), &churner, BATCH_N);
    let start = || Snapshot::new(0, snap.index().clone(), cold(snap.index()));
    let replayed = replay(start, &queries[..BATCH_REPLAY], None);
    replay_metrics(&mut out, &replayed, &ds, threads);
    out
}

/// Sequential replay of a query stream, untraced and traced in lockstep
/// on two copies of the same snapshot (each optionally advanced through
/// the same churn batches as the engine run). The two sides alternate
/// which runs a query first, so neither gets the other's warm caches.
struct Replay {
    plain: Vec<QueryTrace>,
    traced: Vec<QueryTrace>,
    /// `d_k` cache hits and misses of the traced side.
    hits: u64,
    misses: u64,
}

fn replay<I>(
    start: impl Fn() -> Snapshot<E, I, RdtAlgorithm>,
    stream: &[PointId],
    churn: Option<Churner>,
) -> Replay
where
    I: DynamicIndex<E> + Clone,
{
    let mut out = Replay {
        plain: Vec::with_capacity(stream.len()),
        traced: Vec::with_capacity(stream.len()),
        hits: 0,
        misses: 0,
    };
    let tally = |algo: &RdtAlgorithm, out: &mut Replay| {
        let (h, m) = algo.dk_cache().map_or((0, 0), |c| c.hit_stats());
        out.hits += h;
        out.misses += m;
    };
    let (mut plain, mut traced) = (start(), start());
    let mut churners = churn.map(|c| (c.clone(), c));
    let mut w_plain = QueryScratch::new(plain.index().dim());
    let mut w_traced = QueryScratch::new(traced.index().dim());
    for (i, &q) in stream.iter().enumerate() {
        if let Some((c_plain, c_traced)) = churners.as_mut() {
            if i > 0 && i % CHURN_EVERY == 0 {
                tally(traced.algo(), &mut out);
                let advance = |snap: &Snapshot<E, I, RdtAlgorithm>, c: &mut Churner| {
                    advance_snapshot(snap, &c.next_batch())
                        .expect("churn batches are valid")
                        .0
                };
                plain = advance(&plain, c_plain);
                traced = advance(&traced, c_traced);
            }
        }
        let run_plain =
            |w: &mut QueryScratch| replay_query(plain.algo(), plain.index(), q, w, false);
        let run_traced =
            |w: &mut QueryScratch| replay_query(traced.algo(), traced.index(), q, w, true);
        let (p, t) = if i % 2 == 0 {
            let p = run_plain(&mut w_plain);
            (p, run_traced(&mut w_traced))
        } else {
            let t = run_traced(&mut w_traced);
            (run_plain(&mut w_plain), t)
        };
        out.plain.push(p);
        out.traced.push(t);
    }
    tally(traced.algo(), &mut out);
    out
}

/// Write-path metrics: the engine's own advance reports, plus the index
/// clone and index update timed on their own from the benchmark.
fn advance_metrics<I>(out: &mut Outcome, log: &SwapLog, live: &I, churner: &Churner, n: usize)
where
    I: DynamicIndex<E> + Clone,
{
    let build: Vec<f64> = log.reports.iter().map(|r| ms(r.build_time)).collect();
    let maint: Vec<f64> = log
        .reports
        .iter()
        .map(|r| r.maintenance.dist_computations as f64)
        .collect();
    let filled: Vec<f64> = log
        .reports
        .iter()
        .map(|r| r.cache_filled.unwrap_or(0) as f64 / n as f64)
        .collect();
    let (mut clone_ms, mut update_us) = (Vec::new(), Vec::new());
    for _ in 0..8 {
        let ops = churner.clone().next_batch();
        let (mut index, clone_time) = timed(|| live.clone());
        let ((), update_time) = timed(|| {
            for op in &ops {
                match op {
                    rknn_serve::ChurnOp::Insert(c) => {
                        index.insert(c).expect("churn inserts are valid");
                    }
                    rknn_serve::ChurnOp::Remove(id) => assert!(index.remove(*id)),
                }
            }
        });
        clone_ms.push(ms(clone_time));
        update_us.push(update_time.as_secs_f64() * 1e6 / ops.len() as f64);
    }
    out.set("advance.build_ms", median(&build));
    out.set("advance.maint_dist_comps", mean(&maint));
    out.set("advance.index_clone_ms", median(&clone_ms));
    out.set("advance.index_update_us", median(&update_us));
    out.set("advance.cache_filled_ratio", mean(&filled));
}

/// `ns` per distance of `Metric::dist_tile` streaming the dataset's own
/// padded rows, unpruned, at the dispatched backend.
fn ns_per_dist(ds: &Dataset, budget: Duration) -> f64 {
    const BLOCK: usize = 256;
    let (stride, dim, rows) = (ds.stride(), ds.dim(), ds.padded_flat());
    let bounds = vec![f64::INFINITY; BLOCK];
    let mut dists = vec![0.0; BLOCK];
    let (mut evals, mut q) = (0u64, 0usize);
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        let query = ds.padded_point(q % ds.len());
        for start in (0..ds.len()).step_by(BLOCK) {
            let m = BLOCK.min(ds.len() - start);
            METRIC.dist_tile(
                query,
                &rows[start * stride..(start + m) * stride],
                stride,
                dim,
                &bounds[..m],
                &mut dists[..m],
            );
            std::hint::black_box(&dists);
            evals += m as u64;
        }
        q += 7919;
    }
    t0.elapsed().as_nanos() as f64 / evals as f64
}

/// Per-layer metrics of the replay: per-query means of the traced spans
/// and counters, untraced percentiles, and the tracing overhead.
fn replay_metrics(out: &mut Outcome, replayed: &Replay, ds: &Dataset, threads: usize) {
    let identical = replayed
        .plain
        .iter()
        .zip(&replayed.traced)
        .all(|(a, b)| same_answer(&a.answer, &b.answer));
    let closes = replayed.traced.iter().all(|t| t.self_ns() >= 0);
    if !identical || !closes {
        eprintln!(
            "perfbench: traced replay diverged (identical={identical}, spans close={closes})"
        );
        out.mismatches += 1;
        out.failed += 1;
    }
    let t = &replayed.traced;
    let per_query = |f: &dyn Fn(&QueryTrace) -> f64| mean(&t.iter().map(f).collect::<Vec<_>>());
    let plain_ms: Vec<f64> = replayed
        .plain
        .iter()
        .map(|q| q.wall_ns as f64 / 1e6)
        .collect();
    let traced_ms: Vec<f64> = t.iter().map(|q| q.wall_ns as f64 / 1e6).collect();
    out.set("rdt.query_p50_ms", percentile(&plain_ms, 0.50));
    out.set("rdt.query_p95_ms", percentile(&plain_ms, 0.95));
    out.set("rdt.self_ms", per_query(&|q| q.self_ns() as f64 / 1e6));
    out.set(
        "index.filter_ms",
        per_query(&|q| q.spans.filter_ns as f64 / 1e6),
    );
    out.set(
        "index.verify_ms",
        per_query(&|q| q.spans.verify_ns as f64 / 1e6),
    );
    let s = |q: &QueryTrace| q.answer.stats;
    out.set("rdt.retrieved", per_query(&|q| s(q).retrieved as f64));
    out.set(
        "rdt.witness_pairs",
        per_query(&|q| s(q).witness_pairs as f64),
    );
    out.set(
        "rdt.witness_dist_comps",
        per_query(&|q| s(q).witness_dist_comps as f64),
    );
    out.set("rdt.verified", per_query(&|q| s(q).verified as f64));
    out.set("rdt.lazy_accepts", per_query(&|q| s(q).lazy_accepts as f64));
    out.set("rdt.lazy_rejects", per_query(&|q| s(q).lazy_rejects as f64));
    out.set(
        "rdt.rankcap_share",
        per_query(&|q| f64::from(u8::from(s(q).termination == Termination::RankCap))),
    );
    let sum = |f: &dyn Fn(&QueryTrace) -> f64| t.iter().map(f).sum::<f64>();
    out.set(
        "rdt.result_per_retrieved",
        ratio(
            sum(&|q| q.answer.result.len() as f64),
            sum(&|q| s(q).retrieved as f64),
        ),
    );
    out.set(
        "rdt.verify_accept_ratio",
        ratio(
            sum(&|q| s(q).verified_accepted as f64),
            sum(&|q| s(q).verified as f64),
        ),
    );
    let (hits, misses) = (replayed.hits as f64, replayed.misses as f64);
    out.set("dkcache.hits", hits);
    out.set("dkcache.misses", misses);
    out.set("dkcache.hit_rate", ratio(hits, hits + misses));
    out.set(
        "index.dist_comps",
        per_query(&|q| s(q).search.dist_computations as f64),
    );
    out.set(
        "index.nodes_visited",
        per_query(&|q| s(q).search.nodes_visited as f64),
    );
    out.set(
        "index.heap_pushes",
        per_query(&|q| s(q).search.heap_pushes as f64),
    );
    // The batch driver's chunking: the slowest chunk sets the batch time.
    let chunk_ms: Vec<f64> = traced_ms
        .chunks(traced_ms.len().div_ceil(threads.max(1)))
        .map(|c| c.iter().sum())
        .collect();
    out.set(
        "batch.imbalance",
        chunk_ms.iter().copied().fold(0.0, f64::max) / mean(&chunk_ms),
    );
    let ns = ns_per_dist(ds, Duration::from_millis(300));
    let dists = sum(&|q| s(q).total_dist_comps() as f64);
    out.set("kernel.ns_per_dist", ns);
    out.set(
        "kernel.share",
        ratio(dists * ns, sum(&|q| q.wall_ns as f64)),
    );
    out.set("trace.overhead", mean(&traced_ms) / mean(&plain_ms) - 1.0);
    out.note("replay_queries", t.len());
}

/// Context every run records next to its results.
pub fn common_context(out: &mut Outcome, workload: &str, args: Args) {
    out.note("workload", workload);
    out.note("seed", args.seed);
    out.note("seconds", args.seconds);
    out.note("trace", args.trace);
    out.note("k", K);
    out.note("nproc", nproc());
    out.note("kernel_backend", kernel::selected().backend().name());
    out.note("kernel_tier", METRIC.tier().name());
}
