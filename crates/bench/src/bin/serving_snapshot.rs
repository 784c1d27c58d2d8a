//! Serving snapshot: the concurrent engine under open-loop load, recorded
//! as `BENCH_serving.json`.
//!
//! Six sections, every one against the same gaussian-blobs workload on a
//! linear-scan forward index (RDT):
//!
//! 1. **correctness** — every dataset point submitted exactly once through
//!    the sharded executor; the run *asserts* no response was lost or
//!    duplicated and that every answer is byte-identical (ids and distance
//!    bits) to the sequential batch driver before any number is written.
//! 2. **thread_scaling** — closed-loop saturated throughput for every
//!    worker count 1..=available_parallelism (capped by
//!    `RKNN_SERVE_MAX_SCALE_THREADS`), best of `RKNN_SERVE_REPS` passes.
//! 3. **open_loop** — arrivals scheduled at a fixed fraction of the
//!    saturated rate (coordinated-omission-free: latency is measured from
//!    the *scheduled* arrival), recording p50/p99/p999, achieved QPS, the
//!    queue-wait/service split, and the worst dispatcher lag as an honesty
//!    field.
//! 4. **churn** — the same open-loop traffic while a publisher thread
//!    derives successor snapshots off to the side
//!    ([`rknn_serve::advance_snapshot`]: cloned index + carried-over warm
//!    `d_k` cache) and swaps them in mid-stream. Swap `s` is published once
//!    `(s+1)·total/(swaps+1)` queries have been offered, as counted by the
//!    engine, so the swaps land inside the stream at any achieved rate. The
//!    run asserts at least one epoch swap was observed by in-flight queries
//!    and records tail latency across the swaps, each swap's submission
//!    index, and per-swap build cost.
//! 5. **prewarm** — two cold engines, one whose `prepare()` prewarms the
//!    `d_k` cache over a stride sample, one without; the first-100-queries
//!    p99 of each is recorded (satellite: cold-start tail with and without
//!    prewarm).
//! 6. **chaos** — a seeded [`rknn_serve::FaultPlan`] (worker panics,
//!    service delays, an injected queue-full window) driven together with
//!    a deadline storm and malformed coordinate queries. The run *asserts*
//!    zero lost tickets (`submitted == completed + failed`), zero
//!    duplicates, typed errors only, byte-identity of every answered query
//!    to the sequential driver, at least one observed panic, and
//!    post-fault p99 recovery within a generous factor of a fault-free
//!    baseline — then records the injected schedule next to the observed
//!    outcome counts.
//!
//! Rates and percentiles that cannot be computed honestly (zero completed
//! queries, zero-duration spans) are emitted as `null` plus an explicit
//! `*_skipped` reason via [`rknn_bench::rate_json`] / [`rknn_bench::opt_json`]
//! — never `inf`/`NaN`. Environment overrides: `RKNN_SERVE_N`,
//! `RKNN_SERVE_DIM`, `RKNN_SERVE_K`, `RKNN_SERVE_T`, `RKNN_SERVE_WORKERS`
//! (0 = `RKNN_THREADS`, then CPU count), `RKNN_SERVE_QUEUE_CAP`,
//! `RKNN_SERVE_OPEN_QUERIES`, `RKNN_SERVE_RATE_FRACTION`,
//! `RKNN_SERVE_SWAPS`, `RKNN_SERVE_PREWARM`, `RKNN_SERVE_REPS`,
//! `RKNN_SERVE_MAX_SCALE_THREADS`, `RKNN_SERVE_CHAOS_SEED`,
//! `RKNN_SERVE_CHAOS_QUERIES`, `RKNN_SERVE_OUT` (default
//! `BENCH_serving.json`).

use rknn_bench::{opt_json, rate_json};
use rknn_core::kernel;
use rknn_core::Euclidean;
use rknn_index::LinearScan;
use rknn_rdt::algorithm::{requested_threads, run_algorithm_batch, RdtAlgorithm, RknnAlgorithm};
use rknn_rdt::RdtParams;
use rknn_serve::{
    advance_snapshot, latency_summary, run_closed_loop, run_open_loop, AdvanceReport, ChurnOp,
    Engine, EngineConfig, FaultPlan, LatencySummary, OpenLoopConfig, QueryError, QueryRequest,
    RetryPolicy, Snapshot, Ticket,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

type ServeEngine = Engine<Euclidean, LinearScan<Euclidean>, RdtAlgorithm>;
type ServeSnapshot = Snapshot<Euclidean, LinearScan<Euclidean>, RdtAlgorithm>;

/// One `(id, distance-bits)` digest per neighbor — byte-identity currency.
type Digest = Vec<(usize, u64)>;

fn digest(neighbors: &[rknn_core::Neighbor]) -> Digest {
    neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// `"p50_ms": ..` style fields for an optional latency summary, honest
/// about absence.
fn latency_fields(prefix: &str, summary: &Option<LatencySummary>) -> String {
    let field = |key: &str, value: Option<f64>| {
        opt_json(&format!("{prefix}_{key}"), value, "no completed queries")
    };
    [
        field("mean_ms", summary.as_ref().map(|s| s.mean_ms)),
        field("p50_ms", summary.as_ref().map(|s| s.p50_ms)),
        field("p90_ms", summary.as_ref().map(|s| s.p90_ms)),
        field("p99_ms", summary.as_ref().map(|s| s.p99_ms)),
        field("p999_ms", summary.as_ref().map(|s| s.p999_ms)),
        field("max_ms", summary.as_ref().map(|s| s.max_ms)),
    ]
    .join(", ")
}

fn json_u64_array(values: impl IntoIterator<Item = u64>) -> String {
    let items: Vec<String> = values.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn json_ms_array(values: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = values.into_iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}]", items.join(", "))
}

struct Workload {
    ds: Arc<rknn_core::Dataset>,
    params: RdtParams,
}

impl Workload {
    /// A fresh engine on a freshly built + prepared snapshot (epoch 0).
    fn engine(&self, workers: usize, queue_capacity: usize, prewarm: usize) -> ServeEngine {
        Engine::new(
            self.snapshot(prewarm).0,
            EngineConfig {
                workers,
                queue_capacity,
                ..EngineConfig::default()
            },
        )
    }

    /// A prepared epoch-0 snapshot plus its prepare wall time.
    fn snapshot(&self, prewarm: usize) -> (ServeSnapshot, Duration) {
        let index = LinearScan::build(self.ds.clone(), Euclidean);
        let algo = RdtAlgorithm::new(self.params).with_prewarm(prewarm);
        let start = Instant::now();
        let snapshot = Snapshot::prepare(0, index, algo);
        (snapshot, start.elapsed())
    }
}

/// Submits every id in `queries` exactly once (retrying saturated submits),
/// waits for every response, and returns `(digests in submit order,
/// saturation retries)`.
fn submit_all(engine: &ServeEngine, queries: &[usize]) -> (Vec<(usize, u64, Digest)>, usize) {
    let mut tickets = Vec::with_capacity(queries.len());
    let mut retries = 0usize;
    for &q in queries {
        loop {
            match engine.submit(q) {
                Ok(ticket) => {
                    tickets.push(ticket);
                    break;
                }
                Err(QueryError::Saturated { .. }) => {
                    retries += 1;
                    std::thread::yield_now();
                }
                Err(other) => panic!("unexpected rejection in the correctness gate: {other}"),
            }
        }
    }
    let responses = tickets
        .into_iter()
        .map(|t| {
            let r = t.wait().expect("fault-free serving answers every query");
            (
                r.point_id().expect("point queries echo their id"),
                r.epoch,
                digest(&r.neighbors),
            )
        })
        .collect();
    (responses, retries)
}

fn main() {
    let n = env_usize("RKNN_SERVE_N", 4000);
    let dim = env_usize("RKNN_SERVE_DIM", 16);
    let k = env_usize("RKNN_SERVE_K", 10);
    let t = env_f64("RKNN_SERVE_T", 5.0);
    let workers_requested = env_usize("RKNN_SERVE_WORKERS", 0);
    let queue_cap = env_usize("RKNN_SERVE_QUEUE_CAP", 128).max(1);
    let open_queries = env_usize("RKNN_SERVE_OPEN_QUERIES", 2000);
    let rate_fraction = env_f64("RKNN_SERVE_RATE_FRACTION", 0.6).clamp(0.05, 1.0);
    let swaps = env_usize("RKNN_SERVE_SWAPS", 3).max(1);
    let prewarm = env_usize("RKNN_SERVE_PREWARM", (n / 10).max(64));
    let reps = env_usize("RKNN_SERVE_REPS", 2).max(1);
    let out = std::env::var("RKNN_SERVE_OUT").unwrap_or_else(|_| "BENCH_serving.json".into());

    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers_effective = requested_threads(workers_requested).max(1);
    let max_scale = env_usize("RKNN_SERVE_MAX_SCALE_THREADS", parallelism).max(1);

    let ds = rknn_data::gaussian_blobs(n, dim, 5, 0.5, 0x5e41).into_shared();
    let workload = Workload {
        ds: ds.clone(),
        params: RdtParams::new(k, t),
    };
    eprintln!(
        "serving snapshot: n={n} dim={dim} k={k} t={t} workers={workers_effective} \
         (requested {workers_requested}) queue_cap={queue_cap}/shard"
    );

    // Sequential reference: the single-threaded batch driver on an
    // identically prepared snapshot. Every concurrent answer below is
    // asserted byte-identical to this before any number is recorded.
    let all_ids: Vec<usize> = (0..n).collect();
    let (ref_snapshot, _) = workload.snapshot(0);
    let reference = run_algorithm_batch(ref_snapshot.algo(), ref_snapshot.index(), &all_ids, 1);
    let reference: Vec<Digest> = reference
        .answers
        .iter()
        .map(|a| digest(&a.result))
        .collect();

    // ---- Section 1: correctness gate -----------------------------------
    eprintln!("[1/6] correctness gate ({n} queries, {workers_effective} workers)");
    let engine = workload.engine(workers_effective, queue_cap, 0);
    let gate_start = Instant::now();
    let (responses, gate_retries) = submit_all(&engine, &all_ids);
    let gate_elapsed = gate_start.elapsed();
    let gate_stats = engine.shutdown();
    let mut seen = vec![0usize; n];
    for (i, (query, epoch, got)) in responses.iter().enumerate() {
        assert_eq!(*query, all_ids[i], "ticket order matches submit order");
        assert_eq!(*epoch, 0, "single-snapshot run answers under epoch 0");
        seen[*query] += 1;
        assert_eq!(
            got, &reference[*query],
            "q={query}: concurrent answer differs from the sequential driver"
        );
    }
    let lost = seen.iter().filter(|&&c| c == 0).count();
    let duplicated = seen.iter().filter(|&&c| c > 1).count();
    assert_eq!(
        (lost, duplicated),
        (0, 0),
        "every query answered exactly once"
    );
    assert_eq!(gate_stats.completed, n as u64);
    eprintln!(
        "      identical to sequential driver; {} stolen, {gate_retries} saturation retries",
        gate_stats.stolen
    );

    // ---- Section 2: thread-scaling curve -------------------------------
    eprintln!("[2/6] thread scaling (1..={max_scale} workers, best of {reps})");
    let scale_total = (2 * n).min(4 * open_queries.max(1));
    let mut scaling_rows = Vec::new();
    let mut saturated_at_effective: Option<f64> = None;
    for w in 1..=max_scale {
        let mut best_qps: Option<f64> = None;
        let mut best_service: Option<LatencySummary> = None;
        let mut stolen = 0u64;
        let mut retries = 0usize;
        for _ in 0..reps {
            let engine = workload.engine(w, queue_cap, 0);
            let report = run_closed_loop(&engine, &all_ids, scale_total);
            let stats = engine.shutdown();
            assert_eq!(report.completed, scale_total, "closed loop completes all");
            if report.qps > best_qps {
                best_qps = report.qps;
                best_service = report.service;
            }
            stolen = stolen.max(stats.stolen);
            retries = retries.max(report.retries);
        }
        if w == workers_effective {
            saturated_at_effective = best_qps;
        }
        eprintln!(
            "      w={w}: {} qps",
            best_qps.map_or("skipped".into(), |q| format!("{q:.0}"))
        );
        scaling_rows.push(format!(
            "    {{ \"workers\": {w}, {qps}, {svc}, \"stolen\": {stolen}, \
             \"saturation_retries\": {retries}, \"queries\": {scale_total} }}",
            qps = opt_json("qps", best_qps, "zero-duration section"),
            svc = latency_fields("service", &best_service),
        ));
    }
    // When the effective worker count lies above the scaling cap the curve
    // never probed it — measure it directly so the open-loop rate is still
    // derived from data, not guessed.
    let saturated_qps = saturated_at_effective.unwrap_or_else(|| {
        let engine = workload.engine(workers_effective, queue_cap, 0);
        let report = run_closed_loop(&engine, &all_ids, scale_total);
        engine.shutdown();
        report.qps.unwrap_or(1000.0)
    });

    // ---- Section 3: open-loop latency ----------------------------------
    let target_qps = (saturated_qps * rate_fraction).max(1.0);
    eprintln!(
        "[3/6] open loop ({open_queries} queries at {target_qps:.0} qps — \
         {rate_fraction:.2}x saturated {saturated_qps:.0})"
    );
    let engine = workload.engine(workers_effective, queue_cap, 0);
    let open = run_open_loop(
        &engine,
        &all_ids,
        &OpenLoopConfig {
            rate_qps: target_qps,
            total: open_queries,
            deadline: None,
        },
    );
    let open_stats = engine.shutdown();
    assert_eq!(open.completed + open.rejected, open.offered);
    assert_eq!(open_stats.completed as usize, open.completed);
    let open_json = format!(
        "  \"open_loop\": {{ \"target_qps\": {target_qps:.1}, \"offered\": {off}, \
         \"completed\": {comp}, \"rejected\": {rej}, {aq}, {lat}, {svc}, {qw}, \
         \"max_submit_lag_ms\": {lag:.3}, \"epochs\": {eps}, {f100} }}",
        off = open.offered,
        comp = open.completed,
        rej = open.rejected,
        aq = opt_json("achieved_qps", open.achieved_qps, "zero completed queries"),
        lat = latency_fields("latency", &open.latency),
        svc = latency_fields("service", &open.service),
        qw = latency_fields("queue_wait", &open.queue_wait),
        lag = open.max_submit_lag_ms,
        eps = json_u64_array(open.epochs.iter().copied()),
        f100 = opt_json(
            "first_100_p99_ms",
            open.first_100_p99_ms,
            "fewer than 100 completed queries"
        ),
    );

    // ---- Section 4: churn + queries across snapshot swaps --------------
    eprintln!("[4/6] churn scenario ({swaps} swaps under open-loop traffic)");
    // Queried ids stay in the live low half; removals tombstone ids from
    // the upper half so an in-flight query never names a dead point.
    let live_queries: Vec<usize> = (0..n / 2).collect();
    let churn_total = open_queries;
    let engine = workload.engine(workers_effective, queue_cap, 0);
    let (churn_report, (swap_at, advances)) = std::thread::scope(|scope| {
        let engine_ref = &engine;
        let ds_ref = &ds;
        let publisher = scope.spawn(move || {
            let mut swap_at: Vec<u64> = Vec::with_capacity(swaps);
            let mut reports: Vec<AdvanceReport> = Vec::with_capacity(swaps);
            for s in 0..swaps {
                // Offered so far: accepted plus rejected submissions. The
                // stream offers `churn_total` in all, so every mark is
                // reached before the open loop returns.
                let mark = ((s + 1) * churn_total / (swaps + 1)) as u64;
                let at = loop {
                    let st = engine_ref.stats();
                    let offered = st.submitted + st.rejected;
                    if offered >= mark {
                        break offered;
                    }
                    std::thread::sleep(Duration::from_micros(50));
                };
                let pinned = engine_ref.snapshot();
                let ops = vec![
                    ChurnOp::Insert(ds_ref.point(s % ds_ref.len()).to_vec()),
                    ChurnOp::Remove(n / 2 + s),
                ];
                let (next, report) =
                    advance_snapshot(&pinned, &ops).expect("advance accepts dataset rows");
                engine_ref.publish(next);
                swap_at.push(at);
                reports.push(report);
            }
            (swap_at, reports)
        });
        let report = run_open_loop(
            engine_ref,
            &live_queries,
            &OpenLoopConfig {
                rate_qps: target_qps,
                total: churn_total,
                deadline: None,
            },
        );
        (report, publisher.join().expect("publisher thread"))
    });
    let churn_stats = engine.shutdown();
    assert_eq!(churn_report.completed + churn_report.rejected, churn_total);
    assert_eq!(churn_stats.swaps, swaps as u64);
    assert!(
        churn_report.epochs.len() >= 2,
        "at least one snapshot swap must be observed mid-stream (saw epochs {:?})",
        churn_report.epochs
    );
    eprintln!(
        "      epochs observed: {:?}; swap build times {:?}",
        churn_report.epochs,
        advances.iter().map(|a| a.build_time).collect::<Vec<_>>()
    );
    let churn_json = format!(
        "  \"churn\": {{ \"swaps_published\": {swaps}, \"ops_per_swap\": 2, \
         \"epochs_observed\": {eps}, \"swap_at_submission\": {at}, \
         \"swap_build_ms\": {builds}, \
         \"cache_filled_after_swap\": {filled}, \"offered\": {off}, \
         \"completed\": {comp}, \"rejected\": {rej}, {aq}, {lat}, \
         \"max_submit_lag_ms\": {lag:.3} }}",
        eps = json_u64_array(churn_report.epochs.iter().copied()),
        at = json_u64_array(swap_at.iter().copied()),
        builds = json_ms_array(advances.iter().map(|a| a.build_time.as_secs_f64() * 1e3)),
        filled = json_u64_array(advances.iter().map(|a| a.cache_filled.unwrap_or(0) as u64)),
        off = churn_report.offered,
        comp = churn_report.completed,
        rej = churn_report.rejected,
        aq = opt_json(
            "achieved_qps",
            churn_report.achieved_qps,
            "zero completed queries"
        ),
        lat = latency_fields("latency", &churn_report.latency),
        lag = churn_report.max_submit_lag_ms,
    );

    // ---- Section 5: prewarm vs cold start ------------------------------
    eprintln!("[5/6] cold-start tail with and without prewarm ({prewarm} sampled d_k)");
    let first_queries = open_queries.max(120).min(n);
    let cold_start_run = |sample: usize| {
        let (snapshot, prepare_time) = workload.snapshot(sample);
        let filled = snapshot
            .algo()
            .dk_cache()
            .map_or(0, rknn_rdt::DkCache::filled);
        let precompute =
            RknnAlgorithm::<Euclidean, LinearScan<Euclidean>>::precompute_stats(snapshot.algo());
        let engine = Engine::new(
            snapshot,
            EngineConfig {
                workers: workers_effective,
                queue_capacity: queue_cap,
                ..EngineConfig::default()
            },
        );
        let report = run_open_loop(
            &engine,
            &all_ids,
            &OpenLoopConfig {
                rate_qps: target_qps,
                total: first_queries,
                deadline: None,
            },
        );
        engine.shutdown();
        (prepare_time, filled, precompute.dist_computations, report)
    };
    let (cold_prep, cold_filled, cold_dists, cold_report) = cold_start_run(0);
    let (warm_prep, warm_filled, warm_dists, warm_report) = cold_start_run(prewarm);
    assert_eq!(cold_filled, 0, "no prewarm leaves the cache empty");
    assert!(warm_filled > 0, "prewarm fills cache thresholds");
    let prewarm_side = |label: &str,
                        prep: Duration,
                        filled: usize,
                        dists: u64,
                        report: &rknn_serve::OpenLoopReport| {
        format!(
            "    \"{label}\": {{ \"prepare_ms\": {pms:.3}, \
             \"cache_filled_after_prepare\": {filled}, \
             \"prepare_dist_comps\": {dists}, \"completed\": {comp}, {f100}, {lat} }}",
            pms = prep.as_secs_f64() * 1e3,
            comp = report.completed,
            f100 = opt_json(
                "first_100_p99_ms",
                report.first_100_p99_ms,
                "fewer than 100 completed queries"
            ),
            lat = latency_fields("latency", &report.latency),
        )
    };

    // ---- Section 6: chaos / fault injection ----------------------------
    let chaos_seed = env_usize("RKNN_SERVE_CHAOS_SEED", 0xC4A05) as u64;
    let chaos_total = env_usize("RKNN_SERVE_CHAOS_QUERIES", 800).max(200);
    eprintln!("[6/6] chaos scenario (seed {chaos_seed:#x}, {chaos_total} queries, 2 workers)");
    let chaos_workers = 2usize;
    // p99 service time over a fault-free batch — used both for the
    // baseline (fresh engine) and the recovery probe (chaos engine after
    // its fault schedule is exhausted).
    let probe_ids: Vec<usize> = (0..400.min(n)).collect();
    let service_p99 = |engine: &ServeEngine, ids: &[usize]| -> f64 {
        let mut tickets: Vec<Ticket> = Vec::with_capacity(ids.len());
        for &q in ids {
            loop {
                match engine.submit(q) {
                    Ok(t) => {
                        tickets.push(t);
                        break;
                    }
                    Err(QueryError::Saturated { .. }) => std::thread::yield_now(),
                    Err(other) => panic!("unexpected rejection in a fault-free probe: {other}"),
                }
            }
        }
        let samples: Vec<f64> = tickets
            .into_iter()
            .map(|t| {
                t.wait()
                    .expect("fault-free probe answers")
                    .service()
                    .as_secs_f64()
                    * 1e3
            })
            .collect();
        latency_summary(&samples).expect("non-empty probe").p99_ms
    };
    let baseline_engine = workload.engine(chaos_workers, queue_cap, 0);
    let baseline_p99 = service_p99(&baseline_engine, &probe_ids);
    baseline_engine.shutdown();

    // The schedule: seeded panics/delays scattered across the first half
    // of the execution sequence, an injected queue-full window, and one
    // more panic pinned just past the scattered span. Execution slots
    // number only jobs that reach the fault hook (deadline-shed jobs take
    // none), so that panic fires even when the deadline storm below sheds
    // jobs around its slot.
    let chaos_span = (chaos_total as u64) / 2;
    let plan = FaultPlan::scattered(chaos_seed, chaos_span, 3, 3, Duration::from_millis(20))
        .panic_at(chaos_span)
        .reject_window(40, 50);
    let injected = plan.counts();
    let last_fault = plan.last_execution_fault().expect("plan has faults");
    let engine = Engine::new(
        workload.snapshot(0).0,
        EngineConfig {
            workers: chaos_workers,
            queue_capacity: queue_cap,
            faults: Some(Arc::new(plan)),
        },
    );

    // Malformed queries: typed rejection at the boundary, no worker ever
    // sees them.
    let mut invalid_typed = 0usize;
    for bad in [
        QueryRequest::coords(vec![f64::NAN; dim]),
        QueryRequest::coords(vec![1.0; dim + 1]),
        QueryRequest::point(n + 7),
    ] {
        match engine.submit(bad) {
            Err(QueryError::InvalidInput(_)) => invalid_typed += 1,
            other => panic!("malformed query must reject typed, got {other:?}"),
        }
    }

    // The chaos drive: point queries through a bounded-retry client, with
    // a deadline storm (offers 100..140: expired and hair-trigger
    // deadlines) landing while the fault plan wedges and panics workers.
    let policy = RetryPolicy::new(6)
        .with_backoff(Duration::from_micros(200), Duration::from_millis(2))
        .with_seed(chaos_seed);
    let mut chaos_tickets: Vec<(usize, Ticket)> = Vec::with_capacity(chaos_total);
    let mut rejected_saturated = 0usize;
    let mut retries_used = 0u32;
    for i in 0..chaos_total {
        let q = all_ids[i % n];
        let mut request = QueryRequest::point(q);
        if (100..140).contains(&i) {
            request = if i % 2 == 0 {
                request.with_deadline(Instant::now() - Duration::from_millis(1))
            } else {
                request.with_timeout(Duration::from_millis(2))
            };
        }
        let (outcome, used) = policy.submit(&engine, request);
        retries_used += used;
        match outcome {
            Ok(ticket) => chaos_tickets.push((q, ticket)),
            Err(QueryError::Saturated { .. }) => rejected_saturated += 1,
            Err(other) => panic!("chaos submit rejected unexpectedly: {other}"),
        }
    }
    let accepted = chaos_tickets.len();
    assert!(
        accepted as u64 > last_fault,
        "workload must outrun the fault schedule ({accepted} accepted, last fault at {last_fault})"
    );
    let mut answered = 0usize;
    let mut chaos_deadline = 0usize;
    let mut chaos_internal = 0usize;
    for (q, ticket) in chaos_tickets {
        match ticket.wait() {
            Ok(response) => {
                assert_eq!(
                    digest(&response.neighbors),
                    reference[q],
                    "chaos answer q={q} differs from the sequential driver"
                );
                answered += 1;
            }
            Err(QueryError::DeadlineExceeded { .. }) => chaos_deadline += 1,
            Err(QueryError::Internal { .. }) => chaos_internal += 1,
            Err(other) => panic!("unexpected chaos outcome: {other:?}"),
        }
    }
    assert_eq!(
        answered + chaos_deadline + chaos_internal,
        accepted,
        "every accepted chaos ticket resolves exactly once"
    );
    // Recovery: the fault schedule is exhausted; the engine must serve a
    // clean probe with a tail comparable to the fault-free baseline.
    let recovery_p99 = service_p99(&engine, &probe_ids);
    assert!(
        recovery_p99 <= baseline_p99 * 10.0 + 25.0,
        "post-chaos p99 {recovery_p99:.3}ms must recover toward baseline {baseline_p99:.3}ms"
    );
    let chaos_stats = engine.shutdown();
    assert_eq!(
        chaos_stats.submitted,
        chaos_stats.completed + chaos_stats.failed,
        "chaos gate: zero lost tickets"
    );
    assert!(chaos_stats.panics >= 1, "injected panics must be observed");
    assert_eq!(chaos_stats.invalid_inputs as usize, invalid_typed);
    eprintln!(
        "      {answered} answered byte-identical, {chaos_deadline} deadline, \
         {chaos_internal} internal, {} panics, recovery p99 {recovery_p99:.2}ms \
         (baseline {baseline_p99:.2}ms)",
        chaos_stats.panics
    );
    let chaos_json = format!(
        "  \"chaos\": {{ \"seed\": {chaos_seed}, \"workers\": {chaos_workers}, \
         \"offered\": {chaos_total}, \"injected\": {{ \"panics\": {ip}, \
         \"delays\": {il}, \"rejected_submits\": {ir} }}, \"accepted\": {accepted}, \
         \"answered\": {answered}, \"deadline_exceeded\": {chaos_deadline}, \
         \"internal_errors\": {chaos_internal}, \"rejected_saturated\": {rejected_saturated}, \
         \"invalid_inputs_typed\": {invalid_typed}, \"retries_used\": {retries_used}, \
         \"observed\": {{ \"panics\": {op}, \"quarantined\": {oq}, \
         \"deadline_exceeded\": {od}, \"injected_rejects\": {oj} }}, \"lost\": 0, \
         \"duplicated\": 0, \"typed_errors_only\": true, \"byte_identical_answers\": true, \
         \"baseline_p99_ms\": {baseline_p99:.3}, \"recovery_p99_ms\": {recovery_p99:.3} }}",
        ip = injected.panics,
        il = injected.delays,
        ir = injected.rejected_submits,
        op = chaos_stats.panics,
        oq = chaos_stats.quarantined,
        od = chaos_stats.deadline_exceeded,
        oj = chaos_stats.injected_rejects,
    );

    // ---- Assemble ------------------------------------------------------
    let scaling_json = scaling_rows.join(",\n");
    let gate_qps = rate_json(
        "qps",
        gate_stats.completed as f64,
        gate_elapsed.as_secs_f64(),
    );
    let json = format!(
        "{{\n  \"bench\": \"serving_engine\",\n  \"substrate\": \"linear-scan\",\n  \
         \"dataset\": \"gaussian_blobs\",\n  \"n\": {n},\n  \"dim\": {dim},\n  \
         \"k\": {k},\n  \"t\": {t},\n  \"kernel_backend\": \"{backend}\",\n  \
         \"available_parallelism\": {parallelism},\n  \
         \"workers_requested\": {workers_requested},\n  \
         \"workers_effective\": {workers_effective},\n  \
         \"queue_capacity_per_shard\": {queue_cap},\n  \
         \"queue_capacity_total\": {qtot},\n  \
         \"reps\": {{ \"thread_scaling\": {reps}, \"open_loop\": 1, \"churn\": 1 }},\n  \
         \"correctness\": {{ \"queries\": {n}, \"completed\": {gcomp}, \
         \"lost\": 0, \"duplicated\": 0, \"saturation_retries\": {gate_retries}, \
         \"stolen\": {gstolen}, {gate_qps}, \"identical_to_sequential\": true }},\n  \
         \"thread_scaling\": [\n{scaling_json}\n  ],\n{open_json},\n{churn_json},\n{chaos_json},\n  \
         \"prewarm\": {{ \"sample\": {prewarm}, \"first_queries\": {first_queries}, \
         \"target_qps\": {target_qps:.1},\n{cold},\n{warm}\n  }}\n}}\n",
        backend = kernel::selected().backend().name(),
        qtot = workers_effective * queue_cap,
        gcomp = gate_stats.completed,
        gstolen = gate_stats.stolen,
        cold = prewarm_side("cold", cold_prep, cold_filled, cold_dists, &cold_report),
        warm = prewarm_side("warm", warm_prep, warm_filled, warm_dists, &warm_report),
    );
    std::fs::write(&out, &json).expect("write serving snapshot");
    eprintln!("wrote {out}");
    println!("{json}");
}
