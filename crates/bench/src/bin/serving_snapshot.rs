//! Serving snapshot: the concurrent engine's correctness and chaos gates,
//! recorded as `BENCH_serving.json`.
//!
//! Two sections, both against the same gaussian-blobs workload on a
//! linear-scan forward index (RDT):
//!
//! 1. **correctness** — every dataset point submitted exactly once through
//!    the sharded executor; the run *asserts* no response was lost or
//!    duplicated and that every answer is byte-identical (ids and distance
//!    bits) to the sequential batch driver before any number is written.
//! 2. **chaos** — a seeded [`rknn_serve::FaultPlan`] (worker panics,
//!    service delays, an injected queue-full window) driven together with
//!    a deadline storm and malformed coordinate queries. The run *asserts*
//!    zero lost tickets (`submitted == completed + failed`), zero
//!    duplicates, typed errors only, byte-identity of every answered query
//!    to the sequential driver, at least one observed panic, and
//!    post-fault p99 recovery within a generous factor of a fault-free
//!    baseline — then records the injected schedule next to the observed
//!    outcome counts.
//!
//! Serving latency and throughput under open-loop load are measured by the
//! repository benchmark (`perfbench/`, workloads `serve-warm` and `churn`),
//! not here.
//!
//! A rate that cannot be computed honestly (zero completed queries, a
//! zero-duration span) is emitted as `null` plus an explicit `*_skipped`
//! reason via [`rknn_bench::rate_json`] — never `inf`/`NaN`. Environment
//! overrides: `RKNN_SERVE_N`, `RKNN_SERVE_DIM`, `RKNN_SERVE_K`,
//! `RKNN_SERVE_T`, `RKNN_SERVE_WORKERS` (0 = `RKNN_THREADS`, then CPU
//! count), `RKNN_SERVE_QUEUE_CAP`, `RKNN_SERVE_CHAOS_SEED`,
//! `RKNN_SERVE_CHAOS_QUERIES`, `RKNN_SERVE_OUT` (default
//! `BENCH_serving.json`).

use rknn_bench::rate_json;
use rknn_core::kernel;
use rknn_core::Euclidean;
use rknn_index::LinearScan;
use rknn_rdt::algorithm::{requested_threads, run_algorithm_batch, RdtAlgorithm};
use rknn_rdt::RdtParams;
use rknn_serve::{
    Engine, EngineConfig, FaultPlan, QueryError, QueryRequest, RetryPolicy, Snapshot, Ticket,
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

struct Workload {
    ds: Arc<rknn_core::Dataset>,
    params: RdtParams,
}

impl Workload {
    /// A fresh engine on a freshly built + prepared snapshot (epoch 0).
    fn engine(&self, workers: usize, queue_capacity: usize) -> ServeEngine {
        Engine::new(
            self.snapshot(),
            EngineConfig {
                workers,
                queue_capacity,
                ..EngineConfig::default()
            },
        )
    }

    /// A prepared epoch-0 snapshot.
    fn snapshot(&self) -> ServeSnapshot {
        let index = LinearScan::build(self.ds.clone(), Euclidean);
        Snapshot::prepare(0, index, RdtAlgorithm::new(self.params))
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
    let out = std::env::var("RKNN_SERVE_OUT").unwrap_or_else(|_| "BENCH_serving.json".into());

    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers_effective = requested_threads(workers_requested).max(1);

    let workload = Workload {
        ds: rknn_data::gaussian_blobs(n, dim, 5, 0.5, 0x5e41).into_shared(),
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
    let ref_snapshot = workload.snapshot();
    let reference = run_algorithm_batch(ref_snapshot.algo(), ref_snapshot.index(), &all_ids, 1);
    let reference: Vec<Digest> = reference
        .answers
        .iter()
        .map(|a| digest(&a.result))
        .collect();

    // ---- Section 1: correctness gate -----------------------------------
    eprintln!("[1/2] correctness gate ({n} queries, {workers_effective} workers)");
    let engine = workload.engine(workers_effective, queue_cap);
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

    // ---- Section 2: chaos / fault injection ----------------------------
    let chaos_seed = env_usize("RKNN_SERVE_CHAOS_SEED", 0xC4A05) as u64;
    let chaos_total = env_usize("RKNN_SERVE_CHAOS_QUERIES", 800).max(200);
    eprintln!("[2/2] chaos scenario (seed {chaos_seed:#x}, {chaos_total} queries, 2 workers)");
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
        let mut samples: Vec<f64> = tickets
            .into_iter()
            .map(|t| {
                t.wait()
                    .expect("fault-free probe answers")
                    .service()
                    .as_secs_f64()
                    * 1e3
            })
            .collect();
        // Nearest rank: the smallest sample with at least 99% of the
        // probe at or below it.
        samples.sort_by(f64::total_cmp);
        let rank = ((0.99 * samples.len() as f64).ceil() as usize).max(1);
        samples[rank - 1]
    };
    let baseline_engine = workload.engine(chaos_workers, queue_cap);
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
        workload.snapshot(),
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
         \"correctness\": {{ \"queries\": {n}, \"completed\": {gcomp}, \
         \"lost\": 0, \"duplicated\": 0, \"saturation_retries\": {gate_retries}, \
         \"stolen\": {gstolen}, {gate_qps}, \"identical_to_sequential\": true }},\n\
         {chaos_json}\n}}\n",
        backend = kernel::selected().backend().name(),
        qtot = workers_effective * queue_cap,
        gcomp = gate_stats.completed,
        gstolen = gate_stats.stolen,
    );
    std::fs::write(&out, &json).expect("write serving snapshot");
    eprintln!("wrote {out}");
    println!("{json}");
}
