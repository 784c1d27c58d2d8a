//! Fault tolerance: the serving engine keeps its contract — every accepted
//! ticket resolves exactly once, with an answer or a *typed* error — while
//! queries panic, deadlines expire, queues saturate, and the engine shuts
//! down underneath blocked producers.
//!
//! The invariants under test, from the failure model documented on
//! `rknn::serve::engine`:
//!
//! 1. a panic inside one query resolves *that* submitter's ticket with
//!    [`QueryError::Internal`] and nobody else's — concurrent answers stay
//!    byte-identical to the sequential driver;
//! 2. an input that repeatedly kills workers is quarantined (the poison-pill
//!    log names it), so one bad query cannot grind the engine down forever;
//! 3. the protected region spans the whole job: a panic in an answer's
//!    accessors or the algorithm's name — after the query itself returned
//!    — still resolves the ticket `Internal`, and the same worker serves
//!    the next query;
//! 4. deadlines resolve tickets as [`QueryError::DeadlineExceeded`] whether
//!    they expire in queue or in flight;
//! 5. `close()` wakes producers spinning on a saturated queue with
//!    [`QueryError::Closed`] and every queued ticket still resolves;
//! 6. a failed snapshot advance leaves the published epoch serving;
//! 7. [`RetryPolicy`] retries only saturation, bounded, and treats `Closed`
//!    as terminal.

use proptest::prelude::*;
use rknn::core::{Dataset, Euclidean, Neighbor, PointId, SearchStats};
use rknn::index::{KnnIndex, LinearScan};
use rknn::rdt::algorithm::{AlgorithmAnswer, RdtAlgorithm, RknnAlgorithm};
use rknn::rdt::RdtParams;
use rknn::serve::{
    advance_snapshot, ChurnOp, Engine, EngineConfig, FaultPlan, PoisonKey, QueryError,
    QueryRequest, RetryPolicy, Snapshot,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Injected panics are expected here; keep them off the test's stderr so
/// real failures stay visible. Installed once, filters only the payloads
/// this suite (and the fault plan) deliberately raises.
fn silence_expected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if message.contains("injected fault") || message.contains("victim query") {
                return;
            }
            default(info);
        }));
    });
}

/// Tie-heavy half-integer lattice rows (the adversarial case for
/// `(dist, id)` ordering, as in the serving equivalence suite).
fn grid_dataset(n: usize) -> Arc<Dataset> {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| vec![((i * 7) % 9) as f64 * 0.5, ((i * 3 + 1) % 9) as f64 * 0.5])
        .collect();
    Dataset::from_rows(&rows)
        .expect("grid coordinates are finite")
        .into_shared()
}

type Digest = Vec<(PointId, u64)>;

fn digest(neighbors: &[Neighbor]) -> Digest {
    neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// Sequential per-query reference: the byte-identity baseline.
fn sequential_reference(k: usize, index: &LinearScan<Euclidean>) -> Vec<Digest> {
    let mut algo = RdtAlgorithm::new(RdtParams::new(k, 50.0));
    algo.prepare(index);
    let mut worker = algo.make_worker(index);
    (0..index.num_points())
        .map(|q| digest(algo.query(index, q, &mut worker).neighbors()))
        .collect()
}

/// RDT with a poisoned input: the query at `victim` panics every time it
/// executes, everywhere else it delegates unchanged. Exercises the
/// engine's `catch_unwind` isolation with a deterministic offender.
struct PanickyAlgorithm {
    inner: RdtAlgorithm,
    victim: PointId,
}

impl PanickyAlgorithm {
    fn new(k: usize, victim: PointId) -> Self {
        PanickyAlgorithm {
            inner: RdtAlgorithm::new(RdtParams::new(k, 50.0)),
            victim,
        }
    }
}

type Inner = RdtAlgorithm;
type InnerWorker = <Inner as RknnAlgorithm<Euclidean, LinearScan<Euclidean>>>::Worker;
type InnerAnswer = <Inner as RknnAlgorithm<Euclidean, LinearScan<Euclidean>>>::Answer;

impl RknnAlgorithm<Euclidean, LinearScan<Euclidean>> for PanickyAlgorithm {
    type Worker = InnerWorker;
    type Answer = InnerAnswer;

    fn name(&self) -> String {
        format!(
            "panicky({})",
            RknnAlgorithm::<Euclidean, LinearScan<Euclidean>>::name(&self.inner)
        )
    }

    fn prepare(&mut self, index: &LinearScan<Euclidean>) {
        self.inner.prepare(index);
    }

    fn make_worker(&self, index: &LinearScan<Euclidean>) -> Self::Worker {
        self.inner.make_worker(index)
    }

    fn query(
        &self,
        index: &LinearScan<Euclidean>,
        q: PointId,
        worker: &mut Self::Worker,
    ) -> Self::Answer {
        assert!(q != self.victim, "victim query {q} panics by design");
        self.inner.query(index, q, worker)
    }
}

fn panicky_engine(
    n: usize,
    k: usize,
    victim: PointId,
    config: EngineConfig,
) -> Engine<Euclidean, LinearScan<Euclidean>, PanickyAlgorithm> {
    let ds = grid_dataset(n);
    Engine::new(
        Snapshot::prepare(
            0,
            LinearScan::build(ds, Euclidean),
            PanickyAlgorithm::new(k, victim),
        ),
        config,
    )
}

fn rdt_engine(
    n: usize,
    k: usize,
    config: EngineConfig,
) -> Engine<Euclidean, LinearScan<Euclidean>, RdtAlgorithm> {
    let ds = grid_dataset(n);
    Engine::new(
        Snapshot::prepare(
            0,
            LinearScan::build(ds, Euclidean),
            RdtAlgorithm::new(RdtParams::new(k, 50.0)),
        ),
        config,
    )
}

/// An algorithm whose *accessors* panic: the query itself returns, then
/// `AlgorithmAnswer::work()` panics for the victim's answer and `name()`
/// panics always — both reached while the worker builds the outcome, after
/// the algorithm has finished. Keeps the default `query_at` (`None`), so a
/// coordinate query fails on the `name()` path of the `Unsupported` error.
struct PanickyAccessors {
    victim: PointId,
}

struct PanickyAnswer {
    result: Vec<Neighbor>,
    poisoned: bool,
}

impl AlgorithmAnswer for PanickyAnswer {
    fn neighbors(&self) -> &[Neighbor] {
        &self.result
    }

    fn work(&self) -> SearchStats {
        assert!(
            !self.poisoned,
            "injected fault: work() of a poisoned answer"
        );
        SearchStats::default()
    }
}

impl RknnAlgorithm<Euclidean, LinearScan<Euclidean>> for PanickyAccessors {
    type Worker = ();
    type Answer = PanickyAnswer;

    fn name(&self) -> String {
        panic!("injected fault: name()")
    }

    fn make_worker(&self, _index: &LinearScan<Euclidean>) {}

    fn query(&self, _index: &LinearScan<Euclidean>, q: PointId, _worker: &mut ()) -> PanickyAnswer {
        PanickyAnswer {
            result: vec![Neighbor::new(q, 0.0)],
            poisoned: q == self.victim,
        }
    }
}

const WATCHDOG: Duration = Duration::from_secs(20);

/// How long a ticket whose job panicked may take to resolve: far below the
/// watchdog, so a lost ticket fails on its own assertion.
const PROMPT: Duration = Duration::from_secs(5);

/// A ticket under a fault schedule must still resolve; the watchdog turns
/// a lost ticket into a test failure instead of a hang.
fn resolve(ticket: &rknn::serve::Ticket) -> Result<rknn::serve::QueryResponse, QueryError> {
    ticket
        .wait_timeout(WATCHDOG)
        .expect("ticket resolved within the watchdog (none may ever be lost)")
}

#[test]
fn a_panicking_query_fails_alone_and_neighbors_stay_byte_identical() {
    silence_expected_panics();
    let (n, k, victim) = (40, 2, 7usize);
    let reference = sequential_reference(k, &LinearScan::build(grid_dataset(n), Euclidean));
    let engine = panicky_engine(
        n,
        k,
        victim,
        EngineConfig {
            workers: 3,
            queue_capacity: 16,
            ..EngineConfig::default()
        },
    );
    let tickets: Vec<_> = (0..n)
        .map(|q| {
            let mut t = engine.submit(q);
            while let Err(QueryError::Saturated { .. }) = t {
                std::thread::yield_now();
                t = engine.submit(q);
            }
            t.expect("non-saturation submit errors are bugs here")
        })
        .collect();
    for (q, ticket) in tickets.iter().enumerate() {
        match resolve(ticket) {
            Ok(r) => {
                assert_ne!(q, victim, "the victim must not answer");
                assert_eq!(
                    digest(&r.neighbors),
                    reference[q],
                    "q={q}: a neighbor's panic must not perturb this answer"
                );
            }
            Err(QueryError::Internal { reason, .. }) => {
                assert_eq!(q, victim, "only the victim may fail: {reason}");
                assert!(
                    reason.contains("query panicked"),
                    "typed internal error names the panic: {reason}"
                );
            }
            Err(other) => panic!("q={q}: unexpected outcome {other}"),
        }
    }
    let stats = engine.shutdown();
    assert!(stats.panics >= 1, "the panic was observed");
    assert!(stats.internal_errors >= 1);
    assert_eq!(
        stats.submitted,
        stats.completed + stats.failed,
        "every accepted submission resolved exactly once"
    );
}

#[test]
fn repeat_offender_inputs_are_quarantined_and_named_in_the_poison_log() {
    silence_expected_panics();
    let (n, k, victim) = (30, 2, 11usize);
    let engine = panicky_engine(
        n,
        k,
        victim,
        EngineConfig {
            workers: 1,
            queue_capacity: 8,
            ..EngineConfig::default()
        },
    );
    // Two executions cross the per-input threshold...
    for _ in 0..2 {
        match resolve(&engine.submit(victim).expect("admitted")) {
            Err(QueryError::Internal { reason, .. }) => {
                assert!(reason.contains("query panicked"), "{reason}")
            }
            other => panic!("victim must fail with Internal, got {other:?}"),
        }
    }
    // ...after which the input is refused *before* it reaches the
    // algorithm: the typed error says quarantined, not panicked.
    match resolve(&engine.submit(victim).expect("admitted")) {
        Err(QueryError::Internal { reason, .. }) => {
            assert!(reason.contains("quarantined"), "{reason}")
        }
        other => panic!("quarantined input must fail typed, got {other:?}"),
    }
    // Healthy traffic still answers on the same worker.
    let r = resolve(&engine.submit(3usize).expect("admitted")).expect("healthy query answers");
    assert_eq!(r.point_id(), Some(3));
    let pills = engine.poison_log();
    let pill = pills
        .iter()
        .find(|p| p.key == PoisonKey::Point(victim))
        .expect("the victim appears in the poison log");
    assert!(pill.quarantined, "the log marks it quarantined");
    assert!(pill.failures >= 2);
    assert!(
        pill.last_reason.contains("victim query"),
        "{}",
        pill.last_reason
    );
    let stats = engine.shutdown();
    assert!(stats.quarantined >= 1);
    assert_eq!(stats.submitted, stats.completed + stats.failed);
}

#[test]
fn a_panic_while_building_the_response_resolves_the_ticket() {
    silence_expected_panics();
    let (n, victim) = (20, 4usize);
    let engine = Engine::new(
        Snapshot::prepare(
            0,
            LinearScan::build(grid_dataset(n), Euclidean),
            PanickyAccessors { victim },
        ),
        EngineConfig {
            workers: 1,
            queue_capacity: 8,
            ..EngineConfig::default()
        },
    );
    // The victim's query returns; its answer's `work()` panics while the
    // worker builds the response.
    let ticket = engine.submit(victim).expect("admitted");
    match ticket
        .wait_timeout(PROMPT)
        .expect("the ticket resolves promptly instead of being lost")
    {
        Err(QueryError::Internal { reason, .. }) => {
            assert!(reason.contains("query panicked"), "{reason}")
        }
        other => panic!("a panicking work() resolves Internal, got {other:?}"),
    }
    let stats = engine.stats();
    assert_eq!(
        (stats.completed, stats.failed, stats.panics),
        (0, 1, 1),
        "the stats count the failure, not a delivery"
    );
    // A coordinate query: the default `query_at` declines, and `name()`
    // panics while the worker builds the `Unsupported` error.
    let coords = engine.snapshot().index().point(0).to_vec();
    let ticket = engine
        .submit(QueryRequest::coords(coords))
        .expect("admitted");
    match ticket.wait_timeout(PROMPT).expect("resolves promptly") {
        Err(QueryError::Internal { reason, .. }) => {
            assert!(reason.contains("name()"), "{reason}")
        }
        other => panic!("a panicking name() resolves Internal, got {other:?}"),
    }
    // The single worker serves on.
    let r = engine
        .submit(3usize)
        .expect("admitted")
        .wait_timeout(PROMPT)
        .expect("resolves promptly")
        .expect("a healthy query answers on the same worker");
    assert_eq!(r.point_id(), Some(3));
    assert_eq!(r.worker, 0);
    let stats = engine.shutdown();
    assert_eq!((stats.completed, stats.failed, stats.panics), (1, 2, 2));
    assert_eq!(stats.submitted, stats.completed + stats.failed);
}

#[test]
fn a_deadline_shed_job_does_not_swallow_a_scheduled_fault() {
    silence_expected_panics();
    let engine = rdt_engine(
        30,
        2,
        EngineConfig {
            workers: 1,
            queue_capacity: 8,
            faults: Some(Arc::new(FaultPlan::new().panic_at(1))),
        },
    );
    // Slot 0 answers normally.
    resolve(&engine.submit(0usize).expect("admitted")).expect("slot 0 answers");
    // An already-expired job is shed at dequeue and takes no slot, so the
    // panic scheduled at slot 1 is still ahead of it.
    let expired = QueryRequest::point(1).with_deadline(std::time::Instant::now());
    match resolve(&engine.submit(expired).expect("admitted")) {
        Err(QueryError::DeadlineExceeded { .. }) => {}
        other => panic!("the expired job is shed, got {other:?}"),
    }
    // The next executed job lands on slot 1 and panics.
    match resolve(&engine.submit(2usize).expect("admitted")) {
        Err(QueryError::Internal { reason, .. }) => {
            assert!(reason.contains("query panicked"), "{reason}")
        }
        other => panic!("slot 1 carries the scheduled panic, got {other:?}"),
    }
    let r = resolve(&engine.submit(3usize).expect("admitted")).expect("post-panic answers");
    assert_eq!(r.point_id(), Some(3));
    let stats = engine.shutdown();
    assert_eq!(stats.panics, 1, "exactly the scheduled panic fired");
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.submitted, stats.completed + stats.failed);
}

#[test]
fn in_flight_deadlines_resolve_as_deadline_exceeded() {
    silence_expected_panics();
    // The first execution slot sleeps 80ms; a 10ms ticket budget expires
    // while the query is wedged in flight, and the cooperative token turns
    // it into a typed deadline error (never a stuck or lost ticket).
    let engine = rdt_engine(
        30,
        2,
        EngineConfig {
            workers: 1,
            queue_capacity: 8,
            faults: Some(Arc::new(
                FaultPlan::new().delay_at(0, Duration::from_millis(80)),
            )),
        },
    );
    let ticket = engine
        .submit(QueryRequest::point(0).with_timeout(Duration::from_millis(10)))
        .expect("admitted");
    match resolve(&ticket) {
        Err(QueryError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = engine.shutdown();
    assert!(stats.deadline_exceeded >= 1);
    assert_eq!(stats.submitted, stats.completed + stats.failed);
}

#[test]
fn close_wakes_blocked_producers_and_every_queued_ticket_resolves() {
    silence_expected_panics();
    // Capacity 1, one worker wedged 300ms by an injected delay: the queue
    // is full, a producer spins on Saturated, and close() must hand it a
    // typed Closed instead of leaving it spinning forever.
    let engine = rdt_engine(
        30,
        2,
        EngineConfig {
            workers: 1,
            queue_capacity: 1,
            faults: Some(Arc::new(
                FaultPlan::new().delay_at(0, Duration::from_millis(300)),
            )),
        },
    );
    let mut tickets = vec![engine.submit(0usize).expect("first query admitted")];
    // Fill the (single-slot) queue behind the wedged worker.
    let second = loop {
        match engine.submit(1usize) {
            Ok(t) => break t,
            Err(QueryError::Saturated { .. }) => std::thread::yield_now(),
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    };
    tickets.push(second);
    let saw_closed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| loop {
            match engine.submit(2usize) {
                // Should the queue free up first, the admitted ticket must
                // itself resolve; keep pressing until Closed arrives.
                Ok(t) => {
                    let _ = t.wait_timeout(WATCHDOG).expect("admitted ticket resolves");
                }
                Err(QueryError::Saturated { .. }) => std::thread::yield_now(),
                Err(QueryError::Closed) => {
                    saw_closed.store(true, Ordering::SeqCst);
                    break;
                }
                Err(other) => panic!("unexpected submit error: {other}"),
            }
        });
        std::thread::sleep(Duration::from_millis(30));
        engine.close();
    });
    assert!(
        saw_closed.load(Ordering::SeqCst),
        "the blocked producer observed Closed"
    );
    let stats = engine.shutdown();
    for ticket in &tickets {
        match resolve(ticket) {
            Ok(_) | Err(QueryError::Closed) => {}
            other => panic!("queued ticket must answer or close, got {other:?}"),
        }
    }
    assert_eq!(
        stats.submitted,
        stats.completed + stats.failed,
        "drain accounts for every accepted ticket"
    );
}

#[test]
fn a_failed_advance_leaves_the_published_snapshot_serving() {
    let (n, k) = (30, 2);
    let reference = sequential_reference(k, &LinearScan::build(grid_dataset(n), Euclidean));
    let engine = rdt_engine(
        n,
        k,
        EngineConfig {
            workers: 2,
            queue_capacity: 8,
            ..EngineConfig::default()
        },
    );
    let pinned = engine.snapshot();
    let err = advance_snapshot(&pinned, &[ChurnOp::Remove(n + 100)])
        .expect_err("removing an unknown id is a typed error");
    assert!(err.to_string().contains("not live"), "{err}");
    // Nothing was published: the engine still serves epoch 0, bit-exact.
    assert_eq!(engine.snapshot().epoch(), 0);
    let r = resolve(&engine.submit(5usize).expect("admitted")).expect("still serving");
    assert_eq!(r.epoch, 0);
    assert_eq!(digest(&r.neighbors), reference[5]);
    engine.shutdown();
}

#[test]
fn retry_policy_is_bounded_under_saturation_and_terminal_on_closed() {
    silence_expected_panics();
    let engine = rdt_engine(
        30,
        2,
        EngineConfig {
            workers: 1,
            queue_capacity: 1,
            faults: Some(Arc::new(
                FaultPlan::new().delay_at(0, Duration::from_millis(800)),
            )),
        },
    );
    // Wedge the worker, fill the queue.
    let first = engine.submit(0usize).expect("admitted");
    let second = loop {
        match engine.submit(1usize) {
            Ok(t) => break t,
            Err(QueryError::Saturated { .. }) => std::thread::yield_now(),
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    };
    // Three bounded attempts, all saturated: two backoff sleeps, then the
    // last Saturated comes back instead of spinning.
    let policy =
        RetryPolicy::new(3).with_backoff(Duration::from_micros(100), Duration::from_millis(1));
    let (outcome, retries) = policy.submit(&engine, QueryRequest::point(2));
    assert!(
        matches!(outcome, Err(QueryError::Saturated { .. })),
        "queue stays full for the whole retry window"
    );
    assert_eq!(retries, 2, "attempts are bounded by the policy");
    // Closed is terminal: no retries are spent on an engine that will
    // never accept again.
    engine.close();
    let (outcome, retries) = policy.submit(&engine, QueryRequest::point(2));
    assert!(matches!(outcome, Err(QueryError::Closed)));
    assert_eq!(retries, 0);
    let stats = engine.shutdown();
    for ticket in [first, second] {
        match ticket.wait_timeout(WATCHDOG).expect("resolved") {
            Ok(_) | Err(QueryError::Closed) => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert_eq!(stats.submitted, stats.completed + stats.failed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The deadline contract, property-driven: under arbitrary worker
    /// counts, tight queues, and a mix of generous/impossible deadlines,
    /// every accepted ticket resolves **exactly one** of answer /
    /// `DeadlineExceeded` / `Closed` — and every answer is byte-identical
    /// to the sequential driver.
    #[test]
    fn every_deadline_ticket_resolves_exactly_one_typed_outcome(
        n in 24usize..40,
        k in 1usize..4,
        workers in prop_oneof![Just(1usize), Just(2), Just(4)],
        queue_cap in prop_oneof![Just(1usize), Just(2), Just(8)],
        raw_order in proptest::collection::vec((any::<u16>(), 0u8..3), 20..48),
    ) {
        silence_expected_panics();
        let ds = grid_dataset(n);
        let reference = sequential_reference(k, &LinearScan::build(ds.clone(), Euclidean));
        let engine = Engine::new(
            Snapshot::prepare(
                0,
                LinearScan::build(ds, Euclidean),
                RdtAlgorithm::new(RdtParams::new(k, 50.0)),
            ),
            EngineConfig { workers, queue_capacity: queue_cap, ..EngineConfig::default() },
        );
        let mut tickets = Vec::new();
        for &(raw, kind) in &raw_order {
            let q = raw as usize % n;
            let request = match kind {
                // Already expired at submission: must shed in queue.
                0 => QueryRequest::point(q).with_timeout(Duration::ZERO),
                // Tight but possible.
                1 => QueryRequest::point(q).with_timeout(Duration::from_micros(500)),
                // Generous: effectively no deadline pressure.
                _ => QueryRequest::point(q).with_timeout(Duration::from_secs(30)),
            };
            loop {
                match engine.submit(request.clone()) {
                    Ok(t) => { tickets.push((q, t)); break; }
                    Err(QueryError::Saturated { .. }) => std::thread::yield_now(),
                    Err(other) => panic!("unexpected submit error: {other}"),
                }
            }
        }
        // Close with work possibly still queued, so `Closed` outcomes are
        // reachable alongside answers and deadline errors.
        engine.close();
        let mut outcomes = (0usize, 0usize, 0usize);
        for (q, ticket) in &tickets {
            match ticket.wait_timeout(WATCHDOG).expect("no ticket is ever lost") {
                Ok(r) => {
                    outcomes.0 += 1;
                    prop_assert_eq!(r.point_id(), Some(*q));
                    prop_assert_eq!(
                        &digest(&r.neighbors), &reference[*q],
                        "q={} answered under deadline pressure must stay byte-identical", q
                    );
                }
                Err(QueryError::DeadlineExceeded { .. }) => outcomes.1 += 1,
                Err(QueryError::Closed) => outcomes.2 += 1,
                Err(other) => panic!("q={q}: outcome outside the typed set: {other}"),
            }
        }
        let stats = engine.shutdown();
        prop_assert_eq!(
            outcomes.0 + outcomes.1 + outcomes.2,
            tickets.len(),
            "exactly one outcome per accepted ticket"
        );
        prop_assert_eq!(stats.submitted, stats.completed + stats.failed);
    }
}
