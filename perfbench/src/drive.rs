//! Load drivers: the open loop and the closed-loop capacity probe against
//! the serving engine, the churn writer that builds and publishes
//! successor snapshots, and a per-query clock for the batch driver.

use crate::rng::Rng;
use crate::stats::ms;
use rknn_core::{Dataset, Metric, Neighbor, PointId, SearchStats};
use rknn_index::{DynamicIndex, KnnIndex};
use rknn_rdt::{AlgorithmAnswer, RdtAlgorithm, RknnAlgorithm};
use rknn_serve::{
    advance_snapshot, AdvanceReport, ChurnOp, Engine, QueryError, QueryResponse, Snapshot, Ticket,
};
use std::collections::{HashSet, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one open-loop run. Latency is timed from each request's
/// scheduled arrival; a rejected or failed request counts as infinitely
/// late, so it misses at every percentile.
#[derive(Debug, Default)]
pub struct OpenLoop {
    pub offered: usize,
    pub completed: usize,
    pub rejected: usize,
    pub failed: usize,
    pub latency_ms: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    /// Worst lateness of the generator behind its schedule.
    pub lag_max_ms: f64,
    /// Span from the first arrival to the last completion.
    pub elapsed_s: f64,
    /// Responses of the arrivals `keep` selected, for the correctness gate.
    pub kept: Vec<QueryResponse>,
}

/// Offers `total` requests at `rate_qps` from the calling thread, cycling
/// through `queries` from position `first`, then collects every ticket.
/// `on_submit` runs after each submission (the churn workload hooks its
/// writer here); `keep(i)` selects the `i`-th arrival's response.
pub fn open_loop<M, I>(
    engine: &Engine<M, I, RdtAlgorithm>,
    queries: &[PointId],
    first: usize,
    rate_qps: f64,
    total: usize,
    keep: impl Fn(usize) -> bool,
    on_submit: &mut dyn FnMut(),
) -> OpenLoop
where
    M: Metric + 'static,
    I: KnnIndex<M> + 'static,
{
    let mut run = OpenLoop {
        offered: total,
        ..OpenLoop::default()
    };
    let mut pending: Vec<(usize, Instant, Ticket)> = Vec::with_capacity(total);
    let start = Instant::now();
    let mut max_lag = Duration::ZERO;
    for i in 0..total {
        let scheduled = start + Duration::from_secs_f64(i as f64 / rate_qps);
        let now = Instant::now();
        if now < scheduled {
            std::thread::sleep(scheduled - now);
        } else {
            max_lag = max_lag.max(now - scheduled);
        }
        match engine.submit(queries[(first + i) % queries.len()]) {
            Ok(ticket) => pending.push((i, scheduled, ticket)),
            Err(_) => {
                run.rejected += 1;
                run.latency_ms.push(f64::INFINITY);
            }
        }
        on_submit();
    }
    for (i, scheduled, ticket) in pending {
        match ticket.wait() {
            Ok(response) => {
                run.latency_ms.push(ms(response
                    .finished_at
                    .saturating_duration_since(scheduled)));
                run.queue_ms.push(ms(response.queue_wait()));
                run.service_ms.push(ms(response.service()));
                run.completed += 1;
                if keep(i) {
                    run.kept.push(response);
                }
            }
            Err(_) => {
                run.failed += 1;
                run.latency_ms.push(f64::INFINITY);
            }
        }
    }
    run.lag_max_ms = ms(max_lag);
    run.elapsed_s = start.elapsed().as_secs_f64();
    run
}

/// Outcome of a closed-loop probe.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    pub completed: usize,
    pub failed: usize,
    pub qps: f64,
}

/// Keeps `inflight` requests outstanding (each caller waits for its reply
/// before sending the next) for `window`, then drains. With `inflight`
/// above the worker count the workers never idle, so `qps` is capacity.
pub fn closed_loop<M, I>(
    engine: &Engine<M, I, RdtAlgorithm>,
    queries: &[PointId],
    first: usize,
    window: Duration,
    inflight: usize,
) -> ClosedLoop
where
    M: Metric + 'static,
    I: KnnIndex<M> + 'static,
{
    let mut run = ClosedLoop::default();
    let mut pending: VecDeque<Ticket> = VecDeque::with_capacity(inflight);
    let settle = |ticket: Ticket, run: &mut ClosedLoop| match ticket.wait() {
        Ok(_) => run.completed += 1,
        Err(_) => run.failed += 1,
    };
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < window {
        if pending.len() == inflight {
            let oldest = pending.pop_front().expect("window is full");
            settle(oldest, &mut run);
        }
        match engine.submit(queries[(first + i) % queries.len()]) {
            Ok(ticket) => pending.push_back(ticket),
            Err(QueryError::Saturated { .. }) => std::thread::yield_now(),
            Err(_) => run.failed += 1,
        }
        i += 1;
    }
    for ticket in pending {
        settle(ticket, &mut run);
    }
    run.qps = run.completed as f64 / start.elapsed().as_secs_f64();
    run
}

/// Seeded catalog changes: each batch inserts points jittered around
/// existing rows and removes live points outside the protected query set,
/// so no query ever names a removed point.
#[derive(Debug, Clone)]
pub struct Churner {
    rng: Rng,
    base: Arc<Dataset>,
    removable: Vec<PointId>,
    next_id: PointId,
    inserts: usize,
    removes: usize,
    jitter: f64,
}

impl Churner {
    pub fn new(base: Arc<Dataset>, protected: &[PointId], seed: u64, per_batch: usize) -> Self {
        let protected: HashSet<PointId> = protected.iter().copied().collect();
        let removable = (0..base.len())
            .filter(|id| !protected.contains(id))
            .collect();
        Churner {
            rng: Rng::new(seed, 0xc4),
            next_id: base.len(),
            base,
            removable,
            inserts: per_batch,
            removes: per_batch,
            jitter: 0.02,
        }
    }

    /// The next batch of ops; ids of inserted points follow the indexes'
    /// append-only numbering.
    pub fn next_batch(&mut self) -> Vec<ChurnOp> {
        let mut ops = Vec::with_capacity(self.inserts + self.removes);
        let mut fresh = Vec::with_capacity(self.inserts);
        for _ in 0..self.inserts {
            let row = self.base.point(self.rng.below(self.base.len()));
            let coords = row
                .iter()
                .map(|c| c + self.jitter * self.rng.normal())
                .collect();
            ops.push(ChurnOp::Insert(coords));
            fresh.push(self.next_id);
            self.next_id += 1;
        }
        for _ in 0..self.removes {
            let at = self.rng.below(self.removable.len());
            ops.push(ChurnOp::Remove(self.removable.swap_remove(at)));
        }
        self.removable.extend(fresh);
        ops
    }
}

/// What the churn writer did.
#[derive(Debug, Default)]
pub struct SwapLog {
    /// `advance_snapshot` plus `publish`, per published swap.
    pub swap_ms: Vec<f64>,
    /// `advance_snapshot` alone, per successor built privately from the
    /// live snapshot while no read was in flight: the write path's own
    /// cost, free of contention with the readers.
    pub private_ms: Vec<f64>,
    /// Reports of every successor built, published or private.
    pub reports: Vec<AdvanceReport>,
    /// Op batch of each published swap: epoch `e` of the engine is the
    /// base snapshot with batches `0..e` applied.
    pub batches: Vec<Vec<ChurnOp>>,
    pub failed: usize,
}

/// Builds the successor of `prev` with the next churn batch and hands it
/// to `publish`; the swap time covers both.
pub fn swap<M, I>(
    prev: &Snapshot<M, I, RdtAlgorithm>,
    churner: &mut Churner,
    log: &mut SwapLog,
    publish: impl FnOnce(Snapshot<M, I, RdtAlgorithm>),
) where
    M: Metric,
    I: DynamicIndex<M> + Clone,
{
    let ops = churner.next_batch();
    let t0 = Instant::now();
    match advance_snapshot(prev, &ops) {
        Ok((next, report)) => {
            publish(next);
            log.swap_ms.push(ms(t0.elapsed()));
            log.reports.push(report);
            log.batches.push(ops);
        }
        Err(err) => {
            eprintln!("perfbench: churn advance failed: {err}");
            log.failed += 1;
        }
    }
}

/// Builds a private chain of `count` successors of `live` with the churn
/// batches that would follow it, publishing none, and records each
/// `advance_snapshot` time. Each successor is dropped outside the clock.
pub fn private_swaps<M, I>(
    live: &Snapshot<M, I, RdtAlgorithm>,
    churner: &Churner,
    count: usize,
    log: &mut SwapLog,
) where
    M: Metric,
    I: DynamicIndex<M> + Clone,
{
    let mut churner = churner.clone();
    let mut prev: Option<Snapshot<M, I, RdtAlgorithm>> = None;
    for _ in 0..count {
        let ops = churner.next_batch();
        let t0 = Instant::now();
        match advance_snapshot(prev.as_ref().unwrap_or(live), &ops) {
            Ok((next, report)) => {
                log.private_ms.push(ms(t0.elapsed()));
                log.reports.push(report);
                prev = Some(next);
            }
            Err(err) => {
                eprintln!("perfbench: private advance failed: {err}");
                log.failed += 1;
            }
        }
    }
}

/// Hooks `body` uses to drive the writer thread of [`with_writer`].
pub struct Writer<'a> {
    /// Call after each read submitted; with publishing on, every
    /// `every`-th call asks for a swap that runs beside the reads.
    pub on_read: &'a mut dyn FnMut(),
    /// Builds private successors of the live snapshot once the queued
    /// swaps are done, and returns when they are built.
    pub measure: &'a mut dyn FnMut(),
}

/// Runs `body` with a writer thread beside it, the only thread that swaps
/// the engine's snapshot, so successors publish in epoch order. With
/// `every` set, it publishes a successor every `every` reads; without, the
/// engine stays on its first snapshot. Each `measure` builds
/// `private_per_measure` private successors. The writer finishes its
/// queued swaps before this returns.
pub fn with_writer<M, I, R>(
    engine: &Engine<M, I, RdtAlgorithm>,
    churner: &mut Churner,
    every: Option<usize>,
    private_per_measure: usize,
    body: impl FnOnce(Writer<'_>) -> R,
) -> (R, SwapLog)
where
    M: Metric + 'static,
    I: DynamicIndex<M> + Clone + 'static,
{
    std::thread::scope(|scope| {
        // `true` asks for private builds, acknowledged on `done`.
        let (tx, rx) = mpsc::channel::<bool>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let writer = scope.spawn(move || {
            let mut log = SwapLog::default();
            for measure in rx {
                let live = engine.snapshot();
                if measure {
                    private_swaps(&live, churner, private_per_measure, &mut log);
                    done_tx.send(()).expect("the body waits for private builds");
                } else {
                    swap(&live, churner, &mut log, |next| {
                        engine.publish(next);
                    });
                }
            }
            log
        });
        let out = {
            let mut reads = 0usize;
            let mut on_read = || {
                reads += 1;
                if every.is_some_and(|e| reads.is_multiple_of(e)) {
                    tx.send(false).expect("the writer outlives the readers");
                }
            };
            let mut measure = || {
                tx.send(true).expect("the writer outlives the readers");
                done_rx
                    .recv()
                    .expect("the writer acknowledges measurements");
            };
            body(Writer {
                on_read: &mut on_read,
                measure: &mut measure,
            })
        };
        drop(tx);
        (out, writer.join().expect("the churn writer does not panic"))
    })
}

/// An answer stamped with when its query ran.
#[derive(Debug, Clone)]
pub struct Stamped<T> {
    pub inner: T,
    pub start: Instant,
    pub end: Instant,
}

impl<T: AlgorithmAnswer> AlgorithmAnswer for Stamped<T> {
    fn neighbors(&self) -> &[Neighbor] {
        self.inner.neighbors()
    }

    fn work(&self) -> SearchStats {
        self.inner.work()
    }
}

/// A prepared algorithm whose answers carry their start and end instants,
/// so a batch run through `run_algorithm_batch` yields per-query latency
/// and the time each query waited in its chunk. Two clock reads per query.
pub struct Clocked<'a, A>(pub &'a A);

impl<M, I, A> RknnAlgorithm<M, I> for Clocked<'_, A>
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
    A: RknnAlgorithm<M, I>,
{
    type Worker = A::Worker;
    type Answer = Stamped<A::Answer>;

    fn name(&self) -> String {
        self.0.name()
    }

    fn make_worker(&self, index: &I) -> A::Worker {
        self.0.make_worker(index)
    }

    fn query(&self, index: &I, q: PointId, worker: &mut A::Worker) -> Self::Answer {
        let start = Instant::now();
        let inner = self.0.query(index, q, worker);
        Stamped {
            inner,
            start,
            end: Instant::now(),
        }
    }
}
