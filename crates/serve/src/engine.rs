//! The serving engine: epoch-swapped snapshots and the sharded,
//! work-stealing query executor, hardened for faults.
//!
//! # Snapshot / epoch semantics
//!
//! The engine never mutates an index that queries can see. The active
//! [`Snapshot`] lives behind `RwLock<Arc<Snapshot>>`; a worker picking up a
//! query briefly read-locks to clone the `Arc` and then works entirely off
//! its clone — holding the `Arc` *is* the epoch pin, so a concurrently
//! published successor can neither block the query nor pull the index out
//! from under it. [`Engine::publish`] write-locks only to swap one pointer;
//! the old snapshot is freed when the last in-flight query drops its pin.
//! Every [`QueryResponse`] records the epoch it was answered under, so a
//! caller can always attribute a result to exactly one snapshot.
//!
//! # Executor
//!
//! One bounded queue per worker. Submission round-robins across queues and
//! probes the others when the preferred one is full; if every queue is at
//! capacity the submit is rejected with [`QueryError::Saturated`] — the
//! engine applies backpressure instead of buffering unboundedly. Workers pop their own queue from the front
//! (submission order) and steal from the *back* of sibling queues when
//! idle, the classic split that keeps owned work FIFO while stolen work
//! contends at the far end. Each worker owns one
//! [`RknnAlgorithm::make_worker`] state (cursor scratch, candidate tiles)
//! per epoch, recreated lazily when it first sees a new snapshot.
//!
//! # Failure model
//!
//! Every accepted submission resolves its [`Ticket`] exactly once, with
//! either an answer or a **typed** [`QueryError`] — never a hang, never a
//! propagated panic, never a silent drop. The guarantees, in order of the
//! request's life:
//!
//! * **Validation at the boundary.** Malformed input (NaN/∞ coordinates,
//!   dimension mismatch, out-of-range ids) is rejected at
//!   [`Engine::submit`] with [`QueryError::InvalidInput`] before it can
//!   reach a worker or a kernel.
//! * **Deadlines.** A request may carry a deadline. Queued past it, the
//!   ticket is shed at dequeue with [`QueryError::DeadlineExceeded`]
//!   without wasting service time; in flight, the deadline rides the
//!   query's [`CancelToken`], checked at tile-block granularity.
//! * **Panic isolation.** Each dequeued job runs inside one
//!   `catch_unwind` region that spans everything between the dequeue and
//!   the finished outcome: the dequeue-time sheds, the fault hook, the
//!   epoch pin, worker-state set-up, the query, and building the response
//!   from the algorithm's answer. A panic anywhere in it resolves exactly
//!   that submitter's ticket with [`QueryError::Internal`] and the same
//!   thread serves on with fresh scratch — there is no "outside" for
//!   user code to panic in, so no thread-level recovery layer. Inputs that
//!   keep panicking are quarantined (the poison-pill log,
//!   [`Engine::poison_log`]): at 2 panics per input, or when 3
//!   consecutive panics on one worker trip its breaker.
//! * **Honest shutdown.** [`Engine::close`] wakes every parked thread;
//!   tickets still queued when the engine is torn down resolve with
//!   [`QueryError::Closed`]. After a full drain,
//!   `submitted == completed + failed` holds exactly.
//!
//! Deterministic fault injection ([`crate::FaultPlan`]) hooks the
//! submission and execution sequence numbers so chaos tests exercise all
//! of the above reproducibly.

use crate::fault::{Fault, FaultPlan};
use crate::poison::{PoisonLog, PoisonPill};
use rknn_core::{CancelToken, CoreError, Metric, Neighbor, PointId, SearchStats};
use rknn_index::KnnIndex;
use rknn_rdt::algorithm::{requested_threads, AlgorithmAnswer, RknnAlgorithm};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Consecutive panics on one worker before its breaker trips and the
/// offending input is quarantined outright.
const BREAKER_THRESHOLD: u32 = 3;

/// Panics attributed to one *input* (across workers) before that input is
/// quarantined — later submissions of it resolve [`QueryError::Internal`]
/// without touching the algorithm.
const POISON_THRESHOLD: u32 = 2;

/// An immutable `(epoch, index, prepared algorithm)` triple — the unit the
/// engine serves from and swaps atomically.
///
/// A snapshot is constructed *off to the side* (the engine keeps serving
/// the previous one) and handed to [`Engine::publish`]. The contained
/// algorithm must already be prepared against the contained index; use
/// [`Snapshot::prepare`] when starting cold, or
/// [`crate::advance_snapshot`] to derive a successor that carries RDT's
/// warm `d_k` cache across the swap.
#[derive(Debug)]
pub struct Snapshot<M, I, A> {
    epoch: u64,
    index: I,
    algo: A,
    _metric: PhantomData<fn() -> M>,
}

impl<M, I, A> Snapshot<M, I, A>
where
    M: Metric,
    I: KnnIndex<M>,
    A: RknnAlgorithm<M, I>,
{
    /// Wraps an index and an **already-prepared** algorithm as epoch
    /// `epoch`.
    pub fn new(epoch: u64, index: I, algo: A) -> Self {
        Snapshot {
            epoch,
            index,
            algo,
            _metric: PhantomData,
        }
    }

    /// Prepares `algo` against `index` and wraps both — the cold-start
    /// constructor.
    pub fn prepare(epoch: u64, index: I, mut algo: A) -> Self {
        algo.prepare(&index);
        Snapshot::new(epoch, index, algo)
    }

    /// The epoch this snapshot was published as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The forward index queries of this epoch run against.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The prepared algorithm answering this epoch's queries.
    pub fn algo(&self) -> &A {
        &self.algo
    }
}

/// What a query asks about: a dataset point or an arbitrary location.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryInput {
    /// Reverse-kNN of dataset point `id` (self-excluding, as everywhere in
    /// the workspace).
    Point(PointId),
    /// Reverse-kNN of an external location (nothing excluded). Only
    /// algorithms implementing [`RknnAlgorithm::query_at`] can answer
    /// these; others resolve the ticket with [`QueryError::Unsupported`].
    Coords(Vec<f64>),
}

impl QueryInput {
    /// The dataset point id, when this is a [`QueryInput::Point`].
    pub fn point_id(&self) -> Option<PointId> {
        match self {
            QueryInput::Point(id) => Some(*id),
            QueryInput::Coords(_) => None,
        }
    }
}

/// One query submission: what to ask and how long it may take. `PointId`
/// converts directly (`engine.submit(42)?`) for the common no-deadline
/// case.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// What to query.
    pub input: QueryInput,
    /// Absolute deadline. Queued past it the ticket resolves
    /// [`QueryError::DeadlineExceeded`]; in flight it trips the query's
    /// [`CancelToken`] at the next tile-block checkpoint.
    pub deadline: Option<Instant>,
}

impl QueryRequest {
    /// A request for the reverse-kNN of dataset point `q`.
    pub fn point(q: PointId) -> Self {
        QueryRequest {
            input: QueryInput::Point(q),
            deadline: None,
        }
    }

    /// A request for the reverse-kNN of an arbitrary location.
    pub fn coords(coords: Vec<f64>) -> Self {
        QueryRequest {
            input: QueryInput::Coords(coords),
            deadline: None,
        }
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }
}

impl From<PointId> for QueryRequest {
    fn from(q: PointId) -> Self {
        QueryRequest::point(q)
    }
}

/// Why a submission was rejected or an accepted ticket resolved without an
/// answer. Every variant is a *typed, expected* outcome of serving under
/// load and faults — none of them indicates a lost ticket.
///
/// Retry guidance: [`Saturated`](QueryError::Saturated) is the one
/// transient variant worth retrying (see [`crate::RetryPolicy`]).
/// [`Closed`](QueryError::Closed) is permanent. The rest are properties of
/// the request ([`InvalidInput`](QueryError::InvalidInput),
/// [`Unsupported`](QueryError::Unsupported),
/// [`DeadlineExceeded`](QueryError::DeadlineExceeded)) or of the input
/// itself ([`Internal`](QueryError::Internal) — repeat offenders end up
/// quarantined), and will not improve on resubmission.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Every shard queue is at capacity. The engine sheds load instead of
    /// buffering unboundedly; back off and retry.
    Saturated {
        /// Jobs queued across all shards at rejection time.
        queued: usize,
        /// Total queue capacity (shards × per-shard capacity).
        capacity: usize,
    },
    /// The engine is closed: no further submissions are accepted, and this
    /// ticket — if it was already queued — was swept during teardown.
    Closed,
    /// The request failed boundary validation (dimension mismatch,
    /// non-finite coordinate, unknown point id) and never reached a
    /// worker.
    InvalidInput(CoreError),
    /// The request's deadline passed while it sat queued (or its in-flight
    /// execution was cut short by the deadline); no answer was produced.
    DeadlineExceeded {
        /// How long the request had been waiting when it was shed.
        queued_for: Duration,
    },
    /// The ticket was cancelled via [`Ticket::cancel`] before an answer
    /// was produced.
    Cancelled,
    /// The job panicked somewhere between its dequeue and its finished
    /// response, or its input is quarantined after repeated panics. The
    /// worker serves on with fresh scratch; only this submitter observes
    /// the failure.
    Internal {
        /// Index of the worker that failed.
        worker: usize,
        /// The panic message, or why the input was refused.
        reason: String,
    },
    /// The active algorithm cannot answer this kind of input (currently:
    /// coordinate queries against methods without
    /// [`RknnAlgorithm::query_at`]).
    Unsupported {
        /// [`RknnAlgorithm::name`] of the algorithm that declined.
        algorithm: String,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Saturated { queued, capacity } => write!(
                f,
                "executor saturated: {queued} queued of {capacity} capacity"
            ),
            QueryError::Closed => write!(f, "engine is closed"),
            QueryError::InvalidInput(err) => write!(f, "invalid query: {err}"),
            QueryError::DeadlineExceeded { queued_for } => {
                write!(f, "deadline exceeded after {queued_for:?} in queue")
            }
            QueryError::Cancelled => write!(f, "query cancelled"),
            QueryError::Internal { worker, reason } => {
                write!(f, "internal error on worker {worker}: {reason}")
            }
            QueryError::Unsupported { algorithm } => {
                write!(
                    f,
                    "algorithm {algorithm:?} does not support this query input"
                )
            }
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::InvalidInput(err) => Some(err),
            _ => None,
        }
    }
}

/// Executor sizing and the fault-injection schedule.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads. `0` defers to the `RKNN_THREADS` environment
    /// override, then to [`std::thread::available_parallelism`] (see
    /// [`requested_threads`]).
    pub workers: usize,
    /// Per-shard queue bound; total admission capacity is
    /// `workers × queue_capacity`.
    pub queue_capacity: usize,
    /// Deterministic fault-injection schedule, for chaos tests. `None` in
    /// production.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            queue_capacity: 128,
            faults: None,
        }
    }
}

/// The completed answer to one submitted query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The queried input.
    pub query: QueryInput,
    /// Epoch of the snapshot that answered — in-flight queries pin their
    /// snapshot, so exactly one epoch is ever consistent with the result.
    pub epoch: u64,
    /// The reverse k-nearest neighbors, ascending by distance.
    pub neighbors: Vec<Neighbor>,
    /// Work spent answering ([`AlgorithmAnswer::work`]).
    pub work: SearchStats,
    /// Index of the worker that executed the query.
    pub worker: usize,
    /// When [`Engine::submit`] accepted the query.
    pub submitted_at: Instant,
    /// When a worker dequeued it.
    pub started_at: Instant,
    /// When the answer was complete.
    pub finished_at: Instant,
}

impl QueryResponse {
    /// The queried dataset point, for [`QueryInput::Point`] requests.
    pub fn point_id(&self) -> Option<PointId> {
        self.query.point_id()
    }

    /// Time spent queued before a worker picked the query up.
    pub fn queue_wait(&self) -> Duration {
        self.started_at.saturating_duration_since(self.submitted_at)
    }

    /// Time spent executing the query.
    pub fn service(&self) -> Duration {
        self.finished_at.saturating_duration_since(self.started_at)
    }

    /// Accept-to-answer latency (queue wait + service).
    pub fn total(&self) -> Duration {
        self.finished_at
            .saturating_duration_since(self.submitted_at)
    }
}

/// Locks a mutex, recovering the guard if a panicking thread poisoned it —
/// the engine's own invariants (single fulfillment, atomic counters,
/// full-value cache stores) do not depend on lock poisoning.
fn lock_mutex<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_mutex`].
fn wait_cv<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// One-slot rendezvous between the worker that resolves a query and the
/// caller waiting on its [`Ticket`].
#[derive(Debug)]
struct ResponseCell {
    slot: Mutex<Option<Result<QueryResponse, QueryError>>>,
    ready: Condvar,
    /// Trips the in-flight query's [`CancelToken`]; set by
    /// [`Ticket::cancel`].
    cancel: Arc<AtomicBool>,
}

impl ResponseCell {
    fn new() -> Arc<Self> {
        Arc::new(ResponseCell {
            slot: Mutex::new(None),
            ready: Condvar::new(),
            cancel: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Resolves the ticket. A job leaves the queues exactly once — popped
    /// by one worker, or swept at teardown — so each cell is fulfilled
    /// exactly once.
    fn fulfill(&self, outcome: Result<QueryResponse, QueryError>) {
        *lock_mutex(&self.slot) = Some(outcome);
        self.ready.notify_all();
    }
}

/// A claim on one submitted query's eventual outcome.
#[derive(Debug)]
pub struct Ticket {
    cell: Arc<ResponseCell>,
}

impl Ticket {
    /// Blocks until the query resolves. Every accepted submission resolves
    /// exactly once — with an answer or a typed [`QueryError`] — even
    /// through panics and shutdown, so this always returns.
    pub fn wait(self) -> Result<QueryResponse, QueryError> {
        let mut slot = lock_mutex(&self.cell.slot);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = wait_cv(&self.cell.ready, slot);
        }
    }

    /// Blocks until the query resolves or `timeout` elapses; `None` on
    /// timeout (the ticket stays claimable).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<QueryResponse, QueryError>> {
        let deadline = Instant::now() + timeout;
        let mut slot = lock_mutex(&self.cell.slot);
        loop {
            if let Some(outcome) = slot.take() {
                return Some(outcome);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timed_out) = self
                .cell
                .ready
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            slot = guard;
        }
    }

    /// Takes the outcome if the query already resolved, without blocking.
    pub fn try_take(&self) -> Option<Result<QueryResponse, QueryError>> {
        lock_mutex(&self.cell.slot).take()
    }

    /// Requests cancellation: a queued job resolves
    /// [`QueryError::Cancelled`] at dequeue; an in-flight query observes
    /// the trip at its next tile-block checkpoint. Cooperative — a query
    /// that already finished keeps its answer.
    pub fn cancel(&self) {
        self.cell.cancel.store(true, Relaxed);
    }
}

/// A queued query.
#[derive(Debug)]
struct Job {
    input: QueryInput,
    submitted_at: Instant,
    deadline: Option<Instant>,
    cell: Arc<ResponseCell>,
}

/// Monotonic counters describing an engine's lifetime so far.
///
/// The accounting anchor is `submitted == completed + failed` once the
/// engine has drained: every accepted ticket resolves exactly once, with
/// an answer (`completed`) or a typed error (`failed`). The remaining
/// counters break `failed` and the submit-time rejections down by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Accepted submissions (each holds exactly one eventual outcome).
    pub submitted: u64,
    /// Tickets resolved with an answer.
    pub completed: u64,
    /// Tickets resolved with a typed error (deadline, cancel, internal,
    /// unsupported, shutdown sweep).
    pub failed: u64,
    /// Submissions rejected with [`QueryError::Saturated`] (including
    /// injected queue-full windows).
    pub rejected: u64,
    /// Submissions rejected with [`QueryError::InvalidInput`].
    pub invalid_inputs: u64,
    /// Saturated rejections injected by the fault plan.
    pub injected_rejects: u64,
    /// Tickets resolved [`QueryError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Tickets resolved [`QueryError::Cancelled`].
    pub cancelled: u64,
    /// Tickets resolved [`QueryError::Internal`] (panics, quarantined
    /// inputs).
    pub internal_errors: u64,
    /// Tickets swept with [`QueryError::Closed`] at teardown.
    pub aborted: u64,
    /// Panics caught in worker jobs.
    pub panics: u64,
    /// Inputs quarantined by the poison log.
    pub quarantined: u64,
    /// Jobs a worker stole from a sibling's queue.
    pub stolen: u64,
    /// Snapshot publications ([`Engine::publish`]).
    pub swaps: u64,
    /// Jobs currently queued (not yet picked up).
    pub queued: usize,
    /// Epoch of the currently active snapshot.
    pub epoch: u64,
}

/// State shared between the engine handle and its worker threads.
#[derive(Debug)]
struct Shared<M, I, A> {
    snapshot: RwLock<Arc<Snapshot<M, I, A>>>,
    shards: Vec<Mutex<VecDeque<Job>>>,
    queue_capacity: usize,
    /// Queued-job count; workers park only when it reads zero.
    queued: AtomicUsize,
    /// Pairs with `wake`: submission takes this lock around its notify so a
    /// worker checking `queued` under the same lock can never miss it.
    idle: Mutex<()>,
    wake: Condvar,
    open: AtomicBool,
    rr: AtomicUsize,
    /// Submission sequence (every non-closed submit attempt), keying the
    /// fault plan's rejection windows.
    submit_seq: AtomicU64,
    /// Execution sequence (every dequeued job that survives the deadline,
    /// cancel and quarantine sheds), keying injected worker faults.
    exec_seq: AtomicU64,
    faults: Option<Arc<FaultPlan>>,
    /// Inputs blamed for worker panics; quarantined ones are refused at
    /// dequeue.
    poison: Mutex<PoisonLog>,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    invalid_inputs: AtomicU64,
    injected_rejects: AtomicU64,
    deadline_exceeded: AtomicU64,
    cancelled: AtomicU64,
    internal_errors: AtomicU64,
    aborted: AtomicU64,
    panics: AtomicU64,
    quarantined: AtomicU64,
    stolen: AtomicU64,
    swaps: AtomicU64,
}

impl<M, I, A> Shared<M, I, A> {
    /// Stops admission and wakes every parked worker, so blocked producers
    /// observe [`QueryError::Closed`] and workers drain and exit.
    fn close(&self) {
        self.open.store(false, Relaxed);
        let _guard = lock_mutex(&self.idle);
        self.wake.notify_all();
    }

    /// Counts `outcome` under its cause and resolves `cell` with it: the
    /// one place a ticket is resolved.
    fn resolve(&self, cell: &ResponseCell, outcome: Result<QueryResponse, QueryError>) {
        let cause = match &outcome {
            Ok(_) => Some(&self.completed),
            Err(err) => {
                self.failed.fetch_add(1, Relaxed);
                match err {
                    QueryError::DeadlineExceeded { .. } => Some(&self.deadline_exceeded),
                    QueryError::Cancelled => Some(&self.cancelled),
                    QueryError::Internal { .. } => Some(&self.internal_errors),
                    QueryError::Closed => Some(&self.aborted),
                    // `Unsupported` has no cause counter; `Saturated` and
                    // `InvalidInput` are submit-time rejections.
                    _ => None,
                }
            }
        };
        if let Some(counter) = cause {
            counter.fetch_add(1, Relaxed);
        }
        cell.fulfill(outcome);
    }
}

/// The long-lived serving engine: worker threads over an epoch-swapped
/// [`Snapshot`], accepting queries through bounded per-worker queues,
/// resolving every accepted ticket exactly once.
///
/// Dropping the engine closes it, drains or sweeps all queued work, and
/// joins the workers; [`Engine::shutdown`] does the same and returns the
/// final counters.
#[derive(Debug)]
pub struct Engine<M, I, A> {
    shared: Arc<Shared<M, I, A>>,
    handles: Vec<JoinHandle<()>>,
}

impl<M, I, A> Engine<M, I, A>
where
    M: Metric + 'static,
    I: KnnIndex<M> + 'static,
    A: RknnAlgorithm<M, I> + Send + Sync + 'static,
{
    /// Starts the engine on an initial snapshot.
    pub fn new(snapshot: Snapshot<M, I, A>, config: EngineConfig) -> Self {
        let workers = requested_threads(config.workers).max(1);
        let queue_capacity = config.queue_capacity.max(1);
        let shared = Arc::new(Shared {
            snapshot: RwLock::new(Arc::new(snapshot)),
            shards: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            queue_capacity,
            queued: AtomicUsize::new(0),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            open: AtomicBool::new(true),
            rr: AtomicUsize::new(0),
            submit_seq: AtomicU64::new(0),
            exec_seq: AtomicU64::new(0),
            faults: config.faults,
            poison: Mutex::new(PoisonLog::default()),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            invalid_inputs: AtomicU64::new(0),
            injected_rejects: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            internal_errors: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rknn-serve-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn engine worker")
            })
            .collect();
        Engine { shared, handles }
    }

    /// Submits a query, returning a [`Ticket`] for its eventual outcome,
    /// or the reason it was not accepted. Validates the input at this
    /// boundary; never blocks on a full executor — saturation is the
    /// caller's backpressure signal (see [`crate::RetryPolicy`]).
    pub fn submit(&self, request: impl Into<QueryRequest>) -> Result<Ticket, QueryError> {
        let request = request.into();
        if !self.shared.open.load(Relaxed) {
            return Err(QueryError::Closed);
        }
        let sseq = self.shared.submit_seq.fetch_add(1, Relaxed);
        if let Some(faults) = &self.shared.faults {
            if faults.rejects_submit(sseq) {
                self.shared.injected_rejects.fetch_add(1, Relaxed);
                self.shared.rejected.fetch_add(1, Relaxed);
                return Err(QueryError::Saturated {
                    queued: self.shared.queued.load(Relaxed),
                    capacity: self.queue_capacity(),
                });
            }
        }
        if let Err(err) = self.validate(&request.input) {
            self.shared.invalid_inputs.fetch_add(1, Relaxed);
            return Err(QueryError::InvalidInput(err));
        }
        let cell = ResponseCell::new();
        let job = Job {
            input: request.input,
            submitted_at: Instant::now(),
            deadline: request.deadline,
            cell: Arc::clone(&cell),
        };
        let shards = &self.shared.shards;
        let preferred = self.shared.rr.fetch_add(1, Relaxed) % shards.len();
        for offset in 0..shards.len() {
            let mut queue = lock_mutex(&shards[(preferred + offset) % shards.len()]);
            if queue.len() < self.shared.queue_capacity {
                queue.push_back(job);
                drop(queue);
                self.shared.queued.fetch_add(1, Relaxed);
                self.shared.submitted.fetch_add(1, Relaxed);
                let _guard = lock_mutex(&self.shared.idle);
                self.shared.wake.notify_one();
                return Ok(Ticket { cell });
            }
        }
        self.shared.rejected.fetch_add(1, Relaxed);
        Err(QueryError::Saturated {
            queued: self.shared.queued.load(Relaxed),
            capacity: self.queue_capacity(),
        })
    }

    /// Boundary validation against the currently active snapshot.
    fn validate(&self, input: &QueryInput) -> Result<(), CoreError> {
        let snapshot = self.snapshot();
        match input {
            QueryInput::Point(id) => {
                if !snapshot.index().has_point(*id) {
                    return Err(CoreError::UnknownPoint(*id));
                }
                Ok(())
            }
            QueryInput::Coords(coords) => snapshot.algo().validate_query(snapshot.index(), coords),
        }
    }

    /// Atomically swaps the active snapshot. In-flight queries finish
    /// against the epoch they pinned; queries picked up afterwards see the
    /// new snapshot. Returns the published epoch.
    pub fn publish(&self, snapshot: Snapshot<M, I, A>) -> u64 {
        let epoch = snapshot.epoch;
        *self
            .shared
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Arc::new(snapshot);
        self.shared.swaps.fetch_add(1, Relaxed);
        epoch
    }

    /// Pins and returns the currently active snapshot (the same clone a
    /// worker would take). Used to derive a successor snapshot off to the
    /// side while serving continues.
    pub fn snapshot(&self) -> Arc<Snapshot<M, I, A>> {
        self.shared
            .snapshot
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Worker threads the engine runs.
    pub fn workers(&self) -> usize {
        self.shared.shards.len()
    }

    /// Total admission capacity (shards × per-shard bound).
    pub fn queue_capacity(&self) -> usize {
        self.shared.shards.len() * self.shared.queue_capacity
    }

    /// Current counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            submitted: self.shared.submitted.load(Relaxed),
            completed: self.shared.completed.load(Relaxed),
            failed: self.shared.failed.load(Relaxed),
            rejected: self.shared.rejected.load(Relaxed),
            invalid_inputs: self.shared.invalid_inputs.load(Relaxed),
            injected_rejects: self.shared.injected_rejects.load(Relaxed),
            deadline_exceeded: self.shared.deadline_exceeded.load(Relaxed),
            cancelled: self.shared.cancelled.load(Relaxed),
            internal_errors: self.shared.internal_errors.load(Relaxed),
            aborted: self.shared.aborted.load(Relaxed),
            panics: self.shared.panics.load(Relaxed),
            quarantined: self.shared.quarantined.load(Relaxed),
            stolen: self.shared.stolen.load(Relaxed),
            swaps: self.shared.swaps.load(Relaxed),
            queued: self.shared.queued.load(Relaxed),
            epoch: self.snapshot().epoch,
        }
    }

    /// The poison-pill log: inputs blamed for worker panics, with failure
    /// counts, quarantine status, and the last panic reason.
    pub fn poison_log(&self) -> Vec<PoisonPill> {
        lock_mutex(&self.shared.poison).pills().to_vec()
    }

    /// Stops accepting submissions and wakes every parked worker, so
    /// blocked-at-capacity producers observe [`QueryError::Closed`] and
    /// workers drain. Queued work still drains; tickets still queued when
    /// the engine is finally torn down resolve [`QueryError::Closed`].
    pub fn close(&self) {
        self.shared.close();
    }

    /// Closes the engine, drains queued work, joins all threads, sweeps
    /// any stranded tickets with [`QueryError::Closed`], and returns the
    /// final counters.
    pub fn shutdown(mut self) -> EngineStats {
        self.teardown();
        self.stats()
    }
}

impl<M, I, A> Engine<M, I, A> {
    /// Closes the engine, joins the workers once they have drained the
    /// queues, then resolves any job still queued [`QueryError::Closed`]:
    /// a submit that raced `close` can enqueue after the last worker left.
    /// Idempotent, so [`Engine::shutdown`] and `Drop` share it.
    fn teardown(&mut self) {
        self.shared.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        for shard in &self.shared.shards {
            let stranded: Vec<Job> = lock_mutex(shard).drain(..).collect();
            for job in stranded {
                self.shared.queued.fetch_sub(1, Relaxed);
                self.shared.resolve(&job.cell, Err(QueryError::Closed));
            }
        }
    }
}

impl<M, I, A> Drop for Engine<M, I, A> {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Pops the next job for worker `w`: own queue from the front, then a
/// steal from the back of each sibling queue.
fn pop_job<M, I, A>(shared: &Shared<M, I, A>, w: usize) -> Option<Job> {
    let shards = &shared.shards;
    if let Some(job) = lock_mutex(&shards[w]).pop_front() {
        shared.queued.fetch_sub(1, Relaxed);
        return Some(job);
    }
    for offset in 1..shards.len() {
        let victim = &shards[(w + offset) % shards.len()];
        if let Some(job) = lock_mutex(victim).pop_back() {
            shared.queued.fetch_sub(1, Relaxed);
            shared.stolen.fetch_add(1, Relaxed);
            return Some(job);
        }
    }
    None
}

/// Renders a `catch_unwind` payload for [`QueryError::Internal`].
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn worker_loop<M, I, A>(shared: &Shared<M, I, A>, w: usize)
where
    M: Metric,
    I: KnnIndex<M>,
    A: RknnAlgorithm<M, I>,
{
    // The worker's per-epoch state: scratch buffers recreated lazily the
    // first time this worker serves a query under a new snapshot, and
    // discarded wholesale after a panic (the scratch may be mid-mutation).
    let mut state: Option<(u64, A::Worker)> = None;
    // The breaker: consecutive panics on *this* worker. Trips into
    // quarantining the current input at `BREAKER_THRESHOLD`.
    let mut consecutive_failures: u32 = 0;
    loop {
        let Some(job) = pop_job(shared, w) else {
            if !shared.open.load(Relaxed) {
                // Closed and nothing left to pop anywhere: drained.
                return;
            }
            let guard = lock_mutex(&shared.idle);
            if shared.queued.load(Relaxed) == 0 && shared.open.load(Relaxed) {
                drop(wait_cv(&shared.wake, guard));
            }
            continue;
        };
        // The one protected region: everything from the dequeue-time
        // sheds to the finished response. The shared snapshot survives an
        // unwind — the algorithm's unwind-safety contract (see
        // `RknnAlgorithm` docs) keeps its &self state valid.
        let outcome = match catch_unwind(AssertUnwindSafe(|| run_job(shared, w, &job, &mut state)))
        {
            Ok(outcome) => {
                if outcome.is_ok() {
                    consecutive_failures = 0;
                }
                outcome
            }
            Err(payload) => {
                state = None;
                consecutive_failures += 1;
                shared.panics.fetch_add(1, Relaxed);
                let reason = panic_reason(payload.as_ref());
                let mut poison = lock_mutex(&shared.poison);
                let mut newly = poison.record(&job.input, &reason, POISON_THRESHOLD);
                if consecutive_failures >= BREAKER_THRESHOLD {
                    newly |= poison.quarantine(&job.input);
                    consecutive_failures = 0;
                }
                drop(poison);
                if newly {
                    shared.quarantined.fetch_add(1, Relaxed);
                }
                Err(QueryError::Internal {
                    worker: w,
                    reason: format!("query panicked: {reason}"),
                })
            }
        };
        shared.resolve(&job.cell, outcome);
    }
}

/// One dequeued job, from the dequeue-time sheds to its finished outcome.
/// [`worker_loop`] runs it under `catch_unwind`, so a panic anywhere here
/// — in the algorithm, in its answer's accessors, or in an injected
/// fault — fails this job alone.
fn run_job<M, I, A>(
    shared: &Shared<M, I, A>,
    w: usize,
    job: &Job,
    state: &mut Option<(u64, A::Worker)>,
) -> Result<QueryResponse, QueryError>
where
    M: Metric,
    I: KnnIndex<M>,
    A: RknnAlgorithm<M, I>,
{
    let started_at = Instant::now();
    let deadline_exceeded = || QueryError::DeadlineExceeded {
        queued_for: started_at.saturating_duration_since(job.submitted_at),
    };
    // Deadline shed at dequeue: don't spend service time on a ticket
    // whose submitter has already given up.
    if job.deadline.is_some_and(|d| started_at >= d) {
        return Err(deadline_exceeded());
    }
    if job.cell.cancel.load(Relaxed) {
        return Err(QueryError::Cancelled);
    }
    // Quarantined inputs never reach the algorithm again.
    if lock_mutex(&shared.poison).is_quarantined(&job.input) {
        return Err(QueryError::Internal {
            worker: w,
            reason: "input quarantined after repeated worker panics".to_string(),
        });
    }
    // Injected faults, keyed deterministically on the execution slot.
    // Only jobs that get this far take a slot: a shed job never reaches
    // the fault hook, so numbering it would let a shed swallow a
    // scheduled fault.
    let eseq = shared.exec_seq.fetch_add(1, Relaxed);
    match shared.faults.as_ref().and_then(|f| f.at_execution(eseq)) {
        Some(Fault::Delay(delay)) => std::thread::sleep(delay),
        Some(Fault::Panic) => panic!("injected fault: worker panic at execution slot {eseq}"),
        None => {}
    }
    // Pin the epoch: holding this Arc keeps the snapshot alive for the
    // whole query even if a successor is published meanwhile.
    let snapshot = shared
        .snapshot
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let cancel = CancelToken::from_flag(Arc::clone(&job.cell.cancel), job.deadline);
    if state
        .as_ref()
        .is_none_or(|(epoch, _)| *epoch != snapshot.epoch)
    {
        *state = Some((snapshot.epoch, snapshot.algo.make_worker(&snapshot.index)));
    }
    let (_, worker_state) = state.as_mut().expect("worker state initialized");
    let answered = match &job.input {
        QueryInput::Point(q) => {
            snapshot
                .algo
                .query_cancellable(&snapshot.index, *q, worker_state, &cancel)
        }
        QueryInput::Coords(coords) => {
            match snapshot
                .algo
                .query_at(&snapshot.index, coords, worker_state, &cancel)
            {
                Some(result) => result,
                None => {
                    return Err(QueryError::Unsupported {
                        algorithm: snapshot.algo.name(),
                    })
                }
            }
        }
    };
    let finished_at = Instant::now();
    let Ok(answer) = answered else {
        // Cancelled in flight: by the deadline if it has passed, otherwise
        // by the ticket.
        return Err(if job.deadline.is_some_and(|d| finished_at >= d) {
            deadline_exceeded()
        } else {
            QueryError::Cancelled
        });
    };
    Ok(QueryResponse {
        query: job.input.clone(),
        epoch: snapshot.epoch,
        neighbors: answer.neighbors().to_vec(),
        work: answer.work(),
        worker: w,
        submitted_at: job.submitted_at,
        started_at,
        finished_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknn_core::Euclidean;
    use rknn_index::LinearScan;
    use rknn_rdt::algorithm::{run_algorithm_batch, RdtAlgorithm};
    use rknn_rdt::RdtParams;

    type Eng = Engine<Euclidean, LinearScan<Euclidean>, RdtAlgorithm>;

    fn index(n: usize, seed: u64) -> LinearScan<Euclidean> {
        let ds = rknn_data::gaussian_blobs(n, 4, 3, 0.4, seed).into_shared();
        LinearScan::build(ds, Euclidean)
    }

    fn engine_with(n: usize, seed: u64, config: EngineConfig) -> Eng {
        let idx = index(n, seed);
        let algo = RdtAlgorithm::new(RdtParams::new(4, 4.0));
        Engine::new(Snapshot::prepare(0, idx, algo), config)
    }

    fn engine(n: usize, seed: u64, workers: usize, cap: usize) -> Eng {
        engine_with(
            n,
            seed,
            EngineConfig {
                workers,
                queue_capacity: cap,
                ..EngineConfig::default()
            },
        )
    }

    #[test]
    fn serves_byte_identical_to_the_sequential_driver() {
        let idx = index(300, 900);
        let mut algo = RdtAlgorithm::new(RdtParams::new(4, 4.0));
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut algo, &idx);
        let queries: Vec<PointId> = (0..300).step_by(3).collect();
        let want = run_algorithm_batch(&algo, &idx, &queries, 1);

        let eng = engine(300, 900, 3, 64);
        let tickets: Vec<Ticket> = queries.iter().map(|&q| eng.submit(q).unwrap()).collect();
        for (ticket, (i, &q)) in tickets.into_iter().zip(queries.iter().enumerate()) {
            let got = ticket.wait().expect("fault-free serving answers");
            assert_eq!(got.point_id(), Some(q));
            assert_eq!(got.epoch, 0);
            let gv: Vec<(PointId, u64)> = got
                .neighbors
                .iter()
                .map(|n| (n.id, n.dist.to_bits()))
                .collect();
            let wv: Vec<(PointId, u64)> = want.answers[i]
                .result
                .iter()
                .map(|n| (n.id, n.dist.to_bits()))
                .collect();
            assert_eq!(gv, wv, "q={q}");
        }
        let stats = eng.shutdown();
        assert_eq!(stats.submitted, 100);
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn saturation_rejects_with_reason_and_loses_nothing() {
        let eng = engine(400, 901, 1, 1);
        let mut tickets = Vec::new();
        let mut rejected = 0usize;
        for q in 0..200usize {
            match eng.submit(q % 400) {
                Ok(t) => tickets.push(t),
                Err(QueryError::Saturated { queued, capacity }) => {
                    assert!(queued <= capacity, "reason fields are coherent");
                    assert_eq!(capacity, 1);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected submit error: {other}"),
            }
        }
        let accepted = tickets.len();
        for ticket in tickets {
            ticket.wait().expect("accepted queries answer");
        }
        let stats = eng.shutdown();
        assert!(rejected > 0, "a one-slot executor must shed rapid load");
        assert_eq!(accepted + rejected, 200, "every submit is accounted");
        assert_eq!(stats.completed, accepted as u64);
        assert_eq!(stats.rejected, rejected as u64);
        assert_eq!(stats.submitted, stats.completed + stats.failed);
    }

    #[test]
    fn close_rejects_new_work_but_drains_accepted_work() {
        let eng = engine(200, 902, 2, 32);
        let tickets: Vec<Ticket> = (0..20usize).map(|q| eng.submit(q).unwrap()).collect();
        eng.close();
        assert!(matches!(eng.submit(0usize), Err(QueryError::Closed)));
        for ticket in tickets {
            ticket.wait().expect("accepted queries drain after close");
        }
        let stats = eng.shutdown();
        assert_eq!(stats.completed, 20);
    }

    #[test]
    fn publish_swaps_epochs_and_pins_are_consistent() {
        let eng = engine(250, 903, 2, 64);
        let first: Vec<Ticket> = (0..50usize).map(|q| eng.submit(q).unwrap()).collect();
        // Build the successor off to the side from the pinned snapshot.
        let pinned = eng.snapshot();
        let next_idx = pinned.index().clone();
        let next = Snapshot::new(pinned.epoch() + 1, next_idx, pinned.algo().warmed());
        assert_eq!(eng.publish(next), 1);
        let second: Vec<Ticket> = (0..50usize).map(|q| eng.submit(q).unwrap()).collect();
        for t in first {
            let r = t.wait().unwrap();
            assert!(r.epoch <= 1, "pre-publish submissions see epoch 0 or 1");
        }
        for t in second {
            assert_eq!(
                t.wait().unwrap().epoch,
                1,
                "post-publish submissions see epoch 1"
            );
        }
        let stats = eng.shutdown();
        assert_eq!(stats.swaps, 1);
        assert_eq!(stats.epoch, 1);
    }

    #[test]
    fn zero_workers_resolves_to_at_least_one() {
        let eng = engine(60, 904, 0, 8);
        assert!(eng.workers() >= 1);
        let t = eng.submit(5usize).unwrap();
        assert_eq!(t.wait().unwrap().point_id(), Some(5));
    }

    #[test]
    fn invalid_inputs_are_rejected_typed_at_submit() {
        let eng = engine(100, 905, 1, 16);
        // Out-of-range dataset id.
        match eng.submit(100usize) {
            Err(QueryError::InvalidInput(CoreError::UnknownPoint(id))) => assert_eq!(id, 100),
            other => panic!("expected UnknownPoint, got {other:?}"),
        }
        // NaN coordinate.
        match eng.submit(QueryRequest::coords(vec![0.0, f64::NAN, 0.0, 0.0])) {
            Err(QueryError::InvalidInput(CoreError::NonFinite { coordinate, .. })) => {
                assert_eq!(coordinate, 1)
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        // Infinite coordinate.
        match eng.submit(QueryRequest::coords(vec![f64::INFINITY, 0.0, 0.0, 0.0])) {
            Err(QueryError::InvalidInput(CoreError::NonFinite { coordinate, .. })) => {
                assert_eq!(coordinate, 0)
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        // Dimension mismatch (index is 4-dimensional).
        match eng.submit(QueryRequest::coords(vec![0.0, 0.0])) {
            Err(QueryError::InvalidInput(CoreError::DimensionMismatch { expected, got })) => {
                assert_eq!((expected, got), (4, 2));
            }
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
        let stats = eng.shutdown();
        assert_eq!(stats.invalid_inputs, 4);
        assert_eq!(stats.submitted, 0, "nothing malformed was accepted");
    }

    #[test]
    fn coordinate_queries_answer_like_point_queries_less_self_exclusion() {
        let eng = engine(150, 906, 2, 32);
        let pinned = eng.snapshot();
        let coords = pinned.index().point(7).to_vec();
        let t = eng.submit(QueryRequest::coords(coords)).unwrap();
        let got = t.wait().expect("coordinate query answers");
        assert_eq!(got.point_id(), None);
        // Located exactly on point 7 with no exclusion, the query's RkNN
        // must contain 7 itself at distance zero.
        assert!(got.neighbors.iter().any(|n| n.id == 7 && n.dist == 0.0));
        eng.shutdown();
    }

    #[test]
    fn queued_past_deadline_sheds_typed_without_service() {
        let plan = FaultPlan::new().delay_at(0, Duration::from_millis(120));
        let eng = engine_with(
            120,
            907,
            EngineConfig {
                workers: 1,
                queue_capacity: 8,
                faults: Some(Arc::new(plan)),
            },
        );
        // First query wedges the single worker for 120ms.
        let wedge = eng.submit(0usize).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        // Queued behind the wedge with a 1ms budget: must shed at dequeue.
        let doomed = eng
            .submit(QueryRequest::point(1).with_timeout(Duration::from_millis(1)))
            .unwrap();
        match doomed.wait() {
            Err(QueryError::DeadlineExceeded { queued_for }) => {
                assert!(queued_for >= Duration::from_millis(1));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        wedge.wait().expect("the wedged query still answers");
        let stats = eng.shutdown();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.submitted, stats.completed + stats.failed);
    }

    #[test]
    fn cancel_resolves_queued_ticket_typed() {
        let plan = FaultPlan::new().delay_at(0, Duration::from_millis(100));
        let eng = engine_with(
            120,
            909,
            EngineConfig {
                workers: 1,
                queue_capacity: 8,
                faults: Some(Arc::new(plan)),
            },
        );
        let wedge = eng.submit(0usize).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let victim = eng.submit(1usize).unwrap();
        victim.cancel();
        match victim.wait() {
            Err(QueryError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        wedge.wait().expect("wedged query answers");
        let stats = eng.shutdown();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.submitted, stats.completed + stats.failed);
    }
}
