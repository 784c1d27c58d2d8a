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
//! capacity the submit either sheds a strictly-lower-priority queued job
//! (resolving that ticket with [`QueryError::Shed`]) or is rejected with
//! [`QueryError::Saturated`] — the engine applies backpressure instead of
//! buffering unboundedly. Workers pop their own queue from the front
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
//! * **Panic isolation.** Each query runs under `catch_unwind`. A panic
//!   resolves exactly that submitter's ticket with
//!   [`QueryError::Internal`], the worker rebuilds its scratch from
//!   scratch, and a per-worker consecutive-failure breaker quarantines
//!   repeat-offender inputs (the poison-pill log, [`Engine::poison_log`]).
//! * **Supervision.** A worker thread that dies outright (a panic outside
//!   the protected region) is detected by the supervisor thread and
//!   respawned; its in-flight ticket still resolves via a drop guard.
//! * **Honest shutdown.** [`Engine::close`] wakes every parked thread;
//!   tickets still queued when the engine is torn down resolve with
//!   [`QueryError::Closed`]. After a full drain,
//!   `submitted == completed + failed` holds exactly.
//!
//! Deterministic fault injection ([`crate::FaultPlan`]) hooks the
//! submission and execution sequence numbers so chaos tests exercise all
//! of the above reproducibly.

use crate::fault::{Fault, FaultPlan};
use crate::supervisor::{spawn_supervisor, Lifeline, PoisonLog, PoisonPill};
use rknn_core::{CancelToken, CoreError, Metric, Neighbor, PointId, SearchStats};
use rknn_index::KnnIndex;
use rknn_rdt::algorithm::{requested_threads, AlgorithmAnswer, RknnAlgorithm};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

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

/// Scheduling priority of a request. Under saturation the engine may shed
/// a queued strictly-lower-priority job to admit a new one (see
/// [`EngineConfig::shed_lower_priority`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Shed first under overload.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Never shed in favor of other work; can displace `Low` and `Normal`.
    High,
}

/// One query submission: what to ask, how long it may take, how important
/// it is. `PointId` converts directly (`engine.submit(42)?`) for the
/// common no-deadline case.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// What to query.
    pub input: QueryInput,
    /// Absolute deadline. Queued past it the ticket resolves
    /// [`QueryError::DeadlineExceeded`]; in flight it trips the query's
    /// [`CancelToken`] at the next tile-block checkpoint.
    pub deadline: Option<Instant>,
    /// Scheduling priority under saturation.
    pub priority: Priority,
}

impl QueryRequest {
    /// A request for the reverse-kNN of dataset point `q`.
    pub fn point(q: PointId) -> Self {
        QueryRequest {
            input: QueryInput::Point(q),
            deadline: None,
            priority: Priority::default(),
        }
    }

    /// A request for the reverse-kNN of an arbitrary location.
    pub fn coords(coords: Vec<f64>) -> Self {
        QueryRequest {
            input: QueryInput::Coords(coords),
            deadline: None,
            priority: Priority::default(),
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

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
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
    /// Every shard queue is at capacity (and nothing shed-able was
    /// queued). The engine sheds load instead of buffering unboundedly;
    /// back off and retry.
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
    /// The request was shed from the queue to admit a higher-priority
    /// submission under saturation.
    Shed {
        /// How long the request had been waiting when it was shed.
        queued_for: Duration,
    },
    /// The query panicked inside a worker (or its worker thread died).
    /// The worker was recovered with fresh scratch; only this submitter
    /// observes the failure.
    Internal {
        /// Index of the worker that failed.
        worker: usize,
        /// The panic message, or a description of the worker's death.
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
            QueryError::Shed { queued_for } => write!(
                f,
                "shed after {queued_for:?} in queue to admit higher-priority work"
            ),
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

/// Executor sizing and fault-tolerance thresholds.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads. `0` defers to the `RKNN_THREADS` environment
    /// override, then to [`std::thread::available_parallelism`] (see
    /// [`requested_threads`]).
    pub workers: usize,
    /// Per-shard queue bound; total admission capacity is
    /// `workers × queue_capacity`.
    pub queue_capacity: usize,
    /// Consecutive panics on one worker before the breaker trips and the
    /// offending input is quarantined outright.
    pub breaker_threshold: u32,
    /// Panics attributed to one *input* (across workers) before that input
    /// is quarantined — subsequent submissions of it resolve
    /// [`QueryError::Internal`] without touching a worker.
    pub poison_threshold: u32,
    /// Under saturation, shed a queued strictly-lower-priority job to
    /// admit the new one (resolving the victim's ticket
    /// [`QueryError::Shed`]) instead of rejecting outright.
    pub shed_lower_priority: bool,
    /// Deterministic fault-injection schedule, for chaos tests. `None` in
    /// production.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            queue_capacity: 128,
            breaker_threshold: 3,
            poison_threshold: 2,
            shed_lower_priority: true,
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
/// the engine's own invariants (idempotent fulfillment, atomic counters,
/// full-value cache stores) do not depend on lock poisoning.
pub(crate) fn lock_mutex<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_mutex`].
pub(crate) fn wait_cv<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// One-slot rendezvous between the worker that resolves a query and the
/// caller waiting on its [`Ticket`].
#[derive(Debug)]
pub(crate) struct ResponseCell {
    pub(crate) slot: Mutex<Option<Result<QueryResponse, QueryError>>>,
    pub(crate) ready: Condvar,
    /// Trips the in-flight query's [`CancelToken`]; set by
    /// [`Ticket::cancel`].
    pub(crate) cancel: Arc<AtomicBool>,
}

impl ResponseCell {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(ResponseCell {
            slot: Mutex::new(None),
            ready: Condvar::new(),
            cancel: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Resolves the ticket. Idempotent, first outcome wins: a ticket can
    /// race between (say) a worker's drop guard and the shutdown sweep,
    /// and the waiter must observe exactly one outcome.
    pub(crate) fn fulfill(&self, outcome: Result<QueryResponse, QueryError>) -> bool {
        let mut slot = lock_mutex(&self.slot);
        if slot.is_some() {
            return false;
        }
        *slot = Some(outcome);
        self.ready.notify_all();
        true
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
    /// through worker panics, worker deaths, and shutdown, so this always
    /// returns.
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
pub(crate) struct Job {
    pub(crate) input: QueryInput,
    pub(crate) submitted_at: Instant,
    pub(crate) deadline: Option<Instant>,
    pub(crate) priority: Priority,
    pub(crate) cell: Arc<ResponseCell>,
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
    /// Tickets resolved with a typed error (deadline, shed, cancel,
    /// internal, unsupported, shutdown sweep).
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
    /// Tickets resolved [`QueryError::Shed`] (priority displacement).
    pub shed: u64,
    /// Tickets resolved [`QueryError::Internal`] (panics, worker deaths,
    /// quarantined inputs).
    pub internal_errors: u64,
    /// Tickets swept with [`QueryError::Closed`] at teardown.
    pub aborted: u64,
    /// Worker panics observed (caught or fatal).
    pub panics: u64,
    /// Worker threads respawned by the supervisor.
    pub respawns: u64,
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

/// State shared between the engine handle, its worker threads, and the
/// supervisor.
#[derive(Debug)]
pub(crate) struct Shared<M, I, A> {
    pub(crate) snapshot: RwLock<Arc<Snapshot<M, I, A>>>,
    pub(crate) shards: Vec<Mutex<VecDeque<Job>>>,
    pub(crate) queue_capacity: usize,
    /// Queued-job count; workers park only when it reads zero.
    pub(crate) queued: AtomicUsize,
    /// Pairs with `wake`: submission takes this lock around its notify so a
    /// worker checking `queued` under the same lock can never miss it.
    pub(crate) idle: Mutex<()>,
    pub(crate) wake: Condvar,
    pub(crate) open: AtomicBool,
    pub(crate) rr: AtomicUsize,
    /// Submission sequence (every non-closed submit attempt), keying the
    /// fault plan's rejection windows.
    pub(crate) submit_seq: AtomicU64,
    /// Execution sequence (every dequeued job that survives the deadline,
    /// cancel and quarantine sheds), keying injected worker faults.
    pub(crate) exec_seq: AtomicU64,
    pub(crate) faults: Option<Arc<FaultPlan>>,
    pub(crate) breaker_threshold: u32,
    pub(crate) poison_threshold: u32,
    pub(crate) shed_lower_priority: bool,
    /// Inputs blamed for worker panics; quarantined ones are refused at
    /// dequeue.
    pub(crate) poison: Mutex<PoisonLog>,
    /// Indices of workers whose threads died; the supervisor drains this.
    pub(crate) dead: Mutex<Vec<usize>>,
    /// Wakes the supervisor when `dead` gains an entry (or at close).
    pub(crate) reap: Condvar,
    /// Worker join handles, indexed by worker; the supervisor swaps in
    /// replacements, teardown drains them.
    pub(crate) handles: Mutex<Vec<Option<std::thread::JoinHandle<()>>>>,
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) invalid_inputs: AtomicU64,
    pub(crate) injected_rejects: AtomicU64,
    pub(crate) deadline_exceeded: AtomicU64,
    pub(crate) cancelled: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) internal_errors: AtomicU64,
    pub(crate) aborted: AtomicU64,
    pub(crate) panics: AtomicU64,
    pub(crate) respawns: AtomicU64,
    pub(crate) quarantined: AtomicU64,
    pub(crate) stolen: AtomicU64,
    pub(crate) swaps: AtomicU64,
}

/// The long-lived serving engine: supervised worker threads over an
/// epoch-swapped [`Snapshot`], accepting queries through bounded
/// per-worker queues, resolving every accepted ticket exactly once.
///
/// Dropping the engine closes it, drains or sweeps all queued work, and
/// joins the workers; [`Engine::shutdown`] does the same and returns the
/// final counters.
#[derive(Debug)]
pub struct Engine<M, I, A> {
    shared: Arc<Shared<M, I, A>>,
    supervisor: Option<std::thread::JoinHandle<()>>,
    workers: usize,
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
            shards: (0..workers)
                .map(|_| Mutex::new(VecDeque::with_capacity(queue_capacity)))
                .collect(),
            queue_capacity,
            queued: AtomicUsize::new(0),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            open: AtomicBool::new(true),
            rr: AtomicUsize::new(0),
            submit_seq: AtomicU64::new(0),
            exec_seq: AtomicU64::new(0),
            faults: config.faults.clone(),
            breaker_threshold: config.breaker_threshold.max(1),
            poison_threshold: config.poison_threshold.max(1),
            shed_lower_priority: config.shed_lower_priority,
            poison: Mutex::new(PoisonLog::default()),
            dead: Mutex::new(Vec::new()),
            reap: Condvar::new(),
            handles: Mutex::new((0..workers).map(|_| None).collect()),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            invalid_inputs: AtomicU64::new(0),
            injected_rejects: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            internal_errors: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
        });
        for w in 0..workers {
            spawn_worker(&shared, w);
        }
        let supervisor = Some(spawn_supervisor(Arc::clone(&shared)));
        Engine {
            shared,
            supervisor,
            workers,
        }
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
                    capacity: self.shared.shards.len() * self.shared.queue_capacity,
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
            priority: request.priority,
            cell: Arc::clone(&cell),
        };
        let shards = &self.shared.shards;
        let preferred = self.shared.rr.fetch_add(1, Relaxed) % shards.len();
        let mut job = Some(job);
        for offset in 0..shards.len() {
            let shard = &shards[(preferred + offset) % shards.len()];
            let mut queue = lock_mutex(shard);
            if queue.len() < self.shared.queue_capacity {
                queue.push_back(job.take().expect("job is unspent"));
                drop(queue);
                self.shared.queued.fetch_add(1, Relaxed);
                self.shared.submitted.fetch_add(1, Relaxed);
                let _guard = lock_mutex(&self.shared.idle);
                self.shared.wake.notify_one();
                return Ok(Ticket { cell });
            }
        }
        // Every queue is full. Before rejecting, try to displace a queued
        // job of strictly lower priority: newest such job, lowest priority
        // first, so `High` traffic stays admissible through a `Low` flood.
        if self.shared.shed_lower_priority {
            let incoming = job.as_ref().expect("job is unspent").priority;
            for offset in 0..shards.len() {
                let shard = &shards[(preferred + offset) % shards.len()];
                let mut queue = lock_mutex(shard);
                let victim_at = queue
                    .iter()
                    .enumerate()
                    .rev()
                    .filter(|(_, queued)| queued.priority < incoming)
                    .min_by_key(|(_, queued)| queued.priority)
                    .map(|(i, _)| i);
                if let Some(i) = victim_at {
                    let victim = queue.remove(i).expect("victim index is in range");
                    queue.push_back(job.take().expect("job is unspent"));
                    drop(queue);
                    // Queue population is unchanged: one out, one in.
                    self.shared.submitted.fetch_add(1, Relaxed);
                    self.shared.shed.fetch_add(1, Relaxed);
                    self.shared.failed.fetch_add(1, Relaxed);
                    victim.cell.fulfill(Err(QueryError::Shed {
                        queued_for: victim.submitted_at.elapsed(),
                    }));
                    let _guard = lock_mutex(&self.shared.idle);
                    self.shared.wake.notify_one();
                    return Ok(Ticket { cell });
                }
            }
        }
        self.shared.rejected.fetch_add(1, Relaxed);
        Err(QueryError::Saturated {
            queued: self.shared.queued.load(Relaxed),
            capacity: shards.len() * self.shared.queue_capacity,
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

    /// Worker threads the engine was sized for (respawns keep this
    /// constant).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total admission capacity (shards × per-shard bound).
    pub fn queue_capacity(&self) -> usize {
        self.workers * self.shared.queue_capacity
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
            shed: self.shared.shed.load(Relaxed),
            internal_errors: self.shared.internal_errors.load(Relaxed),
            aborted: self.shared.aborted.load(Relaxed),
            panics: self.shared.panics.load(Relaxed),
            respawns: self.shared.respawns.load(Relaxed),
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

    /// Stops accepting submissions and wakes every parked thread — workers
    /// (so blocked-at-capacity producers observing [`QueryError::Closed`]
    /// can make progress and workers can drain), and the supervisor (so it
    /// can exit). Queued work still drains; tickets still queued when the
    /// engine is finally torn down resolve [`QueryError::Closed`].
    pub fn close(&self) {
        self.shared.open.store(false, Relaxed);
        {
            let _guard = lock_mutex(&self.shared.idle);
            self.shared.wake.notify_all();
        }
        {
            let _guard = lock_mutex(&self.shared.dead);
            self.shared.reap.notify_all();
        }
    }

    /// Closes the engine, drains queued work, joins all threads, sweeps
    /// any stranded tickets with [`QueryError::Closed`], and returns the
    /// final counters.
    pub fn shutdown(mut self) -> EngineStats {
        self.join_all();
        let stats = self.stats();
        drop(self);
        stats
    }

    fn join_all(&mut self) {
        self.close();
        // Join the supervisor first: after it exits no new workers can be
        // spawned, so the handle sweep below is complete.
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        loop {
            let handle = {
                let mut handles = lock_mutex(&self.shared.handles);
                handles.iter_mut().find_map(|slot| slot.take())
            };
            match handle {
                Some(handle) => {
                    let _ = handle.join();
                }
                None => break,
            }
        }
        // If every worker died (or died after close) jobs can be stranded
        // in the queues; every ticket still resolves, with `Closed`.
        while let Some(job) = pop_job(&self.shared, 0) {
            self.shared.aborted.fetch_add(1, Relaxed);
            self.shared.failed.fetch_add(1, Relaxed);
            job.cell.fulfill(Err(QueryError::Closed));
        }
    }
}

impl<M, I, A> Drop for Engine<M, I, A> {
    fn drop(&mut self) {
        // Mirrors `join_all` without the trait bounds `Drop` cannot have.
        self.shared.open.store(false, Relaxed);
        {
            let _guard = lock_mutex(&self.shared.idle);
            self.shared.wake.notify_all();
        }
        {
            let _guard = lock_mutex(&self.shared.dead);
            self.shared.reap.notify_all();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        loop {
            let handle = {
                let mut handles = lock_mutex(&self.shared.handles);
                handles.iter_mut().find_map(|slot| slot.take())
            };
            match handle {
                Some(handle) => {
                    let _ = handle.join();
                }
                None => break,
            }
        }
        for shard in &self.shared.shards {
            let mut queue = lock_mutex(shard);
            while let Some(job) = queue.pop_front() {
                self.shared.queued.fetch_sub(1, Relaxed);
                self.shared.aborted.fetch_add(1, Relaxed);
                self.shared.failed.fetch_add(1, Relaxed);
                job.cell.fulfill(Err(QueryError::Closed));
            }
        }
    }
}

/// Spawns (or respawns) worker `w`, storing its join handle in
/// [`Shared::handles`]. The [`Lifeline`] drop guard reports the thread to
/// the supervisor if it dies by panic rather than returning.
pub(crate) fn spawn_worker<M, I, A>(shared: &Arc<Shared<M, I, A>>, w: usize)
where
    M: Metric + 'static,
    I: KnnIndex<M> + 'static,
    A: RknnAlgorithm<M, I> + Send + Sync + 'static,
{
    let thread_shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("rknn-serve-{w}"))
        .spawn(move || {
            let lifeline = Lifeline::arm(Arc::clone(&thread_shared), w);
            worker_loop(&thread_shared, w);
            lifeline.disarm();
        })
        .expect("spawn engine worker");
    lock_mutex(&shared.handles)[w] = Some(handle);
}

/// Pops the next job for worker `w`: own queue from the front, then a
/// steal from the back of each sibling queue.
pub(crate) fn pop_job<M, I, A>(shared: &Shared<M, I, A>, w: usize) -> Option<Job> {
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

/// Resolves an in-flight job's ticket if the worker thread dies while
/// holding it — the last line of the "no ticket is ever lost" guarantee.
/// Armed around the execution region, defused on every explicit outcome.
struct JobGuard<'a, M, I, A> {
    shared: &'a Shared<M, I, A>,
    cell: &'a Arc<ResponseCell>,
    worker: usize,
    armed: bool,
}

impl<'a, M, I, A> JobGuard<'a, M, I, A> {
    fn arm(shared: &'a Shared<M, I, A>, cell: &'a Arc<ResponseCell>, worker: usize) -> Self {
        JobGuard {
            shared,
            cell,
            worker,
            armed: true,
        }
    }

    fn defuse(mut self) {
        self.armed = false;
    }
}

impl<M, I, A> Drop for JobGuard<'_, M, I, A> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.shared.failed.fetch_add(1, Relaxed);
        self.shared.internal_errors.fetch_add(1, Relaxed);
        self.shared.panics.fetch_add(1, Relaxed);
        self.cell.fulfill(Err(QueryError::Internal {
            worker: self.worker,
            reason: "worker thread died while executing this query".to_string(),
        }));
    }
}

pub(crate) fn worker_loop<M, I, A>(shared: &Arc<Shared<M, I, A>>, w: usize)
where
    M: Metric,
    I: KnnIndex<M>,
    A: RknnAlgorithm<M, I>,
{
    // The worker's per-epoch state: scratch buffers recreated lazily the
    // first time this worker serves a query under a new snapshot, and
    // discarded wholesale after a panic (the scratch may be mid-mutation).
    let mut state: Option<(u64, A::Worker)> = None;
    // The breaker: consecutive failed queries on *this* worker. Trips into
    // quarantining the current input at `breaker_threshold`.
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
        let started_at = Instant::now();
        // Deadline shed at dequeue: don't spend service time on a ticket
        // whose submitter has already given up.
        if let Some(deadline) = job.deadline {
            if started_at >= deadline {
                shared.deadline_exceeded.fetch_add(1, Relaxed);
                shared.failed.fetch_add(1, Relaxed);
                job.cell.fulfill(Err(QueryError::DeadlineExceeded {
                    queued_for: started_at.saturating_duration_since(job.submitted_at),
                }));
                continue;
            }
        }
        if job.cell.cancel.load(Relaxed) {
            shared.cancelled.fetch_add(1, Relaxed);
            shared.failed.fetch_add(1, Relaxed);
            job.cell.fulfill(Err(QueryError::Cancelled));
            continue;
        }
        // Quarantined inputs never reach the algorithm again.
        if lock_mutex(&shared.poison).is_quarantined(&job.input) {
            shared.internal_errors.fetch_add(1, Relaxed);
            shared.failed.fetch_add(1, Relaxed);
            job.cell.fulfill(Err(QueryError::Internal {
                worker: w,
                reason: "input quarantined after repeated worker panics".to_string(),
            }));
            continue;
        }
        // Injected faults, keyed deterministically on the execution slot.
        // Only jobs that get this far take a slot: a shed job never reaches
        // the fault hook, so numbering it would let a shed swallow a
        // scheduled fault.
        let eseq = shared.exec_seq.fetch_add(1, Relaxed);
        let mut inject_panic = false;
        if let Some(fault) = shared.faults.as_ref().and_then(|f| f.at_execution(eseq)) {
            match fault {
                Fault::Delay(delay) => std::thread::sleep(delay),
                Fault::Panic => inject_panic = true,
                Fault::Death => {
                    // Outside the catch_unwind region: the thread dies, the
                    // guard resolves the ticket, the Lifeline wakes the
                    // supervisor.
                    let _guard = JobGuard::arm(shared, &job.cell, w);
                    panic!("injected fault: worker death at execution slot {eseq}");
                }
            }
        }
        // Pin the epoch: holding this Arc keeps the snapshot alive for the
        // whole query even if a successor is published meanwhile.
        let snapshot = shared
            .snapshot
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let cancel = CancelToken::from_flag(Arc::clone(&job.cell.cancel), job.deadline);
        let guard = JobGuard::arm(shared, &job.cell, w);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected fault: worker panic at execution slot {eseq}");
            }
            let stale = match &state {
                Some((epoch, _)) => *epoch != snapshot.epoch,
                None => true,
            };
            if stale {
                state = Some((snapshot.epoch, snapshot.algo.make_worker(&snapshot.index)));
            }
            let (_, worker_state) = state.as_mut().expect("worker state initialized");
            match &job.input {
                QueryInput::Point(q) => snapshot
                    .algo
                    .query_cancellable(&snapshot.index, *q, worker_state, &cancel)
                    .map(Some),
                QueryInput::Coords(coords) => {
                    match snapshot
                        .algo
                        .query_at(&snapshot.index, coords, worker_state, &cancel)
                    {
                        Some(result) => result.map(Some),
                        None => Ok(None),
                    }
                }
            }
        }));
        let finished_at = Instant::now();
        guard.defuse();
        match outcome {
            Ok(Ok(Some(answer))) => {
                consecutive_failures = 0;
                shared.completed.fetch_add(1, Relaxed);
                job.cell.fulfill(Ok(QueryResponse {
                    query: job.input.clone(),
                    epoch: snapshot.epoch,
                    neighbors: answer.neighbors().to_vec(),
                    work: answer.work(),
                    worker: w,
                    submitted_at: job.submitted_at,
                    started_at,
                    finished_at,
                }));
            }
            Ok(Ok(None)) => {
                shared.failed.fetch_add(1, Relaxed);
                job.cell.fulfill(Err(QueryError::Unsupported {
                    algorithm: snapshot.algo.name(),
                }));
            }
            Ok(Err(_cancelled)) => {
                shared.failed.fetch_add(1, Relaxed);
                let deadline_hit = job.deadline.is_some_and(|d| Instant::now() >= d);
                if deadline_hit {
                    shared.deadline_exceeded.fetch_add(1, Relaxed);
                    job.cell.fulfill(Err(QueryError::DeadlineExceeded {
                        queued_for: started_at.saturating_duration_since(job.submitted_at),
                    }));
                } else {
                    shared.cancelled.fetch_add(1, Relaxed);
                    job.cell.fulfill(Err(QueryError::Cancelled));
                }
            }
            Err(payload) => {
                // The scratch may be mid-mutation: rebuild before the next
                // query. The shared snapshot is safe — the algorithm's
                // unwind-safety contract (see `RknnAlgorithm` docs) keeps
                // &self state valid through an unwind.
                state = None;
                consecutive_failures += 1;
                shared.panics.fetch_add(1, Relaxed);
                shared.internal_errors.fetch_add(1, Relaxed);
                shared.failed.fetch_add(1, Relaxed);
                let reason = panic_reason(payload.as_ref());
                {
                    let mut poison = lock_mutex(&shared.poison);
                    let mut newly = poison.record(&job.input, &reason, shared.poison_threshold);
                    if consecutive_failures >= shared.breaker_threshold {
                        newly |= poison.quarantine(&job.input);
                        consecutive_failures = 0;
                    }
                    if newly {
                        shared.quarantined.fetch_add(1, Relaxed);
                    }
                }
                job.cell.fulfill(Err(QueryError::Internal {
                    worker: w,
                    reason: format!("query panicked: {reason}"),
                }));
            }
        }
    }
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
                ..EngineConfig::default()
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
    fn saturation_sheds_lower_priority_for_higher() {
        let plan = FaultPlan::new().delay_at(0, Duration::from_millis(150));
        let eng = engine_with(
            120,
            908,
            EngineConfig {
                workers: 1,
                queue_capacity: 1,
                faults: Some(Arc::new(plan)),
                ..EngineConfig::default()
            },
        );
        // Wedge the worker, then fill the single queue slot with Low work.
        let wedge = eng.submit(0usize).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let low = eng
            .submit(QueryRequest::point(1).with_priority(Priority::Low))
            .unwrap();
        // Normal displaces Low...
        let normal = eng.submit(QueryRequest::point(2)).unwrap();
        match low.wait() {
            Err(QueryError::Shed { .. }) => {}
            other => panic!("expected Shed, got {other:?}"),
        }
        // ...but an equal-priority submission is rejected, not shed.
        match eng.submit(QueryRequest::point(3)) {
            Err(QueryError::Saturated { .. }) => {}
            other => panic!("expected Saturated, got {other:?}"),
        }
        wedge.wait().expect("wedged query answers");
        normal.wait().expect("displacing query answers");
        let stats = eng.shutdown();
        assert_eq!(stats.shed, 1);
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
                ..EngineConfig::default()
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
