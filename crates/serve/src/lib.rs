//! The long-lived concurrent serving layer: the piece that turns the
//! batch-offline reproduction into an engine a live system could run.
//!
//! Everything recorded before this crate existed was one-shot: build an
//! index, answer a query list across scoped threads, exit. A serving
//! system has a different shape — queries arrive continuously at their own
//! rate, the catalog churns underneath them, and the numbers that matter
//! are tail latencies under load, not batch wall-clock. This crate
//! provides that shape without touching the algorithms themselves:
//!
//! * [`Snapshot`] — an immutable `(epoch, index, prepared algorithm)`
//!   triple. Queries only ever see one snapshot; churn produces a *new*
//!   snapshot built off to the side (for RDT, carrying the warm `d_k`
//!   cache forward via [`advance_snapshot`] instead of rebuilding it),
//!   failing with a typed [`AdvanceError`] that leaves the serving
//!   snapshot untouched.
//! * [`Engine`] — worker threads, each owning its scratch, fed
//!   by per-worker bounded queues with work stealing. Submission validates
//!   input at the boundary and applies backpressure
//!   ([`QueryError::Saturated`]) instead of growing without bound;
//!   [`Engine::publish`] swaps the active snapshot epoch-style — readers
//!   never block, in-flight queries finish against the epoch they started
//!   with. Every accepted [`Ticket`] resolves exactly once, with an answer
//!   or a typed [`QueryError`] — through deadlines, cancellation, panics
//!   (each job runs in one `catch_unwind` region), and shutdown (the
//!   failure model is documented on [`engine`]).
//! * [`RetryPolicy`] — the recommended client loop for `Saturated`:
//!   bounded attempts with decorrelated-jitter backoff.
//! * [`FaultPlan`] — deterministic, seedable fault injection (worker
//!   panics, delays, queue-full windows) keyed on the engine's own
//!   sequence numbers, for chaos tests that reproduce exactly.
//! * [`PoisonLog`] — inputs blamed for worker panics, with the quarantine
//!   that keeps a repeat offender away from the algorithm.
//! * [`harness`] — open-loop load generation (arrivals on a fixed
//!   schedule, independent of completions, the methodology that exposes
//!   coordinated omission) and closed-loop saturation runs, summarized as
//!   p50/p90/p99/p999 latency and QPS, with typed-error outcomes counted
//!   honestly.
//!
//! The executor dispatches any [`rknn_rdt::algorithm::RknnAlgorithm`]
//! unchanged, so RDT, RDT+ and all five baselines serve through the same
//! engine they batch through — and the equivalence suite can hold the
//! concurrent path byte-identical to the sequential driver.

pub mod advance;
pub mod engine;
pub mod fault;
pub mod harness;
pub mod poison;
pub mod retry;

pub use advance::{advance_snapshot, AdvanceError, AdvanceReport, ChurnOp};
pub use engine::{
    Engine, EngineConfig, EngineStats, QueryError, QueryInput, QueryRequest, QueryResponse,
    Snapshot, Ticket,
};
pub use fault::{Fault, FaultCounts, FaultPlan};
pub use harness::{
    latency_summary, run_closed_loop, run_open_loop, ClosedLoopReport, LatencySummary,
    OpenLoopConfig, OpenLoopReport,
};
pub use poison::{PoisonKey, PoisonLog, PoisonPill};
pub use retry::RetryPolicy;
