//! Deterministic fault injection for chaos-testing the serving engine.
//!
//! A [`FaultPlan`] is a *schedule*, not a dice roll at runtime: every fault
//! is keyed to a monotonic sequence number the engine assigns anyway — the
//! submission counter for admission faults, the execution counter for
//! worker faults — so the same plan injects the same faults at the same
//! points of the workload on every run. Execution slots number only the
//! jobs that reach the fault hook: a job shed at dequeue (expired deadline,
//! cancelled, quarantined input) takes no slot, so a shed can never swallow
//! a scheduled fault. (With several workers the mapping
//! from execution slot to specific query still depends on scheduling; what
//! reproduces exactly is the fault schedule itself, which is what the chaos
//! gate's invariants — zero lost tickets, typed errors only, byte-identical
//! answers — are written against.)
//!
//! Plans are built either explicitly ([`FaultPlan::panic_at`] and friends)
//! or from a seed ([`FaultPlan::scattered`]), which places a requested
//! number of panics/deaths/delays pseudo-randomly but reproducibly across a
//! span of execution slots.

use std::collections::BTreeMap;
use std::time::Duration;

/// One injected fault, applied when a worker reaches the execution slot the
/// plan keys it to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the engine's `catch_unwind` region: the submitter gets
    /// a typed internal error, the worker thread survives.
    Panic,
    /// Panic *outside* the protected region: the worker thread dies and the
    /// supervisor must respawn it. The in-flight ticket still resolves
    /// (typed internal error) via the engine's drop guard.
    Death,
    /// Sleep this long before executing — an artificial service delay that
    /// wedges the worker, building queue depth and pushing queued tickets
    /// past their deadlines.
    Delay(Duration),
}

/// How many of each fault a plan will inject (for reporting the injected
/// schedule next to the observed outcomes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Caught worker panics scheduled.
    pub panics: usize,
    /// Worker deaths (respawn-requiring) scheduled.
    pub deaths: usize,
    /// Service delays scheduled.
    pub delays: usize,
    /// Total submissions falling inside rejection windows (an upper bound:
    /// windows past the actual workload length never fire).
    pub rejected_submits: u64,
}

/// A deterministic, seedable schedule of injected faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    exec: BTreeMap<u64, Fault>,
    reject: Vec<(u64, u64)>,
}

/// The xorshift64* step used for seeded fault placement — self-contained so
/// plans reproduce without any external RNG dependency.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a caught panic at execution slot `seq`.
    pub fn panic_at(mut self, seq: u64) -> Self {
        self.exec.insert(seq, Fault::Panic);
        self
    }

    /// Schedules a worker death at execution slot `seq`.
    pub fn death_at(mut self, seq: u64) -> Self {
        self.exec.insert(seq, Fault::Death);
        self
    }

    /// Schedules a service delay of `delay` at execution slot `seq`.
    pub fn delay_at(mut self, seq: u64, delay: Duration) -> Self {
        self.exec.insert(seq, Fault::Delay(delay));
        self
    }

    /// Rejects every submission with sequence number in `[from, to)` as if
    /// the executor were saturated — a queue-full window.
    pub fn reject_window(mut self, from: u64, to: u64) -> Self {
        if to > from {
            self.reject.push((from, to));
        }
        self
    }

    /// Places `panics` caught panics, `deaths` worker deaths, and `delays`
    /// service delays (each sleeping `delay`) pseudo-randomly across
    /// execution slots `[0, span)`, deterministically from `seed`.
    /// Collisions resolve by probing the next free slot, so the requested
    /// counts are exact whenever `span` has room for them.
    pub fn scattered(
        seed: u64,
        span: u64,
        panics: usize,
        deaths: usize,
        delays: usize,
        delay: Duration,
    ) -> Self {
        // 2·seed+1: odd (so never zero, as xorshift requires) and
        // injective (so adjacent seeds do not collapse to one stream).
        let mut state = seed.wrapping_mul(2).wrapping_add(1);
        let mut plan = FaultPlan::new();
        let span = span.max(1);
        let wanted: Vec<Fault> = std::iter::repeat_n(Fault::Panic, panics)
            .chain(std::iter::repeat_n(Fault::Death, deaths))
            .chain(std::iter::repeat_n(Fault::Delay(delay), delays))
            .collect();
        for fault in wanted {
            let mut slot = xorshift(&mut state) % span;
            let mut probes = 0;
            while plan.exec.contains_key(&slot) && probes < span {
                slot = (slot + 1) % span;
                probes += 1;
            }
            plan.exec.insert(slot, fault);
        }
        plan
    }

    /// The fault scheduled for execution slot `seq`, if any.
    pub fn at_execution(&self, seq: u64) -> Option<Fault> {
        self.exec.get(&seq).copied()
    }

    /// Whether submission number `seq` falls inside a rejection window.
    pub fn rejects_submit(&self, seq: u64) -> bool {
        self.reject
            .iter()
            .any(|&(from, to)| seq >= from && seq < to)
    }

    /// The scheduled fault totals.
    pub fn counts(&self) -> FaultCounts {
        let mut counts = FaultCounts {
            rejected_submits: self.reject.iter().map(|&(from, to)| to - from).sum(),
            ..FaultCounts::default()
        };
        for fault in self.exec.values() {
            match fault {
                Fault::Panic => counts.panics += 1,
                Fault::Death => counts.deaths += 1,
                Fault::Delay(_) => counts.delays += 1,
            }
        }
        counts
    }

    /// The largest execution slot carrying a fault, if any — callers size
    /// their workloads past this so every scheduled fault actually fires.
    pub fn last_execution_fault(&self) -> Option<u64> {
        self.exec.keys().next_back().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_schedule_triggers_exactly_where_placed() {
        let plan = FaultPlan::new()
            .panic_at(3)
            .death_at(7)
            .delay_at(9, Duration::from_millis(5))
            .reject_window(10, 12);
        assert_eq!(plan.at_execution(3), Some(Fault::Panic));
        assert_eq!(plan.at_execution(7), Some(Fault::Death));
        assert_eq!(
            plan.at_execution(9),
            Some(Fault::Delay(Duration::from_millis(5)))
        );
        assert_eq!(plan.at_execution(4), None);
        assert!(!plan.rejects_submit(9));
        assert!(plan.rejects_submit(10));
        assert!(plan.rejects_submit(11));
        assert!(!plan.rejects_submit(12));
        let counts = plan.counts();
        assert_eq!((counts.panics, counts.deaths, counts.delays), (1, 1, 1));
        assert_eq!(counts.rejected_submits, 2);
        assert_eq!(plan.last_execution_fault(), Some(9));
    }

    #[test]
    fn scattered_is_deterministic_and_exact() {
        let a = FaultPlan::scattered(42, 100, 3, 1, 2, Duration::from_millis(1));
        let b = FaultPlan::scattered(42, 100, 3, 1, 2, Duration::from_millis(1));
        assert_eq!(a.exec, b.exec, "same seed, same schedule");
        let counts = a.counts();
        assert_eq!((counts.panics, counts.deaths, counts.delays), (3, 1, 2));
        let c = FaultPlan::scattered(43, 100, 3, 1, 2, Duration::from_millis(1));
        assert_ne!(a.exec, c.exec, "different seed, different placement");
        assert!(a.last_execution_fault().unwrap() < 100);
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        assert_eq!(plan.at_execution(0), None);
        assert!(!plan.rejects_submit(0));
        assert_eq!(plan.counts(), FaultCounts::default());
        assert_eq!(plan.last_execution_fault(), None);
    }
}
