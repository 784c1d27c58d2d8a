//! The poison-pill log: inputs blamed for worker panics.
//!
//! Each panic caught in a worker job is blamed on the input that triggered
//! it. An input crossing the per-input failure threshold (or tripping a
//! worker's consecutive-failure breaker) is quarantined — later
//! submissions of it resolve [`crate::QueryError::Internal`] straight from
//! the queue, without reaching the algorithm again.

use crate::engine::QueryInput;
use rknn_core::PointId;

/// How the poison log identifies an input: dataset ids directly,
/// coordinate queries by their exact bit patterns (so a resubmitted
/// identical query matches, while any perturbation is a fresh input).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PoisonKey {
    /// A dataset-point query.
    Point(PointId),
    /// A coordinate query, keyed by `f64::to_bits` of each coordinate.
    Coords(Vec<u64>),
}

impl PoisonKey {
    /// The key for a query input.
    pub fn of(input: &QueryInput) -> Self {
        match input {
            QueryInput::Point(id) => PoisonKey::Point(*id),
            QueryInput::Coords(coords) => {
                PoisonKey::Coords(coords.iter().map(|c| c.to_bits()).collect())
            }
        }
    }
}

/// One entry of the poison-pill log: an input blamed for at least one
/// worker panic.
#[derive(Debug, Clone, PartialEq)]
pub struct PoisonPill {
    /// The offending input.
    pub key: PoisonKey,
    /// Panics blamed on this input so far.
    pub failures: u32,
    /// Whether the input is quarantined (refused at dequeue).
    pub quarantined: bool,
    /// The most recent panic message blamed on this input.
    pub last_reason: String,
}

/// The poison-pill log: inputs blamed for worker panics, with quarantine
/// state. Small by construction — panics are exceptional — so a scanned
/// `Vec` beats a map here.
#[derive(Debug, Default)]
pub struct PoisonLog {
    pills: Vec<PoisonPill>,
}

impl PoisonLog {
    /// Blames `input` for a panic described by `reason`. Crossing
    /// `threshold` failures quarantines the input; returns whether this
    /// call *newly* quarantined it.
    pub fn record(&mut self, input: &QueryInput, reason: &str, threshold: u32) -> bool {
        let key = PoisonKey::of(input);
        let pill = match self.pills.iter_mut().find(|p| p.key == key) {
            Some(pill) => pill,
            None => {
                self.pills.push(PoisonPill {
                    key,
                    failures: 0,
                    quarantined: false,
                    last_reason: String::new(),
                });
                self.pills.last_mut().expect("just pushed")
            }
        };
        pill.failures += 1;
        pill.last_reason = reason.to_string();
        if !pill.quarantined && pill.failures >= threshold {
            pill.quarantined = true;
            return true;
        }
        false
    }

    /// Quarantines `input` outright (the consecutive-failure breaker
    /// path); returns whether it was *newly* quarantined.
    pub fn quarantine(&mut self, input: &QueryInput) -> bool {
        let key = PoisonKey::of(input);
        match self.pills.iter_mut().find(|p| p.key == key) {
            Some(pill) => {
                if pill.quarantined {
                    false
                } else {
                    pill.quarantined = true;
                    true
                }
            }
            None => {
                self.pills.push(PoisonPill {
                    key,
                    failures: 0,
                    quarantined: true,
                    last_reason: "quarantined by worker failure breaker".to_string(),
                });
                true
            }
        }
    }

    /// Whether `input` is quarantined.
    pub fn is_quarantined(&self, input: &QueryInput) -> bool {
        let key = PoisonKey::of(input);
        self.pills.iter().any(|p| p.quarantined && p.key == key)
    }

    /// The full log, in first-blamed order.
    pub fn pills(&self) -> &[PoisonPill] {
        &self.pills
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poison_log_thresholds_and_quarantines() {
        let mut log = PoisonLog::default();
        let bad = QueryInput::Point(7);
        assert!(
            !log.record(&bad, "boom", 2),
            "first failure: below threshold"
        );
        assert!(!log.is_quarantined(&bad));
        assert!(log.record(&bad, "boom again", 2), "second failure trips");
        assert!(log.is_quarantined(&bad));
        assert!(!log.record(&bad, "still bad", 2), "already quarantined");
        assert_eq!(log.pills().len(), 1);
        assert_eq!(log.pills()[0].failures, 3);
        assert_eq!(log.pills()[0].last_reason, "still bad");
        assert!(!log.is_quarantined(&QueryInput::Point(8)));
    }

    #[test]
    fn breaker_quarantine_is_idempotent_and_keys_coords_by_bits() {
        let mut log = PoisonLog::default();
        let coords = QueryInput::Coords(vec![1.5, -0.0]);
        assert!(log.quarantine(&coords), "newly quarantined");
        assert!(!log.quarantine(&coords), "second trip is a no-op");
        assert!(log.is_quarantined(&QueryInput::Coords(vec![1.5, -0.0])));
        // +0.0 and -0.0 differ bitwise: a different input, not quarantined.
        assert!(!log.is_quarantined(&QueryInput::Coords(vec![1.5, 0.0])));
    }
}
