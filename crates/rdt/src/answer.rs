//! Query answers and the per-query accounting behind Figures 7–9.

use rknn_core::{Neighbor, SearchStats};

/// Why the filter phase stopped expanding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The dimensional test fired: `d(q, v) > ω` (Theorem 1's certificate).
    Omega,
    /// The rank cap `s ≥ ⌊2^t·k⌋` was reached (Lemma 1's certificate).
    RankCap,
    /// The index was exhausted (`s = n`); the whole dataset was scanned.
    Exhausted,
}

/// Work and outcome counters for a single RDT/RDT+ query.
///
/// `verified + lazy_accepts + lazy_rejects + excluded` accounts for every
/// retrieved candidate, which is exactly the decomposition plotted in
/// Figure 7 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RdtQueryStats {
    /// Number of points retrieved by the expanding search (`s`).
    pub retrieved: usize,
    /// Size of the filter set `F` at termination.
    pub filter_set_size: usize,
    /// Candidates excluded from `F` by the RDT+ first-pass criterion.
    pub excluded: usize,
    /// Candidates accepted by Assertion 2 without verification.
    pub lazy_accepts: usize,
    /// Candidates rejected by Assertion 1 (`W ≥ k`) without verification.
    pub lazy_rejects: usize,
    /// Candidates verified explicitly against their `d_k` (a cache hit or
    /// one of the query's group-verified misses).
    pub verified: usize,
    /// How many verifications accepted the candidate.
    pub verified_accepted: usize,
    /// Witness-maintenance pairs of the paper's cost model for the filter
    /// phase: each retrieval adds the filter-set size at that moment
    /// (bounded by `(s choose 2)` in §4.2, and the quantity the §4.3
    /// candidate-set reduction provably shrinks: RDT+'s filter set is a
    /// subset of RDT's at every retrieval rank). This is the model's count,
    /// not the number of pairs the engine touches: the engine never visits
    /// a pair whose both sides are decided.
    pub witness_pairs: u64,
    /// Distance computations actually evaluated during witness
    /// maintenance. At most [`witness_pairs`](Self::witness_pairs): the
    /// engine skips the metric evaluation for pairs whose both sides are
    /// already decided. *Not* monotone across variants — skip opportunities
    /// depend on filter-set composition — so cross-variant cost claims must
    /// compare `witness_pairs`.
    pub witness_dist_comps: u64,
    /// Final value of the termination bound ω.
    pub omega: f64,
    /// Why the filter phase stopped.
    pub termination: Termination,
    /// Index work: the filter cursor's expansion plus the verification of
    /// the `d_k` cache misses (`DESIGN.md` §3).
    pub search: SearchStats,
}

impl RdtQueryStats {
    /// Total distance computations: index work plus witness maintenance.
    pub fn total_dist_comps(&self) -> u64 {
        self.search.dist_computations + self.witness_dist_comps
    }

    /// Fraction of retrieved candidates handled by each mechanism:
    /// `(verified, lazily accepted, lazily rejected)`; rejection includes
    /// RDT+ exclusions. Returns zeros for an empty retrieval.
    pub fn proportions(&self) -> (f64, f64, f64) {
        let total = self.retrieved.max(1) as f64;
        (
            self.verified as f64 / total,
            self.lazy_accepts as f64 / total,
            (self.lazy_rejects + self.excluded) as f64 / total,
        )
    }
}

/// The result of a reverse-kNN query.
#[derive(Debug, Clone)]
pub struct RknnAnswer {
    /// Reported reverse k-nearest neighbors, ascending by distance from the
    /// query.
    pub result: Vec<Neighbor>,
    /// Per-query accounting.
    pub stats: RdtQueryStats,
}

impl RknnAnswer {
    /// Ids of the reported reverse neighbors.
    pub fn ids(&self) -> Vec<rknn_core::PointId> {
        self.result.iter().map(|n| n.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> RdtQueryStats {
        RdtQueryStats {
            retrieved: 10,
            filter_set_size: 8,
            excluded: 2,
            lazy_accepts: 3,
            lazy_rejects: 1,
            verified: 4,
            verified_accepted: 2,
            witness_pairs: 45,
            witness_dist_comps: 30,
            omega: 1.5,
            termination: Termination::Omega,
            search: SearchStats {
                dist_computations: 70,
                nodes_visited: 5,
                heap_pushes: 9,
            },
        }
    }

    #[test]
    fn proportions_partition_the_retrieved_set() {
        let s = stats();
        let (v, a, r) = s.proportions();
        assert!((v + a + r - 1.0).abs() < 1e-12);
        assert!((v - 0.4).abs() < 1e-12);
        assert!((a - 0.3).abs() < 1e-12);
        assert!((r - 0.3).abs() < 1e-12);
    }

    #[test]
    fn total_dist_comps_sums_sources() {
        assert_eq!(stats().total_dist_comps(), 100);
    }

    #[test]
    fn answer_ids() {
        let ans = RknnAnswer {
            result: vec![Neighbor::new(4, 0.5), Neighbor::new(2, 1.0)],
            stats: stats(),
        };
        assert_eq!(ans.ids(), vec![4, 2]);
    }
}
