//! Per-query work accounting.
//!
//! The paper's cost model is dominated by distance computations (candidate
//! generation, witness maintenance, verification kNN queries). Every index
//! operation and RkNN algorithm in this workspace threads a [`SearchStats`]
//! through its hot path so experiments can report machine-independent work
//! measures next to wall-clock times.

/// Counters accumulated during a single search operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of metric distance evaluations.
    pub dist_computations: u64,
    /// Number of index nodes visited / expanded.
    pub nodes_visited: u64,
    /// Number of insertions into a cursor's selection structure: a
    /// priority queue, a heap, or the linear scan's bounded flat buffer
    /// (see `DESIGN.md` §3).
    pub heap_pushes: u64,
}

impl SearchStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        SearchStats::default()
    }

    /// Records one distance evaluation.
    #[inline]
    pub fn count_dist(&mut self) {
        self.dist_computations += 1;
    }

    /// Records `n` distance evaluations.
    #[inline]
    pub fn count_dists(&mut self, n: u64) {
        self.dist_computations += n;
    }

    /// Records one node visit.
    #[inline]
    pub fn count_node(&mut self) {
        self.nodes_visited += 1;
    }

    /// Records one heap push.
    #[inline]
    pub fn count_push(&mut self) {
        self.heap_pushes += 1;
    }

    /// Adds another counter set into this one.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.dist_computations += other.dist_computations;
        self.nodes_visited += other.nodes_visited;
        self.heap_pushes += other.heap_pushes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = SearchStats::new();
        s.count_dist();
        s.count_dists(4);
        s.count_node();
        s.count_push();
        assert_eq!(s.dist_computations, 5);
        assert_eq!(s.nodes_visited, 1);
        assert_eq!(s.heap_pushes, 1);
    }

    #[test]
    fn absorb_merges() {
        let mut a = SearchStats {
            dist_computations: 1,
            nodes_visited: 2,
            heap_pushes: 3,
        };
        let b = SearchStats {
            dist_computations: 10,
            nodes_visited: 20,
            heap_pushes: 30,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            SearchStats {
                dist_computations: 11,
                nodes_visited: 22,
                heap_pushes: 33
            }
        );
    }
}
