//! Core primitives shared by every crate in the `rknn` workspace.
//!
//! This crate provides the executable counterpart of the notation in §3.1 of
//! *Dimensional Testing for Reverse k-Nearest Neighbor Search* (Casanova et
//! al., PVLDB 10(7), 2017):
//!
//! * [`Dataset`] — a finite point set `S ⊆ R^m` with validated, flat storage
//!   (rows zero-padded to a lane multiple in one 32-byte-aligned allocation
//!   for the SIMD tile kernels; all accessors stay logical);
//! * [`Metric`] — distance measures `d(x, y)` (Euclidean by default, plus the
//!   Minkowski family: the paper's analysis holds for any metric), including
//!   the one-query-to-many-rows [`Metric::dist_tile`] entry point;
//! * [`kernel`] — the runtime-dispatched SIMD reduction kernels behind every
//!   metric: scalar-unrolled and AVX2 backends sharing one canonical
//!   blocked accumulation order, bit-identical by construction
//!   (`RKNN_KERNEL` pins a backend);
//! * [`Neighbor`] and bounded heaps for k-nearest-neighbor collection;
//! * rank and ball-cardinality primitives (`ρ_S(q, x)`, `B≤_S(q, r)`,
//!   `d_k(q)`) in [`rank`];
//! * brute-force reference implementations of kNN and reverse-kNN used as
//!   ground truth throughout the workspace ([`brute`]);
//! * [`SearchStats`] — per-query work counters (distance computations, node
//!   visits) used by all indexes and algorithms for the paper's
//!   cost accounting;
//! * [`QueryScratch`] and friends ([`scratch`]) — reusable per-worker
//!   buffers (cursor storage, filter-set slots, a contiguous candidate
//!   coordinate tile, and the [`TreeScratch`] heaps of the tree-traversal
//!   core) that let batch drivers execute queries back to back without
//!   per-query allocation;
//! * [`bestfirst`] — the best-first priority queue of points and
//!   expandable nodes that incremental tree traversals are built on;
//! * [`BoundedSelection`] ([`select`]) — the lazily cut `(dist, id)`
//!   selection whose threshold prunes every bounded cursor, the
//!   sequential scan's and the tree traversal core's alike.
//!
//! # Conventions
//!
//! All rank-like quantities are **self-excluding**: `d_k(x)` is the distance
//! from `x` to its k-th nearest *other* point, and `x ∈ RkNN(q, k)` iff
//! `x ≠ q` and `d(x, q) ≤ d_k(x)`. Ties are assigned the maximum rank, as in
//! §3.1 of the paper. See `DESIGN.md` §2 for the full rationale (including
//! the witness-counter erratum in the paper's Algorithm 1 listing).

#![warn(missing_docs)]

pub mod bestfirst;
pub mod brute;
pub mod cancel;
pub mod dataset;
pub mod error;
pub mod float;
pub mod heap;
pub mod kernel;
pub mod metric;
pub mod neighbor;
pub mod rank;
pub mod scratch;
pub mod select;
pub mod stats;

pub use brute::BruteForce;
pub use cancel::{CancelToken, Cancelled};
pub use dataset::{BuildStats, Dataset, DatasetBuilder, PaddedRows};
pub use error::CoreError;
pub use float::OrderedF64;
pub use heap::KnnHeap;
pub use kernel::KernelTier;
pub use metric::{
    finite_up_to, triangle_lower, triangle_upper, Chebyshev, Euclidean, FullPrecision, Manhattan,
    Metric, Minkowski,
};
pub use neighbor::{Neighbor, PointId};
pub use scratch::{CandidateTile, CursorScratch, FilterCandidate, QueryScratch, TreeScratch};
pub use select::BoundedSelection;
pub use stats::SearchStats;

/// A copy of `v` with the same capacity as `v`, not just its length.
///
/// `Vec::clone` allocates exactly `len` slots, so the first push to the
/// clone of a grown buffer reallocates and copies all of it. A snapshot
/// successor (a cloned index that then takes a few inserts) keeps the
/// source's headroom instead, and its buffers grow only when the source's
/// would have.
pub fn clone_with_capacity<T: Clone>(v: &Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(v.capacity());
    out.extend_from_slice(v);
    out
}

/// Makes room in `v` for `additional` more elements, growing a full buffer
/// by a sixteenth of its length (or by `additional`, if that is more)
/// instead of doubling it.
///
/// Buffers that snapshot successors copy with [`clone_with_capacity`] grow
/// this way, because a doubled buffer carries its unused half into every
/// copy: a 10⁵-node cover tree's arena and subtree sizes and its `d_k`
/// cache left about 3.6 MB unused in each successor. On the batch-cold
/// benchmark, which builds one successor per batch, that slack fragmented
/// the heap and the peak resident set grew with the number of batches.
pub fn reserve_sixteenth<T>(v: &mut Vec<T>, additional: usize) {
    if v.capacity() - v.len() < additional {
        v.reserve_exact(additional.max(v.len() / 16));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_sixteenth_grows_full_buffers_by_a_sixteenth() {
        let mut v: Vec<u32> = vec![0; 160];
        reserve_sixteenth(&mut v, 1);
        assert!((170..320).contains(&v.capacity()), "{}", v.capacity());
        let (cap, room) = (v.capacity(), v.capacity() - v.len());
        reserve_sixteenth(&mut v, room);
        assert_eq!(v.capacity(), cap, "room enough: no reallocation");
        reserve_sixteenth(&mut v, 1000);
        assert!(v.capacity() >= v.len() + 1000);
        let mut empty: Vec<u32> = Vec::new();
        reserve_sixteenth(&mut empty, 1);
        assert!(empty.capacity() >= 1);
    }
}
