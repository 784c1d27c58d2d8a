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
//!   expandable nodes that incremental tree traversals are built on.
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
pub mod stats;

pub use brute::BruteForce;
pub use cancel::{CancelToken, Cancelled};
pub use dataset::{BuildStats, Dataset, DatasetBuilder, PaddedRows};
pub use error::CoreError;
pub use float::OrderedF64;
pub use heap::KnnHeap;
pub use kernel::KernelTier;
pub use metric::{Chebyshev, Euclidean, FullPrecision, Manhattan, Metric, Minkowski};
pub use neighbor::{Neighbor, PointId};
pub use scratch::{CandidateTile, CursorScratch, FilterCandidate, QueryScratch, TreeScratch};
pub use stats::SearchStats;
