//! Forward nearest-neighbor index substrates.
//!
//! RDT (Algorithm 1 of the paper) "requires only that it be provided with
//! some auxiliary index structure that can efficiently process incremental
//! nearest neighbor queries" (§4). This crate provides that abstraction —
//! [`KnnIndex`] with an incremental [`NnCursor`] — and five substrates:
//!
//! * [`LinearScan`] — the "straightforward sequential database scan" used by
//!   the paper for MNIST and Imagenet (§7.1); exact and dimension-proof.
//! * [`CoverTree`] — the paper's primary substrate \[6\]; a simplified cover
//!   tree with cached subtree radii and best-first traversal.
//! * [`VpTree`] — a vantage-point tree; an extra metric substrate
//!   exercising RDT's "any index" claim.
//! * [`RTree`] — an STR-bulk-packed R-tree with best-first queries and
//!   quadratic-split inserts; the substrate of the RdNN-Tree and TPL
//!   baselines (Minkowski metrics only).
//! * [`MTree`] — an insertion-built metric tree with covering radii; the
//!   substrate of the MRkNNCoP baseline.
//! * [`BallTree`] — a statically built metric ball tree (pole splits);
//!   an extra any-metric substrate for agreement tests.
//!
//! All cursors emit neighbors in exact nondecreasing distance order and
//! count their work in [`rknn_core::SearchStats`]. The five tree substrates
//! share a single traversal engine ([`traversal::TreeCursor`] over
//! [`traversal::TreeSubstrate`]): each tree describes only how a node
//! expands into child lower bounds and candidate points, while the generic
//! cursor owns the best-first loop, uniform statistics, scratch reuse
//! ([`rknn_core::TreeScratch`]), and threshold-pruned distance evaluation
//! for bounded streams.
//!
//! All-points precomputation goes through one batched pass instead of a
//! cursor per point: [`knn_dists`] answers a whole set of forward
//! k-nearest-distance queries over a list of clusters ([`clusters`]), on
//! any substrate, and returns the list ([`ClusterList`]) for callers that
//! keep it.

#![warn(missing_docs)]

pub mod ball_tree;
pub mod clusters;
pub mod cover_tree;
pub mod linear;
pub mod mtree;
pub mod pool;
pub mod rtree;
pub mod traits;
pub mod traversal;
pub mod vp_tree;

pub use ball_tree::BallTree;
pub use clusters::{knn_dists, ClusterList};
pub use cover_tree::CoverTree;
pub use linear::LinearScan;
pub use mtree::MTree;
pub use pool::{PointPool, PoolSegment, RebuildPolicy};
// The best-first queue moved to `rknn_core` so scratch buffers can own it;
// re-exported here for the historical path.
pub use rknn_core::bestfirst;
pub use rtree::{Mbr, RTree};
pub use traits::{DynamicIndex, KnnIndex, NnCursor};
pub use traversal::{TreeCursor, TreeSubstrate};
pub use vp_tree::VpTree;
