//! # rknn — Dimensional Testing for Reverse k-Nearest Neighbor Search
//!
//! A from-scratch Rust reproduction of Casanova, Englmeier, Houle, Kröger,
//! Nett, Schubert and Zimek, *Dimensional Testing for Reverse k-Nearest
//! Neighbor Search*, PVLDB 10(7): 769–780, 2017.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`core`] — datasets, metrics, ranks, brute-force references;
//! * [`index`] — forward-NN substrates (linear scan, cover tree, VP-tree,
//!   R-tree, M-tree) with incremental NN cursors;
//! * [`lid`] — intrinsic-dimensionality estimators (GED/MaxGED, Hill MLE,
//!   Grassberger–Procaccia, Takens);
//! * [`rdt`] — the paper's contribution: RDT and RDT+ reverse-kNN queries by
//!   dimensional testing;
//! * [`baselines`] — SFT, MRkNNCoP, RdNN-Tree and TPL comparison methods;
//! * [`data`] — synthetic dataset generators matching the evaluation's
//!   intrinsic-dimensional structure;
//! * [`eval`] — the experiment harness regenerating every paper table and
//!   figure;
//! * [`serve`] — the long-lived concurrent serving engine: epoch-swapped
//!   immutable snapshots, a sharded work-stealing query executor with
//!   bounded queues, and an open-loop latency harness.
//!
//! ## Quick start
//!
//! ```
//! use rknn::prelude::*;
//!
//! // A small clustered dataset and a forward-kNN substrate over it.
//! let ds = rknn::data::gaussian_blobs(500, 8, 4, 0.3, 42).into_shared();
//! let index = CoverTree::build(ds.clone(), Euclidean);
//!
//! // Reverse 10-NN query by dimensional testing with scale parameter t = 6.
//! let rdt = RdtAlgorithm::new(RdtParams::new(10, 6.0));
//! let answer = rdt.answer(&index, 0);
//!
//! // Every reported point has the query among its 10 nearest neighbors.
//! let brute = BruteForce::new(ds, Euclidean);
//! let mut st = SearchStats::new();
//! let truth = brute.rknn(0, 10, &mut st);
//! assert!(answer.result.iter().all(|n| truth.iter().any(|t| t.id == n.id)));
//! ```

pub use rknn_baselines as baselines;
pub use rknn_core as core;
pub use rknn_data as data;
pub use rknn_eval as eval;
pub use rknn_index as index;
pub use rknn_lid as lid;
pub use rknn_rdt as rdt;
pub use rknn_serve as serve;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use rknn_baselines::{
        MRkNNCoP, MrknncopAlgorithm, NaiveRknn, RdnnAlgorithm, RdnnTree, Sft, Tpl, TplAlgorithm,
    };
    pub use rknn_core::{
        BruteForce, Dataset, DatasetBuilder, Euclidean, Manhattan, Metric, Neighbor, PointId,
        QueryScratch, SearchStats,
    };
    pub use rknn_index::{
        BallTree, CoverTree, KnnIndex, LinearScan, MTree, NnCursor, RTree, VpTree,
    };
    pub use rknn_lid::{GedEstimator, HillEstimator, IdEstimator};
    pub use rknn_rdt::{
        run_algorithm_all_points, run_algorithm_batch, MaintainedStream, RdtAlgorithm, RdtParams,
        RknnAlgorithm, RknnAnswer, UpdateReport,
    };
    pub use rknn_serve::{
        Engine, EngineConfig, FaultPlan, QueryError, QueryRequest, QueryResponse, RetryPolicy,
        Snapshot, Ticket,
    };
}
