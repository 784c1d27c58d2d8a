//! The experiment framework regenerating the paper's evaluation.
//!
//! Each experiment function returns structured rows that the harness
//! binaries in `rknn-bench` render as the paper's tables/figure series:
//!
//! * [`experiments::table1`] — intrinsic-dimensionality estimates and
//!   estimator runtimes per dataset (Table 1);
//! * [`tradeoff`] — recall-vs-query-time curves for RDT/RDT+/SFT with
//!   estimator-selected operating points, plus query and precomputation
//!   times for MRkNNCoP, RdNN-Tree and TPL (Figures 3–6);
//! * [`experiments::lazy`] — lazy-accept/reject/verify proportions as a
//!   function of the scale parameter (Figure 7);
//! * [`experiments::scalability`] — Imagenet-like subset scaling
//!   (Figure 8);
//! * [`experiments::amortization`] — queries answerable within the
//!   RdNN-Tree precomputation budget (Figure 9);
//! * [`experiments::substrates`] — beyond the paper: the batch all-points
//!   workload on all six forward substrates through the shared traversal
//!   core, with per-substrate work accounting;
//! * [`experiments::churn`] — beyond the paper: a maintained all-points
//!   answer table under mixed insert/delete churn, priced per update
//!   against rebuild-from-scratch and verified byte-identical to it.
//!
//! Supporting modules: [`truth`] (exact ground truth via per-point kNN
//! distance tables, parallelized with scoped threads), [`metrics`]
//! (recall/precision), [`report`] (ASCII tables + CSV), [`forward`] (the
//! runtime choice between cover-tree and sequential-scan substrates, §7.1).

#![warn(missing_docs)]

pub mod experiments;
pub mod forward;
pub mod metrics;
pub mod report;
pub mod tradeoff;
pub mod truth;

pub use forward::Forward;
pub use metrics::{precision, recall};
pub use report::Table;
pub use tradeoff::{run_tradeoff, TradeoffConfig, TradeoffRow};
pub use truth::{dataset_fingerprint, DkTable, GroundTruth, SampledTruth};
