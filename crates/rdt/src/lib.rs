//! RDT and RDT+ — reverse k-nearest neighbor queries by dimensional testing.
//!
//! This crate is the paper's primary contribution (Casanova et al., PVLDB
//! 10(7), 2017, §4–§6): a filter–refinement RkNN heuristic whose expanding
//! forward-NN search is terminated by a *dimensional test* derived from the
//! generalized expansion dimension, with *witness counters* driving lazy
//! acceptance (Assertion 2) and lazy rejection (Assertion 1) of candidates.
//!
//! * [`engine`] — Algorithm 1 itself: one entry point,
//!   [`engine::run_query`], running the filter phase (expanding search,
//!   witness pass, dimensional test) and then refinement, for RDT, RDT+
//!   (the candidate-set reduction of §4.3), the no-witness ablation, and a
//!   fixed or adaptive scale parameter (modulo the documented witness-line
//!   erratum, see `DESIGN.md` §2);
//! * [`algorithm`] — the algorithm-generic RkNN abstraction: the
//!   [`RknnAlgorithm`] lifecycle trait (prepare → per-worker state →
//!   per-query work, with uniform precompute-time reporting), the scoped-
//!   thread batch driver every method — RDT and the five baselines of
//!   `rknn-baselines` — executes through, and [`RdtAlgorithm`], the one
//!   handle for RDT, RDT+ and adaptive-`t` queries;
//! * [`params`] — the scale parameter `t` and its automatic selection via
//!   the estimators of §6;
//! * [`theory`] — the quantitative statements of Lemma 1 and Theorem 1 as
//!   checkable functions;
//! * [`bichromatic`] — an extension answering bichromatic RkNN queries with
//!   the same witness/dimensional-test machinery (the paper discusses the
//!   bichromatic problem in §1; this is our implementation of it on top of
//!   RDT's primitives);
//! * [`stream`] — the all-points answer table maintained under inserts and
//!   deletes.
//!
//! The algorithms work on *any* [`rknn_index::KnnIndex`]; substrate
//! agreement is covered by the workspace integration tests.
//!
//! # Work counters under early abandonment
//!
//! The engine prunes witness-pass metric evaluations with
//! [`rknn_core::Metric::dist_lt`], which may abandon a distance
//! accumulation once a monotone partial sum proves the comparison bound
//! unreachable. This changes **neither** of the two witness-cost counters:
//!
//! * [`RdtQueryStats::witness_pairs`] counts maintenance *pair updates* —
//!   the paper's `(s choose 2)`-bounded cost model — and is independent of
//!   how (or whether) a pair's distance is evaluated;
//! * [`RdtQueryStats::witness_dist_comps`] counts distance *evaluations*,
//!   and an early-abandoned evaluation still counts as one: abandonment
//!   reduces the coordinates touched per evaluation, not the number of
//!   evaluations. The counter only drops below `witness_pairs` through the
//!   decided-pair shortcut (pairs whose both sides are already decided are
//!   never evaluated at all).
//!
//! Result sets, terminations, and every counter are therefore identical
//! between the early-abandoning fast path and a plain full-precision
//! evaluation; only the per-coordinate work shrinks.

#![warn(missing_docs)]

pub mod algorithm;
pub mod answer;
pub mod bichromatic;
pub mod engine;
pub mod params;
pub mod stream;
pub mod theory;

pub use algorithm::{
    run_algorithm_all_points, run_algorithm_batch, AlgorithmAnswer, AlgorithmBatchStats,
    AlgorithmOutcome, BasicAnswer, IndexUpdate, MaintenanceCost, RdtAlgorithm, RknnAlgorithm,
};
pub use answer::{RdtQueryStats, RknnAnswer, Termination};
pub use bichromatic::BichromaticRdt;
pub use engine::{DkCache, RdtVariant, TSchedule};
pub use params::{RdtParams, ScalePolicy};
pub use stream::{MaintainedStream, UpdateReport};
