//! Building the *next* snapshot off to the side while the engine keeps
//! serving the current one.
//!
//! This is the serving-side continuation of the dynamic-RkNN work: instead
//! of re-preparing from scratch on every catalog change, the successor
//! snapshot clones the live index, applies the churn ops to the clone, and
//! carries the predecessor's warm `d_k` cache forward — evicting only the
//! thresholds the batch can actually change, in one tiled pass over the
//! cached slots that skips the buckets of the prewarm's list of clusters
//! no updated point can reach
//! ([`rknn_rdt::DkCache::invalidate_near`]'s localized rule). The engine
//! never sees the intermediate states: readers keep answering against the
//! old epoch until [`crate::Engine::publish`] swaps in the finished
//! successor — and on *any* [`AdvanceError`], the published snapshot is
//! untouched, so serving continues on the old epoch as if the advance had
//! never been attempted.

use crate::engine::Snapshot;
use rknn_core::{CoreError, Metric, PointId, SearchStats};
use rknn_index::DynamicIndex;
use rknn_rdt::algorithm::{IndexUpdate, RdtAlgorithm, RknnAlgorithm};
use std::time::{Duration, Instant};

/// One catalog change to fold into the next snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnOp {
    /// Insert a point at the given coordinates.
    Insert(Vec<f64>),
    /// Tombstone the point with this id. Naming a dead or unknown id is an
    /// error ([`AdvanceError::RemoveMissing`]): a churn feed referencing
    /// points that are not live has diverged from the catalog, and
    /// silently dropping the op would hide that.
    Remove(PointId),
}

/// Why a successor snapshot could not be built. The attempted advance has
/// no effect: the predecessor snapshot — and whatever the engine is
/// serving — is untouched.
#[derive(Debug, Clone, PartialEq)]
pub enum AdvanceError {
    /// An insert op was rejected by the index (dimension mismatch,
    /// non-finite coordinates).
    Insert {
        /// Position of the failing op in the `ops` slice.
        op: usize,
        /// The index's rejection.
        source: CoreError,
    },
    /// A remove op named an id that is not live in the index.
    RemoveMissing {
        /// Position of the failing op in the `ops` slice.
        op: usize,
        /// The id that was not live.
        id: PointId,
    },
}

impl std::fmt::Display for AdvanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdvanceError::Insert { op, source } => {
                write!(f, "churn op {op}: insert rejected: {source}")
            }
            AdvanceError::RemoveMissing { op, id } => {
                write!(f, "churn op {op}: remove of id {id} which is not live")
            }
        }
    }
}

impl std::error::Error for AdvanceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdvanceError::Insert { source, .. } => Some(source),
            AdvanceError::RemoveMissing { .. } => None,
        }
    }
}

/// What building a successor snapshot cost.
#[derive(Debug, Clone)]
pub struct AdvanceReport {
    /// Epoch of the successor.
    pub epoch: u64,
    /// Ids assigned to inserted points, in op order.
    pub inserted: Vec<PointId>,
    /// Ids removed, in op order.
    pub removed: Vec<PointId>,
    /// Wall-clock time to clone, mutate, and repair.
    pub build_time: Duration,
    /// Cache-repair work (the batch's one localized eviction pass),
    /// uniform with the batch driver's maintenance accounting.
    pub maintenance: SearchStats,
    /// Thresholds still warm in the carried cache after repair (`None`
    /// when the algorithm runs without `d_k` reuse).
    ///
    /// The carried cache is a copy of the predecessor's taken at the start
    /// of the advance. While an engine serves the predecessor, its readers
    /// keep filling missed slots, so for a successor built beside them
    /// this count depends on timing. It is reproducible only when nothing
    /// queries the predecessor during the advance: a fully warm cache, or
    /// a chain of successors built privately from one another
    /// (`DESIGN.md` §3).
    pub cache_filled: Option<usize>,
}

/// Derives the successor of `prev` with `ops` applied: cloned index with
/// every op applied, warm [`rknn_rdt::DkCache`] carried over via
/// [`RdtAlgorithm::warmed`], and one localized eviction pass over the whole
/// batch through [`RknnAlgorithm::apply_updates`]. The result is
/// query-ready — publish it without calling `prepare`.
///
/// Fails with a typed [`AdvanceError`] naming the offending op if an
/// insert is rejected by the index or a remove names an id that is not
/// live; `prev` is untouched either way, so the engine keeps serving the
/// old epoch.
pub fn advance_snapshot<M, I>(
    prev: &Snapshot<M, I, RdtAlgorithm>,
    ops: &[ChurnOp],
) -> Result<(Snapshot<M, I, RdtAlgorithm>, AdvanceReport), AdvanceError>
where
    M: Metric,
    I: DynamicIndex<M> + Clone,
{
    let start = Instant::now();
    let mut index = prev.index().clone();
    let mut algo = prev.algo().warmed();
    let mut inserted = Vec::new();
    let mut removed = Vec::new();
    let mut updates = Vec::with_capacity(ops.len());
    for (at, op) in ops.iter().enumerate() {
        match op {
            ChurnOp::Insert(coords) => {
                let id = index
                    .insert(coords)
                    .map_err(|source| AdvanceError::Insert { op: at, source })?;
                updates.push(IndexUpdate::Inserted(id));
                inserted.push(id);
            }
            ChurnOp::Remove(id) => {
                if !index.remove(*id) {
                    return Err(AdvanceError::RemoveMissing { op: at, id: *id });
                }
                updates.push(IndexUpdate::Removed(*id));
                removed.push(*id);
            }
        }
    }
    RknnAlgorithm::<M, I>::apply_updates(&mut algo, &index, &updates);
    let report = AdvanceReport {
        epoch: prev.epoch() + 1,
        inserted,
        removed,
        build_time: start.elapsed(),
        maintenance: RknnAlgorithm::<M, I>::maintenance_stats(&algo),
        cache_filled: algo.dk_cache().map(|c| c.filled()),
    };
    Ok((Snapshot::new(prev.epoch() + 1, index, algo), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknn_core::Euclidean;
    use rknn_index::{KnnIndex, LinearScan};
    use rknn_rdt::algorithm::{run_algorithm_batch, RdtAlgorithm};
    use rknn_rdt::RdtParams;

    #[test]
    fn advanced_snapshot_matches_a_cold_rebuild_bitwise() {
        let ds = rknn_data::gaussian_blobs(180, 3, 3, 0.4, 950).into_shared();
        let idx = LinearScan::build(ds, Euclidean);
        let params = RdtParams::new(3, 4.0);
        let snap = Snapshot::prepare(0, idx, RdtAlgorithm::new(params));
        // Warm the cache through the prepared algorithm.
        let queries: Vec<usize> = (0..180).collect();
        let _ = run_algorithm_batch(snap.algo(), snap.index(), &queries, 2);

        let ops = vec![
            ChurnOp::Insert(vec![0.2, 0.3, 0.4]),
            ChurnOp::Remove(11),
            ChurnOp::Insert(vec![0.8, 0.1, 0.5]),
        ];
        let (next, report) = advance_snapshot(&snap, &ops).unwrap();
        assert_eq!(next.epoch(), 1);
        assert_eq!(report.inserted, vec![180, 181]);
        assert_eq!(report.removed, vec![11]);
        assert!(report.maintenance.dist_computations > 0);
        assert!(report.cache_filled.unwrap() > 0, "warm thresholds survive");

        let live: Vec<usize> = (0..182).filter(|&q| q != 11).collect();
        let got = run_algorithm_batch(next.algo(), next.index(), &live, 2);
        let mut cold = RdtAlgorithm::new(params);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut cold, next.index());
        let want = run_algorithm_batch(&cold, next.index(), &live, 2);
        for ((a, b), &q) in got.answers.iter().zip(&want.answers).zip(&live) {
            let av: Vec<(usize, u64)> = a.result.iter().map(|n| (n.id, n.dist.to_bits())).collect();
            let bv: Vec<(usize, u64)> = b.result.iter().map(|n| (n.id, n.dist.to_bits())).collect();
            assert_eq!(av, bv, "q={q}");
        }
        // The predecessor snapshot is untouched by the advance.
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.index().num_points(), 180);
    }

    #[test]
    fn a_batch_that_removes_its_own_insert_matches_a_cold_rebuild() {
        let ds = rknn_data::gaussian_blobs(150, 3, 3, 0.4, 952).into_shared();
        let idx = LinearScan::build(ds, Euclidean);
        let params = RdtParams::new(3, 4.0);
        let snap = Snapshot::prepare(0, idx, RdtAlgorithm::new(params));
        let queries: Vec<usize> = (0..150).collect();
        let _ = run_algorithm_batch(snap.algo(), snap.index(), &queries, 2);

        // The transient point is tombstoned before the batch's eviction
        // pass runs, which still reads its coordinates as a query.
        let transient = snap.index().point(40).to_vec();
        let ops = vec![
            ChurnOp::Insert(transient),
            ChurnOp::Remove(3),
            ChurnOp::Remove(150),
            ChurnOp::Insert(vec![0.1, 0.7, 0.3]),
        ];
        let (next, report) = advance_snapshot(&snap, &ops).unwrap();
        assert_eq!(report.inserted, vec![150, 151]);
        assert_eq!(report.removed, vec![3, 150]);
        assert!(report.cache_filled.unwrap() > 0, "warm thresholds survive");

        let live: Vec<usize> = (0..152).filter(|&q| q != 3 && q != 150).collect();
        let got = run_algorithm_batch(next.algo(), next.index(), &live, 2);
        let mut cold = RdtAlgorithm::new(params);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut cold, next.index());
        let want = run_algorithm_batch(&cold, next.index(), &live, 2);
        for ((a, b), &q) in got.answers.iter().zip(&want.answers).zip(&live) {
            let av: Vec<(usize, u64)> = a.result.iter().map(|n| (n.id, n.dist.to_bits())).collect();
            let bv: Vec<(usize, u64)> = b.result.iter().map(|n| (n.id, n.dist.to_bits())).collect();
            assert_eq!(av, bv, "q={q}");
        }
    }

    #[test]
    fn advance_errors_are_typed_and_leave_the_predecessor_intact() {
        let ds = rknn_data::gaussian_blobs(90, 3, 3, 0.4, 951).into_shared();
        let idx = LinearScan::build(ds, Euclidean);
        let snap = Snapshot::prepare(0, idx, RdtAlgorithm::new(RdtParams::new(3, 4.0)));

        // Remove of a dead id after removing it once.
        let err = advance_snapshot(&snap, &[ChurnOp::Remove(5), ChurnOp::Remove(5)]).unwrap_err();
        assert_eq!(err, AdvanceError::RemoveMissing { op: 1, id: 5 });

        // Remove of an id that never existed.
        let err = advance_snapshot(&snap, &[ChurnOp::Remove(400)]).unwrap_err();
        assert_eq!(err, AdvanceError::RemoveMissing { op: 0, id: 400 });

        // Insert rejected by the index: wrong dimensionality.
        let err = advance_snapshot(&snap, &[ChurnOp::Insert(vec![1.0])]).unwrap_err();
        match err {
            AdvanceError::Insert { op: 0, source } => {
                assert!(matches!(source, CoreError::DimensionMismatch { .. }));
            }
            other => panic!("expected Insert error, got {other:?}"),
        }

        // A failed advance changed nothing the engine could observe.
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.index().num_points(), 90);
    }
}
