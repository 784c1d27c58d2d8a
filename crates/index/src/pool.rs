//! Growable point storage backing dynamic indexes.
//!
//! A [`PointPool`] starts from a shared immutable [`Dataset`] (no copy) and
//! supports appending new points and tombstoning removed ones. Dynamic
//! indexes (linear scan, cover tree, vp-tree, r-tree) keep removed points
//! for routing but filter them from results, matching the paper's claim
//! that RDT supports "dynamic insertion and deletion of data points" with
//! no costs beyond those of the forward index (§4).
//!
//! Appended points live in a [`PaddedRows`] segment with the **same**
//! 32-byte-aligned, zero-padded layout as the base dataset, so scans can
//! stream both segments through the SIMD tile kernel
//! ([`rknn_core::Metric::dist_tile`]) — the tile fast path survives churn
//! instead of degrading to per-point evaluation (see
//! [`PointPool::segments`]).

use rknn_core::{CoreError, Dataset, PaddedRows, PointId};
use std::sync::Arc;

/// A base dataset plus appended points and liveness flags.
#[derive(Debug, Clone)]
pub struct PointPool {
    base: Arc<Dataset>,
    dim: usize,
    /// Appended points in the same padded aligned layout as `base`.
    extra: PaddedRows,
    /// Tombstones for removed ids; indexed lazily (empty = all alive).
    dead: Vec<bool>,
    live_count: usize,
}

/// One contiguous padded-row segment of a pool, tile-kernel ready.
///
/// Row `i` of the segment holds point `first_id + i`; rows may include
/// tombstoned points, which scans must skip via [`PointPool::is_alive`].
#[derive(Debug, Clone, Copy)]
pub struct PoolSegment<'a> {
    /// Pool id of the segment's first row.
    pub first_id: PointId,
    /// Number of rows in the segment.
    pub len: usize,
    /// The padded row-major buffer (`len * stride` coordinates, 32-byte
    /// aligned) — the layout [`rknn_core::Metric::dist_tile`] consumes.
    pub padded: &'a [f64],
}

impl PointPool {
    /// Wraps a shared dataset.
    pub fn new(base: Arc<Dataset>) -> Self {
        let dim = base.dim();
        let live_count = base.len();
        PointPool {
            base,
            dim,
            extra: PaddedRows::new(dim),
            dead: Vec::new(),
            live_count,
        }
    }

    /// Dimensionality of all points.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total ids ever allocated (live + tombstoned).
    #[inline]
    pub fn total(&self) -> usize {
        self.base.len() + self.extra.len()
    }

    /// Number of live points.
    #[inline]
    pub fn live(&self) -> usize {
        self.live_count
    }

    /// Number of tombstoned points still occupying storage.
    #[inline]
    pub fn dead_count(&self) -> usize {
        self.total() - self.live_count
    }

    /// Fraction of allocated ids that are tombstoned (0 for an empty pool).
    #[inline]
    pub fn dead_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.dead_count() as f64 / total as f64
        }
    }

    /// Whether the id refers to a live point.
    #[inline]
    pub fn is_alive(&self, id: PointId) -> bool {
        id < self.total() && !self.dead.get(id).copied().unwrap_or(false)
    }

    /// Coordinates of point `id` (live or tombstoned).
    ///
    /// # Panics
    ///
    /// Panics if `id` was never allocated.
    #[inline]
    pub fn point(&self, id: PointId) -> &[f64] {
        let n0 = self.base.len();
        if id < n0 {
            self.base.point(id)
        } else {
            self.extra.point(id - n0)
        }
    }

    /// Appends a new point, returning its id.
    pub fn insert(&mut self, p: &[f64]) -> Result<PointId, CoreError> {
        if p.len() != self.dim {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim,
                got: p.len(),
            });
        }
        let id = self.total();
        for (j, v) in p.iter().enumerate() {
            if !v.is_finite() {
                return Err(CoreError::NonFinite {
                    point: id,
                    coordinate: j,
                });
            }
        }
        self.extra.push(p);
        self.live_count += 1;
        debug_assert!(self.dead.len() <= id);
        Ok(id)
    }

    /// Tombstones a point; returns whether it was alive.
    pub fn remove(&mut self, id: PointId) -> bool {
        if !self.is_alive(id) {
            return false;
        }
        if self.dead.len() < self.total() {
            self.dead.resize(self.total(), false);
        }
        self.dead[id] = true;
        self.live_count -= 1;
        true
    }

    /// Iterates over `(id, coordinates)` of live points.
    pub fn iter_live(&self) -> impl Iterator<Item = (PointId, &[f64])> {
        (0..self.total())
            .filter(|&id| self.is_alive(id))
            .map(move |id| (id, self.point(id)))
    }

    /// The shared base dataset this pool was created from.
    pub fn base(&self) -> &Arc<Dataset> {
        &self.base
    }

    /// The row stride shared by both segments (`dim` rounded up to a
    /// multiple of four).
    #[inline]
    pub fn stride(&self) -> usize {
        self.extra.stride()
    }

    /// The pool's storage as contiguous padded-row segments (base dataset
    /// first, then appended points), each streamable through the tile
    /// kernel at the common [`PointPool::stride`]. Empty segments are
    /// omitted. Rows cover **all** allocated ids in order; tombstoned rows
    /// are included and must be skipped via [`PointPool::is_alive`].
    pub fn segments(&self) -> impl Iterator<Item = PoolSegment<'_>> {
        let base = PoolSegment {
            first_id: 0,
            len: self.base.len(),
            padded: self.base.padded_flat(),
        };
        let extra = PoolSegment {
            first_id: self.base.len(),
            len: self.extra.len(),
            padded: self.extra.padded_flat(),
        };
        [base, extra].into_iter().filter(|s| s.len > 0)
    }

    /// The base dataset when it still *is* the live point set: no points
    /// appended, none tombstoned, ids `0..len` mapping identically. Scans
    /// over all points (ground truth, all-pairs passes) can then borrow the
    /// dataset wholesale; anything else goes through [`PointPool::segments`]
    /// or per-point iteration.
    pub fn contiguous_base(&self) -> Option<&Dataset> {
        (self.extra.is_empty() && self.live_count == self.base.len() && !self.base.is_empty())
            .then(|| self.base.as_ref())
    }
}

/// When a dynamic index should rebuild its routing structure over the live
/// points only ([`crate::DynamicIndex::compact`]).
///
/// Tombstoned points keep routing searches until compaction: they cost
/// traversal work (and tile-lane evaluations) but never appear in results.
/// The policy bounds that overhead: compaction is recommended once at
/// least `min_dead` points are tombstoned **and** they exceed
/// `max_dead_fraction` of all allocated ids. Point ids are stable across
/// compaction — only the structure is rebuilt, never the id mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildPolicy {
    /// Tombstone fraction above which rebuilding pays off.
    pub max_dead_fraction: f64,
    /// Minimum tombstone count before fractions matter (tiny pools churn
    /// harmlessly).
    pub min_dead: usize,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        RebuildPolicy {
            max_dead_fraction: 0.3,
            min_dead: 64,
        }
    }
}

impl RebuildPolicy {
    /// Whether the policy recommends compacting a pool in this state.
    pub fn recommends(&self, pool: &PointPool) -> bool {
        self.recommends_counts(pool.dead_count(), pool.total())
    }

    /// The raw threshold test on explicit counts. Substrates that unlink
    /// tombstones on compaction without forgetting them (the pool keeps
    /// every historical coordinate addressable) track their own stale
    /// count and consult the policy through this entry point.
    pub fn recommends_counts(&self, dead: usize, total: usize) -> bool {
        let fraction = if total == 0 {
            0.0
        } else {
            dead as f64 / total as f64
        };
        dead >= self.min_dead && fraction > self.max_dead_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> PointPool {
        let ds = Dataset::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]])
            .unwrap()
            .into_shared();
        PointPool::new(ds)
    }

    #[test]
    fn base_points_are_visible() {
        let p = pool();
        assert_eq!(p.total(), 2);
        assert_eq!(p.live(), 2);
        assert_eq!(p.point(1), &[1.0, 1.0]);
        assert!(p.is_alive(0));
        assert!(!p.is_alive(7));
    }

    #[test]
    fn insert_allocates_sequential_ids() {
        let mut p = pool();
        assert_eq!(p.insert(&[2.0, 2.0]).unwrap(), 2);
        assert_eq!(p.insert(&[3.0, 3.0]).unwrap(), 3);
        assert_eq!(p.point(3), &[3.0, 3.0]);
        assert_eq!(p.live(), 4);
        assert!(p.insert(&[1.0]).is_err());
        assert!(p.insert(&[f64::NAN, 0.0]).is_err());
    }

    #[test]
    fn insert_errors_are_descriptive_and_mutate_nothing() {
        let mut p = pool();
        assert_eq!(
            p.insert(&[1.0]).unwrap_err(),
            CoreError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            p.insert(&[0.0, f64::INFINITY]).unwrap_err(),
            CoreError::NonFinite {
                point: 2,
                coordinate: 1
            }
        );
        // Failed inserts allocate no id and change no counts.
        assert_eq!(p.total(), 2);
        assert_eq!(p.live(), 2);
        assert_eq!(p.insert(&[9.0, 9.0]).unwrap(), 2);
    }

    #[test]
    fn remove_tombstones_but_keeps_coordinates() {
        let mut p = pool();
        assert!(p.remove(0));
        assert!(!p.remove(0), "double remove is a no-op");
        assert_eq!(p.live(), 1);
        assert_eq!(p.dead_count(), 1);
        assert_eq!(p.point(0), &[0.0, 0.0], "coordinates remain for routing");
        let live: Vec<_> = p.iter_live().map(|(id, _)| id).collect();
        assert_eq!(live, vec![1]);
    }

    #[test]
    fn remove_then_insert_mixes() {
        let mut p = pool();
        p.remove(1);
        let id = p.insert(&[5.0, 5.0]).unwrap();
        assert_eq!(id, 2);
        let live: Vec<_> = p.iter_live().map(|(id, _)| id).collect();
        assert_eq!(live, vec![0, 2]);
    }

    #[test]
    fn contiguous_base_is_none_after_any_churn() {
        let mut p = pool();
        assert!(p.contiguous_base().is_some());
        // A tombstone breaks identity mapping.
        p.remove(0);
        assert!(p.contiguous_base().is_none());

        // An appended point breaks it too, even with all base points live.
        let mut p = pool();
        p.insert(&[2.0, 2.0]).unwrap();
        assert!(p.contiguous_base().is_none());

        // And an empty base never qualifies.
        let empty = PointPool::new(Dataset::from_flat(2, vec![]).unwrap().into_shared());
        assert!(empty.contiguous_base().is_none());
    }

    #[test]
    fn segments_cover_all_ids_in_padded_layout() {
        let mut p = pool();
        p.insert(&[2.0, 2.0]).unwrap();
        p.insert(&[3.0, 4.0]).unwrap();
        p.remove(1);
        let segs: Vec<_> = p.segments().collect();
        assert_eq!(segs.len(), 2);
        assert_eq!((segs[0].first_id, segs[0].len), (0, 2));
        assert_eq!((segs[1].first_id, segs[1].len), (2, 2));
        let stride = p.stride();
        assert_eq!(stride, p.base().stride());
        for seg in &segs {
            assert_eq!(seg.padded.len(), seg.len * stride);
            for i in 0..seg.len {
                let row = &seg.padded[i * stride..i * stride + p.dim()];
                assert_eq!(row, p.point(seg.first_id + i), "segment rows match ids");
                assert!(seg.padded[i * stride + p.dim()..(i + 1) * stride]
                    .iter()
                    .all(|&v| v == 0.0));
            }
        }
        // A pool with no appended points exposes only the base segment.
        assert_eq!(pool().segments().count(), 1);
    }

    #[test]
    fn rebuild_policy_thresholds() {
        let ds = Dataset::from_rows(&(0..10).map(|i| vec![i as f64]).collect::<Vec<_>>())
            .unwrap()
            .into_shared();
        let mut p = PointPool::new(ds);
        let policy = RebuildPolicy {
            max_dead_fraction: 0.3,
            min_dead: 2,
        };
        assert!(!policy.recommends(&p));
        p.remove(0);
        p.remove(1);
        p.remove(2);
        assert_eq!(p.dead_count(), 3);
        assert!(!policy.recommends(&p), "0.3 is not > 0.3");
        p.remove(3);
        assert!(policy.recommends(&p));
        // min_dead gates tiny pools regardless of fraction.
        let strict = RebuildPolicy {
            max_dead_fraction: 0.0,
            min_dead: 100,
        };
        assert!(!strict.recommends(&p));
    }
}
