//! Sequential-scan index — the paper's fallback substrate.
//!
//! For MNIST and Imagenet the paper found sequential scan to outperform the
//! cover tree (§7.1): in very high dimensions, n straight-line distance
//! computations beat any tree traversal. The incremental cursor computes
//! all distances once at creation into a flat table, sorts it, and drains
//! it by position — contiguous memory instead of a pointer-heavy
//! `BinaryHeap`, and with [`KnnIndex::cursor_with`] the table lives in a
//! caller-owned buffer that batch drivers reuse across queries. Direct
//! `knn`/`range`/`range_count` traversals prune each candidate against the
//! current threshold, abandoning hopeless distance accumulations early.
//!
//! Every scan streams the pool's padded contiguous segments (the base
//! dataset, then the appended points — both in the same 32-byte-aligned
//! zero-padded layout, see [`crate::PointPool::segments`]) through the
//! SIMD tile kernel [`Metric::dist_tile`] in blocks of `TILE` rows, pruned
//! at a per-block snapshot of the current selection threshold and
//! committed row by row against the live threshold. Tombstoned rows are
//! evaluated with their block but skipped — uncounted — at commit, so
//! results and counters stay byte-identical to the per-point liveness
//! loop (still present as the test-pinned reference path), at hardware
//! vector speed even under insert/delete churn.

use crate::pool::PointPool;
use crate::traits::{DynamicIndex, KnnIndex, NnCursor};
use rknn_core::{
    CoreError, CursorScratch, Dataset, KnnHeap, Metric, Neighbor, PointId, SearchStats,
};
use std::sync::Arc;

/// Exact sequential-scan index over a [`PointPool`].
#[derive(Debug, Clone)]
pub struct LinearScan<M: Metric> {
    pool: PointPool,
    metric: M,
    use_tiles: bool,
}

impl<M: Metric> LinearScan<M> {
    /// Builds a scan index over a shared dataset.
    pub fn build(ds: Arc<Dataset>, metric: M) -> Self {
        LinearScan {
            pool: PointPool::new(ds),
            metric,
            use_tiles: true,
        }
    }

    /// Read access to the underlying pool.
    pub fn pool(&self) -> &PointPool {
        &self.pool
    }

    /// Forces every scan onto the per-point fallback (or back onto the
    /// tile path). Results, streams, and counters are byte-identical
    /// either way; equivalence tests flip this to prove it. Test support.
    #[doc(hidden)]
    pub fn set_tile_enabled(&mut self, enabled: bool) {
        self.use_tiles = enabled;
    }
}

/// Cursor draining a distance table already sorted ascending by
/// `(dist, id)`. Generic over the table's ownership so the same drain logic
/// serves both the self-owned boxed path and the caller-owned scratch path.
struct ScanCursor<B> {
    entries: B,
    pos: usize,
    stats: SearchStats,
}

impl<B: AsRef<[Neighbor]>> NnCursor for ScanCursor<B> {
    fn next(&mut self) -> Option<Neighbor> {
        let n = self.entries.as_ref().get(self.pos).copied();
        self.pos += usize::from(n.is_some());
        n
    }

    fn stats(&self) -> SearchStats {
        self.stats
    }
}

/// Rows per tile block in the sequential-scan fast paths: enough to
/// amortize the per-block kernel dispatch, small enough for the per-block
/// bounds/output arrays to live on the stack.
const TILE: usize = 64;

/// Zero-pads `q` to `stride` coordinates in a reusable buffer.
fn pad_query(q: &[f64], stride: usize, buf: &mut Vec<f64>) {
    buf.clear();
    buf.resize(stride, 0.0);
    buf[..q.len()].copy_from_slice(q);
}

/// The shared tile driver behind every sequential-scan fast path: streams
/// the pool's padded contiguous segments (base dataset, then appended
/// points) against `qpad` in `TILE`-row blocks through
/// [`Metric::dist_tile`]. Each block's (uniform) pruning bound is a
/// *snapshot* taken by `block_bound` just before evaluation; `commit` then
/// consumes every **live** row's output (`NaN` = pruned at the snapshot)
/// in id order — tombstoned rows ride along in their block but are skipped
/// uncounted, exactly as the per-point loop never visits them. Both
/// callbacks receive the caller's `state`, so commits can tighten the very
/// threshold the next block snapshots.
///
/// Why the snapshot changes no decision: the bound only tightens as rows
/// commit, so a row the snapshot prunes (`d` at or beyond the snapshot,
/// which is at or beyond every later threshold) would also be pruned by
/// per-point evaluation, and an admitted row carries the bit-identical
/// distance into the caller's own exact commit comparison against the
/// *live* threshold. Decisions, entries, and counters therefore match the
/// per-point liveness loop exactly; the snapshot only trades a little
/// extra coordinate work for blockwise SIMD evaluation.
fn scan_tiles<M: Metric, St>(
    metric: &M,
    pool: &PointPool,
    qpad: &[f64],
    state: &mut St,
    mut block_bound: impl FnMut(&mut St) -> f64,
    mut commit: impl FnMut(&mut St, PointId, f64),
) {
    let (stride, dim) = (pool.stride(), pool.dim());
    let mut bounds = [0.0f64; TILE];
    let mut out = [0.0f64; TILE];
    for seg in pool.segments() {
        let mut start = 0usize;
        while start < seg.len {
            let m = TILE.min(seg.len - start);
            bounds[..m].fill(block_bound(state));
            metric.dist_tile(
                qpad,
                &seg.padded[start * stride..(start + m) * stride],
                stride,
                dim,
                &bounds[..m],
                &mut out[..m],
            );
            for (i, &d) in out[..m].iter().enumerate() {
                let id = seg.first_id + start + i;
                if !pool.is_alive(id) {
                    continue;
                }
                commit(state, id, d);
            }
            start += m;
        }
    }
}

impl<M: Metric> LinearScan<M> {
    /// Whether the tile fast paths apply: tiles enabled and `q` matching
    /// the pool's (nonzero) dimensionality. Churn does not disqualify the
    /// pool — both its segments share the padded aligned layout.
    #[inline]
    fn tile_eligible(&self, q: &[f64]) -> bool {
        self.use_tiles && self.pool.dim() > 0 && self.pool.dim() == q.len()
    }

    /// Fills `entries` with the sorted distance table for query `q`; the
    /// shared setup behind both cursor entry points. `qpad` is the reusable
    /// padded-query buffer for the tile fast path.
    fn fill_table(
        &self,
        q: &[f64],
        exclude: Option<PointId>,
        entries: &mut Vec<Neighbor>,
        qpad: &mut Vec<f64>,
    ) -> SearchStats {
        let mut stats = SearchStats::new();
        entries.clear();
        entries.reserve(self.pool.live());
        if self.tile_eligible(q) {
            // Tile fast path, unbounded (+∞ admits everything, including
            // distances that overflow to +∞). The excluded row is evaluated
            // with its block but skipped — uncounted — at commit, exactly
            // like the per-point loop.
            pad_query(q, self.pool.stride(), qpad);
            scan_tiles(
                &self.metric,
                &self.pool,
                qpad,
                &mut (&mut stats, &mut *entries),
                |_| f64::INFINITY,
                |st, id, d| {
                    if Some(id) == exclude {
                        return;
                    }
                    st.0.count_dist();
                    st.1.push(Neighbor::new(id, d));
                },
            );
        } else {
            for (id, p) in self.pool.iter_live() {
                if Some(id) == exclude {
                    continue;
                }
                stats.count_dist();
                entries.push(Neighbor::new(id, self.metric.dist(q, p)));
            }
        }
        stats.heap_pushes += entries.len() as u64;
        entries.sort_unstable_by(Neighbor::cmp_by_dist);
        stats
    }

    /// Fills `scratch.entries` with the `limit` nearest candidates only,
    /// through [`BoundedSelection`], whose threshold prunes each
    /// candidate's distance accumulation. Yields exactly the prefix the
    /// full sorted table would: ties at the boundary keep the lowest ids,
    /// matching the `(dist, id)` sort order.
    fn fill_bounded(
        &self,
        q: &[f64],
        exclude: Option<PointId>,
        limit: usize,
        scratch: &mut CursorScratch,
    ) -> SearchStats {
        let mut stats = SearchStats::new();
        let mut sel = BoundedSelection::new(limit, &mut scratch.entries);
        if self.tile_eligible(q) {
            // Tile fast path: blocks pruned at a snapshot of the selection
            // threshold, rows committed against the live one (see
            // `scan_tiles` for the equivalence argument).
            pad_query(q, self.pool.stride(), &mut scratch.tiles.qpad);
            scan_tiles(
                &self.metric,
                &self.pool,
                &scratch.tiles.qpad,
                &mut (&mut sel, &mut stats),
                |st| st.0.thr,
                |st, id, d| {
                    if Some(id) == exclude {
                        return;
                    }
                    st.1.count_dist();
                    if !d.is_nan() && st.0.admits(d) {
                        st.0.push(Neighbor::new(id, d), st.1);
                    }
                },
            );
        } else {
            for (id, p) in self.pool.iter_live() {
                if Some(id) == exclude {
                    continue;
                }
                stats.count_dist();
                if let Some(d) = self.metric.dist_under(q, p, sel.thr) {
                    sel.push(Neighbor::new(id, d), &mut stats);
                }
            }
        }
        sel.finish();
        stats
    }
}

/// Bounded `(dist, id)` selection in one flat buffer, for candidates
/// offered in ascending id order.
///
/// Candidates below the threshold `thr` are appended. Once the buffer
/// holds `2·limit` of them it is cut back to the `limit` smallest by one
/// `select_nth_unstable_by`, and `thr` becomes the `limit`-th distance; one
/// select and sort at the end leave the sorted prefix. While no cut has
/// happened `thr` is `+∞`, which (with `dist_under` semantics) admits
/// every distance, including ones that overflow to `+∞`.
///
/// A rejected candidate at distance `thr` loses nothing: the `limit`-th
/// kept entry has the same distance and, offered earlier, a lower id, so
/// the `(dist, id)` order ranks it first.
struct BoundedSelection<'a> {
    entries: &'a mut Vec<Neighbor>,
    limit: usize,
    /// The admission threshold: `+∞` until the first cut, the `limit`-th
    /// distance after it, and `−∞` (admitting nothing) when `limit` is 0.
    thr: f64,
}

impl<'a> BoundedSelection<'a> {
    fn new(limit: usize, entries: &'a mut Vec<Neighbor>) -> Self {
        entries.clear();
        entries.reserve(2 * limit);
        let thr = if limit == 0 {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        BoundedSelection {
            entries,
            limit,
            thr,
        }
    }

    /// Whether a distance passes the current threshold.
    #[inline]
    fn admits(&self, d: f64) -> bool {
        self.thr == f64::INFINITY || d < self.thr
    }

    /// Appends an admitted candidate (counted as a push), cutting back at
    /// `2·limit`.
    #[inline]
    fn push(&mut self, n: Neighbor, stats: &mut SearchStats) {
        self.entries.push(n);
        stats.count_push();
        if self.entries.len() >= 2 * self.limit {
            self.cut();
        }
    }

    /// Keeps the `limit` smallest entries; the last of them sets `thr`.
    fn cut(&mut self) {
        let nth = self.limit - 1;
        self.entries
            .select_nth_unstable_by(nth, Neighbor::cmp_by_dist);
        self.entries.truncate(self.limit);
        self.thr = self.entries[nth].dist;
    }

    /// Leaves the `limit` smallest entries sorted ascending.
    fn finish(mut self) {
        if self.entries.len() > self.limit {
            self.cut();
        }
        self.entries.sort_unstable_by(Neighbor::cmp_by_dist);
    }
}

impl<M: Metric> KnnIndex<M> for LinearScan<M> {
    fn num_points(&self) -> usize {
        self.pool.live()
    }

    fn has_point(&self, id: PointId) -> bool {
        self.pool.is_alive(id)
    }

    fn dim(&self) -> usize {
        self.pool.dim()
    }

    fn point(&self, id: PointId) -> &[f64] {
        self.pool.point(id)
    }

    fn metric(&self) -> &M {
        &self.metric
    }

    fn name(&self) -> &'static str {
        "linear-scan"
    }

    fn base_rows(&self) -> Option<&Dataset> {
        self.pool.contiguous_base()
    }

    fn cursor<'a>(&'a self, q: &'a [f64], exclude: Option<PointId>) -> Box<dyn NnCursor + 'a> {
        let mut entries = Vec::new();
        let mut qpad = Vec::new();
        let stats = self.fill_table(q, exclude, &mut entries, &mut qpad);
        Box::new(ScanCursor {
            entries,
            pos: 0,
            stats,
        })
    }

    fn cursor_with<'a>(
        &'a self,
        q: &'a [f64],
        exclude: Option<PointId>,
        scratch: &'a mut CursorScratch,
    ) -> Box<dyn NnCursor + 'a> {
        let CursorScratch { entries, tiles, .. } = &mut *scratch;
        let stats = self.fill_table(q, exclude, entries, &mut tiles.qpad);
        Box::new(ScanCursor {
            entries: &mut scratch.entries,
            pos: 0,
            stats,
        })
    }

    fn cursor_bounded<'a>(
        &'a self,
        q: &'a [f64],
        exclude: Option<PointId>,
        limit: usize,
        scratch: &'a mut CursorScratch,
    ) -> Box<dyn NnCursor + 'a> {
        // A bound that admits every candidate prunes nothing; the plain
        // sorted table skips the selection bookkeeping.
        let stats = if limit >= self.pool.live() {
            let CursorScratch { entries, tiles, .. } = &mut *scratch;
            self.fill_table(q, exclude, entries, &mut tiles.qpad)
        } else {
            self.fill_bounded(q, exclude, limit, scratch)
        };
        Box::new(ScanCursor {
            entries: &mut scratch.entries,
            pos: 0,
            stats,
        })
    }

    fn knn(
        &self,
        q: &[f64],
        k: usize,
        exclude: Option<PointId>,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        if k == 0 {
            return Vec::new();
        }
        let mut heap = KnnHeap::new(k);
        // Once the heap is full its threshold is the k-th best distance; a
        // candidate that cannot beat it would be rejected by `offer`, so
        // the distance accumulation may abandon as soon as the threshold is
        // provably unreachable. While the heap is filling the threshold is
        // +∞ and the full distance is computed — `dist_under` keeps
        // distances that overflow to +∞ admissible there, since `offer`
        // retains everything until full.
        if self.tile_eligible(q) {
            // Tile fast path: block-snapshot pruning, exact strict commit
            // against the live threshold (see `scan_tiles`).
            let mut qpad = Vec::new();
            pad_query(q, self.pool.stride(), &mut qpad);
            scan_tiles(
                &self.metric,
                &self.pool,
                &qpad,
                &mut (&mut heap, &mut *stats),
                |st| st.0.threshold(),
                |st, id, d| {
                    if Some(id) == exclude {
                        return;
                    }
                    st.1.count_dist();
                    if d.is_nan() {
                        return;
                    }
                    let thr = st.0.threshold();
                    if thr == f64::INFINITY || d < thr {
                        st.0.offer(Neighbor::new(id, d));
                    }
                },
            );
        } else {
            for (id, p) in self.pool.iter_live() {
                if Some(id) == exclude {
                    continue;
                }
                stats.count_dist();
                if let Some(d) = self.metric.dist_under(q, p, heap.threshold()) {
                    heap.offer(Neighbor::new(id, d));
                }
            }
        }
        heap.into_sorted()
    }

    fn range(
        &self,
        q: &[f64],
        r: f64,
        exclude: Option<PointId>,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        // The closed ball `d <= r` equals the open ball below next_up(r).
        let bound = r.next_up();
        let mut out = Vec::new();
        if self.tile_eligible(q) {
            // Tile fast path. The tile has `dist_under` semantics: at an
            // infinite bound it admits distances overflowing to +∞, which
            // the strict `dist_lt` contract of `range` must still reject —
            // hence the finiteness re-check at commit.
            let mut qpad = Vec::new();
            pad_query(q, self.pool.stride(), &mut qpad);
            scan_tiles(
                &self.metric,
                &self.pool,
                &qpad,
                &mut (&mut out, &mut *stats),
                |_| bound,
                |st, id, d| {
                    if Some(id) == exclude {
                        return;
                    }
                    st.1.count_dist();
                    if d.is_nan() || (bound == f64::INFINITY && !d.is_finite()) {
                        return;
                    }
                    st.0.push(Neighbor::new(id, d));
                },
            );
        } else {
            for (id, p) in self.pool.iter_live() {
                if Some(id) == exclude {
                    continue;
                }
                stats.count_dist();
                if let Some(d) = self.metric.dist_lt(q, p, bound) {
                    out.push(Neighbor::new(id, d));
                }
            }
        }
        rknn_core::neighbor::sort_neighbors(&mut out);
        out
    }

    fn range_count(
        &self,
        q: &[f64],
        r: f64,
        strict: bool,
        exclude: Option<PointId>,
        stats: &mut SearchStats,
    ) -> usize {
        let bound = if strict { r } else { r.next_up() };
        let mut count = 0;
        if self.tile_eligible(q) {
            // Same strict-vs-`dist_under` commit re-check as `range`.
            let mut qpad = Vec::new();
            pad_query(q, self.pool.stride(), &mut qpad);
            scan_tiles(
                &self.metric,
                &self.pool,
                &qpad,
                &mut (&mut count, &mut *stats),
                |_| bound,
                |st, id, d| {
                    if Some(id) == exclude {
                        return;
                    }
                    st.1.count_dist();
                    if d.is_nan() || (bound == f64::INFINITY && !d.is_finite()) {
                        return;
                    }
                    *st.0 += 1;
                },
            );
        } else {
            for (id, p) in self.pool.iter_live() {
                if Some(id) == exclude {
                    continue;
                }
                stats.count_dist();
                if self.metric.dist_lt(q, p, bound).is_some() {
                    count += 1;
                }
            }
        }
        count
    }
}

impl<M: Metric> DynamicIndex<M> for LinearScan<M> {
    fn insert(&mut self, point: &[f64]) -> Result<PointId, CoreError> {
        self.pool.insert(point)
    }

    fn remove(&mut self, id: PointId) -> bool {
        self.pool.remove(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknn_core::Euclidean;

    fn index() -> LinearScan<Euclidean> {
        let ds = Dataset::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![2.0, 0.0],
            vec![0.0, 3.0],
        ])
        .unwrap()
        .into_shared();
        LinearScan::build(ds, Euclidean)
    }

    #[test]
    fn cursor_streams_in_order() {
        let idx = index();
        let mut cur = idx.cursor(&[0.0, 0.0], None);
        let order: Vec<_> = std::iter::from_fn(|| cur.next()).map(|n| n.id).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(cur.stats().dist_computations, 4);
    }

    #[test]
    fn scratch_cursor_matches_boxed_cursor_and_reuses_buffer() {
        let idx = index();
        let mut scratch = CursorScratch::new();
        for q in [[0.0, 0.0], [2.0, 1.0]] {
            let mut boxed = idx.cursor(&q, None);
            let mut scratched = idx.cursor_with(&q, None, &mut scratch);
            loop {
                let a = boxed.next();
                let b = scratched.next();
                assert_eq!(a.map(|n| n.id), b.map(|n| n.id));
                assert_eq!(a.map(|n| n.dist), b.map(|n| n.dist));
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(boxed.stats(), scratched.stats());
        }
        // The buffer stays filled (and its capacity reusable) after the
        // cursor is dropped.
        assert_eq!(scratch.entries.len(), 4);
    }

    #[test]
    fn bounded_cursor_yields_exact_prefix() {
        let ds = Dataset::from_rows(
            &(0..60)
                .map(|i| vec![(i % 17) as f64, (i % 5) as f64])
                .collect::<Vec<_>>(),
        )
        .unwrap()
        .into_shared();
        let idx = LinearScan::build(ds, Euclidean);
        let mut scratch = CursorScratch::new();
        let q = [3.2, 1.1];
        for limit in [0usize, 1, 7, 59, 60, 500] {
            let mut full = idx.cursor(&q, Some(2));
            let mut bounded = idx.cursor_bounded(&q, Some(2), limit, &mut scratch);
            for step in 0..limit {
                let want = full.next();
                let got = bounded.next();
                assert_eq!(
                    want.map(|n| (n.id, n.dist)),
                    got.map(|n| (n.id, n.dist)),
                    "limit={limit} step={step}"
                );
                if want.is_none() {
                    break;
                }
            }
            // Distance work is one evaluation per candidate either way.
            assert_eq!(bounded.stats().dist_computations, 59, "limit={limit}");
        }
    }

    #[test]
    fn cursor_respects_exclusion() {
        let idx = index();
        let mut cur = idx.cursor(&[0.0, 0.0], Some(0));
        assert_eq!(cur.next().unwrap().id, 1);
    }

    #[test]
    fn knn_range_and_count_agree_with_defaults() {
        let idx = index();
        let mut st = SearchStats::new();
        let nn = idx.knn(&[0.1, 0.0], 2, None, &mut st);
        assert_eq!(nn[0].id, 0);
        assert_eq!(nn[1].id, 1);
        let within = idx.range(&[0.0, 0.0], 2.0, None, &mut st);
        assert_eq!(within.len(), 3);
        assert_eq!(idx.range_count(&[0.0, 0.0], 2.0, false, None, &mut st), 3);
        assert_eq!(idx.range_count(&[0.0, 0.0], 2.0, true, None, &mut st), 2);
        assert_eq!(idx.range_count(&[0.0, 0.0], 2.0, true, Some(0), &mut st), 1);
    }

    #[test]
    fn dynamic_insert_and_remove() {
        let mut idx = index();
        let id = idx.insert(&[0.5, 0.0]).unwrap();
        assert_eq!(id, 4);
        let mut st = SearchStats::new();
        let nn = idx.knn(&[0.5, 0.0], 1, None, &mut st);
        assert_eq!(nn[0].id, 4);
        assert!(idx.remove(4));
        let nn = idx.knn(&[0.5, 0.0], 1, None, &mut st);
        assert_ne!(nn[0].id, 4);
        assert_eq!(idx.num_points(), 4);
    }

    #[test]
    fn knn_when_k_exceeds_n() {
        let idx = index();
        let mut st = SearchStats::new();
        assert_eq!(idx.knn(&[0.0, 0.0], 100, None, &mut st).len(), 4);
        assert!(idx.knn(&[0.0, 0.0], 0, None, &mut st).is_empty());
    }

    /// A churned scan: a tie-heavy base dataset large enough for several
    /// tile blocks, plus enough inserts to spill into the appended segment,
    /// with removals in both segments.
    fn churned_index() -> LinearScan<Euclidean> {
        let rows: Vec<Vec<f64>> = (0..150)
            .map(|i| vec![((i * 7) % 9) as f64 * 0.5, ((i * 3) % 5) as f64 * 0.5, 0.0])
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap().into_shared();
        let mut idx = LinearScan::build(ds, Euclidean);
        for j in 0..80 {
            idx.insert(&[((j * 5) % 9) as f64 * 0.5, ((j * 11) % 5) as f64 * 0.5, 1.0])
                .unwrap();
        }
        for id in [0, 1, 63, 64, 65, 149, 150, 151, 200, 229] {
            assert!(idx.remove(id));
        }
        idx
    }

    fn drain(cur: &mut dyn NnCursor) -> (Vec<(PointId, u64)>, SearchStats) {
        let got: Vec<_> = std::iter::from_fn(|| cur.next())
            .map(|n| (n.id, n.dist.to_bits()))
            .collect();
        (got, cur.stats())
    }

    /// The tile path and the per-point fallback must be byte-identical —
    /// ids, distance bits, and stats — on a pool with inserts and
    /// tombstones in both segments, across every scan entry point.
    #[test]
    fn tile_path_matches_per_point_under_churn() {
        let tiled = churned_index();
        let mut plain = tiled.clone();
        plain.set_tile_enabled(false);
        assert!(tiled.pool().contiguous_base().is_none());
        let queries = [
            vec![1.3, 0.4, 0.5],
            vec![-2.0, 7.0, 1.0],
            vec![2.0, 1.0, 0.0],
        ];
        let mut scr_t = CursorScratch::new();
        let mut scr_p = CursorScratch::new();
        for q in &queries {
            for exclude in [None, Some(70), Some(64)] {
                let (a, sa) = drain(&mut *tiled.cursor(q, exclude));
                let (b, sb) = drain(&mut *plain.cursor(q, exclude));
                assert_eq!(a, b);
                assert_eq!(sa, sb);
                let (a, sa) = drain(&mut *tiled.cursor_with(q, exclude, &mut scr_t));
                let (b, sb) = drain(&mut *plain.cursor_with(q, exclude, &mut scr_p));
                assert_eq!(a, b);
                assert_eq!(sa, sb);
                for limit in [0usize, 3, 64, 219, 220, 1000] {
                    let (a, sa) = drain(&mut *tiled.cursor_bounded(q, exclude, limit, &mut scr_t));
                    let (b, sb) = drain(&mut *plain.cursor_bounded(q, exclude, limit, &mut scr_p));
                    assert_eq!(a, b, "limit={limit}");
                    assert_eq!(sa, sb, "limit={limit}");
                }
                let (mut sa, mut sb) = (SearchStats::new(), SearchStats::new());
                let a = tiled.knn(q, 17, exclude, &mut sa);
                let b = plain.knn(q, 17, exclude, &mut sb);
                assert_eq!(
                    a.iter()
                        .map(|n| (n.id, n.dist.to_bits()))
                        .collect::<Vec<_>>(),
                    b.iter()
                        .map(|n| (n.id, n.dist.to_bits()))
                        .collect::<Vec<_>>()
                );
                assert_eq!(sa, sb);
                for r in [0.0, 1.25, 4.0, f64::INFINITY] {
                    let (mut sa, mut sb) = (SearchStats::new(), SearchStats::new());
                    let a = tiled.range(q, r, exclude, &mut sa);
                    let b = plain.range(q, r, exclude, &mut sb);
                    assert_eq!(
                        a.iter()
                            .map(|n| (n.id, n.dist.to_bits()))
                            .collect::<Vec<_>>(),
                        b.iter()
                            .map(|n| (n.id, n.dist.to_bits()))
                            .collect::<Vec<_>>(),
                        "r={r}"
                    );
                    assert_eq!(sa, sb, "r={r}");
                    for strict in [false, true] {
                        let (mut sa, mut sb) = (SearchStats::new(), SearchStats::new());
                        let a = tiled.range_count(q, r, strict, exclude, &mut sa);
                        let b = plain.range_count(q, r, strict, exclude, &mut sb);
                        assert_eq!(a, b, "r={r} strict={strict}");
                        assert_eq!(sa, sb, "r={r} strict={strict}");
                    }
                }
            }
        }
    }

    /// Asserts that the bounded table for `limit` is the first `limit`
    /// entries (ids and distance bits) of the full sorted table, on the
    /// tile path and the per-point path alike, with one distance
    /// evaluation per live candidate.
    fn assert_bounded_is_prefix(idx: &LinearScan<Euclidean>, q: &[f64], limit: usize) {
        let mut plain = idx.clone();
        plain.set_tile_enabled(false);
        let (full, _) = drain(&mut *idx.cursor(q, None));
        let want = &full[..limit.min(full.len())];
        let mut scratch = CursorScratch::new();
        for scan in [idx, &plain] {
            let (got, st) = drain(&mut *scan.cursor_bounded(q, None, limit, &mut scratch));
            assert_eq!(got, want, "limit={limit}");
            assert_eq!(st.dist_computations, full.len() as u64, "limit={limit}");
        }
    }

    #[test]
    fn bounded_selection_is_the_sorted_prefix_at_edge_limits() {
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                let x = i as f64;
                vec![(x * 0.37).sin() * 3.0, (x * 0.11).cos() * 2.0]
            })
            .collect();
        let idx = LinearScan::build(Dataset::from_rows(&rows).unwrap().into_shared(), Euclidean);
        let live = idx.num_points();
        for q in [[0.3, -1.2], [5.0, 5.0]] {
            for limit in [0, 1, 2, live - 1] {
                assert_bounded_is_prefix(&idx, &q, limit);
            }
        }
    }

    #[test]
    fn bounded_selection_survives_many_cuts() {
        // Descending distances: every candidate beats the current
        // threshold, so the buffer refills and is cut back over and over.
        let rows: Vec<Vec<f64>> = (0..500).map(|i| vec![(500 - i) as f64, 0.0]).collect();
        let idx = LinearScan::build(Dataset::from_rows(&rows).unwrap().into_shared(), Euclidean);
        let mut scratch = CursorScratch::new();
        let (_, st) = drain(&mut *idx.cursor_bounded(&[0.0, 0.0], None, 3, &mut scratch));
        assert_eq!(st.heap_pushes, 500, "each candidate is appended once");
        for limit in [1, 3, 7] {
            assert_bounded_is_prefix(&idx, &[0.0, 0.0], limit);
            assert_bounded_is_prefix(&idx, &[250.5, 0.0], limit);
        }
    }

    #[test]
    fn bounded_selection_breaks_boundary_ties_by_id() {
        // A coarse grid: every distance recurs many times, so the limit
        // falls inside runs of equal distances.
        let rows: Vec<Vec<f64>> = (0..240)
            .map(|i| vec![(i % 6) as f64, ((i / 6) % 5) as f64])
            .collect();
        let idx = LinearScan::build(Dataset::from_rows(&rows).unwrap().into_shared(), Euclidean);
        for q in [[2.0, 2.0], [0.0, 0.0], [2.5, 1.5]] {
            for limit in [1, 4, 8, 9, 23, 40, 100] {
                assert_bounded_is_prefix(&idx, &q, limit);
            }
        }
    }

    #[test]
    fn bounded_selection_skips_tombstones() {
        let idx = churned_index();
        let live = idx.pool().live();
        for q in [[1.3, 0.4, 0.5], [2.0, 1.0, 0.0]] {
            for limit in [0, 1, 5, 64, live - 1] {
                assert_bounded_is_prefix(&idx, &q, limit);
            }
        }
    }

    /// Stats count only live points, never tombstones — on both paths.
    #[test]
    fn tombstones_are_uncounted() {
        let idx = churned_index();
        let live = idx.pool().live() as u64;
        let (_, st) = drain(&mut *idx.cursor(&[0.0, 0.0, 0.0], None));
        assert_eq!(st.dist_computations, live);
        let mut plain = idx.clone();
        plain.set_tile_enabled(false);
        let (_, st) = drain(&mut *plain.cursor(&[0.0, 0.0, 0.0], None));
        assert_eq!(st.dist_computations, live);
    }
}
