//! Reusable per-query working memory for batch RkNN execution.
//!
//! The paper's experiments (§7) answer an RkNN query from *every* point of
//! the dataset, and its cost model is dominated by metric evaluations. When
//! millions of queries stream through one engine, the per-query setup cost —
//! a fresh cursor heap, a fresh filter vector, pointer-chasing
//! `index.point(id)` lookups in the witness pass — becomes pure overhead.
//! [`QueryScratch`] bundles the buffers the filter–refinement engine needs
//! so a worker allocates them once and reuses them for every query it
//! executes:
//!
//! * [`CursorScratch`] — neighbor storage an index cursor fills in place of
//!   allocating its own heap;
//! * a filter vector of [`FilterCandidate`] bookkeeping slots;
//! * a [`CandidateTile`] — a row-major, lane-padded copy of the filter
//!   set's coordinates, so the witness pass streams the SIMD tile kernel
//!   ([`crate::Metric::dist_tile`]) over contiguous cache-local memory
//!   instead of chasing ids back into the index;
//! * a [`TileEvalScratch`] — the padded query, bounds, and output buffers
//!   one tile evaluation needs;
//! * the refinement phase's group buffers — the candidates whose `d_k`
//!   missed the cache, with their running `k` smallest distances.

use crate::bestfirst::BestFirst;
use crate::kernel;
use crate::neighbor::Neighbor;
use crate::select::BoundedSelection;
use crate::PointId;

/// Working buffers for one-query-to-many-rows tile evaluation
/// ([`crate::Metric::dist_tile`]): the zero-padded query, optional gathered
/// rows, per-row bounds, and per-row outputs. Reused across queries; all
/// invariants (pad coordinates stay zero) are maintained by the accessors.
#[derive(Debug, Clone, Default)]
pub struct TileEvalScratch {
    /// The query padded with zeros to the tile stride.
    pub qpad: Vec<f64>,
    /// Point ids pending tile evaluation (used by gather-style callers,
    /// e.g. the tree-traversal point batch).
    pub ids: Vec<PointId>,
    /// Gathered padded rows (`ids.len() * stride` coordinates, zeros past
    /// each row's logical dim).
    pub rows: Vec<f64>,
    /// Per-row pruning bounds.
    pub bounds: Vec<f64>,
    /// Per-row outputs (distance, or NaN when pruned).
    pub out: Vec<f64>,
    /// The logical dim the `rows` buffer is currently laid out for; a
    /// layout change re-zeroes the buffer so stale coordinates can never
    /// masquerade as padding.
    layout_dim: usize,
}

impl TileEvalScratch {
    /// Empty tile scratch.
    pub fn new() -> Self {
        TileEvalScratch::default()
    }

    /// Zero-pads `q` into [`TileEvalScratch::qpad`] and returns the stride.
    pub fn set_query(&mut self, q: &[f64]) -> usize {
        let stride = kernel::pad_dim(q.len());
        self.qpad.clear();
        self.qpad.resize(stride, 0.0);
        self.qpad[..q.len()].copy_from_slice(q);
        stride
    }

    /// Makes `rows` hold at least `n` rows of `pad_dim(dim)` coordinates
    /// with all pad positions zero, plus matching `bounds`/`out` capacity.
    /// Returns the stride.
    pub fn ensure_rows(&mut self, dim: usize, n: usize) -> usize {
        let stride = kernel::pad_dim(dim);
        if self.layout_dim != dim {
            // A different row layout may have left nonzero values where the
            // new layout expects padding; start from a clean buffer.
            self.rows.clear();
            self.layout_dim = dim;
        }
        if self.rows.len() < n * stride {
            self.rows.resize(n * stride, 0.0);
        }
        if self.bounds.len() < n {
            self.bounds.resize(n, 0.0);
        }
        if self.out.len() < n {
            self.out.resize(n, 0.0);
        }
        stride
    }

    /// Copies logical coordinates into row `i` (pad positions untouched —
    /// they are zero by the [`TileEvalScratch::ensure_rows`] invariant).
    #[inline]
    pub fn fill_row(&mut self, i: usize, coords: &[f64]) {
        let stride = kernel::pad_dim(self.layout_dim);
        debug_assert_eq!(coords.len(), self.layout_dim);
        self.rows[i * stride..i * stride + coords.len()].copy_from_slice(coords);
    }
}

/// Caller-owned neighbor storage for an index cursor.
///
/// An index's scratch-accepting cursor entry point fills `entries` instead
/// of building its own container; the buffer's capacity survives across
/// queries. See `rknn_index::KnnIndex::cursor_with`.
#[derive(Debug, Clone, Default)]
pub struct CursorScratch {
    /// Neighbor records owned by the current cursor. Contents are
    /// meaningful only while that cursor is live.
    pub entries: Vec<Neighbor>,
    /// Working memory for best-first tree traversals; reused across
    /// queries by every tree substrate's generic cursor.
    pub tree: TreeScratch,
    /// Tile-evaluation buffers for sequential-scan fast paths.
    pub tiles: TileEvalScratch,
}

impl CursorScratch {
    /// An empty scratch buffer.
    pub fn new() -> Self {
        CursorScratch::default()
    }
}

/// Reusable working memory for one best-first tree traversal.
///
/// The generic tree cursor (`rknn_index::traversal::TreeCursor`) owns no
/// containers of its own: the traversal queue, the bounded-mode selection
/// of queued points, the leaf-point tile batch and the staged child
/// pivots all live here, so a batch worker that opens thousands of
/// cursors allocates them once and reuses their capacity for every query.
/// All are cleared (allocation kept) each time a cursor is opened on the
/// scratch.
#[derive(Debug, Clone, Default)]
pub struct TreeScratch {
    /// The best-first queue of points and expandable nodes.
    pub queue: BestFirst,
    /// Bounded mode: every point the queue admitted, selected lazily down
    /// to the `limit` smallest `(distance, id)` keys. Its threshold is the
    /// pruning bound. Empty and unused for unbounded cursors.
    pub select: BoundedSelection,
    /// Gather-tile buffers for batched candidate-point and child-pivot
    /// evaluation.
    pub tiles: TileEvalScratch,
    /// Child subtrees staged by the current expansion for one batched
    /// pivot evaluation: `(node, pivot point, covering radius)`.
    pub children: Vec<(usize, PointId, f64)>,
}

impl TreeScratch {
    /// Empty traversal scratch.
    pub fn new() -> Self {
        TreeScratch::default()
    }

    /// Clears the queue, the selection and any pending tile batch, keeping
    /// allocations, and starts a selection of the `limit` smallest points
    /// (`usize::MAX` for a traversal that is not bounded).
    pub fn reset(&mut self, limit: usize) {
        self.queue.clear();
        self.select.reset(limit);
        self.tiles.ids.clear();
        self.children.clear();
    }
}

/// Per-candidate bookkeeping of the filter–refinement engine: the state
/// Algorithm 1 tracks for every member of the filter set `F`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterCandidate {
    /// The candidate's point id.
    pub id: PointId,
    /// Its distance from the query, `d(q, ·)`.
    pub dist: f64,
    /// Witness count `W(·)`.
    pub witnesses: usize,
    /// Whether the candidate was lazily accepted (Assertion 2).
    pub accepted: bool,
}

/// A contiguous row-major tile of candidate coordinates, rows padded with
/// zeros to the canonical lane multiple.
///
/// Rows are appended as candidates join the filter set; row `i` holds the
/// coordinates of the `i`-th filter member, so a witness pass can iterate
/// the filter vector and the tile in lockstep over cache-local memory — or
/// stream whole blocks of rows through [`crate::Metric::dist_tile`] via
/// [`CandidateTile::padded`]. The row accessors ([`CandidateTile::row`],
/// [`CandidateTile::rows`]) return the logical (unpadded) slices.
#[derive(Debug, Clone)]
pub struct CandidateTile {
    dim: usize,
    stride: usize,
    len: usize,
    coords: Vec<f64>,
}

impl CandidateTile {
    /// An empty tile for points of dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "CandidateTile requires dim > 0");
        CandidateTile {
            dim,
            stride: kernel::pad_dim(dim),
            len: 0,
            coords: Vec::new(),
        }
    }

    /// Dimensionality of the stored rows.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Length of one stored (padded) row.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of stored rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tile holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one row, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()`.
    #[inline]
    pub fn push(&mut self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.dim, "tile row dimensionality mismatch");
        let idx = self.len;
        self.coords.extend_from_slice(row);
        self.coords.resize((idx + 1) * self.stride, 0.0);
        self.len += 1;
        idx
    }

    /// The logical coordinates of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.len, "tile row {i} out of bounds");
        &self.coords[i * self.stride..i * self.stride + self.dim]
    }

    /// Iterates over the stored rows (logical slices) in insertion order.
    #[inline]
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.coords
            .chunks_exact(self.stride.max(1))
            .map(move |c| &c[..self.dim])
    }

    /// The padded row-major buffer (`len() * stride()` coordinates); rows
    /// `a..b` occupy `padded()[a * stride..b * stride]`.
    #[inline]
    pub fn padded(&self) -> &[f64] {
        &self.coords
    }

    /// Clears the rows, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.coords.clear();
        self.len = 0;
    }

    /// Re-targets the tile at a (possibly different) dimensionality,
    /// clearing any rows but keeping the allocation.
    pub fn reset(&mut self, dim: usize) {
        assert!(dim > 0, "CandidateTile requires dim > 0");
        self.dim = dim;
        self.stride = kernel::pad_dim(dim);
        self.coords.clear();
        self.len = 0;
    }
}

/// All working memory one worker needs to execute RkNN queries back to
/// back without allocating per query.
///
/// The buffers are independent fields so the engine can borrow them
/// simultaneously (the cursor holds `cursor` while the witness pass mutates
/// `filter` and streams `wtile` output blocks over `tile`).
#[derive(Debug, Clone)]
pub struct QueryScratch {
    /// Storage for the index cursor.
    pub cursor: CursorScratch,
    /// The filter set's bookkeeping slots.
    pub filter: Vec<FilterCandidate>,
    /// The filter set's coordinates, row-aligned with `filter`.
    pub tile: CandidateTile,
    /// Tile-evaluation buffers for the witness pass (padded candidate
    /// point, per-block bounds and outputs) and for the refinement
    /// phase's group verification (one gathered tile of ball rows).
    pub wtile: TileEvalScratch,
    /// Ascending indices into `filter` of the members whose witness census
    /// is still open (not lazily accepted, fewer than `k` witnesses).
    pub open: Vec<usize>,
    /// The refinement phase's `d_k` cache misses: each one's index into
    /// `filter` and its upper bound on `d_k` from the filter set.
    pub misses: Vec<(usize, f64)>,
    /// `k` slots per miss: its `k` smallest distances found so far,
    /// ascending, `+∞` where none yet.
    pub nearest: Vec<f64>,
}

impl QueryScratch {
    /// Fresh scratch for queries over points of dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        QueryScratch {
            cursor: CursorScratch::new(),
            filter: Vec::new(),
            tile: CandidateTile::new(dim),
            wtile: TileEvalScratch::new(),
            open: Vec::new(),
            misses: Vec::new(),
            nearest: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_round_trips_rows() {
        let mut tile = CandidateTile::new(3);
        assert!(tile.is_empty());
        assert_eq!(tile.push(&[1.0, 2.0, 3.0]), 0);
        assert_eq!(tile.push(&[4.0, 5.0, 6.0]), 1);
        assert_eq!(tile.len(), 2);
        assert_eq!(tile.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(tile.row(1), &[4.0, 5.0, 6.0]);
        let rows: Vec<&[f64]> = tile.rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], &[4.0, 5.0, 6.0]);
        tile.clear();
        assert!(tile.is_empty());
        assert_eq!(tile.dim(), 3);
    }

    #[test]
    fn tile_pads_rows_to_lane_multiple() {
        let mut tile = CandidateTile::new(3);
        assert_eq!(tile.stride(), 4);
        tile.push(&[1.0, 2.0, 3.0]);
        tile.push(&[4.0, 5.0, 6.0]);
        assert_eq!(tile.padded().len(), 2 * tile.stride());
        assert_eq!(tile.padded(), &[1.0, 2.0, 3.0, 0.0, 4.0, 5.0, 6.0, 0.0]);
        // Logical accessors never expose the pads.
        assert_eq!(tile.row(1).len(), 3);
        assert!(tile.rows().all(|r| r.len() == 3));
        // A lane-multiple dim needs no padding.
        tile.reset(4);
        assert_eq!(tile.stride(), 4);
        tile.push(&[1.0; 4]);
        assert_eq!(tile.padded().len(), 4);
    }

    #[test]
    fn tile_reset_retargets_dimension() {
        let mut tile = CandidateTile::new(2);
        tile.push(&[1.0, 2.0]);
        tile.reset(4);
        assert!(tile.is_empty());
        assert_eq!(tile.dim(), 4);
        tile.push(&[0.0; 4]);
        assert_eq!(tile.len(), 1);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn tile_rejects_wrong_width() {
        let mut tile = CandidateTile::new(2);
        tile.push(&[1.0]);
    }

    #[test]
    fn tile_eval_scratch_maintains_zero_pads() {
        let mut t = TileEvalScratch::new();
        let stride = t.set_query(&[1.0, 2.0, 3.0]);
        assert_eq!(stride, 4);
        assert_eq!(t.qpad, vec![1.0, 2.0, 3.0, 0.0]);
        let stride = t.ensure_rows(3, 2);
        t.fill_row(0, &[5.0, 6.0, 7.0]);
        t.fill_row(1, &[8.0, 9.0, 10.0]);
        assert_eq!(
            &t.rows[..2 * stride],
            &[5.0, 6.0, 7.0, 0.0, 8.0, 9.0, 10.0, 0.0]
        );
        // Re-layout at a different dim re-zeroes, so old coordinates can't
        // leak into the new layout's pad positions.
        let stride2 = t.ensure_rows(2, 2);
        assert_eq!(stride2, 4);
        t.fill_row(0, &[1.0, 2.0]);
        assert_eq!(&t.rows[..stride2], &[1.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn scratch_fields_borrow_independently() {
        let mut s = QueryScratch::new(2);
        let QueryScratch {
            cursor,
            filter,
            tile,
            wtile,
            open,
            misses,
            nearest,
        } = &mut s;
        cursor.entries.push(Neighbor::new(0, 1.0));
        filter.push(FilterCandidate {
            id: 0,
            dist: 1.0,
            witnesses: 0,
            accepted: false,
        });
        tile.push(&[0.5, 0.5]);
        wtile.set_query(&[0.5, 0.5]);
        open.push(0);
        misses.push((0, 1.0));
        nearest.push(f64::INFINITY);
        assert_eq!(s.cursor.entries.len(), 1);
        assert_eq!(s.filter.len(), 1);
        assert_eq!(s.tile.len(), 1);
        assert_eq!(s.wtile.qpad.len(), 4);
        assert_eq!(s.open, [0]);
        assert_eq!(s.misses, [(0, 1.0)]);
        assert_eq!(s.nearest, [f64::INFINITY]);
    }
}
