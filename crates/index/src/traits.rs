//! The index abstraction RDT and the baselines are written against.

use rknn_core::{CursorScratch, Dataset, Metric, Neighbor, PointId, SearchStats};

/// An incremental nearest-neighbor stream.
///
/// Successive calls to [`NnCursor::next`] return the points of the indexed
/// set in exact nondecreasing order of distance from the query, each exactly
/// once, until the set is exhausted. This is the only capability RDT's
/// expanding filter phase requires of its substrate.
pub trait NnCursor {
    /// The next nearest unreported neighbor, or `None` when exhausted.
    fn next(&mut self) -> Option<Neighbor>;

    /// Work performed by this cursor so far.
    fn stats(&self) -> SearchStats;
}

/// A forward-kNN index over a point set.
///
/// `knn`, `range` and `range_count` have default implementations in terms of
/// the incremental cursor; substrates override them where a direct traversal
/// is cheaper. The `exclude` parameter implements the self-excluding
/// convention of `DESIGN.md` §2 for queries located at dataset points.
///
/// # Choosing a cursor entry point
///
/// Three entry points open the same exact stream; they differ in where the
/// working memory lives and how much the substrate may prune:
///
/// * [`KnnIndex::cursor`] — self-owned buffers, allocated per call. Use for
///   one-off queries and exploratory code; nothing to thread through.
/// * [`KnnIndex::cursor_with`] — fills a caller-owned [`CursorScratch`]
///   instead of allocating. Use whenever one worker issues many queries
///   (batch drivers, verification loops): buffer capacity is amortized
///   across all of them. Stream and distances are bit-identical to
///   [`KnnIndex::cursor`].
/// * [`KnnIndex::cursor_bounded`] — additionally promises the substrate the
///   caller drains at most `limit` entries, unlocking threshold pruning
///   against one [`rknn_core::BoundedSelection`] of the `limit` nearest:
///   the sequential scan selects its table with it, and the shared tree
///   traversal core offers it every queued point and prunes points and
///   subtrees at its threshold. Use whenever a drain bound
///   is known up front — RDT's filter phase under a fixed scale parameter,
///   or a plain k-nearest drain. The first `limit` entries are identical to
///   the unbounded stream; entries past the bound may be missing.
///
/// All five tree substrates route the three entry points through the
/// generic [`crate::traversal::TreeCursor`], so their statistics are
/// counted uniformly and their scratch reuse comes from the same
/// [`rknn_core::TreeScratch`].
pub trait KnnIndex<M: Metric>: Send + Sync {
    /// Number of live points in the index.
    fn num_points(&self) -> usize;

    /// Whether `id` names a live, queryable point. The default assumes a
    /// dense id space (`0..num_points()`); tombstoning substrates override
    /// it so ids churned in past the live count validate and ids churned
    /// out reject — this is the check serving drivers apply at submit.
    fn has_point(&self, id: PointId) -> bool {
        id < self.num_points()
    }

    /// One past the largest id ever assigned, live or not: the live ids
    /// are exactly `(0..id_bound()).filter(|&id| has_point(id))`. The
    /// default assumes a dense id space (`num_points()`); tombstoning
    /// substrates override it with their pool's total, which counts ids
    /// churned in past the live count.
    fn id_bound(&self) -> usize {
        self.num_points()
    }

    /// Dimensionality of the indexed points.
    fn dim(&self) -> usize;

    /// Coordinates of a (live or historical) point id.
    fn point(&self, id: PointId) -> &[f64];

    /// The metric the index was built with.
    fn metric(&self) -> &M;

    /// A human-readable substrate name for experiment reports.
    fn name(&self) -> &'static str;

    /// The indexed points as one contiguous, identity-mapped [`Dataset`]
    /// (`Some` only when ids `0..dataset.len()` are exactly the live points
    /// of this index, in order). Scans over *all* points — ground-truth
    /// passes, all-pairs evaluation — use this to stream the dataset's
    /// padded rows through [`Metric::dist_tile`] instead of calling
    /// [`KnnIndex::point`] per id; the default (`None`) keeps them on the
    /// per-point path.
    fn base_rows(&self) -> Option<&Dataset> {
        None
    }

    /// Opens an incremental nearest-neighbor stream from `q`.
    fn cursor<'a>(&'a self, q: &'a [f64], exclude: Option<PointId>) -> Box<dyn NnCursor + 'a>;

    /// Opens an incremental nearest-neighbor stream from `q`, reusing
    /// caller-owned working memory.
    ///
    /// Substrates that materialize per-query state (the sequential scan's
    /// distance table, for example) override this to fill
    /// `scratch.entries` instead of allocating their own container, so a
    /// batch driver that issues many queries per worker amortizes the
    /// buffer across all of them. The stream contract is identical to
    /// [`KnnIndex::cursor`]; the default implementation simply ignores the
    /// scratch and takes the boxed path.
    fn cursor_with<'a>(
        &'a self,
        q: &'a [f64],
        exclude: Option<PointId>,
        scratch: &'a mut CursorScratch,
    ) -> Box<dyn NnCursor + 'a> {
        let _ = scratch;
        self.cursor(q, exclude)
    }

    /// Opens a nearest-neighbor stream that the caller promises to drain at
    /// most `limit` entries from.
    ///
    /// The stream must yield the `limit` nearest neighbors (fewer when the
    /// index holds fewer) in exact nondecreasing order, and *may* yield
    /// more — the default implementation delegates to
    /// [`KnnIndex::cursor_with`] and yields everything. Substrates can use
    /// the bound to prune: the sequential scan and the tree substrates
    /// keep a [`rknn_core::BoundedSelection`] of the `limit` nearest and
    /// abandon each candidate's distance accumulation against its
    /// threshold ([`Metric::dist_lt`]); the trees also drop subtrees whose
    /// lower bound exceeds it. A `limit` at or above the live count prunes
    /// nothing, and `usize::MAX` is a valid bound: an implementation must
    /// not double it without saturating. RDT's filter phase under a fixed
    /// scale parameter never drains past its rank cap `⌊2^t·k⌋`, which is
    /// exactly this bound.
    fn cursor_bounded<'a>(
        &'a self,
        q: &'a [f64],
        exclude: Option<PointId>,
        limit: usize,
        scratch: &'a mut CursorScratch,
    ) -> Box<dyn NnCursor + 'a> {
        let _ = limit;
        self.cursor_with(q, exclude, scratch)
    }

    /// The `k` nearest neighbors of `q`, ascending by distance.
    ///
    /// Returns fewer than `k` when the index holds fewer points.
    fn knn(
        &self,
        q: &[f64],
        k: usize,
        exclude: Option<PointId>,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let mut cur = self.cursor(q, exclude);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            match cur.next() {
                Some(n) => out.push(n),
                None => break,
            }
        }
        stats.absorb(&cur.stats());
        out
    }

    /// Every live point other than `exclude` whose computed distance from
    /// `q` is at most `r`, in no particular order. At `r = +∞` that is
    /// every such point, distances that overflow to `+∞` included.
    ///
    /// The default drains a boxed cursor. `LinearScan`, `RTree`,
    /// `CoverTree` and `VpTree` override it with one direct walk over the
    /// points the ball may hold (the two metric trees prune with the
    /// rounding-safe [`triangle_lower`](rknn_core::triangle_lower), and the
    /// cover tree evaluates the subtrees it flattens in gathered tiles);
    /// `BallTree` and `MTree` keep the default. No override sorts: RDT's
    /// group verification, which verifies all of a query's `d_k` cache
    /// misses from one call around the query (`DESIGN.md` §2), keeps each
    /// miss's `k` smallest distance values, which do not depend on the
    /// order.
    fn range(
        &self,
        q: &[f64],
        r: f64,
        exclude: Option<PointId>,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let mut cur = self.cursor(q, exclude);
        let mut out = Vec::new();
        while let Some(n) = cur.next() {
            if n.dist > r {
                break;
            }
            out.push(n);
        }
        stats.absorb(&cur.stats());
        out
    }

    /// Number of live points other than `exclude` whose computed distance
    /// from `q` is at most `r` (below `r` when `strict`): the size of
    /// [`KnnIndex::range`]'s ball, or of the open ball. At `r = +∞` the
    /// closed count includes distances that overflow to `+∞` and the
    /// strict one leaves them out. This is the "count range query"
    /// primitive of SFT.
    fn range_count(
        &self,
        q: &[f64],
        r: f64,
        strict: bool,
        exclude: Option<PointId>,
        stats: &mut SearchStats,
    ) -> usize {
        let mut cur = self.cursor(q, exclude);
        let mut count = 0;
        while let Some(n) = cur.next() {
            if (strict && n.dist >= r) || (!strict && n.dist > r) {
                break;
            }
            count += 1;
        }
        stats.absorb(&cur.stats());
        count
    }
}

/// An index supporting online insertion and deletion.
///
/// Removal is by tombstone: the substrate keeps the dead point's
/// coordinates addressable (so [`KnnIndex::point`] stays valid for
/// historical ids) but excludes it from every stream, count, and result.
/// Ids are append-only — an insert never reuses a tombstoned id, and
/// [`DynamicIndex::compact`] never renumbers, so ids remain stable for the
/// lifetime of the index.
pub trait DynamicIndex<M: Metric>: KnnIndex<M> {
    /// Inserts a new point, returning its id.
    fn insert(&mut self, point: &[f64]) -> Result<PointId, rknn_core::CoreError>;

    /// Removes a point; returns whether it was present and live.
    fn remove(&mut self, id: PointId) -> bool;

    /// Rebuilds the navigation structure over the live points only,
    /// unlinking accumulated tombstones from the traversal (their
    /// coordinates stay addressable and their ids stay retired). Query
    /// results are unchanged — compaction only removes dead weight the
    /// tombstone-skipping contract was already filtering. The default is a
    /// no-op, correct for substrates (like the sequential scan) whose scan
    /// cost already degrades gracefully with tombstone count.
    fn compact(&mut self) {}

    /// Whether the substrate's rebuild-threshold policy recommends
    /// [`DynamicIndex::compact`] now (typically: tombstones exceed a fixed
    /// fraction of stored rows, see [`crate::RebuildPolicy`]). Advisory —
    /// callers choose when to pay the rebuild.
    fn needs_compaction(&self) -> bool {
        false
    }
}
