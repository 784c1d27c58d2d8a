//! The generic best-first traversal core shared by every tree substrate.
//!
//! The five tree indexes of this crate (cover tree, VP-tree, ball tree,
//! M-tree, R-tree) all answer incremental NN queries the same way: pop the
//! entry with the smallest key from a [`rknn_core::bestfirst::BestFirst`]
//! queue, emit it if it is
//! a point, expand it into child lower bounds and candidate points if it is
//! a node. Only the *expansion step* differs between them. This module
//! factors the shared loop into one [`TreeCursor`] driven by a per-substrate
//! [`TreeSubstrate`] implementation, so that
//!
//! * every metric evaluation, node visit and heap push is counted in one
//!   place ([`SearchStats`] accounting is uniform by construction);
//! * the traversal queue and the bounded-mode selection live in a
//!   caller-owned [`TreeScratch`] ([`rknn_core::CursorScratch`]`::tree`), so
//!   batch drivers amortize their buffers across queries on **any**
//!   substrate;
//! * bounded cursors ([`crate::KnnIndex::cursor_bounded`]) prune on every
//!   substrate: each queued point is also offered to a
//!   [`rknn_core::BoundedSelection`] of the `limit` smallest `(distance,
//!   id)` keys — the type the sequential scan selects with — candidate
//!   distances are evaluated through [`Metric::dist_lt`] against its
//!   threshold, and subtrees whose lower bound exceeds the threshold are
//!   dropped without being pushed;
//! * candidate points emitted by an expansion are batched (their padded
//!   coordinates gathered into the scratch tile) and evaluated by one
//!   [`Metric::dist_tile`] kernel call per batch — every substrate's leaf
//!   scan runs at SIMD speed, with decisions, streams, and counters
//!   byte-identical to per-point evaluation;
//! * child subtrees covered by a ball around a routing point
//!   ([`ExpandSink::covered_child`]) are staged the same way: one
//!   expansion's child pivots are gathered into the tile and evaluated by
//!   one [`Metric::dist_tile`] call, byte-identical to one
//!   [`ExpandSink::pivot`] call per child;
//! * every future hot-path optimization of the loop benefits all substrates
//!   at once.
//!
//! Every distance — pivot checks, tile batches, lower bounds — flows
//! through the one [`Metric`] instance, and its per-point and tile
//! evaluations agree bitwise, so pruning decisions stay consistent with
//! emitted distances.
//!
//! # Bounded-mode soundness
//!
//! With a drain bound of `limit`, every point the queue admits is also
//! appended to the selection, which is cut back to its `limit` smallest
//! `(distance, id)` keys whenever it holds `2·limit`. The `limit`-th key
//! after the last cut is the threshold `τ`; there is none before the first
//! cut. `τ` is a certificate: each of the `limit` kept entries was queued,
//! so it is still queued or already emitted, and its key is `≤ τ`. Queued
//! points are never removed and the queue pops in key order, so at least
//! `limit` points with key `≤ τ` are emitted before any entry whose key
//! exceeds `τ`. A candidate point with key `≥ τ` (strictly: it ranks at or
//! behind `limit` kept keys), or a subtree whose distance lower bound is
//! `> τ.dist`, therefore cannot contribute to the first `limit` emissions
//! and may be discarded. `τ` only tightens, at cuts, so a discard can never
//! be invalidated later; the first `limit` emissions are *identical* to the
//! unbounded stream's prefix (pruning removes only entries the unbounded
//! traversal would pop after `limit` points have already been emitted).
//! Between cuts `τ` is looser than the `limit`-th smallest key queued so
//! far, so a bounded cursor queues more than the tightest bound would; it
//! evaluates the same distances and visits the same nodes before its
//! `limit`-th emission either way, and it pays one append per queued point
//! instead of a heap push and pop. A `limit` at or above the live count
//! prunes nothing, so [`tree_cursor_bounded`] opens an unbounded
//! traversal for it.
//!
//! Distance evaluations against the threshold go through
//! [`Metric::dist_lt`] with bound `τ.dist.next_up()` (candidate points) or
//! `(τ.dist + reach).next_up()` (pivots whose children subtract up to
//! `reach` from the distance), so an accumulation abandons as soon as the
//! point — and every subtree bound derived from it — is provably beyond the
//! threshold. A completed evaluation carries the identical floating-point
//! value `dist` would produce, so emitted streams are bit-identical across
//! the bounded, scratch and boxed entry points.

use crate::traits::{KnnIndex, NnCursor};
use rknn_core::bestfirst::Popped;
use rknn_core::{CursorScratch, Metric, Neighbor, PointId, SearchStats, TreeScratch};
use std::borrow::BorrowMut;
use std::marker::PhantomData;

/// A hierarchical index expressed as nodes that expand into candidate
/// points and covered child subtrees.
///
/// Implementations describe *structure only*: which points and subtrees a
/// node contains and how tight their covering bounds are. All metric
/// evaluations, threshold pruning, statistics, and queue management happen
/// inside the [`ExpandSink`] the generic [`TreeCursor`] passes in, so a
/// substrate cannot get the accounting or the stream contract wrong.
pub trait TreeSubstrate<M: Metric>: Send + Sync + Sized {
    /// The metric the index was built with.
    fn metric(&self) -> &M;

    /// Coordinates of a (live or tombstoned) point id.
    fn coords(&self, id: PointId) -> &[f64];

    /// Whether a point may be emitted (`false` for tombstoned points that
    /// still route the search).
    fn is_emittable(&self, _id: PointId) -> bool {
        true
    }

    /// Seeds the traversal by pushing the root subtree (if any) into the
    /// sink, exactly as [`TreeSubstrate::expand`] pushes children.
    fn seed(&self, sink: &mut ExpandSink<'_, M, Self>);

    /// Expands node `id` into the sink. `d_pivot` is the payload the node
    /// was queued with — the exact query–pivot distance for subtrees pushed
    /// via [`ExpandSink::pivot`] + [`ExpandSink::child`], or NaN for
    /// subtrees queued with a geometric bound only.
    fn expand(&self, id: usize, d_pivot: f64, sink: &mut ExpandSink<'_, M, Self>);
}

/// The receiving side of a node expansion: evaluates, prunes, counts, and
/// queues whatever the substrate describes.
pub struct ExpandSink<'c, M: Metric, S: TreeSubstrate<M>> {
    tree: &'c S,
    q: &'c [f64],
    exclude: Option<PointId>,
    /// Whether the caller drains at most the `limit` the scratch's
    /// selection was reset with; queued points are offered to it only then.
    bounded: bool,
    scratch: &'c mut TreeScratch,
    stats: &'c mut SearchStats,
    _metric: PhantomData<M>,
}

/// Candidate points buffered per expansion before one gather-tile
/// evaluation ([`Metric::dist_tile`]) flushes them.
const POINT_TILE: usize = 64;

/// Below this many pending points a gather-tile gains nothing over the
/// per-point kernel; the flush takes the one-to-one path instead. Both
/// paths make bit-identical decisions, so the cutoff is pure tuning.
const MIN_POINT_TILE: usize = 8;

impl<'c, M: Metric, S: TreeSubstrate<M>> ExpandSink<'c, M, S> {
    /// The query coordinates (for substrates computing their own geometric
    /// bounds, e.g. R-tree box MINDIST).
    pub fn query(&self) -> &[f64] {
        self.q
    }

    /// The current pruning threshold, the bounded selection's. `None`
    /// while unbounded or before the selection's first cut (no pruning
    /// possible).
    fn tau(&self) -> Option<Neighbor> {
        self.scratch.select.threshold()
    }

    /// The `dist_under` bound derived from the threshold: just beyond `τ`
    /// (so exact ties on distance survive to the strict `(dist, id)` check
    /// in `push_point`), or +∞ when unbounded — which must still admit
    /// distances that overflow to +∞, or the completeness contract breaks
    /// on extreme coordinates.
    fn point_bound(&self) -> f64 {
        match self.tau() {
            Some(t) => t.dist.next_up(),
            None => f64::INFINITY,
        }
    }

    /// Queues a candidate point for evaluation against the threshold.
    /// Excluded and tombstoned points are skipped before any evaluation
    /// (and are not counted).
    ///
    /// Consecutive candidate points of one expansion are batched and
    /// evaluated by a single gather-tile kernel call
    /// (`ExpandSink::flush_points`); any interleaving sink operation that
    /// observes the threshold or the queue (pivots, children, known-distance
    /// points, the end of the expansion) flushes first, so the queue and
    /// the selection evolve exactly as in per-point evaluation.
    pub fn point(&mut self, id: PointId) {
        self.flush_children();
        if Some(id) == self.exclude || !self.tree.is_emittable(id) {
            return;
        }
        self.scratch.tiles.ids.push(id);
        if self.scratch.tiles.ids.len() >= POINT_TILE {
            self.flush_points();
        }
    }

    /// Evaluates and queues the pending candidate points.
    ///
    /// The batch is evaluated at a *snapshot* of the threshold; the
    /// threshold only tightens while the batch commits, so a point the
    /// snapshot prunes (`d > τ_snapshot ≥ τ_commit`) would also be pruned
    /// by per-point evaluation, and an admitted point carries the
    /// bit-identical distance into the same strict `(dist, id)` threshold
    /// check `push_point` always applies. Decisions, queue contents,
    /// emitted streams and counters are therefore identical to the
    /// per-point path — the snapshot only trades a little extra coordinate
    /// work for blockwise SIMD evaluation.
    fn flush_points(&mut self) {
        let pending = self.scratch.tiles.ids.len();
        if pending == 0 {
            return;
        }
        let dim = self.q.len();
        if pending < MIN_POINT_TILE || dim == 0 {
            for i in 0..pending {
                let id = self.scratch.tiles.ids[i];
                self.stats.count_dist();
                let bound = self.point_bound();
                if let Some(d) = self
                    .tree
                    .metric()
                    .dist_under(self.q, self.tree.coords(id), bound)
                {
                    self.push_point(Neighbor::new(id, d));
                }
            }
            self.scratch.tiles.ids.clear();
            return;
        }
        let bound = self.point_bound();
        let tiles = &mut self.scratch.tiles;
        let stride = tiles.set_query(self.q);
        tiles.ensure_rows(dim, pending);
        for i in 0..pending {
            let coords = self.tree.coords(tiles.ids[i]);
            tiles.fill_row(i, coords);
        }
        tiles.bounds[..pending].fill(bound);
        let (qpad, rows, bounds, out) = (
            &tiles.qpad,
            &tiles.rows[..pending * stride],
            &tiles.bounds[..pending],
            &mut tiles.out[..pending],
        );
        self.tree
            .metric()
            .dist_tile(qpad, rows, stride, dim, bounds, out);
        for i in 0..pending {
            let id = self.scratch.tiles.ids[i];
            let d = self.scratch.tiles.out[i];
            self.stats.count_dist();
            if d.is_nan() {
                continue;
            }
            self.push_point(Neighbor::new(id, d));
        }
        self.scratch.tiles.ids.clear();
    }

    /// Queues a candidate point whose exact distance is already known
    /// (typically a pivot evaluated earlier via [`ExpandSink::pivot`]); no
    /// distance computation is charged.
    pub fn point_at(&mut self, id: PointId, d: f64) {
        self.flush();
        if Some(id) == self.exclude || !self.tree.is_emittable(id) {
            return;
        }
        self.push_point(Neighbor::new(id, d));
    }

    fn push_point(&mut self, n: Neighbor) {
        // The selection's strict (dist, id) test: a key at or beyond the
        // threshold cannot be among the first `limit` emissions.
        if self.bounded && !self.scratch.select.offer(n) {
            return;
        }
        self.scratch.queue.push_point(n);
        self.stats.count_push();
    }

    /// Evaluates the exact query–pivot distance `d(q, pivot)`, counted as
    /// one distance computation, abandoning (and returning `None`) only
    /// when `d > τ.dist + reach` — i.e. when the pivot itself *and* every
    /// child bound of the form `d − outer` with `outer ≤ reach` are provably
    /// beyond the threshold. `reach` must be at least the largest covering
    /// radius the caller will subtract from the returned distance.
    pub fn pivot(&mut self, pivot: PointId, reach: f64) -> Option<f64> {
        self.flush();
        self.stats.count_dist();
        self.tree.metric().dist_under(
            self.q,
            self.tree.coords(pivot),
            pivot_bound(self.tau(), reach),
        )
    }

    /// Stages child subtree `node`, whose points all lie within `radius`
    /// of its routing point `pivot`. It is queued exactly as
    /// `pivot(pivot, radius)` followed by `child(node, max(d − radius, 0),
    /// d)` would queue it, but the pivots of all children staged in a row
    /// are evaluated together by one batched call
    /// (`ExpandSink::eval_pivots`) when the next sink operation or the end
    /// of the expansion flushes them.
    pub fn covered_child(&mut self, node: usize, pivot: PointId, radius: f64) {
        self.flush_points();
        self.scratch.children.push((node, pivot, radius));
    }

    /// Evaluates the pivots of every staged child at one threshold snapshot
    /// and returns how many there are: `tiles.out[i]` holds the distance
    /// `pivot(pivot_i, radius_i)` would return, or NaN where it would
    /// return `None`.
    ///
    /// Queuing a child never moves the threshold, so per-child `pivot`
    /// calls interleaved with the children's pushes would all see this
    /// same snapshot: bounds, decisions, distance bits and counters are
    /// identical to the per-pivot path. Fewer than [`MIN_POINT_TILE`]
    /// pivots take the per-pivot kernel; more are gathered into the tile
    /// and evaluated by one [`Metric::dist_tile`] call.
    fn eval_pivots(&mut self) -> usize {
        let staged = self.scratch.children.len();
        let dim = self.q.len();
        let (tree, q, tau) = (self.tree, self.q, self.tau());
        let TreeScratch {
            children, tiles, ..
        } = &mut *self.scratch;
        let stride = tiles.ensure_rows(dim, staged);
        if staged < MIN_POINT_TILE || dim == 0 {
            for (&(_, pivot, radius), out) in children.iter().zip(&mut tiles.out) {
                *out = tree
                    .metric()
                    .dist_under(q, tree.coords(pivot), pivot_bound(tau, radius))
                    .unwrap_or(f64::NAN);
            }
        } else {
            tiles.set_query(q);
            for (i, &(_, pivot, radius)) in children.iter().enumerate() {
                tiles.fill_row(i, tree.coords(pivot));
                tiles.bounds[i] = pivot_bound(tau, radius);
            }
            tree.metric().dist_tile(
                &tiles.qpad,
                &tiles.rows[..staged * stride],
                stride,
                dim,
                &tiles.bounds[..staged],
                &mut tiles.out[..staged],
            );
        }
        self.stats.count_dists(staged as u64);
        staged
    }

    /// Evaluates and queues the staged children.
    fn flush_children(&mut self) {
        if self.scratch.children.is_empty() {
            return;
        }
        let staged = self.eval_pivots();
        for i in 0..staged {
            let (node, _, radius) = self.scratch.children[i];
            let d = self.scratch.tiles.out[i];
            if !d.is_nan() {
                self.push_child(node, (d - radius).max(0.0), d);
            }
        }
        self.scratch.children.clear();
    }

    /// Evaluates and queues everything pending: at most one of the point
    /// batch and the staged children is non-empty, since staging either
    /// flushes the other.
    fn flush(&mut self) {
        self.flush_points();
        self.flush_children();
    }

    /// Queues a child subtree with distance lower bound `lower` and payload
    /// `d_pivot` (handed back verbatim to [`TreeSubstrate::expand`]).
    /// Subtrees provably beyond the threshold are dropped.
    pub fn child(&mut self, node: usize, lower: f64, d_pivot: f64) {
        self.flush();
        self.push_child(node, lower, d_pivot);
    }

    fn push_child(&mut self, node: usize, lower: f64, d_pivot: f64) {
        if let Some(t) = self.tau() {
            if lower > t.dist {
                return;
            }
        }
        self.scratch.queue.push_node(node, lower, d_pivot);
        self.stats.count_push();
    }
}

/// The `dist_under` bound of a pivot whose children subtract up to `reach`
/// from its distance, against threshold `tau`.
fn pivot_bound(tau: Option<Neighbor>, reach: f64) -> f64 {
    match tau {
        Some(t) => (t.dist + reach).next_up(),
        None => f64::INFINITY,
    }
}

/// The generic incremental NN cursor over any [`TreeSubstrate`].
///
/// Generic over scratch ownership: the boxed [`crate::KnnIndex::cursor`]
/// path owns a fresh [`TreeScratch`], while the
/// [`crate::KnnIndex::cursor_with`] / `cursor_bounded` paths borrow the
/// caller's, so batch drivers reuse the heap allocations across queries.
pub struct TreeCursor<'a, M: Metric, S: TreeSubstrate<M>, T: BorrowMut<TreeScratch>> {
    tree: &'a S,
    q: &'a [f64],
    exclude: Option<PointId>,
    bounded: bool,
    scratch: T,
    stats: SearchStats,
    _metric: PhantomData<M>,
}

impl<'a, M: Metric, S: TreeSubstrate<M>, T: BorrowMut<TreeScratch>> TreeCursor<'a, M, S, T> {
    /// Opens a cursor over `tree` from `q`, resetting (but not
    /// reallocating) `scratch` and seeding the traversal. `limit` of
    /// `Some(l)` promises the caller drains at most `l` entries and enables
    /// threshold pruning.
    pub fn new(
        tree: &'a S,
        q: &'a [f64],
        exclude: Option<PointId>,
        limit: Option<usize>,
        mut scratch: T,
    ) -> Self {
        scratch.borrow_mut().reset(limit.unwrap_or(usize::MAX));
        let mut cursor = TreeCursor {
            tree,
            q,
            exclude,
            bounded: limit.is_some(),
            scratch,
            stats: SearchStats::new(),
            _metric: PhantomData,
        };
        // A zero bound means nothing may be drained: leave the queue empty.
        if limit != Some(0) {
            let mut sink = ExpandSink {
                tree: cursor.tree,
                q: cursor.q,
                exclude: cursor.exclude,
                bounded: cursor.bounded,
                scratch: cursor.scratch.borrow_mut(),
                stats: &mut cursor.stats,
                _metric: PhantomData,
            };
            tree.seed(&mut sink);
            sink.flush();
        }
        cursor
    }
}

impl<'a, M: Metric, S: TreeSubstrate<M>, T: BorrowMut<TreeScratch>> NnCursor
    for TreeCursor<'a, M, S, T>
{
    fn next(&mut self) -> Option<Neighbor> {
        loop {
            match self.scratch.borrow_mut().queue.pop()? {
                Popped::Point(n) => return Some(n),
                Popped::Node { id, payload, .. } => {
                    self.stats.count_node();
                    let mut sink = ExpandSink {
                        tree: self.tree,
                        q: self.q,
                        exclude: self.exclude,
                        bounded: self.bounded,
                        scratch: self.scratch.borrow_mut(),
                        stats: &mut self.stats,
                        _metric: PhantomData,
                    };
                    self.tree.expand(id, payload, &mut sink);
                    sink.flush();
                }
            }
        }
    }

    fn stats(&self) -> SearchStats {
        self.stats
    }
}

/// Boxed unbounded cursor with self-owned scratch — the
/// [`crate::KnnIndex::cursor`] implementation for tree substrates.
pub fn tree_cursor<'a, M, S>(
    tree: &'a S,
    q: &'a [f64],
    exclude: Option<PointId>,
) -> Box<dyn NnCursor + 'a>
where
    M: Metric + 'a,
    S: TreeSubstrate<M>,
{
    Box::new(TreeCursor::new(tree, q, exclude, None, TreeScratch::new()))
}

/// Unbounded cursor over caller-owned scratch — the
/// [`crate::KnnIndex::cursor_with`] implementation for tree substrates.
pub fn tree_cursor_with<'a, M, S>(
    tree: &'a S,
    q: &'a [f64],
    exclude: Option<PointId>,
    scratch: &'a mut CursorScratch,
) -> Box<dyn NnCursor + 'a>
where
    M: Metric + 'a,
    S: TreeSubstrate<M>,
{
    Box::new(TreeCursor::new(tree, q, exclude, None, &mut scratch.tree))
}

/// Threshold-pruned cursor over caller-owned scratch — the
/// [`crate::KnnIndex::cursor_bounded`] implementation for tree substrates.
/// A nonzero `limit` at or above the live count prunes nothing, so it opens
/// the unbounded traversal and keeps no selection.
pub fn tree_cursor_bounded<'a, M, S>(
    tree: &'a S,
    q: &'a [f64],
    exclude: Option<PointId>,
    limit: usize,
    scratch: &'a mut CursorScratch,
) -> Box<dyn NnCursor + 'a>
where
    M: Metric + 'a,
    S: TreeSubstrate<M> + KnnIndex<M>,
{
    let limit = (limit == 0 || limit < tree.num_points()).then_some(limit);
    Box::new(TreeCursor::new(tree, q, exclude, limit, &mut scratch.tree))
}

#[cfg(test)]
mod tests {
    use super::{ExpandSink, MIN_POINT_TILE};
    use crate::{BallTree, CoverTree, KnnIndex, MTree, RTree, VpTree};
    use rknn_core::{
        CursorScratch, Dataset, Euclidean, Neighbor, PointId, SearchStats, TreeScratch,
    };
    use std::marker::PhantomData;
    use std::sync::Arc;

    /// A tie-heavy dataset: coordinates on a coarse half-integer grid.
    fn grid(n: usize, dim: usize) -> Arc<Dataset> {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * 7 + j * 3) % 9) as f64 * 0.5)
                    .collect()
            })
            .collect();
        Dataset::from_rows(&rows).unwrap().into_shared()
    }

    fn drain(mut cur: Box<dyn crate::NnCursor + '_>, cap: usize) -> Vec<Neighbor> {
        let mut out = Vec::new();
        while out.len() < cap {
            match cur.next() {
                Some(n) => out.push(n),
                None => break,
            }
        }
        out
    }

    fn substrates(ds: &Arc<Dataset>) -> Vec<Box<dyn KnnIndex<Euclidean>>> {
        vec![
            Box::new(CoverTree::build(ds.clone(), Euclidean)),
            Box::new(VpTree::build(ds.clone(), Euclidean)),
            Box::new(BallTree::build(ds.clone(), Euclidean)),
            Box::new(MTree::build(ds.clone(), Euclidean)),
            Box::new(RTree::build(ds.clone(), Euclidean)),
        ]
    }

    #[test]
    fn bounded_stream_is_the_unbounded_prefix() {
        let ds = grid(120, 2);
        let q = ds.point(11).to_vec();
        let mut scratch = CursorScratch::new();
        for idx in substrates(&ds) {
            let full = drain(idx.cursor(&q, Some(11)), usize::MAX);
            assert_eq!(full.len(), 119, "{}", idx.name());
            for limit in [0usize, 1, 5, 40, 119, 500] {
                let bounded = drain(idx.cursor_bounded(&q, Some(11), limit, &mut scratch), limit);
                assert_eq!(
                    bounded.len(),
                    limit.min(119),
                    "{} limit={limit}",
                    idx.name()
                );
                for (i, (b, f)) in bounded.iter().zip(&full).enumerate() {
                    assert_eq!(b.id, f.id, "{} limit={limit} step={i}", idx.name());
                    assert_eq!(
                        b.dist.to_bits(),
                        f.dist.to_bits(),
                        "{} limit={limit} step={i}",
                        idx.name()
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_cursor_matches_boxed_and_reuses_buffers() {
        let ds = grid(90, 3);
        let mut scratch = CursorScratch::new();
        for idx in substrates(&ds) {
            // Same scratch back to back across queries and substrates.
            for q_id in [0usize, 17, 89] {
                let q = ds.point(q_id).to_vec();
                let boxed = drain(idx.cursor(&q, Some(q_id)), usize::MAX);
                let scratched = drain(idx.cursor_with(&q, Some(q_id), &mut scratch), usize::MAX);
                assert_eq!(boxed.len(), scratched.len(), "{}", idx.name());
                for (b, s) in boxed.iter().zip(&scratched) {
                    assert_eq!(b.id, s.id, "{}", idx.name());
                    assert_eq!(b.dist.to_bits(), s.dist.to_bits(), "{}", idx.name());
                }
            }
        }
    }

    #[test]
    fn bounded_pruning_discards_hopeless_entries() {
        // Draining a bounded cursor *past* its limit exposes the pruning:
        // entries provably outside the first `limit` emissions were never
        // queued, so the stream runs dry long before n — while its first
        // `limit` entries are exactly the unbounded prefix (checked in
        // `bounded_stream_is_the_unbounded_prefix`).
        let ds = grid(400, 4);
        let q = ds.point(0).to_vec();
        let mut scratch = CursorScratch::new();
        for idx in substrates(&ds) {
            let over_drained = drain(
                idx.cursor_bounded(&q, Some(0), 10, &mut scratch),
                usize::MAX,
            );
            assert!(over_drained.len() >= 10, "{}", idx.name());
            assert!(
                over_drained.len() < 399,
                "{}: pruning should discard most of this tie-heavy set, kept {}",
                idx.name(),
                over_drained.len()
            );
        }
    }

    #[test]
    fn exclusion_is_uniform_across_entry_points() {
        let ds = grid(60, 2);
        let q = ds.point(7).to_vec();
        let mut scratch = CursorScratch::new();
        for idx in substrates(&ds) {
            for drained in [
                drain(idx.cursor(&q, Some(7)), usize::MAX),
                drain(idx.cursor_with(&q, Some(7), &mut scratch), usize::MAX),
                drain(idx.cursor_bounded(&q, Some(7), 60, &mut scratch), 60),
            ] {
                assert_eq!(drained.len(), 59, "{}", idx.name());
                assert!(drained.iter().all(|n| n.id != 7), "{}", idx.name());
                let mut seen = std::collections::HashSet::<PointId>::new();
                assert!(drained.iter().all(|n| seen.insert(n.id)), "{}", idx.name());
            }
        }
    }

    #[test]
    fn batched_pivots_match_per_pivot_calls() {
        let ds = grid(200, 5);
        let tree = CoverTree::build(ds.clone(), Euclidean);
        let q = ds.point(3).to_vec();
        type Tree = CoverTree<Euclidean>;
        /// A sink that has seen the same 30 points on both sides: enough
        /// for a bounded selection to cut, so τ is set and pivots can be
        /// pruned.
        fn open<'c>(
            tree: &'c Tree,
            q: &'c [f64],
            limit: Option<usize>,
            scratch: &'c mut TreeScratch,
            stats: &'c mut SearchStats,
        ) -> ExpandSink<'c, Euclidean, Tree> {
            scratch.reset(limit.unwrap_or(usize::MAX));
            let mut sink = ExpandSink {
                tree,
                q,
                exclude: None,
                bounded: limit.is_some(),
                scratch,
                stats,
                _metric: PhantomData,
            };
            for id in 0..30 {
                sink.point(id);
            }
            sink.flush();
            sink
        }
        for limit in [None, Some(4)] {
            for batch in [MIN_POINT_TILE - 1, MIN_POINT_TILE, 3 * MIN_POINT_TILE + 5] {
                let (mut sa, mut sb) = (TreeScratch::new(), TreeScratch::new());
                let (mut ca, mut cb) = (SearchStats::new(), SearchStats::new());
                let mut batched = open(&tree, &q, limit, &mut sa, &mut ca);
                let mut single = open(&tree, &q, limit, &mut sb, &mut cb);
                let tau = batched.tau().map(|t| t.dist);
                assert_eq!(tau.is_some(), limit.is_some());
                let staged: Vec<(PointId, f64)> =
                    (0..batch).map(|i| (44 + i, (i % 4) as f64 * 0.5)).collect();
                for (node, &(pivot, radius)) in staged.iter().enumerate() {
                    batched.covered_child(node, pivot, radius);
                }
                assert_eq!(batched.eval_pivots(), batch);
                let got: Vec<Option<u64>> = batched.scratch.tiles.out[..batch]
                    .iter()
                    .map(|d| (!d.is_nan()).then(|| d.to_bits()))
                    .collect();
                let want: Vec<Option<u64>> = staged
                    .iter()
                    .map(|&(pivot, radius)| single.pivot(pivot, radius).map(f64::to_bits))
                    .collect();
                assert_eq!(got, want, "limit={limit:?} batch={batch}");
                if let Some(t) = tau {
                    // Both decisions occur, including a pivot beyond τ
                    // that only its radius admits.
                    assert!(got.iter().any(Option::is_none), "nothing pruned");
                    assert!(
                        got.iter().flatten().any(|&d| f64::from_bits(d) > t),
                        "no pivot admitted by its radius alone"
                    );
                }
                assert_eq!(ca, cb, "limit={limit:?} batch={batch}");
            }
        }
    }
}
