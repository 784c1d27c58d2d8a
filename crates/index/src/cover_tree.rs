//! A simplified cover tree (Beygelzimer, Kakade & Langford; simplified per
//! Izbicki & Shelton) supporting incremental nearest-neighbor search.
//!
//! This is the substrate the paper uses for all datasets except MNIST and
//! Imagenet (§7.1). Structure is guided by the usual geometric level
//! invariant (`covdist(ℓ) = base^ℓ`); *correctness* of search relies only on
//! the cached `max_dist` of each node — an upper bound on the distance from
//! the node's point to any point in its subtree — so the tree remains exact
//! under the relaxed invariants of insert-based construction.
//!
//! Deletions are handled by tombstoning: removed points keep routing the
//! search but are filtered from results.
//!
//! # Layout
//!
//! All nodes live in one flat arena of 24-byte `Copy` records: each holds
//! its `max_dist`, point id and level, plus `first_child` / `next_sibling`
//! links. Links and point ids are `u32`, with `u32::MAX` as the null link.
//! There are no per-node allocations, so cloning a tree (a snapshot
//! successor) copies the arena in one `memcpy`. A point id or node count
//! past that range is refused with [`CoreError::CapacityExceeded`] by
//! [`CoverTree::build_with`] and [`DynamicIndex::insert`], never wrapped.
//!
//! [`CoverTree::build_with`] and [`DynamicIndex::compact`] insert every
//! point, then renumber the arena breadth-first from the root in one O(n)
//! pass, so every node's children are one contiguous run of records that
//! an expansion reads front to back. [`DynamicIndex::insert`] appends the
//! new node at the arena's tail and links it at the end of its parent's
//! sibling chain, so child order stays insertion order, as before the
//! renumbering; the next compaction restores the contiguous layout. A
//! full arena grows by a sixteenth, not by doubling
//! ([`rknn_core::reserve_sixteenth`]): clones keep its capacity, so the
//! slack is copied into every snapshot successor.
//!
//! An expansion stages every child through
//! [`ExpandSink::covered_child`], so all child pivots of a node are
//! evaluated by one batched kernel call at one threshold snapshot, with the
//! decisions, distance bits and counters of one
//! [`ExpandSink::pivot`] call per child.
//!
//! # Flattened subtrees
//!
//! Each node also keeps the number of nodes in its subtree, itself
//! included, in a `u32` array parallel to the arena. An insert counts the
//! new node on every node of its insert path, and the breadth-first
//! renumbering carries the counts along. Some nodes expand
//! straight into the points of their whole subtree instead of staging
//! their children: every descendant's point goes through
//! [`ExpandSink::point`], so the points are evaluated in gathered tiles of
//! 64 at the pruning threshold, and no descendant is visited or queued as a
//! node. A node flattens when either rule holds:
//!
//! * its subtree holds at most 64 nodes, one tile of points;
//! * it has at least 32 children and at most 4,096 nodes below it. At
//!   base 1.3 a fan-out of 32 means a local expansion dimension of about
//!   ln 32 / ln 1.3 ≈ 13, where a child's lower bound `d − max_dist`
//!   prunes next to nothing, so staging each child only adds node visits
//!   and heap pushes.
//!
//! Both rules only trade pruning for batching: every point of a flattened
//! subtree is still evaluated exactly against the threshold, so streams
//! stay exact (points at equal distances may surface in another order
//! than a staged expansion would give them). The depth-first
//! [`KnnIndex::range`] walk applies the same rule: a kept node that
//! flattens hands the points below it to gathered tiles evaluated at the
//! ball's bound instead of pushing its children. `DESIGN.md` §3 gives the
//! counting rules.

use crate::pool::{PointPool, RebuildPolicy};
use crate::traits::{DynamicIndex, KnnIndex, NnCursor};
use crate::traversal::{self, ExpandSink, TreeSubstrate};
use rknn_core::scratch::TileEvalScratch;
use rknn_core::{
    triangle_lower, CoreError, CursorScratch, Dataset, Metric, Neighbor, PointId, SearchStats,
};
use std::sync::Arc;

/// Configuration for [`CoverTree`].
#[derive(Debug, Clone, Copy)]
pub struct CoverTreeConfig {
    /// Geometric base of the level radii (`covdist(ℓ) = base^ℓ`). The
    /// classic construction uses 2.0; smaller bases (1.3) trade deeper trees
    /// for tighter covers and are the common practical choice.
    pub base: f64,
    /// Seed of the deterministic insertion shuffle used by [`CoverTree::build`].
    pub shuffle_seed: u64,
}

impl Default for CoverTreeConfig {
    fn default() -> Self {
        CoverTreeConfig {
            base: 1.3,
            shuffle_seed: 0x0005_eedc_0de7,
        }
    }
}

/// The null arena link.
const NIL: u32 = u32::MAX;

/// The most nodes, and point ids, the `u32` fields can hold (`NIL` is
/// reserved).
const MAX_NODES: usize = NIL as usize;

/// A subtree of at most this many nodes expands flat: its points fill one
/// gathered tile.
const FLAT_SUBTREE: u32 = 64;

/// A node with at least this many children expands flat when at most
/// [`FLAT_BELOW`] nodes lie below it.
const FLAT_FAN_OUT: usize = 32;

/// The most nodes below a high-fan-out node that expands flat.
const FLAT_BELOW: u32 = 4096;

/// Rows per gathered tile of the range walk's flattened subtrees.
const RANGE_TILE: usize = 64;

/// Checked conversion of an arena index or point id to its `u32` field:
/// values it cannot hold, `NIL` included, are a capacity error.
fn link(index: usize) -> Result<u32, CoreError> {
    u32::try_from(index)
        .ok()
        .filter(|&l| l != NIL)
        .ok_or(CoreError::CapacityExceeded {
            capacity: MAX_NODES,
        })
}

#[derive(Debug, Clone, Copy)]
struct CtNode {
    /// Upper bound on the distance from `point` to any descendant's point.
    max_dist: f64,
    /// The node's point id, narrowed by `link`.
    point: u32,
    level: i32,
    first_child: u32,
    next_sibling: u32,
}

impl CtNode {
    #[inline]
    fn point(&self) -> PointId {
        self.point as PointId
    }
}

/// A simplified cover tree index.
#[derive(Debug)]
pub struct CoverTree<M: Metric> {
    pool: PointPool,
    metric: M,
    nodes: Vec<CtNode>,
    /// `sizes[i]` is the number of nodes in node `i`'s subtree, itself
    /// included.
    sizes: Vec<u32>,
    root: Option<usize>,
    base: f64,
    policy: RebuildPolicy,
    /// Tombstoned points still routing searches — reset by
    /// [`DynamicIndex::compact`], which rebuilds without them.
    stale: usize,
}

/// Clones keep the arena's and the pool's capacity, so a snapshot
/// successor's first inserts append in place instead of reallocating and
/// copying the whole arena.
impl<M: Metric + Clone> Clone for CoverTree<M> {
    fn clone(&self) -> Self {
        CoverTree {
            pool: self.pool.clone(),
            metric: self.metric.clone(),
            nodes: rknn_core::clone_with_capacity(&self.nodes),
            sizes: rknn_core::clone_with_capacity(&self.sizes),
            ..*self
        }
    }
}

/// SplitMix64 step, used for the deterministic build shuffle without pulling
/// a random-number dependency into the index crate.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<M: Metric> CoverTree<M> {
    /// Builds a cover tree over a shared dataset with default configuration.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has more points than the tree can address
    /// (see [`CoverTree::build_with`]).
    pub fn build(ds: Arc<Dataset>, metric: M) -> Self {
        Self::build_with(ds, metric, CoverTreeConfig::default())
            .expect("dataset exceeds the cover tree's node capacity")
    }

    /// Builds a cover tree with explicit configuration.
    ///
    /// Fails with [`CoreError::CapacityExceeded`] when the dataset has more
    /// points than the `u32` links and point ids can address.
    pub fn build_with(
        ds: Arc<Dataset>,
        metric: M,
        cfg: CoverTreeConfig,
    ) -> Result<Self, CoreError> {
        let n = ds.len();
        let mut tree = CoverTree {
            pool: PointPool::new(ds),
            metric,
            nodes: Vec::with_capacity(n),
            sizes: Vec::with_capacity(n),
            root: None,
            base: cfg.base,
            policy: RebuildPolicy::default(),
            stale: 0,
        };
        // Deterministic Fisher–Yates shuffle of the insertion order: batch
        // construction by repeated insertion balances far better on shuffled
        // input (generators emit points cluster by cluster).
        let mut order: Vec<PointId> = (0..n).collect();
        let mut state = cfg.shuffle_seed;
        for i in (1..n).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        for id in order {
            tree.attach(id)?;
        }
        tree.renumber_breadth_first();
        Ok(tree)
    }

    /// Covering radius at a level.
    #[inline]
    fn covdist(&self, level: i32) -> f64 {
        self.base.powi(level)
    }

    /// Read access to the underlying pool.
    pub fn pool(&self) -> &PointPool {
        &self.pool
    }

    /// Number of tree nodes (one per inserted point).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The arena indices of node `i`'s children, in sibling order.
    fn children(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let mut c = self.nodes[i].first_child;
        std::iter::from_fn(move || {
            let here = c;
            (here != NIL).then(|| {
                c = self.nodes[here as usize].next_sibling;
                here as usize
            })
        })
    }

    /// Attaches an existing pool point to the tree structure as a new node
    /// at the arena's tail, linked last among its parent's children, and
    /// counts it in the subtree size of every node on its insert path.
    fn attach(&mut self, id: PointId) -> Result<(), CoreError> {
        let new = link(self.nodes.len())?;
        let point = link(id)?;
        rknn_core::reserve_sixteenth(&mut self.nodes, 1);
        rknn_core::reserve_sixteenth(&mut self.sizes, 1);
        let leaf = |level| CtNode {
            max_dist: 0.0,
            point,
            level,
            first_child: NIL,
            next_sibling: NIL,
        };
        let Some(root) = self.root else {
            self.nodes.push(leaf(0));
            self.sizes.push(1);
            self.root = Some(0);
            return Ok(());
        };
        let x = self.pool.point(id);
        let d_root = self
            .metric
            .dist(x, self.pool.point(self.nodes[root].point()));
        // Raise the root level until its cover radius reaches the new point.
        while d_root > self.covdist(self.nodes[root].level) {
            self.nodes[root].level += 1;
        }
        // Descend to the nearest covering child, maintaining max_dist along
        // the path (the new point becomes a descendant of every node on it).
        let mut cur = root;
        let mut d_cur = d_root;
        loop {
            if d_cur > self.nodes[cur].max_dist {
                self.nodes[cur].max_dist = d_cur;
            }
            self.sizes[cur] += 1;
            let mut best: Option<(usize, f64)> = None;
            let mut last = None;
            for child in self.children(cur) {
                let node = &self.nodes[child];
                let d = self.metric.dist(x, self.pool.point(node.point()));
                if d <= self.covdist(node.level) && best.map(|(_, bd)| d < bd).unwrap_or(true) {
                    best = Some((child, d));
                }
                last = Some(child);
            }
            if let Some((child, d)) = best {
                cur = child;
                d_cur = d;
                continue;
            }
            let level = self.nodes[cur].level - 1;
            self.nodes.push(leaf(level));
            self.sizes.push(1);
            match last {
                Some(l) => self.nodes[l].next_sibling = new,
                None => self.nodes[cur].first_child = new,
            }
            return Ok(());
        }
    }

    /// Renumbers the arena breadth-first from the root, keeping sibling
    /// order: the root becomes node 0 and every sibling list becomes one
    /// contiguous run of records. Subtree sizes move with their nodes.
    fn renumber_breadth_first(&mut self) {
        let Some(root) = self.root else {
            return;
        };
        let old = std::mem::take(&mut self.nodes);
        let old_sizes = std::mem::take(&mut self.sizes);
        // `order[p]` is the old index of the node that gets index `p`.
        let mut order = Vec::with_capacity(old.len());
        order.push(root);
        let mut nodes = Vec::with_capacity(old.len());
        let mut sizes = Vec::with_capacity(old.len());
        while let Some(&i) = order.get(nodes.len()) {
            let mut rec = old[i];
            let first = order.len();
            let mut c = rec.first_child;
            while c != NIL {
                order.push(c as usize);
                c = old[c as usize].next_sibling;
            }
            let renumbered = "renumbering keeps the node count `link` accepted";
            if order.len() > first {
                rec.first_child = link(first).expect(renumbered);
            }
            if rec.next_sibling != NIL {
                rec.next_sibling = link(nodes.len() + 1).expect(renumbered);
            }
            nodes.push(rec);
            sizes.push(old_sizes[i]);
        }
        self.nodes = nodes;
        self.sizes = sizes;
        self.root = Some(0);
    }

    /// Checks the tree's structural invariants (test support): every node
    /// is reached exactly once through the sibling chains from the root,
    /// every node's cached radius bounds the distance to each of its
    /// descendants, and every node's subtree size counts them.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> bool {
        if self.sizes.len() != self.nodes.len() {
            return false;
        }
        let Some(root) = self.root else {
            return self.nodes.is_empty();
        };
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut seen[i], true) {
                return false;
            }
            let here = self.pool.point(self.nodes[i].point());
            // Walk this node's entire subtree (bounded by the node count,
            // so a cyclic chain cannot hang the check).
            let mut sub = vec![i];
            let mut walked = 0;
            while let Some(j) = sub.pop() {
                walked += 1;
                if walked > self.nodes.len() {
                    return false;
                }
                let d = self
                    .metric
                    .dist(here, self.pool.point(self.nodes[j].point()));
                if d > self.nodes[i].max_dist + 1e-9 {
                    return false;
                }
                sub.extend(self.children(j));
            }
            if walked != self.sizes[i] as usize {
                return false;
            }
            stack.extend(self.children(i));
        }
        seen.iter().all(|&s| s)
    }

    /// How many nodes expand flat by the fan-out rule alone: at least 32
    /// children and more than one tile of nodes in the subtree (test
    /// support).
    #[doc(hidden)]
    pub fn flat_by_fan_out(&self) -> usize {
        (0..self.nodes.len())
            .filter(|&i| self.sizes[i] > FLAT_SUBTREE && self.flattens(i))
            .count()
    }

    /// Whether node `id` expands into the points of its whole subtree
    /// (see the module docs for the two rules).
    fn flattens(&self, id: usize) -> bool {
        let size = self.sizes[id];
        size <= FLAT_SUBTREE
            || (size - 1 <= FLAT_BELOW && self.children(id).nth(FLAT_FAN_OUT - 1).is_some())
    }

    /// Calls `visit` with the point of every node below `id`, tombstones
    /// included.
    ///
    /// The walk allocates nothing: it recurses only into a child that has
    /// both children and a later sibling, and a last child's subtree
    /// continues the loop, so a chain of single children (duplicate
    /// points) walks without recursion.
    fn flatten(&self, id: usize, visit: &mut impl FnMut(PointId)) {
        let mut c = self.nodes[id].first_child;
        while c != NIL {
            let child = &self.nodes[c as usize];
            visit(child.point());
            if child.next_sibling == NIL {
                c = child.first_child;
            } else {
                if child.first_child != NIL {
                    self.flatten(c as usize, visit);
                }
                c = child.next_sibling;
            }
        }
    }

    /// Evaluates the points gathered in `tile.ids` against the padded query
    /// in `tile.qpad`, one distance each, appends those within distance
    /// `r` to `out`, and empties the batch.
    fn range_tile(
        &self,
        tile: &mut TileEvalScratch,
        r: f64,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        let len = tile.ids.len();
        let (dim, stride) = (self.pool.dim(), tile.qpad.len());
        for i in 0..len {
            let p = tile.ids[i];
            tile.fill_row(i, self.pool.point(p));
        }
        self.metric.dist_tile(
            &tile.qpad,
            &tile.rows[..len * stride],
            stride,
            dim,
            &tile.bounds[..len],
            &mut tile.out[..len],
        );
        stats.count_dists(len as u64);
        out.extend(
            tile.ids
                .iter()
                .zip(&tile.out[..len])
                .filter(|(_, &d)| d <= r)
                .map(|(&p, &d)| Neighbor::new(p, d)),
        );
        tile.ids.clear();
    }
}

impl<M: Metric> TreeSubstrate<M> for CoverTree<M> {
    fn metric(&self) -> &M {
        &self.metric
    }

    fn coords(&self, id: PointId) -> &[f64] {
        self.pool.point(id)
    }

    fn is_emittable(&self, id: PointId) -> bool {
        self.pool.is_alive(id)
    }

    fn seed(&self, sink: &mut ExpandSink<'_, M, Self>) {
        if let Some(root) = self.root {
            let node = &self.nodes[root];
            if let Some(d) = sink.pivot(node.point(), node.max_dist) {
                sink.child(root, (d - node.max_dist).max(0.0), d);
            }
        }
    }

    fn expand(&self, id: usize, d_pivot: f64, sink: &mut ExpandSink<'_, M, Self>) {
        // Every node carries a point; its exact distance was evaluated when
        // the node was queued by its parent (or the seed).
        sink.point_at(self.nodes[id].point(), d_pivot);
        if self.flattens(id) {
            self.flatten(id, &mut |p| sink.point(p));
            return;
        }
        for c in self.children(id) {
            let child = &self.nodes[c];
            sink.covered_child(c, child.point(), child.max_dist);
        }
    }
}

impl<M: Metric> KnnIndex<M> for CoverTree<M> {
    fn num_points(&self) -> usize {
        self.pool.live()
    }

    fn has_point(&self, id: PointId) -> bool {
        self.pool.is_alive(id)
    }

    fn id_bound(&self) -> usize {
        self.pool.total()
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
        "cover-tree"
    }

    fn cursor<'a>(&'a self, q: &'a [f64], exclude: Option<PointId>) -> Box<dyn NnCursor + 'a> {
        traversal::tree_cursor(self, q, exclude)
    }

    fn cursor_with<'a>(
        &'a self,
        q: &'a [f64],
        exclude: Option<PointId>,
        scratch: &'a mut CursorScratch,
    ) -> Box<dyn NnCursor + 'a> {
        traversal::tree_cursor_with(self, q, exclude, scratch)
    }

    fn cursor_bounded<'a>(
        &'a self,
        q: &'a [f64],
        exclude: Option<PointId>,
        limit: usize,
        scratch: &'a mut CursorScratch,
    ) -> Box<dyn NnCursor + 'a> {
        traversal::tree_cursor_bounded(self, q, exclude, limit, scratch)
    }

    /// A depth-first walk: each popped node costs one node visit and one
    /// distance for its point, and its subtree is skipped when the
    /// rounding-safe bound [`triangle_lower`]`(d, max_dist)` exceeds `r`.
    /// A kept node that expands flat (module docs) is not descended into:
    /// every live point below it other than `exclude` is gathered into
    /// padded tiles of 64 rows evaluated by [`Metric::dist_tile`] at the
    /// closed ball's bound, one distance per row. Tombstoned and excluded
    /// points still route the walk.
    fn range(
        &self,
        q: &[f64],
        r: f64,
        exclude: Option<PointId>,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let mut out = Vec::new();
        let Some(root) = self.root else {
            return out;
        };
        let emits = |p: PointId| Some(p) != exclude && self.pool.is_alive(p);
        // The tile admits `d < r.next_up()`, which is `d <= r` unless
        // `r.next_up()` is `+∞`: there it admits every distance, and
        // `range_tile` drops those past `r`.
        let mut tile = TileEvalScratch::new();
        tile.set_query(q);
        tile.ensure_rows(self.pool.dim(), RANGE_TILE);
        tile.bounds.fill(r.next_up());
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            stats.count_node();
            stats.count_dist();
            let node = &self.nodes[id];
            let p = node.point();
            let d = self.metric.dist(q, self.pool.point(p));
            if d <= r && emits(p) {
                out.push(Neighbor::new(p, d));
            }
            if triangle_lower(d, node.max_dist) > r {
                continue;
            }
            if self.flattens(id) {
                self.flatten(id, &mut |p| {
                    if emits(p) {
                        tile.ids.push(p);
                        if tile.ids.len() == RANGE_TILE {
                            self.range_tile(&mut tile, r, &mut out, stats);
                        }
                    }
                });
            } else {
                stack.extend(self.children(id));
            }
        }
        self.range_tile(&mut tile, r, &mut out, stats);
        out
    }
}

impl<M: Metric> DynamicIndex<M> for CoverTree<M> {
    fn insert(&mut self, point: &[f64]) -> Result<PointId, CoreError> {
        // Refuse before the pool grows, so a full tree stays consistent.
        // Point ids are never fewer than nodes, so the next id bounds both.
        link(self.pool.total())?;
        let id = self.pool.insert(point)?;
        self.attach(id)?;
        Ok(id)
    }

    fn remove(&mut self, id: PointId) -> bool {
        let removed = self.pool.remove(id);
        self.stale += usize::from(removed);
        removed
    }

    fn compact(&mut self) {
        self.nodes.clear();
        self.sizes.clear();
        self.root = None;
        // Re-attach live points in id order: deterministic, and churn has
        // already decorrelated the order the batch build's shuffle exists
        // to create.
        let live: Vec<PointId> = self.pool.iter_live().map(|(id, _)| id).collect();
        for id in live {
            self.attach(id)
                .expect("compaction never grows the node count");
        }
        self.renumber_breadth_first();
        self.stale = 0;
    }

    fn needs_compaction(&self) -> bool {
        self.policy.recommends_counts(self.stale, self.pool.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknn_core::{BruteForce, Euclidean, SearchStats};

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Arc<Dataset> {
        let mut state = seed;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(dim);
            for _ in 0..dim {
                row.push((splitmix64(&mut state) as f64 / u64::MAX as f64) * 10.0 - 5.0);
            }
            rows.push(row);
        }
        Dataset::from_rows(&rows).unwrap().into_shared()
    }

    #[test]
    fn invariants_hold_after_build() {
        let ds = random_dataset(300, 3, 1);
        let tree = CoverTree::build(ds, Euclidean);
        assert_eq!(tree.node_count(), 300);
        assert!(tree.check_invariants());
    }

    #[test]
    fn cursor_matches_brute_force_order() {
        let ds = random_dataset(200, 4, 2);
        let tree = CoverTree::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds.clone(), Euclidean);
        let q = ds.point(17).to_vec();
        let mut st = SearchStats::new();
        let want = bf.knn(&q, 200, None, &mut st);
        let mut cur = tree.cursor(&q, None);
        let got: Vec<_> = std::iter::from_fn(|| cur.next()).collect();
        assert_eq!(got.len(), want.len());
        let mut prev = 0.0;
        for (g, w) in got.iter().zip(&want) {
            assert!(g.dist >= prev - 1e-12, "nondecreasing order");
            prev = g.dist;
            assert!(
                (g.dist - w.dist).abs() < 1e-9,
                "distance sequence matches brute force"
            );
        }
    }

    #[test]
    fn knn_exact_vs_brute_force() {
        let ds = random_dataset(500, 6, 3);
        let tree = CoverTree::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds.clone(), Euclidean);
        for qi in [0usize, 13, 99, 499] {
            let mut st1 = SearchStats::new();
            let mut st2 = SearchStats::new();
            let got = tree.knn(ds.point(qi), 10, Some(qi), &mut st1);
            let want = bf.knn(ds.point(qi), 10, Some(qi), &mut st2);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist - w.dist).abs() < 1e-9);
            }
            assert!(
                st1.dist_computations <= st2.dist_computations,
                "tree should not do more distance work than a scan on easy data"
            );
        }
    }

    #[test]
    fn dynamic_insert_then_query() {
        let ds = random_dataset(50, 2, 4);
        let mut tree = CoverTree::build(ds, Euclidean);
        let id = tree.insert(&[100.0, 100.0]).unwrap();
        assert!(tree.check_invariants());
        let mut st = SearchStats::new();
        let nn = tree.knn(&[101.0, 101.0], 1, None, &mut st);
        assert_eq!(nn[0].id, id);
    }

    #[test]
    fn remove_hides_point_but_routes() {
        let ds = random_dataset(50, 2, 5);
        let mut tree = CoverTree::build(ds.clone(), Euclidean);
        let victim = 7;
        assert!(tree.remove(victim));
        let mut st = SearchStats::new();
        let all = tree.knn(ds.point(victim), 50, None, &mut st);
        assert_eq!(all.len(), 49);
        assert!(all.iter().all(|n| n.id != victim));
    }

    #[test]
    fn duplicates_are_handled() {
        let rows = vec![vec![1.0, 1.0]; 20];
        let ds = Dataset::from_rows(&rows).unwrap().into_shared();
        let tree = CoverTree::build(ds, Euclidean);
        assert!(tree.check_invariants());
        let mut cur = tree.cursor(&[1.0, 1.0], None);
        let got: Vec<_> = std::iter::from_fn(|| cur.next()).collect();
        assert_eq!(got.len(), 20);
        assert!(got.iter().all(|n| n.dist == 0.0));
    }

    #[test]
    fn compact_preserves_results_and_resets_policy() {
        let ds = random_dataset(300, 3, 9);
        let mut tree = CoverTree::build(ds.clone(), Euclidean);
        for _ in 0..20 {
            tree.insert(&[50.0, 50.0, 50.0]).unwrap();
        }
        for id in (0..320).step_by(3) {
            assert!(tree.remove(id));
        }
        assert!(tree.needs_compaction());
        let q = ds.point(2).to_vec();
        let want: Vec<_> = {
            let mut cur = tree.cursor(&q, None);
            std::iter::from_fn(|| cur.next())
                .map(|n| (n.id, n.dist.to_bits()))
                .collect()
        };
        tree.compact();
        assert!(tree.check_invariants());
        assert!(!tree.needs_compaction());
        assert_eq!(tree.node_count(), tree.num_points());
        let got: Vec<_> = {
            let mut cur = tree.cursor(&q, None);
            std::iter::from_fn(|| cur.next())
                .map(|n| (n.id, n.dist.to_bits()))
                .collect()
        };
        assert_eq!(want, got, "compaction must not change the stream");
        assert_eq!(
            tree.point(0),
            ds.point(0),
            "historical ids stay addressable"
        );
    }

    #[test]
    fn range_queries_match_brute_force() {
        let ds = random_dataset(300, 3, 6);
        let tree = CoverTree::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds.clone(), Euclidean);
        let q = ds.point(0).to_vec();
        let mut st = SearchStats::new();
        let r = 2.5;
        let got = tree.range(&q, r, Some(0), &mut st);
        let want: Vec<_> = bf
            .knn(&q, 300, Some(0), &mut st)
            .into_iter()
            .filter(|n| n.dist <= r)
            .collect();
        assert_eq!(got.len(), want.len());
        assert_eq!(tree.range_count(&q, r, false, Some(0), &mut st), want.len(),);
    }

    #[test]
    fn links_refuse_indices_past_their_range() {
        assert_eq!(link(0), Ok(0));
        assert_eq!(link(MAX_NODES - 1), Ok(NIL - 1));
        let full = Err(CoreError::CapacityExceeded {
            capacity: MAX_NODES,
        });
        assert_eq!(link(MAX_NODES), full, "the null link is reserved");
        assert_eq!(link(MAX_NODES + 1), full);
        assert_eq!(link(usize::MAX), full);
        assert_eq!(std::mem::size_of::<CtNode>(), 24);
    }

    /// `axes · per_axis` points near the scaled basis vectors `10·e_i` of
    /// `R^axes`, each coordinate jittered by less than 0.05: the axes'
    /// points are near-equidistant (about `10·√2` apart), so the root
    /// takes one child per axis.
    fn basis_clusters(axes: usize, per_axis: usize, seed: u64) -> Arc<Dataset> {
        let mut state = seed;
        let rows: Vec<Vec<f64>> = (0..axes * per_axis)
            .map(|i| {
                (0..axes)
                    .map(|j| {
                        let jitter = (splitmix64(&mut state) as f64 / u64::MAX as f64) * 0.1 - 0.05;
                        if j == i % axes {
                            10.0 + jitter
                        } else {
                            jitter
                        }
                    })
                    .collect()
            })
            .collect();
        Dataset::from_rows(&rows).unwrap().into_shared()
    }

    /// A full drain's stream (ids and distance bits) and its counters.
    fn drain_all(tree: &CoverTree<Euclidean>, q: &[f64]) -> (Vec<(PointId, u64)>, SearchStats) {
        let mut cur = tree.cursor(q, None);
        let stream = std::iter::from_fn(|| cur.next())
            .map(|n| (n.id, n.dist.to_bits()))
            .collect();
        (stream, cur.stats())
    }

    #[test]
    fn a_one_tile_tree_expands_only_its_root() {
        let ds = random_dataset(64, 4, 13);
        let tree = CoverTree::build(ds.clone(), Euclidean);
        assert!(tree.check_invariants());
        assert_eq!(tree.sizes[0], 64);
        let (stream, stats) = drain_all(&tree, ds.point(5));
        assert_eq!(stream.len(), 64);
        assert_eq!(stats.nodes_visited, 1, "only the root is expanded");
        assert_eq!(stats.dist_computations, 64, "one distance per point");
        // One more node, and the root stages its children again.
        let mut grown = tree.clone();
        grown.insert(&[0.1, 0.2, 0.3, 0.4]).unwrap();
        assert!(grown.check_invariants());
        assert_eq!(grown.sizes[0], 65);
        assert!(drain_all(&grown, ds.point(5)).1.nodes_visited > 1);
    }

    #[test]
    fn a_wide_node_expands_flat_and_streams_exactly() {
        let ds = basis_clusters(40, 3, 14);
        let mut tree = CoverTree::build(ds.clone(), Euclidean);
        assert!(tree.check_invariants());
        assert!(tree.children(0).count() >= FLAT_FAN_OUT);
        assert!(tree.sizes[0] > FLAT_SUBTREE);
        assert_eq!(tree.flat_by_fan_out(), 1, "the root flattens by fan-out");
        let bf = BruteForce::new(ds.clone(), Euclidean);
        for q in [0, 41, 119] {
            let (stream, stats) = drain_all(&tree, ds.point(q));
            assert_eq!(stats.nodes_visited, 1, "only the root is expanded");
            let want = bf.knn(ds.point(q), ds.len(), None, &mut SearchStats::new());
            let want: Vec<u64> = want.iter().map(|n| n.dist.to_bits()).collect();
            let got: Vec<u64> = stream.iter().map(|&(_, d)| d).collect();
            assert_eq!(got, want, "q={q}");
        }
        // Tombstones inside the flattened subtree are skipped uncounted.
        for id in (0..ds.len()).step_by(3) {
            assert!(tree.remove(id));
        }
        let (stream, stats) = drain_all(&tree, ds.point(1));
        assert_eq!(stream.len(), ds.len() - 40);
        assert!(stream.iter().all(|&(id, _)| !id.is_multiple_of(3)));
        // The root's pivot is evaluated even when it is a tombstone.
        let root_dead = usize::from(tree.nodes[0].point().is_multiple_of(3));
        assert_eq!(stats.dist_computations as usize, stream.len() + root_dead);
    }

    #[test]
    fn a_flattened_root_answers_range_from_tiles() {
        let ds = basis_clusters(40, 3, 14);
        let mut tree = CoverTree::build(ds.clone(), Euclidean);
        let mut scan = crate::LinearScan::build(ds.clone(), Euclidean);
        assert_eq!(tree.flat_by_fan_out(), 1, "the root flattens by fan-out");
        for id in (0..ds.len()).step_by(7) {
            assert!(tree.remove(id) && scan.remove(id));
        }
        let root = tree.nodes[0].point();
        let sorted = |mut ball: Vec<Neighbor>| {
            rknn_core::neighbor::sort_neighbors(&mut ball);
            ball.iter()
                .map(|n| (n.id, n.dist.to_bits()))
                .collect::<Vec<_>>()
        };
        for (q, exclude) in [(1, Some(1)), (41, None), (118, Some(118))] {
            // The 120 points fill two tiles; the live ones other than the
            // root and `exclude` each cost one distance.
            let below = (0..ds.len())
                .filter(|&id| id != root && Some(id) != exclude && tree.pool.is_alive(id))
                .count();
            for r in [0.0, 0.5, 14.2, f64::INFINITY] {
                let mut st = SearchStats::new();
                let got = tree.range(ds.point(q), r, exclude, &mut st);
                let want = scan.range(ds.point(q), r, exclude, &mut SearchStats::new());
                assert_eq!(sorted(got), sorted(want), "q={q} r={r}");
                assert_eq!(st.nodes_visited, 1, "only the root is popped");
                assert!((st.nodes_visited as usize) < tree.node_count());
                assert_eq!(st.dist_computations as usize, 1 + below, "q={q} r={r}");
            }
        }
    }

    #[test]
    fn a_tiled_range_keeps_overflowing_distances_only_at_infinity() {
        // Coordinates at ±1e200 overflow the squared distance to `+∞`.
        let mut rows: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i), 0.0]).collect();
        rows.push(vec![1e200, -1e200]);
        let ds = Dataset::from_rows(&rows).unwrap().into_shared();
        let tree = CoverTree::build(ds, Euclidean);
        assert_eq!(tree.sizes[0], 11, "the root flattens");
        assert_ne!(tree.nodes[0].point(), 10, "the far point is read in a tile");
        let (q, mut st) = ([0.25, 0.0], SearchStats::new());
        assert_eq!(tree.range(&q, f64::INFINITY, None, &mut st).len(), 11);
        assert_eq!(tree.range(&q, f64::MAX, None, &mut st).len(), 10);
    }

    #[test]
    fn clones_keep_capacity_so_inserts_append_in_place() {
        let ds = random_dataset(200, 3, 12);
        let mut tree = CoverTree::build(ds, Euclidean);
        tree.insert(&[0.5, 0.5, 0.5]).unwrap();
        assert!(tree.nodes.capacity() > tree.node_count());
        let mut fork = tree.clone();
        assert_eq!(fork.nodes.capacity(), tree.nodes.capacity());
        assert_eq!(fork.sizes.capacity(), tree.sizes.capacity());
        let (nodes, sizes) = (fork.nodes.as_ptr(), fork.sizes.as_ptr());
        let mut state = 3;
        while fork.node_count() < tree.nodes.capacity().min(tree.sizes.capacity()) {
            let p: Vec<f64> = (0..3)
                .map(|_| (splitmix64(&mut state) as f64 / u64::MAX as f64) * 10.0 - 5.0)
                .collect();
            fork.insert(&p).unwrap();
        }
        assert_eq!(fork.nodes.as_ptr(), nodes, "the node arena moved");
        assert_eq!(fork.sizes.as_ptr(), sizes, "the subtree sizes moved");
        assert!(fork.check_invariants());
        assert_eq!(tree.node_count(), 201, "the source is untouched");
    }

    /// Whether every node's children are one contiguous run of records
    /// numbered after their parent, starting from root 0.
    fn breadth_first(tree: &CoverTree<Euclidean>) -> bool {
        tree.root == Some(0)
            && (0..tree.node_count()).all(|i| {
                let kids: Vec<usize> = tree.children(i).collect();
                kids.windows(2).all(|w| w[1] == w[0] + 1) && kids.iter().all(|&c| c > i)
            })
    }

    #[test]
    fn build_and_compact_lay_siblings_out_breadth_first() {
        let ds = random_dataset(400, 3, 10);
        let mut tree = CoverTree::build(ds, Euclidean);
        assert!(breadth_first(&tree));
        let snapshot = tree.clone();
        let mut appended = Vec::new();
        for i in 0..30 {
            let x = f64::from(i) * 0.37 - 5.0;
            tree.insert(&[x, -x, 0.5 * x]).unwrap();
            appended.push(tree.node_count() - 1);
            assert!(tree.check_invariants());
        }
        // Inserts append at the tail: the clone's arena is untouched.
        assert_eq!(snapshot.node_count(), 400);
        assert_eq!(appended, (400..430).collect::<Vec<_>>());
        assert!(breadth_first(&snapshot));
        for id in (0..430).step_by(4) {
            assert!(tree.remove(id));
        }
        tree.compact();
        assert!(tree.check_invariants());
        assert!(breadth_first(&tree));
    }
}
