//! An R-tree with Sort-Tile-Recursive bulk packing, best-first queries,
//! quadratic-split inserts and tombstone deletes.
//!
//! This is the substrate of the RdNN-Tree and TPL baselines. The paper's
//! baselines use the R\*-tree; we substitute STR bulk loading plus quadratic
//! splits (see `DESIGN.md` §4) — the query-side behavior the experiments
//! measure (mindist/maxdist pruning and its collapse in high dimensions
//! \[47\]) is identical in shape. Split and subtree-choice decisions use the
//! *margin* (sum of side lengths) instead of volume, which degenerates
//! numerically in high dimensions.
//!
//! The tree optionally carries a per-point *auxiliary value* with per-node
//! subtree maxima. The RdNN-Tree stores each point's kNN distance there and
//! answers reverse-kNN queries with [`RTree::aux_containment`].
//!
//! Box distance bounds come from [`Metric::box_min_dist`] /
//! [`Metric::box_max_dist`]; building an R-tree with a metric that does not
//! support them panics with a descriptive message.

use crate::pool::{PointPool, RebuildPolicy};
use crate::traits::{DynamicIndex, KnnIndex, NnCursor};
use crate::traversal::{self, ExpandSink, TreeSubstrate};
use rknn_core::{
    CoreError, CursorScratch, Dataset, Metric, Neighbor, OrderedF64, PointId, SearchStats,
};
use std::sync::Arc;

/// Minimum bounding rectangle.
#[derive(Debug, Clone, PartialEq)]
pub struct Mbr {
    /// Lower corner.
    pub lo: Vec<f64>,
    /// Upper corner.
    pub hi: Vec<f64>,
}

impl Mbr {
    /// The degenerate box of a single point.
    pub fn of_point(p: &[f64]) -> Self {
        Mbr {
            lo: p.to_vec(),
            hi: p.to_vec(),
        }
    }

    /// An "empty" box that unions as the identity.
    pub fn empty(dim: usize) -> Self {
        Mbr {
            lo: vec![f64::INFINITY; dim],
            hi: vec![f64::NEG_INFINITY; dim],
        }
    }

    /// Grows the box to cover `p`.
    pub fn extend_point(&mut self, p: &[f64]) {
        for (i, &x) in p.iter().enumerate() {
            self.lo[i] = self.lo[i].min(x);
            self.hi[i] = self.hi[i].max(x);
        }
    }

    /// Grows the box to cover `other`.
    pub fn extend_mbr(&mut self, other: &Mbr) {
        for i in 0..self.lo.len() {
            self.lo[i] = self.lo[i].min(other.lo[i]);
            self.hi[i] = self.hi[i].max(other.hi[i]);
        }
    }

    /// Whether the box contains `p`.
    pub fn contains(&self, p: &[f64]) -> bool {
        (0..self.lo.len()).all(|i| self.lo[i] <= p[i] && p[i] <= self.hi[i])
    }

    /// Whether the box fully contains `other`.
    pub fn contains_mbr(&self, other: &Mbr) -> bool {
        (0..self.lo.len()).all(|i| self.lo[i] <= other.lo[i] && other.hi[i] <= self.hi[i])
    }

    /// Sum of side lengths. Used as the split/insert cost measure instead of
    /// volume, which degenerates (under/overflows) in high dimensions.
    pub fn margin(&self) -> f64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| (h - l).max(0.0))
            .sum()
    }

    /// Margin increase needed to absorb `p`.
    pub fn enlargement_for(&self, p: &[f64]) -> f64 {
        let mut inc = 0.0;
        for (i, &x) in p.iter().enumerate() {
            if x < self.lo[i] {
                inc += self.lo[i] - x;
            } else if x > self.hi[i] {
                inc += x - self.hi[i];
            }
        }
        inc
    }

    /// Margin increase needed to absorb `other`.
    pub fn enlargement_for_mbr(&self, other: &Mbr) -> f64 {
        let mut inc = 0.0;
        for i in 0..self.lo.len() {
            if other.lo[i] < self.lo[i] {
                inc += self.lo[i] - other.lo[i];
            }
            if other.hi[i] > self.hi[i] {
                inc += other.hi[i] - self.hi[i];
            }
        }
        inc
    }
}

/// Quadratic-split partitioning of item bounding boxes into two groups.
///
/// Returns index sets; each group receives at least `min_fill` items.
/// Seeds are the pair whose union wastes the most margin; remaining items
/// go to the group needing the least enlargement (ties: smaller margin).
pub(crate) fn quadratic_split_indices(boxes: &[Mbr], min_fill: usize) -> (Vec<usize>, Vec<usize>) {
    let n = boxes.len();
    debug_assert!(n >= 2 && 2 * min_fill <= n);
    // Seed selection.
    let mut best = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..n {
        for j in (i + 1)..n {
            let mut u = boxes[i].clone();
            u.extend_mbr(&boxes[j]);
            let waste = u.margin() - boxes[i].margin() - boxes[j].margin();
            if waste > best.2 {
                best = (i, j, waste);
            }
        }
    }
    let (s1, s2, _) = best;
    let mut g1 = vec![s1];
    let mut g2 = vec![s2];
    let mut m1 = boxes[s1].clone();
    let mut m2 = boxes[s2].clone();
    let mut rest: Vec<usize> = (0..n).filter(|&i| i != s1 && i != s2).collect();
    while let Some(&i) = rest.first() {
        // Min-fill guarantee: hand the remainder to a starving group.
        if g1.len() + rest.len() == min_fill {
            for &r in &rest {
                m1.extend_mbr(&boxes[r]);
            }
            g1.append(&mut rest);
            break;
        }
        if g2.len() + rest.len() == min_fill {
            for &r in &rest {
                m2.extend_mbr(&boxes[r]);
            }
            g2.append(&mut rest);
            break;
        }
        let e1 = m1.enlargement_for_mbr(&boxes[i]);
        let e2 = m2.enlargement_for_mbr(&boxes[i]);
        let to_first = match e1.partial_cmp(&e2) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => m1.margin() <= m2.margin(),
        };
        if to_first {
            m1.extend_mbr(&boxes[i]);
            g1.push(i);
        } else {
            m2.extend_mbr(&boxes[i]);
            g2.push(i);
        }
        rest.remove(0);
    }
    (g1, g2)
}

#[derive(Debug, Clone)]
enum RNodeKind {
    Leaf(Vec<PointId>),
    Inner(Vec<usize>),
}

#[derive(Debug, Clone)]
struct RNode {
    mbr: Mbr,
    kind: RNodeKind,
    /// Max auxiliary value over the subtree (−∞ when aux is unused).
    aux_max: f64,
}

/// An R-tree over a point pool.
#[derive(Debug, Clone)]
pub struct RTree<M: Metric> {
    pool: PointPool,
    metric: M,
    nodes: Vec<RNode>,
    root: usize,
    capacity: usize,
    aux: Option<Vec<f64>>,
    policy: RebuildPolicy,
    /// Tombstoned points still linked into leaves — reset by
    /// [`DynamicIndex::compact`], which re-packs without them.
    stale: usize,
}

const DEFAULT_CAPACITY: usize = 32;

impl<M: Metric> RTree<M> {
    /// Bulk-builds an R-tree (STR packing) with default node capacity.
    pub fn build(ds: Arc<Dataset>, metric: M) -> Self {
        Self::build_with(ds, metric, DEFAULT_CAPACITY, None)
    }

    /// Bulk-builds with per-point auxiliary values (e.g. kNN distances for
    /// the RdNN-Tree). `aux.len()` must equal `ds.len()`.
    pub fn build_with_aux(ds: Arc<Dataset>, metric: M, aux: Vec<f64>) -> Self {
        assert_eq!(aux.len(), ds.len(), "one aux value per point required");
        Self::build_with(ds, metric, DEFAULT_CAPACITY, Some(aux))
    }

    /// Bulk-builds with explicit node capacity.
    pub fn build_with(ds: Arc<Dataset>, metric: M, capacity: usize, aux: Option<Vec<f64>>) -> Self {
        assert!(capacity >= 4, "R-tree node capacity must be at least 4");
        let n = ds.len();
        let mut tree = RTree {
            pool: PointPool::new(ds),
            metric,
            nodes: Vec::new(),
            root: 0,
            capacity,
            aux,
            policy: RebuildPolicy::default(),
            stale: 0,
        };
        tree.rebuild_structure((0..n).collect());
        tree
    }

    /// Replaces the whole node structure with a fresh STR packing of `ids`
    /// (the pool and aux values are untouched). Shared by the bulk build
    /// and [`DynamicIndex::compact`].
    fn rebuild_structure(&mut self, mut ids: Vec<PointId>) {
        let dim = self.pool.dim().max(1);
        self.nodes.clear();
        if ids.is_empty() {
            self.nodes.push(RNode {
                mbr: Mbr::empty(dim),
                kind: RNodeKind::Leaf(Vec::new()),
                aux_max: f64::NEG_INFINITY,
            });
            self.root = 0;
            return;
        }
        // Recursive sort-tile packing: cycle the split dimension, halving the
        // id range until groups fit in a leaf. Produces locality-preserving
        // leaf order for the upper-level packing below.
        let mut leaves: Vec<usize> = Vec::new();
        self.pack(&mut ids, 0, &mut leaves);
        // Pack upper levels over consecutive runs of children.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(self.capacity));
            for chunk in level.chunks(self.capacity) {
                let mut mbr = Mbr::empty(dim);
                let mut aux_max = f64::NEG_INFINITY;
                for &c in chunk {
                    mbr.extend_mbr(&self.nodes[c].mbr);
                    aux_max = aux_max.max(self.nodes[c].aux_max);
                }
                self.nodes.push(RNode {
                    mbr,
                    kind: RNodeKind::Inner(chunk.to_vec()),
                    aux_max,
                });
                next.push(self.nodes.len() - 1);
            }
            level = next;
        }
        self.root = level[0];
    }

    fn pack(&mut self, ids: &mut [PointId], depth: usize, leaves: &mut Vec<usize>) {
        if ids.len() <= self.capacity {
            let mut mbr = Mbr::empty(self.pool.dim());
            let mut aux_max = f64::NEG_INFINITY;
            for &id in ids.iter() {
                mbr.extend_point(self.pool.point(id));
                if let Some(aux) = &self.aux {
                    aux_max = aux_max.max(aux[id]);
                }
            }
            self.nodes.push(RNode {
                mbr,
                kind: RNodeKind::Leaf(ids.to_vec()),
                aux_max,
            });
            leaves.push(self.nodes.len() - 1);
            return;
        }
        let dim = depth % self.pool.dim();
        let mid = ids.len() / 2;
        let pool = &self.pool;
        ids.select_nth_unstable_by(mid, |&a, &b| {
            OrderedF64(pool.point(a)[dim]).cmp(&OrderedF64(pool.point(b)[dim]))
        });
        let (left, right) = ids.split_at_mut(mid);
        self.pack(left, depth + 1, leaves);
        self.pack(right, depth + 1, leaves);
    }

    /// Smallest possible distance from `q` to a point inside `mbr`.
    pub fn min_dist(&self, q: &[f64], mbr: &Mbr) -> f64 {
        self.metric
            .box_min_dist(q, &mbr.lo, &mbr.hi)
            .expect("R-tree requires a metric with box distance bounds (Minkowski family)")
    }

    /// Largest possible distance from `q` to a point inside `mbr`.
    pub fn max_dist(&self, q: &[f64], mbr: &Mbr) -> f64 {
        self.metric
            .box_max_dist(q, &mbr.lo, &mbr.hi)
            .expect("R-tree requires a metric with box distance bounds (Minkowski family)")
    }

    // ----- dynamic updates -----

    /// Inserts a point into a plain (non-aux) tree.
    ///
    /// # Panics
    ///
    /// Panics on aux-augmented trees — use [`RTree::insert_with_aux`].
    pub fn insert(&mut self, p: &[f64]) -> Result<PointId, CoreError> {
        assert!(
            self.aux.is_none(),
            "aux-augmented R-tree requires insert_with_aux(point, aux_value)"
        );
        self.insert_impl(p, f64::NEG_INFINITY)
    }

    /// Inserts a point with its auxiliary value into an aux-augmented tree.
    ///
    /// # Panics
    ///
    /// Panics on plain trees — use [`RTree::insert`].
    pub fn insert_with_aux(&mut self, p: &[f64], aux_value: f64) -> Result<PointId, CoreError> {
        assert!(
            self.aux.is_some(),
            "plain R-tree has no aux values; use insert(point)"
        );
        self.insert_impl(p, aux_value)
    }

    fn insert_impl(&mut self, p: &[f64], aux_value: f64) -> Result<PointId, CoreError> {
        let id = self.pool.insert(p)?;
        if let Some(aux) = &mut self.aux {
            debug_assert_eq!(aux.len() + 1, self.pool.total());
            aux.push(aux_value);
        }
        if let Some(sibling) = self.insert_rec(self.root, id, aux_value) {
            // Root split: grow the tree.
            let mut mbr = self.nodes[self.root].mbr.clone();
            mbr.extend_mbr(&self.nodes[sibling].mbr);
            let aux_max = self.nodes[self.root]
                .aux_max
                .max(self.nodes[sibling].aux_max);
            self.nodes.push(RNode {
                mbr,
                kind: RNodeKind::Inner(vec![self.root, sibling]),
                aux_max,
            });
            self.root = self.nodes.len() - 1;
        }
        Ok(id)
    }

    /// Inserts `id` into the subtree at `node`; returns a new sibling node
    /// if `node` split.
    fn insert_rec(&mut self, node: usize, id: PointId, aux_value: f64) -> Option<usize> {
        // Maintain this node's bounds on the way down.
        let p = self.pool.point(id).to_vec();
        self.nodes[node].mbr.extend_point(&p);
        if aux_value > self.nodes[node].aux_max {
            self.nodes[node].aux_max = aux_value;
        }
        let child_split = match &self.nodes[node].kind {
            RNodeKind::Leaf(_) => None,
            RNodeKind::Inner(children) => {
                // Least margin enlargement, ties by smaller margin.
                let mut best: Option<(usize, f64, f64)> = None;
                for &c in children {
                    let e = self.nodes[c].mbr.enlargement_for(&p);
                    let m = self.nodes[c].mbr.margin();
                    if best.map(|(_, be, bm)| (e, m) < (be, bm)).unwrap_or(true) {
                        best = Some((c, e, m));
                    }
                }
                let (chosen, _, _) = best.expect("inner node has children");
                self.insert_rec(chosen, id, aux_value)
                    .map(|sib| (chosen, sib))
            }
        };
        match &mut self.nodes[node].kind {
            RNodeKind::Leaf(entries) => {
                entries.push(id);
                if entries.len() > self.capacity {
                    return Some(self.split_node(node));
                }
            }
            RNodeKind::Inner(children) => {
                if let Some((_, sib)) = child_split {
                    children.push(sib);
                    if children.len() > self.capacity {
                        return Some(self.split_node(node));
                    }
                }
            }
        }
        None
    }

    /// Splits an overflowing node in place; returns the new sibling's id.
    fn split_node(&mut self, node: usize) -> usize {
        let min_fill = (self.capacity / 2).max(1);
        let (kind, boxes): (RNodeKind, Vec<Mbr>) = match &self.nodes[node].kind {
            RNodeKind::Leaf(entries) => (
                RNodeKind::Leaf(entries.clone()),
                entries
                    .iter()
                    .map(|&e| Mbr::of_point(self.pool.point(e)))
                    .collect(),
            ),
            RNodeKind::Inner(children) => (
                RNodeKind::Inner(children.clone()),
                children
                    .iter()
                    .map(|&c| self.nodes[c].mbr.clone())
                    .collect(),
            ),
        };
        let (g1, g2) = quadratic_split_indices(&boxes, min_fill);
        let rebuild = |idxs: &[usize]| -> (RNodeKind, Mbr, f64) {
            let mut mbr = Mbr::empty(self.pool.dim());
            let mut aux_max = f64::NEG_INFINITY;
            let kind = match &kind {
                RNodeKind::Leaf(entries) => {
                    let picked: Vec<PointId> = idxs.iter().map(|&i| entries[i]).collect();
                    for &e in &picked {
                        mbr.extend_point(self.pool.point(e));
                        if let Some(aux) = &self.aux {
                            aux_max = aux_max.max(aux[e]);
                        }
                    }
                    RNodeKind::Leaf(picked)
                }
                RNodeKind::Inner(children) => {
                    let picked: Vec<usize> = idxs.iter().map(|&i| children[i]).collect();
                    for &c in &picked {
                        mbr.extend_mbr(&self.nodes[c].mbr);
                        aux_max = aux_max.max(self.nodes[c].aux_max);
                    }
                    RNodeKind::Inner(picked)
                }
            };
            (kind, mbr, aux_max)
        };
        let (k1, m1, a1) = rebuild(&g1);
        let (k2, m2, a2) = rebuild(&g2);
        self.nodes[node] = RNode {
            mbr: m1,
            kind: k1,
            aux_max: a1,
        };
        self.nodes.push(RNode {
            mbr: m2,
            kind: k2,
            aux_max: a2,
        });
        self.nodes.len() - 1
    }

    // ----- read-only node API (used by the TPL and RdNN baselines) -----

    /// Root node id.
    pub fn root_id(&self) -> usize {
        self.root
    }

    /// A node's bounding box.
    pub fn node_mbr(&self, id: usize) -> &Mbr {
        &self.nodes[id].mbr
    }

    /// Children of an inner node, or `None` for leaves.
    pub fn node_children(&self, id: usize) -> Option<&[usize]> {
        match &self.nodes[id].kind {
            RNodeKind::Inner(c) => Some(c),
            RNodeKind::Leaf(_) => None,
        }
    }

    /// Point entries of a leaf, or `None` for inner nodes.
    pub fn node_entries(&self, id: usize) -> Option<&[PointId]> {
        match &self.nodes[id].kind {
            RNodeKind::Leaf(e) => Some(e),
            RNodeKind::Inner(_) => None,
        }
    }

    /// Subtree-max auxiliary value of a node.
    pub fn node_aux_max(&self, id: usize) -> f64 {
        self.nodes[id].aux_max
    }

    /// The auxiliary value of a point, if the tree carries them.
    pub fn aux_of(&self, id: PointId) -> Option<f64> {
        self.aux.as_ref().map(|a| a[id])
    }

    /// Number of tree nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Read access to the underlying pool.
    pub fn pool(&self) -> &PointPool {
        &self.pool
    }

    /// Whether a point id is live (not tombstoned).
    #[inline]
    fn alive(&self, id: PointId) -> bool {
        self.pool.is_alive(id)
    }

    /// All live points `p` with `d(q, p) ≤ aux(p)`, pruning subtrees where
    /// `mindist(q, MBR) > subtree-max aux` — the RdNN-Tree reverse-kNN
    /// containment traversal.
    ///
    /// Leaf evaluations run through [`Metric::dist_le`], so a point's
    /// distance accumulation is abandoned as soon as it provably exceeds
    /// the point's containment radius `aux(p)`; decisions and reported
    /// distances are identical to the full-precision evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the tree was built without auxiliary values.
    pub fn aux_containment(&self, q: &[f64], stats: &mut SearchStats) -> Vec<Neighbor> {
        let aux = self
            .aux
            .as_ref()
            .expect("aux_containment requires aux values");
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            stats.count_node();
            let node = &self.nodes[id];
            if self.min_dist(q, &node.mbr) > node.aux_max {
                continue;
            }
            match &node.kind {
                RNodeKind::Leaf(entries) => {
                    for &p in entries {
                        if !self.alive(p) {
                            continue;
                        }
                        stats.count_dist();
                        if let Some(d) = self.metric.dist_le(q, self.pool.point(p), aux[p]) {
                            out.push(Neighbor::new(p, d));
                        }
                    }
                }
                RNodeKind::Inner(children) => stack.extend_from_slice(children),
            }
        }
        rknn_core::neighbor::sort_neighbors(&mut out);
        out
    }

    /// Checks structural invariants: child boxes inside parents, leaf points
    /// inside leaf boxes, every point linked at most once with every *live*
    /// point linked (tombstones may have been unlinked by compaction),
    /// subtree aux maxima correct. Test support.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id];
            match &node.kind {
                RNodeKind::Leaf(entries) => {
                    let mut amax = f64::NEG_INFINITY;
                    for &p in entries {
                        if !node.mbr.contains(self.pool.point(p)) {
                            return false;
                        }
                        if !seen.insert(p) {
                            return false; // duplicate placement
                        }
                        if let Some(aux) = &self.aux {
                            amax = amax.max(aux[p]);
                        }
                    }
                    if self.aux.is_some() && amax > node.aux_max + 1e-12 {
                        return false;
                    }
                }
                RNodeKind::Inner(children) => {
                    if children.is_empty() {
                        return false;
                    }
                    for &c in children {
                        if !node.mbr.contains_mbr(&self.nodes[c].mbr) {
                            return false;
                        }
                        if self.nodes[c].aux_max > node.aux_max + 1e-12 {
                            return false;
                        }
                        stack.push(c);
                    }
                }
            }
        }
        (0..self.pool.total())
            .filter(|&id| self.pool.is_alive(id))
            .all(|id| seen.contains(&id))
    }
}

impl<M: Metric> TreeSubstrate<M> for RTree<M> {
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
        if self.pool.live() > 0 {
            let lb = self.min_dist(sink.query(), &self.nodes[self.root].mbr);
            sink.child(self.root, lb, f64::NAN);
        }
    }

    fn expand(&self, id: usize, _d_pivot: f64, sink: &mut ExpandSink<'_, M, Self>) {
        // Box MINDIST bounds are geometric, not metric evaluations: they
        // are computed here and not charged to `dist_computations`,
        // matching the paper's cost model.
        match &self.nodes[id].kind {
            RNodeKind::Leaf(entries) => {
                for &p in entries {
                    sink.point(p);
                }
            }
            RNodeKind::Inner(children) => {
                for &c in children {
                    let lb = self.min_dist(sink.query(), &self.nodes[c].mbr);
                    sink.child(c, lb, f64::NAN);
                }
            }
        }
    }
}

impl<M: Metric> KnnIndex<M> for RTree<M> {
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
        "r-tree"
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

    fn range(
        &self,
        q: &[f64],
        r: f64,
        exclude: Option<PointId>,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let mut out = Vec::new();
        if self.pool.live() == 0 {
            return out;
        }
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            stats.count_node();
            let node = &self.nodes[id];
            if self.min_dist(q, &node.mbr) > r {
                continue;
            }
            match &node.kind {
                RNodeKind::Leaf(entries) => {
                    for &p in entries {
                        if Some(p) == exclude || !self.alive(p) {
                            continue;
                        }
                        stats.count_dist();
                        let d = self.metric.dist(q, self.pool.point(p));
                        if d <= r {
                            out.push(Neighbor::new(p, d));
                        }
                    }
                }
                RNodeKind::Inner(children) => stack.extend_from_slice(children),
            }
        }
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
        let mut count = 0;
        if self.pool.live() == 0 {
            return 0;
        }
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            stats.count_node();
            let node = &self.nodes[id];
            if self.min_dist(q, &node.mbr) > r {
                continue;
            }
            match &node.kind {
                RNodeKind::Leaf(entries) => {
                    for &p in entries {
                        if Some(p) == exclude || !self.alive(p) {
                            continue;
                        }
                        stats.count_dist();
                        let d = self.metric.dist(q, self.pool.point(p));
                        if (strict && d < r) || (!strict && d <= r) {
                            count += 1;
                        }
                    }
                }
                RNodeKind::Inner(children) => stack.extend_from_slice(children),
            }
        }
        count
    }
}

impl<M: Metric> DynamicIndex<M> for RTree<M> {
    /// Dynamic insert for plain trees (panics on aux-augmented trees; those
    /// must supply the aux value via [`RTree::insert_with_aux`]).
    fn insert(&mut self, point: &[f64]) -> Result<PointId, CoreError> {
        RTree::insert(self, point)
    }

    fn remove(&mut self, id: PointId) -> bool {
        let removed = self.pool.remove(id);
        self.stale += usize::from(removed);
        removed
    }

    fn compact(&mut self) {
        let live: Vec<PointId> = self.pool.iter_live().map(|(id, _)| id).collect();
        self.rebuild_structure(live);
        self.stale = 0;
    }

    fn needs_compaction(&self) -> bool {
        self.policy.recommends_counts(self.stale, self.pool.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknn_core::{BruteForce, Euclidean};

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Arc<Dataset> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| next() * 10.0 - 5.0).collect())
            .collect();
        Dataset::from_rows(&rows).unwrap().into_shared()
    }

    #[test]
    fn mbr_operations() {
        let mut m = Mbr::empty(2);
        m.extend_point(&[1.0, 2.0]);
        m.extend_point(&[3.0, 0.0]);
        assert_eq!(m.lo, vec![1.0, 0.0]);
        assert_eq!(m.hi, vec![3.0, 2.0]);
        assert!(m.contains(&[2.0, 1.0]));
        assert!(!m.contains(&[0.0, 1.0]));
        assert_eq!(m.margin(), 4.0);
        assert_eq!(m.enlargement_for(&[4.0, 1.0]), 1.0);
        let mut other = Mbr::of_point(&[10.0, 10.0]);
        other.extend_mbr(&m);
        assert!(other.contains(&[1.0, 0.0]));
        assert!(other.contains_mbr(&m));
        assert!(!m.contains_mbr(&other));
        assert_eq!(m.enlargement_for_mbr(&other), (10.0 - 3.0) + (10.0 - 2.0));
    }

    #[test]
    fn quadratic_split_respects_min_fill() {
        let boxes: Vec<Mbr> = (0..9)
            .map(|i| Mbr::of_point(&[i as f64, if i < 5 { 0.0 } else { 100.0 }]))
            .collect();
        let (g1, g2) = quadratic_split_indices(&boxes, 4);
        assert!(g1.len() >= 4 && g2.len() >= 4);
        assert_eq!(g1.len() + g2.len(), 9);
        let mut all: Vec<usize> = g1.iter().chain(&g2).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn quadratic_split_separates_clusters() {
        // Two clearly separated clusters split along the gap.
        let boxes: Vec<Mbr> = (0..8)
            .map(|i| {
                let base = if i < 4 { 0.0 } else { 1000.0 };
                Mbr::of_point(&[base + i as f64, 0.0])
            })
            .collect();
        let (g1, g2) = quadratic_split_indices(&boxes, 2);
        let side = |g: &[usize]| g.iter().all(|&i| i < 4) || g.iter().all(|&i| i >= 4);
        assert!(
            side(&g1) && side(&g2),
            "clusters must not be mixed: {g1:?} {g2:?}"
        );
    }

    #[test]
    fn structural_invariant_after_bulk_build() {
        let ds = random_dataset(500, 4, 11);
        let tree = RTree::build(ds.clone(), Euclidean);
        assert!(tree.check_invariants());
    }

    #[test]
    fn cursor_matches_brute_force() {
        let ds = random_dataset(400, 3, 12);
        let tree = RTree::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds.clone(), Euclidean);
        let q = ds.point(42).to_vec();
        let mut st = SearchStats::new();
        let want = bf.knn(&q, 400, None, &mut st);
        let mut cur = tree.cursor(&q, None);
        let got: Vec<_> = std::iter::from_fn(|| cur.next()).collect();
        assert_eq!(got.len(), 400);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.dist - w.dist).abs() < 1e-9);
        }
    }

    #[test]
    fn range_and_count_match_defaults() {
        let ds = random_dataset(300, 2, 13);
        let tree = RTree::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds.clone(), Euclidean);
        let q = ds.point(5).to_vec();
        let mut st = SearchStats::new();
        for r in [0.5, 1.5, 4.0] {
            let got = tree.range(&q, r, Some(5), &mut st);
            let want: Vec<_> = bf
                .knn(&q, 300, Some(5), &mut SearchStats::new())
                .into_iter()
                .filter(|n| n.dist <= r)
                .collect();
            assert_eq!(got.len(), want.len(), "r={r}");
            assert_eq!(tree.range_count(&q, r, false, Some(5), &mut st), want.len());
            let strict_want = want.iter().filter(|n| n.dist < r).count();
            assert_eq!(tree.range_count(&q, r, true, Some(5), &mut st), strict_want);
        }
    }

    #[test]
    fn dynamic_inserts_keep_tree_exact() {
        let ds = random_dataset(200, 3, 14);
        let mut tree = RTree::build_with(ds.clone(), Euclidean, 8, None);
        let mut all_rows: Vec<Vec<f64>> = ds.iter().map(|(_, p)| p.to_vec()).collect();
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..300 {
            let p: Vec<f64> = (0..3).map(|_| next() * 10.0 - 5.0).collect();
            tree.insert(&p).unwrap();
            all_rows.push(p);
        }
        assert!(
            tree.check_invariants(),
            "invariants after 300 inserts with capacity 8"
        );
        assert_eq!(tree.num_points(), 500);
        // Exactness against a scan over the union.
        let full = Dataset::from_rows(&all_rows).unwrap().into_shared();
        let reference = crate::linear::LinearScan::build(full.clone(), Euclidean);
        let mut st = SearchStats::new();
        let q = full.point(450).to_vec();
        let got = tree.knn(&q, 12, None, &mut st);
        let want = reference.knn(&q, 12, None, &mut st);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.dist - w.dist).abs() < 1e-9);
        }
    }

    #[test]
    fn remove_hides_points() {
        let ds = random_dataset(100, 2, 15);
        let mut tree = RTree::build(ds.clone(), Euclidean);
        assert!(DynamicIndex::remove(&mut tree, 7));
        assert!(!DynamicIndex::remove(&mut tree, 7));
        let mut st = SearchStats::new();
        let all = tree.knn(ds.point(7), 100, None, &mut st);
        assert_eq!(all.len(), 99);
        assert!(all.iter().all(|n| n.id != 7));
        assert_eq!(tree.range_count(ds.point(7), 0.0, false, None, &mut st), 0);
    }

    #[test]
    fn compact_preserves_results_and_resets_policy() {
        let ds = random_dataset(200, 3, 21);
        let mut tree = RTree::build_with(ds.clone(), Euclidean, 8, None);
        for i in 0..40 {
            tree.insert(&[i as f64 * 0.1, 0.0, 0.0]).unwrap();
        }
        for id in (0..240).step_by(3) {
            assert!(DynamicIndex::remove(&mut tree, id));
        }
        assert!(tree.needs_compaction());
        let q = ds.point(4).to_vec();
        let want: Vec<_> = {
            let mut cur = tree.cursor(&q, None);
            std::iter::from_fn(|| cur.next())
                .map(|n| (n.id, n.dist.to_bits()))
                .collect()
        };
        tree.compact();
        assert!(tree.check_invariants());
        assert!(!tree.needs_compaction());
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
    fn aux_insert_updates_containment() {
        // 1-NN-distance aux; inserting a new point with its own aux value
        // makes it discoverable by containment queries.
        let ds = random_dataset(120, 2, 16);
        let bf = BruteForce::new(ds.clone(), Euclidean);
        let mut st = SearchStats::new();
        let aux: Vec<f64> = (0..ds.len())
            .map(|i| bf.dk(i, 1, &mut st).unwrap())
            .collect();
        let mut tree = RTree::build_with_aux(ds.clone(), Euclidean, aux);
        let new_point = vec![0.25, 0.25];
        let id = tree.insert_with_aux(&new_point, 10.0).unwrap();
        assert!(tree.check_invariants());
        let hits = tree.aux_containment(&[0.5, 0.5], &mut st);
        assert!(
            hits.iter().any(|n| n.id == id),
            "new point with generous aux must be found"
        );
        assert_eq!(tree.aux_of(id), Some(10.0));
    }

    #[test]
    #[should_panic(expected = "insert_with_aux")]
    fn plain_insert_on_aux_tree_panics() {
        let ds = random_dataset(10, 2, 17);
        let mut tree = RTree::build_with_aux(ds, Euclidean, vec![1.0; 10]);
        let _ = RTree::insert(&mut tree, &[0.0, 0.0]);
    }

    #[test]
    fn aux_containment_finds_self_cover() {
        // aux = 1-NN distance: every point contains its own nearest neighbor
        // ⇒ aux_containment(q) from a dataset point returns its reverse-1NNs.
        let ds = random_dataset(120, 2, 14);
        let bf = BruteForce::new(ds.clone(), Euclidean);
        let mut st = SearchStats::new();
        let aux: Vec<f64> = (0..ds.len())
            .map(|i| bf.dk(i, 1, &mut st).unwrap())
            .collect();
        let tree = RTree::build_with_aux(ds.clone(), Euclidean, aux);
        for q in [0usize, 60, 119] {
            let got: Vec<_> = tree
                .aux_containment(ds.point(q), &mut st)
                .into_iter()
                .filter(|n| n.id != q)
                .map(|n| n.id)
                .collect();
            let want: Vec<_> = bf.rknn(q, 1, &mut st).into_iter().map(|n| n.id).collect();
            assert_eq!(got, want, "q={q}");
        }
    }

    #[test]
    fn empty_and_tiny_trees() {
        let ds = Dataset::from_flat(2, vec![]).unwrap().into_shared();
        let mut tree = RTree::build(ds, Euclidean);
        let mut st = SearchStats::new();
        assert!(tree.knn(&[0.0, 0.0], 3, None, &mut st).is_empty());
        assert_eq!(tree.range_count(&[0.0, 0.0], 1.0, false, None, &mut st), 0);
        // An empty tree accepts inserts.
        let id = tree.insert(&[1.0, 1.0]).unwrap();
        assert_eq!(tree.knn(&[0.0, 0.0], 3, None, &mut st)[0].id, id);

        let ds = Dataset::from_rows(&[vec![1.0, 1.0]]).unwrap().into_shared();
        let tree = RTree::build(ds, Euclidean);
        assert_eq!(tree.knn(&[0.0, 0.0], 3, None, &mut st).len(), 1);
    }
}
