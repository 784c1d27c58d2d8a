//! A vantage-point tree (Yianilos) with incremental best-first search.
//!
//! The VP-tree is not used in the paper's experiments; it is included as an
//! additional metric substrate to exercise RDT's claim of working on top of
//! *any* index supporting incremental forward NN queries (§4), and as an
//! independent witness in substrate-agreement tests.
//!
//! The tree is dynamic: points live in a [`PointPool`], inserts descend to
//! a leaf widening each vantage point's child distance interval along the
//! way (correctness needs only that every subtree point's distance to the
//! vantage point stays inside the stored interval), and removals tombstone
//! — dead points keep routing the search but are filtered from emission by
//! the traversal core's uniform `is_emittable` contract. Accumulated
//! tombstones are unlinked by [`DynamicIndex::compact`], governed by a
//! [`RebuildPolicy`].

use crate::pool::{PointPool, RebuildPolicy};
use crate::traits::{DynamicIndex, KnnIndex, NnCursor};
use crate::traversal::{self, ExpandSink, TreeSubstrate};
use rknn_core::{
    triangle_lower, CoreError, CursorScratch, Dataset, Metric, Neighbor, OrderedF64, PointId,
    SearchStats,
};
use std::sync::Arc;

const LEAF_SIZE: usize = 12;

#[derive(Debug, Clone)]
enum VpNode {
    Leaf(Vec<PointId>),
    Inner {
        vp: PointId,
        /// `(subtree, min, max)` distance interval from the vantage point to
        /// the points of each child subtree.
        near: Option<(usize, f64, f64)>,
        far: Option<(usize, f64, f64)>,
    },
}

/// A dynamic vantage-point tree over a [`PointPool`].
#[derive(Debug, Clone)]
pub struct VpTree<M: Metric> {
    pool: PointPool,
    metric: M,
    nodes: Vec<VpNode>,
    root: Option<usize>,
    policy: RebuildPolicy,
    /// Tombstoned points still linked into the navigation structure —
    /// reset by [`DynamicIndex::compact`], which unlinks them.
    stale: usize,
}

impl<M: Metric> VpTree<M> {
    /// Builds a VP-tree over a shared dataset.
    pub fn build(ds: Arc<Dataset>, metric: M) -> Self {
        let mut tree = VpTree {
            pool: PointPool::new(ds),
            metric,
            nodes: Vec::new(),
            root: None,
            policy: RebuildPolicy::default(),
            stale: 0,
        };
        let mut ids: Vec<PointId> = (0..tree.pool.total()).collect();
        tree.root = tree.build_rec(&mut ids);
        tree
    }

    fn build_rec(&mut self, ids: &mut [PointId]) -> Option<usize> {
        if ids.is_empty() {
            return None;
        }
        if ids.len() <= LEAF_SIZE {
            self.nodes.push(VpNode::Leaf(ids.to_vec()));
            return Some(self.nodes.len() - 1);
        }
        // Use the first id as the vantage point (build order is already
        // arbitrary; callers wanting a randomized tree can shuffle the
        // dataset). Partition the rest around the median distance.
        let vp = ids[0];
        let vp_coords = self.pool.point(vp).to_vec();
        let rest = &mut ids[1..];
        let mut dists: Vec<(f64, PointId)> = rest
            .iter()
            .map(|&id| (self.metric.dist(&vp_coords, self.pool.point(id)), id))
            .collect();
        let mid = dists.len() / 2;
        dists.sort_by_key(|a| OrderedF64(a.0));
        let (near_part, far_part) = dists.split_at(mid.max(1).min(dists.len()));
        let interval = |part: &[(f64, PointId)]| -> (f64, f64) {
            let min = part.first().map(|p| p.0).unwrap_or(0.0);
            let max = part.last().map(|p| p.0).unwrap_or(0.0);
            (min, max)
        };
        let (near_min, near_max) = interval(near_part);
        let (far_min, far_max) = interval(far_part);
        let mut near_ids: Vec<PointId> = near_part.iter().map(|p| p.1).collect();
        let mut far_ids: Vec<PointId> = far_part.iter().map(|p| p.1).collect();
        let near = self
            .build_rec(&mut near_ids)
            .map(|n| (n, near_min, near_max));
        let far = self.build_rec(&mut far_ids).map(|n| (n, far_min, far_max));
        self.nodes.push(VpNode::Inner { vp, near, far });
        Some(self.nodes.len() - 1)
    }

    /// Number of tree nodes (including any unreachable nodes orphaned by
    /// leaf splits; [`DynamicIndex::compact`] rebuilds without them).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Read access to the underlying pool.
    pub fn pool(&self) -> &PointPool {
        &self.pool
    }

    /// Links an existing pool point into the navigation structure: descend
    /// to a leaf, widening each chosen child's distance interval so the new
    /// point's distance to every vantage point on the path stays inside the
    /// interval the search prunes with. An overfull leaf is rebuilt in
    /// place into a subtree via the static construction.
    fn attach(&mut self, id: PointId) {
        let Some(root) = self.root else {
            self.nodes.push(VpNode::Leaf(vec![id]));
            self.root = Some(self.nodes.len() - 1);
            return;
        };
        let mut cur = root;
        loop {
            let vp = match &self.nodes[cur] {
                VpNode::Leaf(_) => {
                    let VpNode::Leaf(pts) = &mut self.nodes[cur] else {
                        unreachable!()
                    };
                    pts.push(id);
                    if pts.len() > LEAF_SIZE {
                        self.split_leaf(cur);
                    }
                    return;
                }
                VpNode::Inner { vp, .. } => *vp,
            };
            let d = self.metric.dist(self.pool.point(id), self.pool.point(vp));
            let VpNode::Inner { near, far, .. } = &mut self.nodes[cur] else {
                unreachable!()
            };
            // Route into the near child while the distance falls inside (or
            // under) its interval; otherwise the far child, creating it when
            // absent. Widening the chosen interval preserves the pruning
            // invariant; which side is chosen affects only balance.
            let next = match (near.as_mut(), far.as_mut()) {
                (Some((n, lo, hi)), far_opt) => {
                    if d <= *hi {
                        *lo = lo.min(d);
                        *hi = hi.max(d);
                        *n
                    } else {
                        match far_opt {
                            Some((f, lo, hi)) => {
                                *lo = lo.min(d);
                                *hi = hi.max(d);
                                *f
                            }
                            None => {
                                let node = self.nodes.len();
                                self.nodes.push(VpNode::Leaf(vec![id]));
                                let VpNode::Inner { far, .. } = &mut self.nodes[cur] else {
                                    unreachable!()
                                };
                                *far = Some((node, d, d));
                                return;
                            }
                        }
                    }
                }
                (None, Some((f, lo, hi))) => {
                    *lo = lo.min(d);
                    *hi = hi.max(d);
                    *f
                }
                (None, None) => {
                    let node = self.nodes.len();
                    self.nodes.push(VpNode::Leaf(vec![id]));
                    let VpNode::Inner { near, .. } = &mut self.nodes[cur] else {
                        unreachable!()
                    };
                    *near = Some((node, d, d));
                    return;
                }
            };
            cur = next;
        }
    }

    /// Rebuilds an overfull leaf into a subtree in place. The rebuilt
    /// subtree's root node is moved into the leaf's slot so no parent link
    /// changes; the vacated slot becomes an unreachable empty leaf that a
    /// later [`DynamicIndex::compact`] discards.
    fn split_leaf(&mut self, leaf: usize) {
        let VpNode::Leaf(pts) = &mut self.nodes[leaf] else {
            unreachable!()
        };
        let mut ids = std::mem::take(pts);
        let sub = self.build_rec(&mut ids).expect("split leaf is never empty");
        self.nodes[leaf] = std::mem::replace(&mut self.nodes[sub], VpNode::Leaf(Vec::new()));
    }

    /// Checks the distance-interval invariant over the whole tree (test
    /// support): every point of each child subtree lies inside the
    /// `(min, max)` interval its parent stores for that child, and every
    /// live pool point is linked exactly once.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        let link = |id: PointId, seen: &mut std::collections::HashSet<PointId>| seen.insert(id);
        let Some(root) = self.root else {
            return self.pool.live() == 0;
        };
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            match &self.nodes[i] {
                VpNode::Leaf(pts) => {
                    for &p in pts {
                        if !link(p, &mut seen) {
                            return false;
                        }
                    }
                }
                VpNode::Inner { vp, near, far } => {
                    if !link(*vp, &mut seen) {
                        return false;
                    }
                    for child in [near, far].into_iter().flatten() {
                        let (node, lo, hi) = *child;
                        let mut sub = vec![node];
                        while let Some(j) = sub.pop() {
                            match &self.nodes[j] {
                                VpNode::Leaf(pts) => {
                                    for &p in pts {
                                        let d = self
                                            .metric
                                            .dist(self.pool.point(*vp), self.pool.point(p));
                                        if d < lo - 1e-9 || d > hi + 1e-9 {
                                            return false;
                                        }
                                    }
                                }
                                VpNode::Inner { vp: v2, near, far } => {
                                    let d = self
                                        .metric
                                        .dist(self.pool.point(*vp), self.pool.point(*v2));
                                    if d < lo - 1e-9 || d > hi + 1e-9 {
                                        return false;
                                    }
                                    sub.extend([near, far].into_iter().flatten().map(|c| c.0));
                                }
                            }
                        }
                        stack.push(node);
                    }
                }
            }
        }
        (0..self.pool.total())
            .filter(|&id| self.pool.is_alive(id))
            .all(|id| seen.contains(&id))
    }
}

impl<M: Metric> TreeSubstrate<M> for VpTree<M> {
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
            sink.child(root, 0.0, f64::NAN);
        }
    }

    fn expand(&self, id: usize, _d_pivot: f64, sink: &mut ExpandSink<'_, M, Self>) {
        match &self.nodes[id] {
            VpNode::Leaf(pts) => {
                for &p in pts {
                    sink.point(p);
                }
            }
            VpNode::Inner { vp, near, far } => {
                // One evaluation serves the vantage point's own emission and
                // both children's annulus bounds, so the abandonment slack
                // is the larger of the two outer radii.
                let reach = [near, far]
                    .into_iter()
                    .flatten()
                    .fold(0.0f64, |r, c| r.max(c.2));
                if let Some(d) = sink.pivot(*vp, reach) {
                    sink.point_at(*vp, d);
                    for child in [near, far].into_iter().flatten() {
                        let (node, lo, hi) = *child;
                        sink.child(node, (d - hi).max(lo - d).max(0.0), d);
                    }
                }
            }
        }
    }
}

impl<M: Metric> KnnIndex<M> for VpTree<M> {
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
        "vp-tree"
    }

    fn base_rows(&self) -> Option<&Dataset> {
        self.pool.contiguous_base()
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

    /// A depth-first walk: each visited node costs one node visit, each
    /// vantage point and each live leaf point other than `exclude` one
    /// distance. A child is skipped when the rounding-safe bound on its
    /// annulus, the larger of [`triangle_lower`]`(d, max)` and
    /// [`triangle_lower`]`(min, d)`, exceeds `r`. Tombstoned vantage points
    /// still route the walk.
    fn range(
        &self,
        q: &[f64],
        r: f64,
        exclude: Option<PointId>,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let emits = |id: PointId| Some(id) != exclude && self.pool.is_alive(id);
        let mut out = Vec::new();
        let mut stack: Vec<usize> = self.root.into_iter().collect();
        while let Some(node) = stack.pop() {
            stats.count_node();
            match &self.nodes[node] {
                VpNode::Leaf(pts) => {
                    for &p in pts.iter().filter(|&&p| emits(p)) {
                        stats.count_dist();
                        if let Some(d) = self.metric.dist_le(q, self.pool.point(p), r) {
                            out.push(Neighbor::new(p, d));
                        }
                    }
                }
                VpNode::Inner { vp, near, far } => {
                    stats.count_dist();
                    let d = self.metric.dist(q, self.pool.point(*vp));
                    if d <= r && emits(*vp) {
                        out.push(Neighbor::new(*vp, d));
                    }
                    for &(child, lo, hi) in [near, far].into_iter().flatten() {
                        if triangle_lower(d, hi).max(triangle_lower(lo, d)) <= r {
                            stack.push(child);
                        }
                    }
                }
            }
        }
        out
    }
}

impl<M: Metric> DynamicIndex<M> for VpTree<M> {
    fn insert(&mut self, point: &[f64]) -> Result<PointId, CoreError> {
        let id = self.pool.insert(point)?;
        self.attach(id);
        Ok(id)
    }

    fn remove(&mut self, id: PointId) -> bool {
        let removed = self.pool.remove(id);
        self.stale += usize::from(removed);
        removed
    }

    fn compact(&mut self) {
        self.nodes.clear();
        self.root = None;
        let mut ids: Vec<PointId> = self.pool.iter_live().map(|(id, _)| id).collect();
        self.root = self.build_rec(&mut ids);
        self.stale = 0;
    }

    fn needs_compaction(&self) -> bool {
        self.policy.recommends_counts(self.stale, self.pool.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknn_core::{BruteForce, Euclidean, Manhattan, SearchStats};

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
    fn cursor_is_complete_and_ordered() {
        let ds = random_dataset(257, 3, 7);
        let tree = VpTree::build(ds.clone(), Euclidean);
        let q = ds.point(0).to_vec();
        let mut cur = tree.cursor(&q, None);
        let got: Vec<_> = std::iter::from_fn(|| cur.next()).collect();
        assert_eq!(got.len(), 257);
        let mut seen = std::collections::HashSet::new();
        let mut prev = 0.0;
        for n in &got {
            assert!(seen.insert(n.id), "no duplicates");
            assert!(n.dist >= prev - 1e-12);
            prev = n.dist;
        }
    }

    #[test]
    fn knn_matches_brute_force_in_l1() {
        let ds = random_dataset(300, 5, 8);
        let tree = VpTree::build(ds.clone(), Manhattan);
        let bf = BruteForce::new(ds.clone(), Manhattan);
        for qi in [3usize, 80, 299] {
            let mut st = SearchStats::new();
            let got = tree.knn(ds.point(qi), 7, Some(qi), &mut st);
            let want = bf.knn(ds.point(qi), 7, Some(qi), &mut SearchStats::new());
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist - w.dist).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn small_and_degenerate_inputs() {
        let ds = Dataset::from_rows(&[vec![0.0]]).unwrap().into_shared();
        let tree = VpTree::build(ds, Euclidean);
        let mut st = SearchStats::new();
        assert_eq!(tree.knn(&[0.5], 1, None, &mut st).len(), 1);

        // All-identical points must still stream completely.
        let ds = Dataset::from_rows(&vec![vec![2.0, 2.0]; 40])
            .unwrap()
            .into_shared();
        let tree = VpTree::build(ds, Euclidean);
        let mut cur = tree.cursor(&[0.0, 0.0], None);
        assert_eq!(std::iter::from_fn(|| cur.next()).count(), 40);
    }

    #[test]
    fn dynamic_inserts_keep_tree_exact() {
        let ds = random_dataset(120, 3, 11);
        let mut tree = VpTree::build(ds.clone(), Euclidean);
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut rows: Vec<Vec<f64>> = (0..120).map(|i| ds.point(i).to_vec()).collect();
        for _ in 0..60 {
            let p: Vec<f64> = (0..3).map(|_| next() * 10.0 - 5.0).collect();
            tree.insert(&p).unwrap();
            rows.push(p);
        }
        assert!(tree.check_invariants());
        let all = Dataset::from_rows(&rows).unwrap().into_shared();
        let bf = BruteForce::new(all.clone(), Euclidean);
        for qi in [0usize, 119, 120, 179] {
            let mut st = SearchStats::new();
            let got = tree.knn(all.point(qi), 9, Some(qi), &mut st);
            let want = bf.knn(all.point(qi), 9, Some(qi), &mut SearchStats::new());
            assert_eq!(
                got.iter().map(|n| n.dist.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|n| n.dist.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn remove_hides_points_and_compact_preserves_results() {
        let ds = random_dataset(200, 4, 13);
        let mut tree = VpTree::build(ds.clone(), Euclidean);
        for _ in 0..30 {
            tree.insert(&[9.0, 9.0, 9.0, 9.0]).unwrap();
        }
        for id in (0..230).step_by(3) {
            assert!(tree.remove(id));
        }
        let q = ds.point(1).to_vec();
        let want: Vec<_> = {
            let mut before = tree.cursor(&q, None);
            std::iter::from_fn(|| before.next())
                .map(|n| (n.id, n.dist.to_bits()))
                .collect()
        };
        assert_eq!(want.len(), tree.num_points());
        assert!(want.iter().all(|&(id, _)| id % 3 != 0));

        tree.compact();
        assert!(tree.check_invariants());
        let mut after = tree.cursor(&q, None);
        let got: Vec<_> = std::iter::from_fn(|| after.next())
            .map(|n| (n.id, n.dist.to_bits()))
            .collect();
        assert_eq!(want, got, "compaction must not change the stream");
        // Historical coordinates stay addressable after compaction.
        assert_eq!(tree.point(0), ds.point(0));
    }

    #[test]
    fn rebuild_policy_drives_needs_compaction() {
        let ds = random_dataset(300, 2, 17);
        let mut tree = VpTree::build(ds, Euclidean);
        assert!(!tree.needs_compaction());
        for id in 0..100 {
            tree.remove(id);
        }
        assert!(tree.needs_compaction(), "100/300 dead exceeds the policy");
        tree.compact();
        assert!(!tree.needs_compaction(), "compaction resets the counter");
    }
}
