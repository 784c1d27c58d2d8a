//! MRkNNCoP — conservative kNN-distance models in an M-tree \[3\].
//!
//! "The pruning strategy relies on the assumption that the kNN distances
//! … fit a formula for the fractal dimension FD involving the neighborhood
//! size k" (§2.1): `log d_k` is modeled as an affine function of `log k`.
//! For every point we fit the least-squares slope of that curve over
//! `k = 1 … k_max` and shift the intercept up/down until the line bounds
//! every observed distance — yielding *conservative* lower/upper bounds
//! `lb_p(k) ≤ d_k(p) ≤ ub_p(k)` for all supported `k` (the original paper
//! computes the optimal such lines via convex hulls; the shifted
//! least-squares lines are marginally looser but equally sound, see
//! `DESIGN.md` §4).
//!
//! Queries traverse an M-tree whose nodes aggregate subtree-maximum upper
//! line coefficients: a subtree is pruned when even its most generous upper
//! bound cannot reach the query. Leaf survivors split into *certain hits*
//! (`d ≤ lb`) and *candidates* (`d ≤ ub`) that are verified with forward
//! kNN queries. Results are exact for any `k ≤ k_max`.
//!
//! Precomputation — every dataset point's `k_max` nearest distances (one
//! batched pass, [`rknn_index::knn_dists`]) plus the tree build — is
//! exactly the cost the paper's Figures 3–6 and 9 put on the scales
//! against RDT's zero setup.

use crate::common::verify_rknn;
use rknn_core::{CursorScratch, Dataset, Metric, Neighbor, PointId, SearchStats};
use rknn_index::{knn_dists, KnnIndex, MTree};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-point conservative bound lines for `ln d_k = a + b·ln k`.
#[derive(Debug, Clone, Copy)]
pub struct BoundLines {
    /// Lower-bound intercept.
    pub lo_a: f64,
    /// Lower-bound slope.
    pub lo_b: f64,
    /// Upper-bound intercept.
    pub up_a: f64,
    /// Upper-bound slope.
    pub up_b: f64,
}

impl BoundLines {
    /// Fits conservative lines to the kNN distances `d_1 … d_kmax`
    /// (ascending). Zero distances are clamped to `f64::MIN_POSITIVE`
    /// before taking logarithms, which only loosens the lower bound.
    pub fn fit(knn_dists: &[f64]) -> Self {
        let m = knn_dists.len();
        debug_assert!(m >= 1);
        let xs: Vec<f64> = (1..=m).map(|k| (k as f64).ln()).collect();
        let ys: Vec<f64> = knn_dists
            .iter()
            .map(|&d| d.max(f64::MIN_POSITIVE).ln())
            .collect();
        // Least-squares slope; degenerate spreads fall back to slope 0.
        let n = m as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for (x, y) in xs.iter().zip(&ys) {
            sxx += (x - mx) * (x - mx);
            sxy += (x - mx) * (y - my);
        }
        // d_k is nondecreasing in k, so the LS slope is nonnegative on real
        // inputs; clamp defensively for degenerate cases.
        let b = if sxx > 0.0 { (sxy / sxx).max(0.0) } else { 0.0 };
        let mut up_a = f64::NEG_INFINITY;
        let mut lo_a = f64::INFINITY;
        for (x, y) in xs.iter().zip(&ys) {
            up_a = up_a.max(y - b * x);
            lo_a = lo_a.min(y - b * x);
        }
        // Log-space safety margin: the exp/ln round trip can land 1 ulp on
        // the wrong side of d_k, and boundary cases (d(x, q) exactly equal
        // to d_k(x), i.e. q *is* the k-th neighbor) are common for queries
        // drawn from the dataset. A relative 1e-9 widening keeps the bounds
        // conservative without affecting pruning power.
        up_a += 1e-9;
        lo_a -= 1e-9;
        BoundLines {
            lo_a,
            lo_b: b,
            up_a,
            up_b: b,
        }
    }

    /// The conservative lower bound `lb(k)`.
    #[inline]
    pub fn lower(&self, k: usize) -> f64 {
        (self.lo_a + self.lo_b * (k as f64).ln()).exp()
    }

    /// The conservative upper bound `ub(k)`.
    #[inline]
    pub fn upper(&self, k: usize) -> f64 {
        (self.up_a + self.up_b * (k as f64).ln()).exp()
    }
}

/// The MRkNNCoP index: bound lines + M-tree with subtree aggregates.
#[derive(Debug)]
pub struct MRkNNCoP<M: Metric> {
    tree: MTree<M>,
    lines: Vec<BoundLines>,
    /// Per-M-tree-node subtree maxima of `(up_a, up_b)`.
    node_agg: Vec<(f64, f64)>,
    k_max: usize,
    precompute_time: Duration,
    precompute_stats: SearchStats,
}

impl<M: Metric + Clone> MRkNNCoP<M> {
    /// Builds the index: every point's `k_max`-NN distances in one batched
    /// pass over `forward` ([`knn_dists`]), bound-line fitting, M-tree
    /// construction and aggregate propagation.
    pub fn build<I>(ds: Arc<Dataset>, metric: M, k_max: usize, forward: &I) -> Self
    where
        I: KnnIndex<M> + ?Sized,
    {
        assert!(k_max >= 1, "k_max must be positive");
        let start = Instant::now();
        let mut stats = SearchStats::new();
        // Only the `n − 1` other points have distances; a lone point fits a
        // line through `f64::MIN_POSITIVE`.
        let known = k_max.min(ds.len().saturating_sub(1));
        let mut lines = vec![BoundLines::fit(&[f64::MIN_POSITIVE]); ds.len()];
        let ids: Vec<PointId> = (0..ds.len()).collect();
        knn_dists(forward, &ids, k_max, &mut stats, |i, d| {
            if known > 0 {
                lines[i] = BoundLines::fit(&d[..known]);
            }
        });
        let tree = MTree::build(ds, metric);
        // Propagate subtree maxima of the upper-line coefficients. Taking
        // the componentwise max of (a, b) over a subtree over-approximates
        // max_p ub_p(k) for every k ≥ 1 because ln k ≥ 0.
        let mut node_agg = vec![(f64::NEG_INFINITY, f64::NEG_INFINITY); tree.node_count()];
        fn aggregate<M: Metric>(
            tree: &MTree<M>,
            lines: &[BoundLines],
            agg: &mut Vec<(f64, f64)>,
            node: usize,
        ) -> (f64, f64) {
            let mut best = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            let n = tree.node(node);
            for e in n.entries.clone() {
                let sub = match e.child {
                    None => (lines[e.pivot].up_a, lines[e.pivot].up_b),
                    Some(c) => aggregate(tree, lines, agg, c),
                };
                best.0 = best.0.max(sub.0);
                best.1 = best.1.max(sub.1);
            }
            agg[node] = best;
            best
        }
        aggregate(&tree, &lines, &mut node_agg, tree.root_id());
        MRkNNCoP {
            tree,
            lines,
            node_agg,
            k_max,
            precompute_time: start.elapsed(),
            precompute_stats: stats,
        }
    }

    /// Maximum reverse rank supported by the fitted bounds.
    pub fn k_max(&self) -> usize {
        self.k_max
    }

    /// Wall-clock precomputation time.
    pub fn precompute_time(&self) -> Duration {
        self.precompute_time
    }

    /// Work spent in precomputation.
    pub fn precompute_stats(&self) -> SearchStats {
        self.precompute_stats
    }

    /// The fitted bound lines (exposed for tests and diagnostics).
    pub fn lines(&self) -> &[BoundLines] {
        &self.lines
    }

    /// Exact reverse-kNN of dataset point `q` for any `k ≤ k_max`,
    /// allocating fresh working memory. Batch callers should hold one
    /// [`CursorScratch`] per worker and use [`MRkNNCoP::query_with`].
    ///
    /// `verify` serves the forward kNN queries of the refinement step (the
    /// paper uses the same backing index for both roles).
    pub fn query<I>(
        &self,
        q: PointId,
        k: usize,
        verify: &I,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor>
    where
        I: KnnIndex<M> + ?Sized,
    {
        self.query_with(q, k, verify, &mut CursorScratch::new(), stats)
    }

    /// Exact reverse-kNN of dataset point `q` for any `k ≤ k_max` against
    /// caller-owned working memory.
    ///
    /// The containment traversal prunes its query–pivot evaluations with
    /// [`Metric::dist_le`]: a subtree is descended only when `d(q, pivot) ≤
    /// bound + radius` (the closed-ball reading of `mindist ≤ bound`), and
    /// a leaf point's distance accumulation is abandoned past its
    /// conservative upper bound `ub_p(k)`. Refinement runs through
    /// [`verify_rknn`]'s bounded verification cursor over `scratch`.
    pub fn query_with<I>(
        &self,
        q: PointId,
        k: usize,
        verify: &I,
        scratch: &mut CursorScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor>
    where
        I: KnnIndex<M> + ?Sized,
    {
        assert!(k >= 1 && k <= self.k_max, "k must be within 1..=k_max");
        let metric = self.tree.metric();
        let qp = self.tree.point(q).to_vec();
        let ln_k = (k as f64).ln();
        let mut certain = Vec::new();
        let mut candidates: Vec<Neighbor> = Vec::new();
        let mut stack = vec![self.tree.root_id()];
        while let Some(node) = stack.pop() {
            stats.count_node();
            let n = self.tree.node(node);
            for e in &n.entries {
                match e.child {
                    Some(c) => {
                        stats.count_dist();
                        let (agg_a, agg_b) = self.node_agg[c];
                        let bound = (agg_a + agg_b * ln_k).exp();
                        // `(d − radius)⁺ ≤ bound` ⟺ `d ≤ bound + radius`
                        // for the nonnegative `bound`, so the pivot
                        // evaluation can be abandoned past the sum.
                        if metric
                            .dist_le(&qp, self.tree.point(e.pivot), bound + e.radius)
                            .is_some()
                        {
                            stack.push(c);
                        }
                    }
                    None => {
                        let p = e.pivot;
                        if p == q {
                            continue;
                        }
                        stats.count_dist();
                        let lines = &self.lines[p];
                        if let Some(d) = metric.dist_le(&qp, self.tree.point(p), lines.upper(k)) {
                            if d <= lines.lower(k) {
                                certain.push(Neighbor::new(p, d));
                            } else {
                                candidates.push(Neighbor::new(p, d));
                            }
                        }
                    }
                }
            }
        }
        for cand in candidates {
            if verify_rknn(verify, cand.id, cand.dist, k, scratch, stats) {
                certain.push(cand);
            }
        }
        rknn_core::neighbor::sort_neighbors(&mut certain);
        certain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rknn_core::{BruteForce, Euclidean};
    use rknn_index::LinearScan;

    fn uniform(n: usize, dim: usize, seed: u64) -> Arc<Dataset> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.random::<f64>() * 10.0).collect())
            .collect();
        Dataset::from_rows(&rows).unwrap().into_shared()
    }

    #[test]
    fn bound_lines_bracket_the_curve() {
        // Power-law distances d_k = 0.3·k^(1/2).
        let dists: Vec<f64> = (1..=50).map(|k| 0.3 * (k as f64).sqrt()).collect();
        let lines = BoundLines::fit(&dists);
        for (i, &d) in dists.iter().enumerate() {
            let k = i + 1;
            assert!(lines.lower(k) <= d * (1.0 + 1e-9), "lb violated at k={k}");
            assert!(lines.upper(k) >= d * (1.0 - 1e-9), "ub violated at k={k}");
        }
        // On an exact power law both lines are tight.
        assert!((lines.upper(25) / lines.lower(25) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bound_lines_handle_zero_distances() {
        let lines = BoundLines::fit(&[0.0, 0.0, 1.0, 2.0]);
        assert!(lines.lower(1) <= f64::MIN_POSITIVE * 2.0);
        assert!(lines.upper(4) >= 2.0 * (1.0 - 1e-9));
    }

    #[test]
    fn exact_against_brute_force() {
        let ds = uniform(300, 3, 120);
        let forward = LinearScan::build(ds.clone(), Euclidean);
        let cop = MRkNNCoP::build(ds.clone(), Euclidean, 20, &forward);
        let bf = BruteForce::new(ds, Euclidean);
        let mut st = SearchStats::new();
        for k in [1usize, 7, 20] {
            for q in [0usize, 123, 299] {
                let got: Vec<_> = cop
                    .query(q, k, &forward, &mut st)
                    .iter()
                    .map(|n| n.id)
                    .collect();
                let want: Vec<_> = bf.rknn(q, k, &mut st).iter().map(|n| n.id).collect();
                assert_eq!(got, want, "k={k} q={q}");
            }
        }
    }

    #[test]
    fn precomputation_is_accounted() {
        let ds = uniform(100, 2, 121);
        let forward = LinearScan::build(ds.clone(), Euclidean);
        let cop = MRkNNCoP::build(ds, Euclidean, 10, &forward);
        // The batched pass's rule (`DESIGN.md` §3) at n = 100, m = 10
        // centers: 100·10 assignment and 100·10 center distances, plus the
        // 7,033 gathered rows the queries evaluate.
        let dists = cop.precompute_stats().dist_computations;
        assert!(dists > 0, "the k_max-NN pass is charged");
        assert_eq!(dists, 100 * 10 + 100 * 10 + 7_033);
        assert_eq!(cop.k_max(), 10);
        assert!(cop.precompute_time() > Duration::ZERO);
        assert_eq!(cop.lines().len(), 100);
    }

    #[test]
    #[should_panic(expected = "within 1..=k_max")]
    fn rejects_k_beyond_kmax() {
        let ds = uniform(50, 2, 122);
        let forward = LinearScan::build(ds.clone(), Euclidean);
        let cop = MRkNNCoP::build(ds, Euclidean, 5, &forward);
        let mut st = SearchStats::new();
        let _ = cop.query(0, 6, &forward, &mut st);
    }
}
