//! The RdNN-Tree of Yang & Lin \[51\].
//!
//! An R-tree over the data points where every point carries its
//! (precomputed) kNN distance and every node the maximum kNN distance in
//! its subtree: "at each index node, the maximum of the kNN distances of
//! the points (hypersphere radii) is aggregated within the subtree rooted
//! at this node" (§2.1). A reverse-kNN query is then a containment
//! traversal: report `p` iff `d(q, p) ≤ d_k(p)`, prune nodes whose MBR is
//! farther from `q` than the subtree maximum.
//!
//! The structure answers exact RkNN queries *for the single `k` it was
//! built with* — "an independent R-Tree would be required for each possible
//! value of k" is precisely the limitation the paper holds against it —
//! and its precomputation (every point's kNN distance) dominates setup cost.

use rknn_core::{Dataset, Metric, Neighbor, PointId, SearchStats};
use rknn_index::{knn_dists, KnnIndex, RTree};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An RdNN-Tree fixed at one reverse rank `k`.
#[derive(Debug)]
pub struct RdnnTree<M: Metric> {
    tree: RTree<M>,
    k: usize,
    precompute_time: Duration,
    precompute_stats: SearchStats,
}

impl<M: Metric + Clone> RdnnTree<M> {
    /// Builds the tree: every point's `k`-NN distance in one batched pass
    /// over `forward` ([`knn_dists`]), then an aux-augmented R-tree bulk
    /// load.
    pub fn build<I>(ds: Arc<Dataset>, metric: M, k: usize, forward: &I) -> Self
    where
        I: KnnIndex<M> + ?Sized,
    {
        assert!(k >= 1, "k must be positive");
        let start = Instant::now();
        let mut stats = SearchStats::new();
        // Fewer than k other points ⇒ `d_k = +∞`: every query is a reverse
        // neighbor.
        let mut dk = vec![f64::INFINITY; ds.len()];
        let ids: Vec<PointId> = (0..ds.len()).collect();
        knn_dists(forward, &ids, k, &mut stats, |i, d| dk[i] = d[k - 1]);
        // The R-tree stores finite aux values; clamp the degenerate case.
        let max_finite = dk
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(0.0f64, f64::max);
        for d in dk.iter_mut() {
            if !d.is_finite() {
                *d = max_finite.max(1.0) * 1e6;
            }
        }
        let tree = RTree::build_with_aux(ds, metric, dk);
        RdnnTree {
            tree,
            k,
            precompute_time: start.elapsed(),
            precompute_stats: stats,
        }
    }

    /// The reverse rank the tree was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Wall-clock precomputation time (kNN pass + bulk load).
    pub fn precompute_time(&self) -> Duration {
        self.precompute_time
    }

    /// Work spent in precomputation.
    pub fn precompute_stats(&self) -> SearchStats {
        self.precompute_stats
    }

    /// Exact reverse-kNN of dataset point `q`.
    pub fn query(&self, q: PointId, stats: &mut SearchStats) -> Vec<Neighbor> {
        let qp = self.tree.point(q).to_vec();
        self.tree
            .aux_containment(&qp, stats)
            .into_iter()
            .filter(|n| n.id != q)
            .collect()
    }

    /// Exact reverse-kNN of an arbitrary location.
    pub fn query_at(&self, q: &[f64], stats: &mut SearchStats) -> Vec<Neighbor> {
        self.tree.aux_containment(q, stats)
    }

    /// The underlying R-tree (also a forward-kNN index, as in the paper).
    pub fn forward_index(&self) -> &RTree<M> {
        &self.tree
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
    fn exact_against_brute_force() {
        let ds = uniform(300, 2, 130);
        let forward = LinearScan::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds.clone(), Euclidean);
        let mut st = SearchStats::new();
        for k in [1usize, 5, 15] {
            let rdnn = RdnnTree::build(ds.clone(), Euclidean, k, &forward);
            for q in [0usize, 150, 299] {
                let got: Vec<_> = rdnn.query(q, &mut st).iter().map(|n| n.id).collect();
                let want: Vec<_> = bf.rknn(q, k, &mut st).iter().map(|n| n.id).collect();
                assert_eq!(got, want, "k={k} q={q}");
            }
        }
    }

    #[test]
    fn query_prunes_against_scan() {
        // On clustered low-dimensional data the containment traversal must
        // touch far fewer points than n per query.
        let mut rng = SmallRng::seed_from_u64(131);
        let rows: Vec<Vec<f64>> = (0..2000)
            .map(|i| {
                let c = (i % 10) as f64 * 100.0;
                vec![c + rng.random::<f64>(), c + rng.random::<f64>()]
            })
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap().into_shared();
        let forward = LinearScan::build(ds.clone(), Euclidean);
        let rdnn = RdnnTree::build(ds, Euclidean, 5, &forward);
        let mut st = SearchStats::new();
        let _ = rdnn.query(17, &mut st);
        assert!(
            st.dist_computations < 1000,
            "containment query should prune most clusters, did {} dist comps",
            st.dist_computations
        );
    }

    #[test]
    fn small_dataset_edge_case() {
        // k larger than the dataset: everything is everyone's reverse
        // neighbor.
        let ds = uniform(4, 2, 132);
        let forward = LinearScan::build(ds.clone(), Euclidean);
        let rdnn = RdnnTree::build(ds, Euclidean, 10, &forward);
        let mut st = SearchStats::new();
        assert_eq!(rdnn.query(0, &mut st).len(), 3);
    }

    #[test]
    fn doubles_as_forward_knn_index() {
        // The paper notes the RdNN-Tree answers both reverse and forward
        // NN queries from one structure; the underlying R-tree is exposed
        // for exactly that.
        let ds = uniform(150, 2, 134);
        let fwd = LinearScan::build(ds.clone(), Euclidean);
        let rdnn = RdnnTree::build(ds.clone(), Euclidean, 4, &fwd);
        let mut st = SearchStats::new();
        let via_rdnn = rdnn.forward_index().knn(ds.point(9), 6, Some(9), &mut st);
        let via_scan = fwd.knn(ds.point(9), 6, Some(9), &mut st);
        for (a, b) in via_rdnn.iter().zip(&via_scan) {
            assert!((a.dist - b.dist).abs() < 1e-9);
        }
    }

    #[test]
    fn external_query_location() {
        let ds = uniform(200, 2, 133);
        let forward = LinearScan::build(ds.clone(), Euclidean);
        let rdnn = RdnnTree::build(ds.clone(), Euclidean, 3, &forward);
        let bf = BruteForce::new(ds, Euclidean);
        let mut st = SearchStats::new();
        let q = vec![5.0, 5.0];
        let got: Vec<_> = rdnn.query_at(&q, &mut st).iter().map(|n| n.id).collect();
        let want: Vec<_> = bf
            .rknn_external(&q, 3, &mut st)
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(got, want);
    }
}
