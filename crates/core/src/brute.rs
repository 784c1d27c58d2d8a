//! Brute-force reference implementations of kNN and reverse-kNN.
//!
//! These O(n)–O(n²) scans are the ground truth every index structure and
//! every approximation algorithm in the workspace is validated against. The
//! reverse-kNN definition follows `DESIGN.md` §2: `x ∈ RkNN(q, k)` iff
//! `x ≠ q` and `d(x, q) ≤ d_k(x)`, where `d_k(x)` is the k-th smallest
//! distance from `x` to the other points of `S` — the Korn–Muthukrishnan
//! characterization restated at the start of §2 of the paper.

use crate::dataset::Dataset;
use crate::heap::KnnHeap;
use crate::metric::Metric;
use crate::neighbor::{sort_neighbors, Neighbor, PointId};
use crate::stats::SearchStats;
use std::sync::Arc;

/// Brute-force searcher over a shared dataset.
#[derive(Debug, Clone)]
pub struct BruteForce<M: Metric> {
    ds: Arc<Dataset>,
    metric: M,
}

impl<M: Metric> BruteForce<M> {
    /// Creates a brute-force searcher.
    pub fn new(ds: Arc<Dataset>, metric: M) -> Self {
        BruteForce { ds, metric }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.ds
    }

    /// The metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Exact kNN of location `q`, excluding `exclude`, sorted ascending.
    ///
    /// Returns fewer than `k` neighbors when the dataset is smaller than `k`.
    pub fn knn(
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
        for (id, p) in self.ds.iter() {
            if Some(id) == exclude {
                continue;
            }
            stats.count_dist();
            heap.offer(Neighbor::new(id, self.metric.dist(q, p)));
        }
        heap.into_sorted()
    }

    /// Exact k-th NN distance of dataset point `x` (self-excluding).
    pub fn dk(&self, x: PointId, k: usize, stats: &mut SearchStats) -> Option<f64> {
        let nn = self.knn(self.ds.point(x), k, Some(x), stats);
        if nn.len() < k {
            None
        } else {
            Some(nn[k - 1].dist)
        }
    }

    /// Exact reverse kNN of dataset point `q` (ground truth), sorted by
    /// distance from `q`.
    ///
    /// Runs a full kNN scan per dataset point — O(n²) — so reserve it for
    /// validation and recall computation.
    pub fn rknn(&self, q: PointId, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        let qp = self.ds.point(q);
        let mut out = Vec::new();
        for (x, xp) in self.ds.iter() {
            if x == q {
                continue;
            }
            stats.count_dist();
            let dxq = self.metric.dist(xp, qp);
            // d_k(x) ≥ d(x, q) ⟺ fewer than k other points are strictly
            // closer to x than q is; count with early exit.
            let mut closer = 0usize;
            for (y, yp) in self.ds.iter() {
                if y == x {
                    continue;
                }
                stats.count_dist();
                if self.metric.dist(xp, yp) < dxq {
                    closer += 1;
                    if closer >= k {
                        break;
                    }
                }
            }
            if closer < k {
                out.push(Neighbor::new(x, dxq));
            }
        }
        sort_neighbors(&mut out);
        out
    }

    /// Exact reverse kNN of an arbitrary location `q ∉ S`.
    pub fn rknn_external(&self, q: &[f64], k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        let mut out = Vec::new();
        for (x, xp) in self.ds.iter() {
            stats.count_dist();
            let dxq = self.metric.dist(xp, q);
            let mut closer = 0usize;
            for (y, yp) in self.ds.iter() {
                if y == x {
                    continue;
                }
                stats.count_dist();
                if self.metric.dist(xp, yp) < dxq {
                    closer += 1;
                    if closer >= k {
                        break;
                    }
                }
            }
            if closer < k {
                out.push(Neighbor::new(x, dxq));
            }
        }
        sort_neighbors(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Euclidean;

    fn grid() -> Arc<Dataset> {
        // 3x3 unit grid.
        let mut rows = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                rows.push(vec![x as f64, y as f64]);
            }
        }
        Dataset::from_rows(&rows).unwrap().into_shared()
    }

    #[test]
    fn knn_on_grid() {
        let bf = BruteForce::new(grid(), Euclidean);
        let mut st = SearchStats::new();
        // Center point (id 4 at (1,1)) has 4 neighbors at distance 1.
        let nn = bf.knn(bf.dataset().point(4), 4, Some(4), &mut st);
        assert_eq!(nn.len(), 4);
        for n in &nn {
            assert!((n.dist - 1.0).abs() < 1e-12);
        }
        assert_eq!(st.dist_computations, 8);
    }

    #[test]
    fn knn_handles_small_datasets() {
        let ds = Dataset::from_rows(&[vec![0.0], vec![1.0]])
            .unwrap()
            .into_shared();
        let bf = BruteForce::new(ds, Euclidean);
        let mut st = SearchStats::new();
        let nn = bf.knn(&[0.5], 10, None, &mut st);
        assert_eq!(nn.len(), 2, "returns what exists when k > n");
        assert!(bf.knn(&[0.5], 0, None, &mut st).is_empty());
    }

    #[test]
    fn dk_matches_rank_module() {
        let bf = BruteForce::new(grid(), Euclidean);
        let mut st = SearchStats::new();
        for x in 0..9 {
            for k in 1..8 {
                assert_eq!(
                    bf.dk(x, k, &mut st),
                    crate::rank::dk(bf.dataset(), &Euclidean, x, k),
                    "x={x} k={k}"
                );
            }
        }
    }

    #[test]
    fn rknn_symmetric_pair() {
        // Two isolated close points are each other's R1NN.
        let ds = Dataset::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![10.0, 0.0],
            vec![10.1, 0.0],
        ])
        .unwrap()
        .into_shared();
        let bf = BruteForce::new(ds, Euclidean);
        let mut st = SearchStats::new();
        let r = bf.rknn(0, 1, &mut st);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, 1);
        let r = bf.rknn(3, 1, &mut st);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, 2);
    }

    #[test]
    fn rknn_includes_boundary_equality() {
        // Equilateral-ish: x's k-th distance exactly equals d(x, q).
        // Points: q = (0,0), x = (2,0), y = (4,0). For k=1: d_1(x) = 2 = d(x,q)
        // (tie between q and y) → x is a R1NN of q under the non-strict test.
        let ds = Dataset::from_rows(&[vec![0.0, 0.0], vec![2.0, 0.0], vec![4.0, 0.0]])
            .unwrap()
            .into_shared();
        let bf = BruteForce::new(ds, Euclidean);
        let mut st = SearchStats::new();
        let r = bf.rknn(0, 1, &mut st);
        assert!(r.iter().any(|n| n.id == 1), "boundary tie is included");
    }

    #[test]
    fn rknn_external_matches_member_query() {
        // Querying an external location coincident with a member point,
        // excluding that member, is the member query.
        let ds = Dataset::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![2.0, 0.0],
            vec![5.0, 0.0],
        ])
        .unwrap()
        .into_shared();
        let bf = BruteForce::new(ds.clone(), Euclidean);
        let mut st = SearchStats::new();
        let member = bf.rknn(1, 2, &mut st);
        // Build the same set without point 1 and query (1, 0) externally.
        let rest = ds.subset(&[0, 2, 3]).unwrap().into_shared();
        let bf2 = BruteForce::new(rest, Euclidean);
        let ext = bf2.rknn_external(&[1.0, 0.0], 2, &mut st);
        assert_eq!(member.len(), ext.len());
    }
}
