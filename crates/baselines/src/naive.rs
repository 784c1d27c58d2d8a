//! Exact reverse-kNN with zero precomputation.
//!
//! One candidate verification per dataset point, each served by a bounded,
//! threshold-pruned forward cursor against the index ([`verify_rknn`]).
//! This is the method every other
//! baseline is trying to beat on query time; it needs no setup at all and
//! is exact for every `k`.

use crate::common::verify_rknn;
use rknn_core::{CursorScratch, Metric, Neighbor, PointId, SearchStats};
use rknn_index::KnnIndex;

/// Naive exact reverse-kNN over any forward index.
#[derive(Debug, Clone, Copy)]
pub struct NaiveRknn {
    k: usize,
}

impl NaiveRknn {
    /// Creates a handle for reverse rank `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        NaiveRknn { k }
    }

    /// The reverse rank.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Exact reverse-kNN of dataset point `q`, allocating fresh working
    /// memory. Batch callers should hold one [`CursorScratch`] per worker
    /// and use [`NaiveRknn::query_with`].
    pub fn query<M, I>(&self, index: &I, q: PointId, stats: &mut SearchStats) -> Vec<Neighbor>
    where
        M: Metric,
        I: KnnIndex<M> + ?Sized,
    {
        self.query_with(index, q, &mut CursorScratch::new(), stats)
    }

    /// Exact reverse-kNN of dataset point `q` against caller-owned working
    /// memory.
    ///
    /// For every live point `x ≠ q` (tombstoned ids skipped, ids churned in
    /// past the live count included), verifies the `d_k(x) ≥ d(x, q)` test
    /// (equivalently: fewer than `k` points strictly closer to `x` than `q`
    /// is, ties included) through [`verify_rknn`] — a bounded,
    /// threshold-pruned forward cursor over `scratch` rather than the
    /// allocating boxed count-range path.
    pub fn query_with<M, I>(
        &self,
        index: &I,
        q: PointId,
        scratch: &mut CursorScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor>
    where
        M: Metric,
        I: KnnIndex<M> + ?Sized,
    {
        let qp = index.point(q).to_vec();
        let metric = index.metric();
        let mut out = Vec::new();
        for x in (0..index.id_bound()).filter(|&x| index.has_point(x)) {
            if x == q {
                continue;
            }
            stats.count_dist();
            let d = metric.dist(index.point(x), &qp);
            if verify_rknn(index, x, d, self.k, scratch, stats) {
                out.push(Neighbor::new(x, d));
            }
        }
        rknn_core::neighbor::sort_neighbors(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rknn_core::{BruteForce, Dataset, Euclidean};
    use rknn_index::{CoverTree, LinearScan};
    use std::sync::Arc;

    fn uniform(n: usize, dim: usize, seed: u64) -> Arc<Dataset> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.random::<f64>() * 10.0).collect())
            .collect();
        Dataset::from_rows(&rows).unwrap().into_shared()
    }

    #[test]
    fn agrees_with_brute_force_reference() {
        let ds = uniform(250, 3, 100);
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        let mut st = SearchStats::new();
        for k in [1usize, 5, 20] {
            let method = NaiveRknn::new(k);
            for q in [0usize, 100, 249] {
                let got: Vec<_> = method
                    .query(&idx, q, &mut st)
                    .iter()
                    .map(|n| n.id)
                    .collect();
                let want: Vec<_> = bf.rknn(q, k, &mut st).iter().map(|n| n.id).collect();
                assert_eq!(got, want, "k={k} q={q}");
            }
        }
    }

    #[test]
    fn substrate_independent() {
        let ds = uniform(200, 2, 101);
        let scan = LinearScan::build(ds.clone(), Euclidean);
        let cover = CoverTree::build(ds, Euclidean);
        let method = NaiveRknn::new(4);
        let mut st = SearchStats::new();
        for q in [3usize, 77] {
            assert_eq!(
                method
                    .query(&scan, q, &mut st)
                    .iter()
                    .map(|n| n.id)
                    .collect::<Vec<_>>(),
                method
                    .query(&cover, q, &mut st)
                    .iter()
                    .map(|n| n.id)
                    .collect::<Vec<_>>(),
            );
        }
    }
}
