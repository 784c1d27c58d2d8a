//! The correctness gate: sampled answers must match, byte for byte (ids
//! and distance bits), a sequential RDT query over a `LinearScan` of the
//! same points with a fresh `d_k` cache.

use rknn_core::{Dataset, Euclidean, Neighbor, PointId, QueryScratch};
use rknn_index::{DynamicIndex, KnnIndex, LinearScan};
use rknn_rdt::{RdtAlgorithm, RdtParams, RknnAlgorithm};
use rknn_serve::ChurnOp;
use std::sync::Arc;

pub type Answer = Vec<(PointId, u64)>;

pub fn bits(neighbors: &[Neighbor]) -> Answer {
    neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// The reference: a sequential scan of the same points, advanced through
/// the same churn batches as the checked engine.
pub struct Reference {
    index: LinearScan<Euclidean>,
    params: RdtParams,
    algo: RdtAlgorithm,
    worker: QueryScratch,
    /// Churn batches applied so far, which is the epoch it stands for.
    pub epoch: u64,
}

impl Reference {
    pub fn new(ds: Arc<Dataset>, params: RdtParams) -> Self {
        let index = LinearScan::build(ds, Euclidean::exact());
        let algo = Self::fresh(&index, params);
        let worker = QueryScratch::new(KnnIndex::<Euclidean>::dim(&index));
        Reference {
            index,
            params,
            algo,
            worker,
            epoch: 0,
        }
    }

    fn fresh(index: &LinearScan<Euclidean>, params: RdtParams) -> RdtAlgorithm {
        let mut algo = RdtAlgorithm::new(params);
        RknnAlgorithm::<Euclidean, LinearScan<Euclidean>>::prepare(&mut algo, index);
        algo
    }

    /// Applies one churn batch and starts a fresh cache.
    pub fn apply(&mut self, ops: &[ChurnOp]) {
        for op in ops {
            match op {
                ChurnOp::Insert(coords) => {
                    self.index.insert(coords).expect("churn inserts are valid");
                }
                ChurnOp::Remove(id) => assert!(self.index.remove(*id), "churn removes are live"),
            }
        }
        self.algo = Self::fresh(&self.index, self.params);
        self.epoch += 1;
    }

    pub fn answer(&mut self, q: PointId) -> Answer {
        let ans = RknnAlgorithm::<Euclidean, LinearScan<Euclidean>>::query(
            &self.algo,
            &self.index,
            q,
            &mut self.worker,
        );
        bits(&ans.result)
    }
}

/// Checks `(epoch, query, answer)` triples against a reference advanced
/// through `batches` (epoch `e` = base with `batches[..e]` applied).
/// Returns the number of mismatches.
pub fn gate(
    ds: Arc<Dataset>,
    params: RdtParams,
    batches: &[Vec<ChurnOp>],
    mut seen: Vec<(u64, PointId, Answer)>,
) -> usize {
    seen.sort_by_key(|(epoch, q, _)| (*epoch, *q));
    let mut reference = Reference::new(ds, params);
    let mut mismatches = 0;
    for (epoch, q, got) in seen {
        while reference.epoch < epoch {
            reference.apply(&batches[reference.epoch as usize]);
        }
        if reference.answer(q) != got {
            eprintln!("perfbench: answer mismatch at epoch {epoch}, query {q}");
            mismatches += 1;
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknn_core::{BruteForce, KernelTier, Metric, SearchStats};
    use rknn_index::{CoverTree, VpTree};

    /// Share of brute-force reverse neighbors RDT reports, over every point.
    fn recall<I: KnnIndex<Euclidean>>(
        index: &I,
        brute: &BruteForce<Euclidean>,
        params: RdtParams,
    ) -> f64 {
        let mut algo = RdtAlgorithm::new(params);
        RknnAlgorithm::<Euclidean, I>::prepare(&mut algo, index);
        let mut worker = QueryScratch::new(index.dim());
        let (mut found, mut truth) = (0usize, 0usize);
        for q in 0..index.num_points() {
            let got = RknnAlgorithm::<Euclidean, I>::query(&algo, index, q, &mut worker);
            let want = brute.rknn(q, params.k, &mut SearchStats::new());
            assert!(
                got.ids().iter().all(|id| want.iter().any(|n| n.id == *id)),
                "RDT reported a false positive"
            );
            found += got.result.len();
            truth += want.len();
        }
        found as f64 / truth.max(1) as f64
    }

    /// The workloads' parameters at small n: RDT over each workload's
    /// substrate finds every true reverse neighbor.
    #[test]
    fn exact_truth_recall_at_small_n() {
        assert_eq!(Euclidean::exact().tier(), KernelTier::Exact);
        let metric = Euclidean::exact();
        let serve = rknn_data::gaussian_blobs(1500, 16, 8, 0.08, 5).into_shared();
        let brute = BruteForce::new(serve.clone(), metric);
        let params = RdtParams::new(10, 5.0);
        assert_eq!(
            recall(&LinearScan::build(serve.clone(), metric), &brute, params),
            1.0
        );
        assert_eq!(recall(&VpTree::build(serve, metric), &brute, params), 1.0);
        let batch = rknn_data::gaussian_blobs(1500, 32, 8, 0.08, 6).into_shared();
        let brute = BruteForce::new(batch.clone(), metric);
        assert_eq!(
            recall(
                &CoverTree::build(batch, metric),
                &brute,
                RdtParams::new(10, 8.0)
            ),
            1.0
        );
    }

    #[test]
    fn gate_follows_churn_epochs() {
        let ds = rknn_data::gaussian_blobs(400, 4, 3, 0.1, 7).into_shared();
        let params = RdtParams::new(5, 4.0);
        let batches = vec![
            vec![ChurnOp::Insert(vec![0.5; 4]), ChurnOp::Remove(3)],
            vec![ChurnOp::Remove(400), ChurnOp::Insert(vec![0.2; 4])],
        ];
        let mut reference = Reference::new(ds.clone(), params);
        let mut seen = vec![(0, 9, reference.answer(9))];
        reference.apply(&batches[0]);
        seen.push((1, 400, reference.answer(400)));
        reference.apply(&batches[1]);
        seen.push((2, 9, reference.answer(9)));
        assert_eq!(gate(ds.clone(), params, &batches, seen.clone()), 0);
        // A wrong answer is caught.
        seen[0].2.push((1, 0));
        assert_eq!(gate(ds, params, &batches, seen), 1);
    }
}
