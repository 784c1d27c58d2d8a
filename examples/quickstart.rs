//! Quickstart: build an index, run reverse-kNN queries, inspect the
//! tradeoff knobs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rknn::prelude::*;
use rknn::rdt::ScalePolicy;
use rknn_lid::GpEstimator;

fn main() {
    // 1. A dataset: 5,000 clustered points in 8 dimensions.
    let ds = rknn::data::gaussian_blobs(5000, 8, 12, 0.5, 42).into_shared();
    println!("dataset: {} points, {} dims", ds.len(), ds.dim());

    // 2. A forward-kNN substrate. RDT works with any index that supports
    //    incremental nearest-neighbor search; the cover tree is the
    //    paper's default.
    let index = CoverTree::build(ds.clone(), Euclidean);

    // 3. Pick the scale parameter t. Theorem 1 guarantees exactness when
    //    t exceeds the (expensive) MaxGED; in practice one estimates the
    //    intrinsic dimensionality once per dataset (§6 of the paper).
    let t = ScalePolicy::Gp(GpEstimator::new()).resolve(&ds, &Euclidean);
    println!("estimated intrinsic dimensionality → t = {t:.2}");

    // 4. Reverse 10-NN query: which points have point 123 among their own
    //    ten nearest neighbors?
    let rdt = RdtAlgorithm::plus(rknn::rdt::RdtParams::new(10, t));
    let answer = rdt.answer(&index, 123);
    println!(
        "RkNN(123, 10): {} points {:?}",
        answer.result.len(),
        answer.ids().iter().take(8).collect::<Vec<_>>()
    );
    println!(
        "work: retrieved {} candidates, {} lazily accepted, {} lazily rejected, \
         {} verified, {} distance computations",
        answer.stats.retrieved,
        answer.stats.lazy_accepts,
        answer.stats.lazy_rejects + answer.stats.excluded,
        answer.stats.verified,
        answer.stats.total_dist_comps()
    );

    // 5. Compare against the exact answer.
    let brute = BruteForce::new(ds, Euclidean);
    let mut st = SearchStats::new();
    let truth = brute.rknn(123, 10, &mut st);
    let truth_ids: std::collections::HashSet<_> = truth.iter().map(|n| n.id).collect();
    let hits = answer
        .result
        .iter()
        .filter(|n| truth_ids.contains(&n.id))
        .count();
    println!(
        "exact answer has {} points; recall {:.3}, precision {:.3}",
        truth.len(),
        if truth.is_empty() {
            1.0
        } else {
            hits as f64 / truth.len() as f64
        },
        if answer.result.is_empty() {
            1.0
        } else {
            hits as f64 / answer.result.len() as f64
        },
    );
}
