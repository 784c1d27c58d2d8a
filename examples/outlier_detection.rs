//! Reverse-neighbor counts as an outlier score (the ODIN idea: Hautamäki
//! et al. \[18\], one of the data-mining applications motivating the paper).
//!
//! A point that appears in few other points' k-neighborhoods — a small
//! reverse-kNN set — is weakly "connected" to the data and likely an
//! outlier; hub points have large reverse neighborhoods \[46\]. RDT lets
//! this score be computed without materializing all-kNN graphs.
//!
//! ```text
//! cargo run --release --example outlier_detection
//! ```

use rknn::prelude::*;
use rknn::rdt::RdtParams;

fn main() {
    // A clustered dataset plus a handful of injected anomalies.
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let base = rknn::data::gaussian_blobs(2000, 6, 8, 0.4, 7);
    for (_, p) in base.iter() {
        rows.push(p.to_vec());
    }
    // Outliers far from every blob (blob centers live in [0, 10]^6).
    let outliers = [
        vec![25.0, 25.0, 25.0, 25.0, 25.0, 25.0],
        vec![-12.0, 30.0, -9.0, 22.0, -15.0, 28.0],
        vec![40.0, -3.0, 18.0, -20.0, 33.0, 5.0],
    ];
    let first_outlier = rows.len();
    rows.extend(outliers.iter().cloned());
    let ds = Dataset::from_rows(&rows).unwrap().into_shared();

    let index = CoverTree::build(ds.clone(), Euclidean);
    let k = 15;
    let rdt = RdtAlgorithm::new(RdtParams::new(k, 8.0));

    // Score every point by its reverse-neighbor count. Note the hubness
    // skew the paper cites [46]: even regular points in moderate dimensions
    // can have empty reverse neighborhoods ("anti-hubs"), so the count is a
    // *score*, with 0 marking the candidate outlier set.
    let scored: Vec<(PointId, usize)> = (0..ds.len())
        .map(|q| (q, rdt.answer(&index, q).result.len()))
        .collect();

    let zero_count = scored.iter().filter(|&&(_, c)| c == 0).count();
    let mean_count = scored.iter().map(|&(_, c)| c).sum::<usize>() as f64 / scored.len() as f64;
    println!(
        "reverse-{k}NN counts: mean {mean_count:.1}, {zero_count} points with count 0 \
         (candidate outliers, including anti-hubs)"
    );
    let max = scored.iter().max_by_key(|&&(_, c)| c).unwrap();
    println!("strongest hub: point {} with |RkNN| = {}", max.0, max.1);

    for (id, count) in scored.iter().skip(first_outlier) {
        println!("  injected outlier {id}: |RkNN| = {count}");
    }
    // Every injected outlier must land in the zero-score candidate set.
    assert!(
        scored.iter().skip(first_outlier).all(|&(_, c)| c == 0),
        "injected outliers must have empty reverse neighborhoods"
    );
    println!("\nall 3 injected outliers have empty reverse-{k}NN sets — flagged as outliers");
}
