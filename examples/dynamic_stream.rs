//! Reverse-kNN maintenance under insertions and deletions — the data-
//! warehouse/stream scenario of the paper's introduction (\[1, 36, 35\]):
//! "determining those objects that would potentially be affected by a
//! particular data update operation".
//!
//! RDT needs no precomputed per-point kNN information, so a
//! [`MaintainedStream`] can keep *every* live point's reverse-kNN set
//! current through mixed insert/delete churn, recomputing only the answers
//! each update can have touched. In the exact regime (t = 50) the
//! maintained table is byte-identical to rebuilding it from scratch —
//! asserted below — at a small fraction of the rebuild's cost.
//!
//! ```text
//! cargo run --release --example dynamic_stream
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rknn::prelude::*;
use std::time::Instant;

fn main() {
    let ds = rknn::data::gaussian_blobs(800, 4, 6, 0.5, 9).into_shared();
    let n = ds.len();
    let mut index = CoverTree::build(ds, Euclidean);
    let (k, t, threads) = (10, 50.0, 4);

    // Prewarming every threshold also keeps the prewarm's list of clusters,
    // which lets each update's `d_k` repair skip the far buckets.
    let start = Instant::now();
    let algo = RdtAlgorithm::new(RdtParams::new(k, t)).with_prewarm(n);
    let mut stream = MaintainedStream::new(algo, &index, threads);
    let seed_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "seeded all-points RkNN table over {} points in {seed_ms:.1} ms",
        stream.live()
    );

    // Stream phase: each arriving point's reverse neighborhood is exactly
    // the set of existing points whose k-NN lists the arrival invalidates;
    // the stream repairs those answers (and only those) on the spot.
    let mut rng = SmallRng::seed_from_u64(1);
    println!("processing 60 insertions...");
    let (mut affected_total, mut recomputed_total, mut update_ms) = (0usize, 0usize, 0.0f64);
    for _ in 0..60 {
        let new_point: Vec<f64> = (0..4).map(|_| rng.random::<f64>() * 10.0).collect();
        let (_, report) = stream.insert(&mut index, &new_point).expect("valid point");
        affected_total += report.affected;
        recomputed_total += report.recomputed;
        update_ms += report.elapsed.as_secs_f64() * 1e3;
    }
    println!(
        "  mean #points whose k-NN changed per insertion: {:.2}",
        affected_total as f64 / 60.0
    );
    println!(
        "  mean #answers repaired per insertion: {:.1} (of {} maintained)",
        recomputed_total as f64 / 60.0,
        stream.live()
    );

    // Deletion phase: a removed point affects exactly its reverse
    // neighbors (they must refill their k-NN lists); the stream already
    // holds that set — its own maintained answer for the victim.
    println!("processing 30 deletions...");
    let mut affected_total = 0usize;
    for victim in 0..30usize {
        let report = stream.remove(&mut index, victim).expect("victim is live");
        affected_total += report.affected;
        update_ms += report.elapsed.as_secs_f64() * 1e3;
    }
    println!(
        "  mean #points whose k-NN changed per deletion: {:.2}",
        affected_total as f64 / 30.0
    );
    println!("index now holds {} live points", index.num_points());

    // Consistency check: rebuilding the whole answer table from scratch on
    // the churned index gives byte-identical answers for every live point.
    let queries: Vec<PointId> = stream.answers().map(|(id, _)| id).collect();
    let start = Instant::now();
    let mut fresh = RdtAlgorithm::new(RdtParams::new(k, t));
    fresh.prepare(&index);
    let rebuilt = run_algorithm_batch(&fresh, &index, &queries, threads);
    let rebuild_ms = start.elapsed().as_secs_f64() * 1e3;
    for (&q, want) in queries.iter().zip(&rebuilt.answers) {
        let got = stream.answer(q).expect("maintained");
        assert_eq!(got.ids(), want.ids(), "maintained diverged at q={q}");
    }
    let mean_update = update_ms / 90.0;
    println!("maintained table identical to a fresh rebuild — done");
    println!(
        "  mean update {mean_update:.2} ms vs rebuild {rebuild_ms:.1} ms \
         ({:.3}x per update)",
        mean_update / rebuild_ms
    );
}
