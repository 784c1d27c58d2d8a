//! The batch all-points RkNN job against the sequential scalar loop.
//!
//! This is the acceptance benchmark of the batch-engine PR: an all-points
//! RkNN job (n=2000, d=32, k=10) over the sequential-scan substrate,
//! comparing
//!
//! * the pre-batch-engine execution path — one `RdtAlgorithm::answer` per
//!   point, per-query allocations, full-precision distances
//!   ([`rknn_core::FullPrecision`] disables threshold pruning and the
//!   uncached engine recomputes every verification threshold); against
//! * the batch driver with one worker (scratch reuse, early abandonment,
//!   bounded cursor, shared `d_k` reuse); and
//! * the batch driver with four workers.
//!
//! Result sets are asserted identical across all three paths before any
//! timing runs. `cargo bench --bench batch` prints the timings;
//! `crates/bench/src/bin/perf_snapshot.rs` records the same workload to
//! `BENCH_rdt.json` for the perf trajectory.

use criterion::{criterion_group, criterion_main, Criterion};
use rknn_core::{Euclidean, FullPrecision};
use rknn_index::LinearScan;
use rknn_rdt::{
    run_algorithm_all_points, AlgorithmOutcome, RdtAlgorithm, RdtParams, RknnAlgorithm, RknnAnswer,
};
use std::hint::black_box;
use std::time::Duration;

const N: usize = 2000;
const DIM: usize = 32;
const K: usize = 10;
const T: f64 = 4.0;

fn bench_batch(c: &mut Criterion) {
    let ds = rknn_data::gaussian_blobs(N, DIM, 8, 0.3, 0xbe7c).into_shared();
    let scalar_index = LinearScan::build(ds.clone(), FullPrecision(Euclidean));
    let fast_index = LinearScan::build(ds, Euclidean);
    let rdt = RdtAlgorithm::new(RdtParams::new(K, T));
    // The batch driver with a freshly prepared shared d_k cache per run.
    let all_points = |threads: usize| -> AlgorithmOutcome<RknnAnswer> {
        let mut algo = rdt.fresh();
        algo.prepare(&fast_index);
        run_algorithm_all_points(&algo, &fast_index, threads)
    };

    // Identical result sets across every path, checked before timing.
    let batch = all_points(4);
    let seq = all_points(1);
    for q in 0..N {
        let scalar = rdt.answer(&scalar_index, q);
        assert_eq!(
            scalar.ids(),
            batch.answers[q].ids(),
            "batch diverged at q={q}"
        );
        assert_eq!(
            scalar.ids(),
            seq.answers[q].ids(),
            "sequential driver diverged at q={q}"
        );
        assert_eq!(
            scalar.stats.termination, batch.answers[q].stats.termination,
            "q={q}"
        );
    }

    let mut g = c.benchmark_group(format!("batch_all_points_n{N}_d{DIM}_k{K}"));
    g.sample_size(2);
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("scalar_sequential_loop", |b| {
        b.iter(|| {
            (0..N)
                .map(|q| rdt.answer(&scalar_index, q).result.len())
                .sum::<usize>()
        })
    });
    g.bench_function("batch_driver_1worker", |b| {
        b.iter(|| black_box(all_points(1)).stats.result_members)
    });
    g.bench_function("batch_driver_4workers", |b| {
        b.iter(|| black_box(all_points(4)).stats.result_members)
    });
    g.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
