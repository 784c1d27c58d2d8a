//! Per-substrate batch microbenchmark: the all-points RkNN job on each of
//! the six forward substrates through the shared traversal core.
//!
//! Complements `benches/batch.rs` (which pits the batch driver against the
//! scalar loop on the sequential scan): here the driver is fixed and the
//! substrate varies, so regressions in the generic `TreeCursor` or in one
//! substrate's `TreeSubstrate` impl show up as a per-substrate delta.
//! Result sets are asserted identical across all substrates before timing.

use criterion::{criterion_group, criterion_main, Criterion};
use rknn_core::{Dataset, Euclidean};
use rknn_index::{BallTree, CoverTree, KnnIndex, LinearScan, MTree, RTree, VpTree};
use rknn_rdt::{
    run_algorithm_all_points, AlgorithmOutcome, RdtAlgorithm, RdtParams, RknnAlgorithm, RknnAnswer,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const N: usize = 800;
const DIM: usize = 16;
const K: usize = 8;
const T: f64 = 4.0;

fn substrates(ds: &Arc<Dataset>) -> Vec<Box<dyn KnnIndex<Euclidean>>> {
    vec![
        Box::new(LinearScan::build(ds.clone(), Euclidean)),
        Box::new(CoverTree::build(ds.clone(), Euclidean)),
        Box::new(VpTree::build(ds.clone(), Euclidean)),
        Box::new(BallTree::build(ds.clone(), Euclidean)),
        Box::new(MTree::build(ds.clone(), Euclidean)),
        Box::new(RTree::build(ds.clone(), Euclidean)),
    ]
}

/// The all-points batch on four workers with a freshly prepared shared
/// `d_k` cache per run.
fn all_points(index: &dyn KnnIndex<Euclidean>) -> AlgorithmOutcome<RknnAnswer> {
    let mut algo = RdtAlgorithm::new(RdtParams::new(K, T));
    algo.prepare(index);
    run_algorithm_all_points(&algo, index, 4)
}

fn bench_substrates(c: &mut Criterion) {
    let ds = rknn_data::gaussian_blobs(N, DIM, 8, 0.3, 0x5b57).into_shared();
    let indexes = substrates(&ds);

    // Identical result sets across every substrate, checked before timing.
    let reference = all_points(&*indexes[0]);
    for index in &indexes[1..] {
        let out = all_points(&**index);
        for (q, (a, b)) in reference.answers.iter().zip(&out.answers).enumerate() {
            assert_eq!(a.ids(), b.ids(), "{} diverged at q={q}", index.name());
        }
    }

    let mut g = c.benchmark_group(format!("substrate_batch_n{N}_d{DIM}_k{K}"));
    g.sample_size(2);
    g.measurement_time(Duration::from_secs(2));
    for index in &indexes {
        g.bench_function(index.name(), |b| {
            b.iter(|| black_box(all_points(&**index)).stats.result_members)
        });
    }
    g.finish();
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);
