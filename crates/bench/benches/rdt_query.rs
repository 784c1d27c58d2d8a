//! RDT/RDT+ query latency across scale parameters and substrates.

use criterion::{criterion_group, criterion_main, Criterion};
use rknn_core::Euclidean;
use rknn_index::{CoverTree, LinearScan};
use rknn_rdt::{RdtAlgorithm, RdtParams};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_rdt(c: &mut Criterion) {
    let ds = Arc::new(rknn_data::sequoia_like(6000, 11));
    let cover = CoverTree::build(ds.clone(), Euclidean);
    let linear = LinearScan::build(ds.clone(), Euclidean);

    let mut g = c.benchmark_group("rdt_k10_cover");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(2));
    for t in [2.0, 6.0, 10.0] {
        let rdt = RdtAlgorithm::new(RdtParams::new(10, t));
        let plus = RdtAlgorithm::plus(RdtParams::new(10, t));
        g.bench_function(format!("rdt_t{t}"), |b| {
            b.iter(|| black_box(rdt.answer(&cover, black_box(42))))
        });
        g.bench_function(format!("rdt_plus_t{t}"), |b| {
            b.iter(|| black_box(plus.answer(&cover, black_box(42))))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("rdt_substrates_t6_k10");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(2));
    let rdt = RdtAlgorithm::new(RdtParams::new(10, 6.0));
    g.bench_function("cover_tree", |b| {
        b.iter(|| black_box(rdt.answer(&cover, black_box(7))))
    });
    g.bench_function("linear_scan", |b| {
        b.iter(|| black_box(rdt.answer(&linear, black_box(7))))
    });
    g.finish();

    let mut g = c.benchmark_group("rdt_k_scaling_t6");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    for k in [10usize, 50, 100] {
        let plus = RdtAlgorithm::plus(RdtParams::new(k, 6.0));
        g.bench_function(format!("rdt_plus_k{k}"), |b| {
            b.iter(|| black_box(plus.answer(&cover, black_box(3))))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_rdt);
criterion_main!(benches);
