//! Query-latency benchmarks of the RkNN baselines against RDT+.

use criterion::{criterion_group, criterion_main, Criterion};
use rknn_baselines::{MRkNNCoP, NaiveRknn, RdnnTree, Sft, Tpl};
use rknn_core::{Euclidean, SearchStats};
use rknn_index::CoverTree;
use rknn_rdt::{RdtAlgorithm, RdtParams};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_baselines(c: &mut Criterion) {
    let ds = Arc::new(rknn_data::sequoia_like(3000, 17));
    let forward = CoverTree::build(ds.clone(), Euclidean);
    let k = 10;
    let mrk = MRkNNCoP::build(ds.clone(), Euclidean, k, &forward);
    let rdnn = RdnnTree::build(ds.clone(), Euclidean, k, &forward);
    let tpl = Tpl::build(ds.clone(), Euclidean);
    let sft = Sft::new(k, 4.0);
    let naive = NaiveRknn::new(k);
    let plus = RdtAlgorithm::plus(RdtParams::new(k, 6.0));

    let mut g = c.benchmark_group("rknn_query_k10_n3000");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("rdt_plus_t6", |b| {
        b.iter(|| black_box(plus.answer(&forward, black_box(5))))
    });
    g.bench_function("sft_a4", |b| {
        b.iter(|| {
            let mut st = SearchStats::new();
            black_box(sft.query(&forward, black_box(5), &mut st))
        })
    });
    g.bench_function("mrknncop", |b| {
        b.iter(|| {
            let mut st = SearchStats::new();
            black_box(mrk.query(black_box(5), k, &forward, &mut st))
        })
    });
    g.bench_function("rdnn_tree", |b| {
        b.iter(|| {
            let mut st = SearchStats::new();
            black_box(rdnn.query(black_box(5), &mut st))
        })
    });
    g.bench_function("tpl", |b| {
        b.iter(|| {
            let mut st = SearchStats::new();
            black_box(tpl.query(black_box(5), k, &mut st))
        })
    });
    g.bench_function("naive", |b| {
        b.iter(|| {
            let mut st = SearchStats::new();
            black_box(naive.query(&forward, black_box(5), &mut st))
        })
    });
    g.finish();

    // Precomputation cost comparison (the other axis of Figures 3–6).
    let small = Arc::new(rknn_data::sequoia_like(1200, 18));
    let small_fwd = CoverTree::build(small.clone(), Euclidean);
    let mut g = c.benchmark_group("precompute_n1200");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("mrknncop_build_k10", |b| {
        b.iter(|| black_box(MRkNNCoP::build(small.clone(), Euclidean, 10, &small_fwd)))
    });
    g.bench_function("rdnn_build_k10", |b| {
        b.iter(|| black_box(RdnnTree::build(small.clone(), Euclidean, 10, &small_fwd)))
    });
    g.bench_function("tpl_build", |b| {
        b.iter(|| black_box(Tpl::build(small.clone(), Euclidean)))
    });
    g.bench_function("rdt_setup_cover_tree", |b| {
        b.iter(|| black_box(CoverTree::build(small.clone(), Euclidean)))
    });
    g.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
