//! Ablation benchmarks for the design choices called out in `DESIGN.md`:
//! witness machinery on/off, RDT vs RDT+ filter cost, cover-tree base, and
//! M-tree node capacity.

use criterion::{criterion_group, criterion_main, Criterion};
use rknn_core::Euclidean;
use rknn_index::{cover_tree::CoverTreeConfig, CoverTree, KnnIndex, LinearScan, MTree};
use rknn_rdt::{RdtAlgorithm, RdtParams, RdtVariant};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_ablations(c: &mut Criterion) {
    let ds = Arc::new(rknn_data::fct_like(3000, 23));
    let idx = LinearScan::build(ds.clone(), Euclidean);
    let params = RdtParams::new(10, 6.0);

    // Witness machinery: the lazy accept/reject mechanisms cost O(|F|²)
    // distance work but remove forward-kNN verifications (§8.2).
    let mut g = c.benchmark_group("witness_ablation_t6_k10");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(2));
    for (name, variant) in [
        ("plain", RdtVariant::Plain),
        ("plus", RdtVariant::Plus),
        ("no_witness", RdtVariant::NoWitness),
    ] {
        let rdt = RdtAlgorithm::new(params).with_variant(variant);
        g.bench_function(name, |b| {
            b.iter(|| black_box(rdt.answer(&idx, black_box(9))))
        });
    }
    g.finish();

    // Cover-tree expansion base: tighter covers vs deeper trees.
    let mut g = c.benchmark_group("cover_tree_base");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    for base in [1.3f64, 2.0] {
        let cfg = CoverTreeConfig {
            base,
            ..CoverTreeConfig::default()
        };
        let tree = CoverTree::build_with(ds.clone(), Euclidean, cfg).expect("cover tree");
        g.bench_function(format!("knn_base{base}"), |b| {
            b.iter(|| {
                let mut st = rknn_core::SearchStats::new();
                black_box(tree.knn(ds.point(3), 10, Some(3), &mut st))
            })
        });
    }
    g.finish();

    // M-tree fanout.
    let mut g = c.benchmark_group("mtree_capacity");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    for cap in [8usize, 16, 32] {
        let tree = MTree::build_with(ds.clone(), Euclidean, cap);
        g.bench_function(format!("knn_cap{cap}"), |b| {
            b.iter(|| {
                let mut st = rknn_core::SearchStats::new();
                black_box(tree.knn(ds.point(3), 10, Some(3), &mut st))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
