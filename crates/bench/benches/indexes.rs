//! Microbenchmarks of the forward-NN substrates: kNN queries and
//! incremental cursor drains across all five index structures, and
//! bounded cursor drains, the tree traversal core's hot loop.

use criterion::{criterion_group, criterion_main, Criterion};
use rknn_core::{CursorScratch, Euclidean, SearchStats};
use rknn_index::{BallTree, CoverTree, KnnIndex, LinearScan, MTree, RTree, VpTree};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_indexes(c: &mut Criterion) {
    let ds = Arc::new(rknn_data::gaussian_blobs(4000, 8, 10, 0.4, 7));
    let cover = CoverTree::build(ds.clone(), Euclidean);
    let vp = VpTree::build(ds.clone(), Euclidean);
    let rtree = RTree::build(ds.clone(), Euclidean);
    let mtree = MTree::build(ds.clone(), Euclidean);
    let ball = BallTree::build(ds.clone(), Euclidean);
    let linear = LinearScan::build(ds.clone(), Euclidean);
    let q = ds.point(17).to_vec();

    let mut g = c.benchmark_group("knn_k10");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("cover_tree", |b| {
        b.iter(|| {
            let mut st = SearchStats::new();
            black_box(cover.knn(black_box(&q), 10, Some(17), &mut st))
        })
    });
    g.bench_function("vp_tree", |b| {
        b.iter(|| {
            let mut st = SearchStats::new();
            black_box(vp.knn(black_box(&q), 10, Some(17), &mut st))
        })
    });
    g.bench_function("r_tree", |b| {
        b.iter(|| {
            let mut st = SearchStats::new();
            black_box(rtree.knn(black_box(&q), 10, Some(17), &mut st))
        })
    });
    g.bench_function("m_tree", |b| {
        b.iter(|| {
            let mut st = SearchStats::new();
            black_box(mtree.knn(black_box(&q), 10, Some(17), &mut st))
        })
    });
    g.bench_function("ball_tree", |b| {
        b.iter(|| {
            let mut st = SearchStats::new();
            black_box(ball.knn(black_box(&q), 10, Some(17), &mut st))
        })
    });
    g.bench_function("linear_scan", |b| {
        b.iter(|| {
            let mut st = SearchStats::new();
            black_box(linear.knn(black_box(&q), 10, Some(17), &mut st))
        })
    });
    g.finish();

    let mut g = c.benchmark_group("cursor_drain_200");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("cover_tree", |b| {
        b.iter(|| {
            let mut cur = cover.cursor(&q, Some(17));
            for _ in 0..200 {
                black_box(cur.next());
            }
        })
    });
    g.bench_function("linear_scan", |b| {
        b.iter(|| {
            let mut cur = linear.cursor(&q, Some(17));
            for _ in 0..200 {
                black_box(cur.next());
            }
        })
    });
    g.finish();

    let mut g = c.benchmark_group("build_n4000_d8");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("cover_tree", |b| {
        b.iter(|| CoverTree::build(ds.clone(), Euclidean))
    });
    g.bench_function("vp_tree", |b| {
        b.iter(|| VpTree::build(ds.clone(), Euclidean))
    });
    g.bench_function("r_tree_str", |b| {
        b.iter(|| RTree::build(ds.clone(), Euclidean))
    });
    g.bench_function("m_tree", |b| b.iter(|| MTree::build(ds.clone(), Euclidean)));
    g.bench_function("ball_tree", |b| {
        b.iter(|| BallTree::build(ds.clone(), Euclidean))
    });
    g.finish();
}

/// `cursor_bounded` drains of exactly `limit` entries on the tree
/// substrates the benchmark workloads run (cover tree: batch-cold; VP
/// tree: churn), cycling over 16 dataset points as queries on one reused
/// scratch, on a blobs shape at d = 32. Limit 10 is a plain k = 10 drain;
/// 2,560 is the rank cap `⌊2^t·k⌋` of an RDT filter cursor at k = 10,
/// t = 8.
fn bench_bounded_drains(c: &mut Criterion) {
    let ds = Arc::new(rknn_data::gaussian_blobs(20_000, 32, 10, 0.4, 11));
    let cover = CoverTree::build(ds.clone(), Euclidean);
    let vp = VpTree::build(ds.clone(), Euclidean);
    let trees: [(&str, &dyn KnnIndex<Euclidean>); 2] = [("cover_tree", &cover), ("vp_tree", &vp)];
    let queries: Vec<usize> = (0..16).map(|i| i * 1237 % ds.len()).collect();
    let mut scratch = CursorScratch::new();
    let mut g = c.benchmark_group("bounded_drain_blobs_n20000_d32");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(2));
    for limit in [10usize, 2560] {
        for (name, tree) in trees {
            let mut next = 0;
            g.bench_function(format!("{name}_limit{limit}"), |b| {
                b.iter(|| {
                    let q = queries[next % queries.len()];
                    next += 1;
                    let mut cur = tree.cursor_bounded(ds.point(q), Some(q), limit, &mut scratch);
                    for _ in 0..limit {
                        black_box(cur.next());
                    }
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_indexes, bench_bounded_drains);
criterion_main!(benches);
