//! Cross-substrate cursor-stream equivalence through the shared traversal
//! core.
//!
//! Every tree substrate's incremental stream is pinned against the
//! linear scan on a tie-heavy half-integer grid (the adversarial case for
//! best-first ordering and for any strict-inequality threshold test):
//!
//! * **exact nondecreasing order** — distances never decrease along the
//!   stream;
//! * **each id exactly once** — the stream is a permutation of the point
//!   set (minus the excluded id);
//! * **bit-identical distances** — sorted by `(distance, id)`, every tree
//!   stream equals the linear scan's table bit for bit (tree cursors may
//!   legitimately order *equal* distances differently, since a tied point
//!   inside an unexpanded subtree surfaces after an already-queued tie;
//!   the cover tree's flattened subtrees, which queue all their points at
//!   once, reorder such ties too);
//! * **identical `exclude` handling** — the excluded id never surfaces, on
//!   any entry point;
//! * the **scratch-reusing entry point** (`cursor_with`) yields the byte-
//!   identical sequence to the boxed entry point (`cursor`), query after
//!   query on one reused buffer;
//! * the **bounded entry point** (`cursor_bounded`) yields exactly the
//!   unbounded stream's prefix — pruning at the bounded selection's
//!   threshold may only discard entries past the drain bound;
//! * the sequential scan's **SIMD tile fast path** (contiguous padded
//!   dataset streamed through `Metric::dist_tile`) is byte-identical —
//!   streams, direct traversals, and work counters — to its per-point
//!   fallback (forced via the dynamic pool);
//! * a **churned cover tree** — inserted nodes linked outside its
//!   breadth-first arena order, removed points still routing — streams
//!   the same table as the linear scan over the same live points, before
//!   and after compaction, and a clone's inserts leave the original's
//!   stream untouched.
//! * a cover tree whose root has one child per axis of a scaled
//!   orthonormal basis (at least 32 children, so it **expands flat**, its
//!   whole subtree evaluated as gathered points) gives the linear scan's
//!   streams, batched `d_k` and RDT answers, before and after churn that
//!   leaves tombstones inside the flattened subtree, and after compaction.
//!
//! * the **batched forward pass** (`rknn_index::knn_dists`, the list of
//!   clusters behind every all-points precomputation) gives each query
//!   the first `k` distances of its bounded cursor bit for bit, `+∞` past
//!   the live count — on duplicate points, exact ties at the k-th
//!   distance, query subsets, one and two points, churned scans and VP
//!   trees, and all four metrics.
//! * every tree substrate's **`range`** returns the linear scan's ball —
//!   ids and distance bits, compared sorted, since a ball comes back in no
//!   particular order — under all four metrics, with and without
//!   `exclude`, at radius 0, `+∞` and ties at the radius, on duplicate
//!   points, and (the dynamic cover tree, VP tree and R-tree) after churn
//!   (tombstones, ids past the base). At `r = +∞` every substrate's ball
//!   and closed count keep points whose distance overflows to `+∞`.
//! * RDT's **group verification** gives every `d_k` cache miss the
//!   bounded cursor's threshold bit for bit on all six substrates (the
//!   ball tree and M-tree through the default `range`): Plain, Plus and
//!   NoWitness, both schedules, an external query, ties at `d_k`, `k`
//!   above the live count, with and without a cache and with one cache
//!   shared by two threads, and on points whose computed distances from
//!   the query overflow to `+∞` (those misses take their own cursor).
//! * the group verification does not depend on the order of the ball:
//!   through a wrapper that reverses every `range` result, the scan, cover
//!   tree and VP tree store the same `d_k` bits and give the same answers
//!   and counters as without it.
//!
//! All assertions run on whatever kernel backend dispatch selects; CI
//! reruns this suite with `RKNN_KERNEL=scalar` (and `RKNN_KERNEL=avx2` on
//! capable hosts) pinned, so the same byte-identity contracts are checked
//! under every backend.

use proptest::prelude::*;
use rknn_core::{
    CancelToken, Chebyshev, CursorScratch, Dataset, Euclidean, Manhattan, Metric, Minkowski,
    Neighbor, QueryScratch, SearchStats,
};
use rknn_index::{
    knn_dists, BallTree, CoverTree, DynamicIndex, KnnIndex, LinearScan, MTree, NnCursor, RTree,
    VpTree,
};
use rknn_rdt::engine::run_query;
use rknn_rdt::{DkCache, RdtAlgorithm, RdtParams, RdtVariant, TSchedule};
use std::sync::Arc;

/// Builds a dataset on the half-integer grid `{0, 0.5, …, 4}` from raw
/// proptest levels, so duplicate points and tied distances are common.
fn grid_dataset(levels: &[u8], dim: usize) -> Arc<Dataset> {
    let n = levels.len() / dim;
    let coords: Vec<f64> = levels[..n * dim]
        .iter()
        .map(|&v| f64::from(v % 9) * 0.5)
        .collect();
    Dataset::from_flat(dim, coords)
        .expect("grid coordinates are finite")
        .into_shared()
}

fn substrates(ds: &Arc<Dataset>) -> Vec<Box<dyn KnnIndex<Euclidean>>> {
    vec![
        Box::new(CoverTree::build(ds.clone(), Euclidean)),
        Box::new(VpTree::build(ds.clone(), Euclidean)),
        Box::new(BallTree::build(ds.clone(), Euclidean)),
        Box::new(MTree::build(ds.clone(), Euclidean)),
        Box::new(RTree::build(ds.clone(), Euclidean)),
    ]
}

fn drain(cur: &mut dyn NnCursor, cap: usize) -> Vec<Neighbor> {
    let mut out = Vec::new();
    while out.len() < cap {
        match cur.next() {
            Some(n) => out.push(n),
            None => break,
        }
    }
    out
}

/// A neighbor list's ids and distance bits, for byte-identity checks.
fn keys(ns: &[Neighbor]) -> Vec<(usize, u64)> {
    ns.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// Checks `idx`'s full stream from `q` against the linear scan `linear`
/// over the same live points: nondecreasing, and bit-identical to its
/// `(dist, id)`-sorted table once sorted the same way. Returns the stream.
fn check_stream_against_scan(
    idx: &dyn KnnIndex<Euclidean>,
    linear: &LinearScan<Euclidean>,
    q: &[f64],
) -> Vec<Neighbor> {
    let name = idx.name();
    let reference = drain(&mut *linear.cursor(q, None), usize::MAX);
    let stream = drain(&mut *idx.cursor(q, None), usize::MAX);
    assert!(
        stream.windows(2).all(|w| w[0].dist <= w[1].dist),
        "{name}: order violated"
    );
    let mut sorted = stream.clone();
    rknn_core::neighbor::sort_neighbors(&mut sorted);
    assert_eq!(keys(&sorted), keys(&reference), "{name}: table diverged");
    stream
}

/// Checks [`knn_dists`] on `idx` against every query's bounded cursor:
/// each query reaches the sink once, with the cursor's first `k`
/// distances bit for bit and `+∞` past the end of its stream.
fn check_knn_dists<M: Metric, I: KnnIndex<M>>(idx: &I, queries: &[usize], k: usize) {
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut got = vec![None; idx.id_bound()];
    let mut stats = SearchStats::new();
    knn_dists(idx, queries, k, &mut stats, |q, d| {
        assert!(got[q].replace(bits(d)).is_none(), "q={q} answered twice");
    });
    let mut scratch = CursorScratch::new();
    for &q in queries {
        let mut want: Vec<f64> = drain(
            &mut *idx.cursor_bounded(idx.point(q), Some(q), k, &mut scratch),
            k,
        )
        .iter()
        .map(|n| n.dist)
        .collect();
        want.resize(k, f64::INFINITY);
        assert_eq!(
            got[q].take(),
            Some(bits(&want)),
            "{} q={q} k={k}",
            idx.name()
        );
    }
}

/// Runs [`check_knn_dists`] under `metric` on a scan and a VP tree over
/// `ds`, then again after both take the same churn: `inserted` rows
/// appended (ids past the original count) and every `remove_every`-th id
/// tombstoned. Queries are the ids `i` with `i % every == 0`, tombstoned
/// ones included; `k_sel` picks `k` from `0..=live + 2`, so `k` may exceed
/// the live count.
fn check_knn_dists_under<M: Metric + Clone>(
    metric: M,
    ds: &Arc<Dataset>,
    (inserted, remove_every, every, k_sel): (&[Vec<f64>], usize, usize, usize),
) {
    let mut scan = LinearScan::build(ds.clone(), metric.clone());
    let mut vp = VpTree::build(ds.clone(), metric);
    for churned in [false, true] {
        if churned {
            for row in inserted {
                let id = scan.insert(row).expect("insert");
                assert_eq!(vp.insert(row).expect("insert"), id);
            }
            for id in (0..scan.id_bound()).step_by(remove_every) {
                assert!(scan.remove(id) && vp.remove(id));
            }
        }
        let queries: Vec<usize> = (0..scan.id_bound()).step_by(every).collect();
        let k = k_sel % (scan.num_points() + 3);
        check_knn_dists(&scan, &queries, k);
        check_knn_dists(&vp, &queries, k);
    }
}

/// The batched pass's `d_k` table over `queries`, as bit patterns.
fn knn_dists_table<M: Metric, I: KnnIndex<M>>(
    idx: &I,
    queries: &[usize],
    k: usize,
) -> Vec<Option<Vec<u64>>> {
    let mut table = vec![None; idx.id_bound()];
    knn_dists(idx, queries, k, &mut SearchStats::new(), |q, d| {
        table[q] = Some(d.iter().map(|x| x.to_bits()).collect());
    });
    table
}

/// `per_axis` rows near each scaled basis vector `10·e_i` of `R^axes`,
/// every coordinate jittered by less than 0.05. Points on different axes
/// are all about `10·√2` apart, so a cover tree's root takes one child
/// per axis.
fn basis_rows(axes: usize, per_axis: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut jitter = move || {
        // SplitMix64, mapped to [-0.05, 0.05).
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 * 0.1 - 0.05
    };
    (0..axes * per_axis)
        .map(|i| {
            (0..axes)
                .map(|j| jitter() + if j == i % axes { 10.0 } else { 0.0 })
                .collect()
        })
        .collect()
}

#[test]
fn flattened_cover_tree_matches_the_scan() {
    let (axes, k) = (40, 5);
    for seed in [1u64, 2, 3] {
        let ds = Dataset::from_rows(&basis_rows(axes, 3, seed))
            .unwrap()
            .into_shared();
        let mut tree = CoverTree::build(ds.clone(), Euclidean);
        let mut linear = LinearScan::build(ds.clone(), Euclidean);
        let mut scratch = CursorScratch::new();
        for stage in ["built", "churned", "compacted"] {
            match stage {
                "churned" => {
                    for row in basis_rows(axes, 1, seed + 100) {
                        assert_eq!(tree.insert(&row).unwrap(), linear.insert(&row).unwrap());
                    }
                    // A step prime to `axes` leaves every axis some points.
                    for id in (0..tree.id_bound()).step_by(3) {
                        assert!(tree.remove(id) && linear.remove(id));
                    }
                }
                "compacted" => tree.compact(),
                _ => {}
            }
            let ctx = format!("seed={seed} {stage}");
            assert!(tree.check_invariants(), "{ctx}");
            assert!(tree.flat_by_fan_out() > 0, "{ctx}: no wide node");
            let queries: Vec<usize> = (0..tree.id_bound()).step_by(7).collect();
            for &q in &queries {
                let coords = tree.point(q).to_vec();
                let stream = check_stream_against_scan(&tree, &linear, &coords);
                for limit in [1, k, 40] {
                    let bounded = drain(
                        &mut *tree.cursor_bounded(&coords, None, limit, &mut scratch),
                        limit,
                    );
                    let prefix = &stream[..limit.min(stream.len())];
                    assert_eq!(keys(&bounded), keys(prefix), "{ctx} q={q} limit={limit}");
                }
            }
            check_knn_dists(&tree, &queries, k);
            assert_eq!(
                knn_dists_table(&tree, &queries, k),
                knn_dists_table(&linear, &queries, k),
                "{ctx}"
            );
            for t in [2.0, 1e3] {
                let rdt = RdtAlgorithm::new(RdtParams::new(k, t));
                for &q in queries.iter().filter(|&&q| linear.has_point(q)) {
                    let (a, b) = (rdt.answer(&tree, q), rdt.answer(&linear, q));
                    assert_eq!(keys(&a.result), keys(&b.result), "{ctx} t={t} q={q}");
                }
            }
        }
    }
}

/// `n` rows of `dim` coordinates on the half-integer grid `{0, 0.5, …, 4}`
/// from a seeded SplitMix64 stream: duplicates and tied distances abound.
fn lattice_rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut level = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % 9) as f64 * 0.5
    };
    (0..n)
        .map(|_| (0..dim).map(|_| level()).collect())
        .collect()
}

/// A ball's ids and distance bits sorted by `(dist, id)`: `range` returns
/// the ball in no particular order.
fn ball_keys(mut ball: Vec<Neighbor>) -> Vec<(usize, u64)> {
    rknn_core::neighbor::sort_neighbors(&mut ball);
    keys(&ball)
}

/// Every tree substrate's `range` against `LinearScan::range` under
/// `metric`: the same ids and distance bits once both are sorted, for
/// queries at live points (with and without `exclude`) and an external
/// one, at radius 0, `+∞` and radii equal to a computed distance (a tie at
/// `r`); then the dynamic substrates again after `inserted` rows join (ids
/// past the base) and every fifth id is tombstoned. The ball tree and
/// M-tree are static and take the first pass only.
fn check_range_under<M: Metric + Clone + 'static>(
    metric: M,
    rows: &[Vec<f64>],
    inserted: &[Vec<f64>],
) {
    let ds = Dataset::from_rows(rows).unwrap().into_shared();
    let mut scan = LinearScan::build(ds.clone(), metric.clone());
    let mut dynamic: Vec<Box<dyn DynamicIndex<M>>> = vec![
        Box::new(CoverTree::build(ds.clone(), metric.clone())),
        Box::new(VpTree::build(ds.clone(), metric.clone())),
        Box::new(RTree::build(ds.clone(), metric.clone())),
    ];
    let fixed: Vec<Box<dyn KnnIndex<M>>> = vec![
        Box::new(BallTree::build(ds.clone(), metric.clone())),
        Box::new(MTree::build(ds, metric.clone())),
    ];
    for churned in [false, true] {
        if churned {
            for row in inserted {
                let id = scan.insert(row).unwrap();
                for tree in &mut dynamic {
                    assert_eq!(tree.insert(row).unwrap(), id, "{}", tree.name());
                }
            }
            for id in (0..scan.id_bound()).step_by(5) {
                assert!(scan.remove(id));
                for tree in &mut dynamic {
                    assert!(tree.remove(id), "{}", tree.name());
                }
            }
        }
        let mut trees: Vec<&dyn KnnIndex<M>> =
            dynamic.iter().map(|t| &**t as &dyn KnnIndex<M>).collect();
        if !churned {
            trees.extend(fixed.iter().map(|t| &**t));
        }
        let live: Vec<usize> = (0..scan.id_bound())
            .filter(|&id| scan.has_point(id))
            .collect();
        let mut queries: Vec<(Vec<f64>, Option<usize>)> = live
            .iter()
            .step_by(9)
            .flat_map(|&id| {
                [
                    (scan.point(id).to_vec(), Some(id)),
                    (scan.point(id).to_vec(), None),
                ]
            })
            .collect();
        queries.push((vec![1.25; scan.dim()], None));
        for (q, exclude) in &queries {
            let mut radii = vec![0.0, f64::INFINITY];
            radii.extend(
                live.iter()
                    .step_by(11)
                    .map(|&id| metric.dist(q, scan.point(id))),
            );
            for &r in &radii {
                let want = ball_keys(scan.range(q, r, *exclude, &mut SearchStats::new()));
                for tree in &trees {
                    let got = ball_keys(tree.range(q, r, *exclude, &mut SearchStats::new()));
                    let ctx = format!("{} {}", tree.name(), metric.name());
                    assert_eq!(
                        got, want,
                        "{ctx} churned={churned} r={r} exclude={exclude:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn tree_range_walks_equal_the_scan() {
    let rows = lattice_rows(160, 3, 1);
    // Some inserted rows duplicate stored ones.
    let mut inserted = lattice_rows(30, 3, 2);
    inserted.extend(rows.iter().step_by(20).cloned());
    check_range_under(Euclidean, &rows, &inserted);
    check_range_under(Manhattan, &rows, &inserted);
    check_range_under(Chebyshev, &rows, &inserted);
    check_range_under(Minkowski::new(3.0), &rows, &inserted);
}

/// Runs RDT queries on `idx` through `run_query` with a fresh `d_k` cache
/// each, and checks that every threshold the group verification stored
/// equals the bounded cursor's (`DkCache::dk_or_compute`, the single-point
/// oracle) bit for bit. A fresh cache misses every verification, so each
/// cached answer must equal the uncached one, counters included. Then the
/// same queries run on two threads sharing one cache. Returns the largest
/// number of misses one query verified together.
fn check_group_dk(idx: &dyn KnnIndex<Euclidean>, k: usize) -> u64 {
    let n = idx.id_bound();
    let oracle = DkCache::new(k, n);
    let mut cs = CursorScratch::new();
    let want: Vec<u64> = (0..n)
        .map(|id| {
            oracle
                .dk_or_compute(idx, id, &mut cs, &mut SearchStats::new())
                .to_bits()
        })
        .collect();
    let check_slots = |cache: &DkCache, ctx: &str| {
        for (id, &bits) in want.iter().enumerate() {
            if let Some(dk) = cache.get(id) {
                assert_eq!(dk.to_bits(), bits, "{} {ctx} id={id}", idx.name());
            }
        }
    };
    let external = vec![1.3; idx.dim()];
    let mut queries: Vec<(&[f64], Option<usize>)> = (0..n)
        .step_by(5)
        .map(|id| (idx.point(id), Some(id)))
        .collect();
    queries.push((&external, None));
    let runs = [
        (RdtVariant::Plain, TSchedule::Fixed),
        (RdtVariant::Plus, TSchedule::Fixed),
        (RdtVariant::NoWitness, TSchedule::Fixed),
        (RdtVariant::Plain, TSchedule::Adaptive { safety: 1.0 }),
        (RdtVariant::Plus, TSchedule::Adaptive { safety: 2.0 }),
    ];
    let never = CancelToken::never();
    let mut scratch = QueryScratch::new(idx.dim());
    let mut widest = 0;
    for t in [2.0, 6.0] {
        let params = RdtParams::new(k, t);
        for (variant, schedule) in runs {
            let query =
                |q: &[f64], exclude, cache: Option<&DkCache>, scratch: &mut QueryScratch| {
                    run_query(
                        idx, q, exclude, params, variant, schedule, scratch, cache, &never,
                    )
                    .unwrap()
                };
            let ctx = format!("k={k} t={t} {variant:?} {schedule:?}");
            let mut uncached = Vec::new();
            for &(q, exclude) in &queries {
                let cache = DkCache::new(k, n);
                let got = query(q, exclude, Some(&cache), &mut scratch);
                let plain = query(q, exclude, None, &mut scratch);
                assert_eq!(keys(&got.result), keys(&plain.result), "{ctx} {exclude:?}");
                assert_eq!(got.stats, plain.stats, "{ctx} {exclude:?}");
                assert_eq!(cache.hit_stats(), (0, got.stats.verified as u64), "{ctx}");
                check_slots(&cache, &ctx);
                widest = widest.max(got.stats.verified as u64);
                uncached.push(plain);
            }
            // One cache shared by two threads, each taking every other query.
            let shared = DkCache::new(k, n);
            std::thread::scope(|s| {
                for half in 0..2 {
                    let (shared, queries, uncached, ctx) = (&shared, &queries, &uncached, &ctx);
                    s.spawn(move || {
                        let mut scratch = QueryScratch::new(idx.dim());
                        for (&(q, exclude), want) in
                            queries.iter().zip(uncached).skip(half).step_by(2)
                        {
                            let got = query(q, exclude, Some(shared), &mut scratch);
                            assert_eq!(keys(&got.result), keys(&want.result), "{ctx} shared");
                        }
                    });
                }
            });
            check_slots(&shared, &format!("{ctx} shared"));
        }
    }
    widest
}

#[test]
fn group_verification_gives_every_miss_the_cursor_dk() {
    // The lattice ties distances at the k-th neighbor; the six-point set
    // has fewer than `k = 8` other points, so every bound `u_p`, and the
    // ball's radius, is `+∞`.
    let lattice = Dataset::from_rows(&lattice_rows(150, 3, 3))
        .unwrap()
        .into_shared();
    let tiny = Dataset::from_rows(&lattice_rows(6, 2, 4))
        .unwrap()
        .into_shared();
    for (ds, ks) in [(&lattice, &[1, 3][..]), (&tiny, &[8][..])] {
        let mut all = substrates(ds);
        all.push(Box::new(LinearScan::build(ds.clone(), Euclidean)));
        for idx in &all {
            for &k in ks {
                let widest = check_group_dk(&**idx, k);
                assert!(
                    widest > 1,
                    "{} k={k}: no query verified a group",
                    idx.name()
                );
            }
        }
    }
}

/// Delegates every entry to the wrapped index, but returns each `range`
/// ball reversed.
struct ReversedBall<'a>(&'a dyn KnnIndex<Euclidean>);

impl KnnIndex<Euclidean> for ReversedBall<'_> {
    fn num_points(&self) -> usize {
        self.0.num_points()
    }

    fn has_point(&self, id: usize) -> bool {
        self.0.has_point(id)
    }

    fn id_bound(&self) -> usize {
        self.0.id_bound()
    }

    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn point(&self, id: usize) -> &[f64] {
        self.0.point(id)
    }

    fn metric(&self) -> &Euclidean {
        self.0.metric()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn base_rows(&self) -> Option<&Dataset> {
        self.0.base_rows()
    }

    fn cursor<'a>(&'a self, q: &'a [f64], exclude: Option<usize>) -> Box<dyn NnCursor + 'a> {
        self.0.cursor(q, exclude)
    }

    fn cursor_with<'a>(
        &'a self,
        q: &'a [f64],
        exclude: Option<usize>,
        scratch: &'a mut CursorScratch,
    ) -> Box<dyn NnCursor + 'a> {
        self.0.cursor_with(q, exclude, scratch)
    }

    fn cursor_bounded<'a>(
        &'a self,
        q: &'a [f64],
        exclude: Option<usize>,
        limit: usize,
        scratch: &'a mut CursorScratch,
    ) -> Box<dyn NnCursor + 'a> {
        self.0.cursor_bounded(q, exclude, limit, scratch)
    }

    fn knn(
        &self,
        q: &[f64],
        k: usize,
        exclude: Option<usize>,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        self.0.knn(q, k, exclude, stats)
    }

    fn range(
        &self,
        q: &[f64],
        r: f64,
        exclude: Option<usize>,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let mut ball = self.0.range(q, r, exclude, stats);
        ball.reverse();
        ball
    }

    fn range_count(
        &self,
        q: &[f64],
        r: f64,
        strict: bool,
        exclude: Option<usize>,
        stats: &mut SearchStats,
    ) -> usize {
        self.0.range_count(q, r, strict, exclude, stats)
    }
}

#[test]
fn group_verification_ignores_the_ball_order() {
    // 150 lattice rows: balls span several 64-row tiles, and the cover
    // tree's walk flattens subtrees into its own tiles.
    let ds = Dataset::from_rows(&lattice_rows(150, 3, 5))
        .unwrap()
        .into_shared();
    let scan = LinearScan::build(ds.clone(), Euclidean);
    let cover = CoverTree::build(ds.clone(), Euclidean);
    let vp = VpTree::build(ds.clone(), Euclidean);
    let never = CancelToken::never();
    let n = ds.len();
    let external = vec![1.3; 3];
    let mut queries: Vec<(&[f64], Option<usize>)> = (0..n)
        .step_by(4)
        .map(|id| (ds.point(id), Some(id)))
        .collect();
    queries.push((&external, None));
    for idx in [&scan as &dyn KnnIndex<Euclidean>, &cover, &vp] {
        let reversed = ReversedBall(idx);
        let mut scratch = QueryScratch::new(3);
        let mut grouped = 0;
        for k in [1, 3] {
            for t in [2.0, 6.0] {
                for variant in [RdtVariant::Plain, RdtVariant::Plus, RdtVariant::NoWitness] {
                    for &(q, exclude) in &queries {
                        let ctx = format!("{} k={k} t={t} {variant:?} {exclude:?}", idx.name());
                        let run = |index: &dyn KnnIndex<Euclidean>, cache, scratch: &mut _| {
                            let params = RdtParams::new(k, t);
                            run_query(
                                index,
                                q,
                                exclude,
                                params,
                                variant,
                                TSchedule::Fixed,
                                scratch,
                                cache,
                                &never,
                            )
                            .unwrap()
                        };
                        let (in_order, out_of_order) = (DkCache::new(k, n), DkCache::new(k, n));
                        let want = run(idx, Some(&in_order), &mut scratch);
                        let got = run(&reversed, Some(&out_of_order), &mut scratch);
                        assert_eq!(keys(&got.result), keys(&want.result), "{ctx}");
                        assert_eq!(got.stats, want.stats, "{ctx}");
                        for id in 0..n {
                            let bits = |c: &DkCache| c.get(id).map(f64::to_bits);
                            assert_eq!(bits(&out_of_order), bits(&in_order), "{ctx} id={id}");
                        }
                        let uncached = run(&reversed, None, &mut scratch);
                        assert_eq!(keys(&uncached.result), keys(&want.result), "{ctx}");
                        assert_eq!(uncached.stats, want.stats, "{ctx}");
                        grouped = grouped.max(want.stats.verified);
                    }
                }
            }
        }
        assert!(grouped > 1, "{}: no query verified a group", idx.name());
    }
}

#[test]
fn batched_knn_dists_cover_one_and_two_points() {
    for rows in [vec![vec![1.0, 2.0]], vec![vec![1.0, 2.0], vec![1.0, 2.0]]] {
        let ds = Dataset::from_rows(&rows).unwrap().into_shared();
        let ids: Vec<usize> = (0..rows.len()).collect();
        for k in 0..4 {
            check_knn_dists(&LinearScan::build(ds.clone(), Euclidean), &ids, k);
            check_knn_dists(&VpTree::build(ds.clone(), Manhattan), &ids, k);
            check_knn_dists(&LinearScan::build(ds.clone(), Chebyshev), &ids, k);
            check_knn_dists(&VpTree::build(ds.clone(), Minkowski::new(3.0)), &ids, k);
        }
    }
}

#[test]
fn overflowing_distances_stay_in_every_stream() {
    // Finite coordinates at ±1e200 make squared-distance accumulation
    // overflow to +∞. Completeness ("each id exactly once") must survive:
    // no entry point may silently drop the overflowing point.
    let ds = Dataset::from_rows(&[
        vec![0.0, 0.0],
        vec![1.0, 0.0],
        vec![2.0, 1.0],
        vec![1e200, -1e200],
    ])
    .unwrap()
    .into_shared();
    let q = [0.25, 0.0];
    let linear = LinearScan::build(ds.clone(), Euclidean);
    let mut per_point = linear.clone();
    per_point.set_tile_enabled(false);
    let mut scratch = CursorScratch::new();
    let mut all: Vec<Box<dyn KnnIndex<Euclidean>>> = substrates(&ds);
    all.push(Box::new(linear));
    all.push(Box::new(per_point));
    for idx in &all {
        let boxed = drain(&mut *idx.cursor(&q, None), usize::MAX);
        let scratched = drain(&mut *idx.cursor_with(&q, None, &mut scratch), usize::MAX);
        let bounded = drain(&mut *idx.cursor_bounded(&q, None, 4, &mut scratch), 4);
        for drained in [boxed, scratched, bounded] {
            assert_eq!(drained.len(), 4, "{}: lost a point", idx.name());
            assert!(
                drained.last().unwrap().dist.is_infinite(),
                "{}: overflowing distance must surface last",
                idx.name()
            );
        }
        let mut stats = rknn_core::SearchStats::new();
        assert_eq!(
            idx.knn(&q, 4, None, &mut stats).len(),
            4,
            "{}: knn",
            idx.name()
        );
        // The closed ball at `+∞` holds every point; the open ball below
        // `+∞` leaves the overflowing one out.
        let inf = f64::INFINITY;
        let ball = idx.range(&q, inf, None, &mut stats);
        assert_eq!(ball.len(), 4, "{}: range(q, +∞)", idx.name());
        assert!(ball.iter().any(|n| n.dist.is_infinite()), "{}", idx.name());
        let closed = idx.range_count(&q, inf, false, None, &mut stats);
        let open = idx.range_count(&q, inf, true, None, &mut stats);
        assert_eq!((closed, open), (4, 3), "{}: range_count", idx.name());
        // At the largest finite radius the overflowing point is outside
        // both balls.
        let max = f64::MAX;
        assert_eq!(
            idx.range(&q, max, None, &mut stats).len(),
            3,
            "{}",
            idx.name()
        );
        let closed = idx.range_count(&q, max, false, None, &mut stats);
        let open = idx.range_count(&q, max, true, None, &mut stats);
        assert_eq!((closed, open), (3, 3), "{}: range_count", idx.name());
    }
}

#[test]
fn group_verification_survives_overflowing_distances() {
    // Squared coordinates near 1e308: `p = (1e154, 0)`'s nearest neighbor
    // `x = (1.5e154, 0)` is finite from `p`, but its computed distance from
    // the query point 0 overflows to `+∞`, so a ball around the query
    // leaves it out at any radius. With the fifth point, `p`'s bound from
    // the filter set, and so the ball's radius, is finite.
    let line = vec![
        vec![0.0, 0.0],
        vec![-5e153, 0.0],
        vec![1e154, 0.0],
        vec![1.5e154, 0.0],
    ];
    let mut off_line = line.clone();
    off_line.push(vec![1e154, 6e153]);
    for rows in [&line, &off_line] {
        let ds = Dataset::from_rows(rows).unwrap().into_shared();
        let mut all = substrates(&ds);
        all.push(Box::new(LinearScan::build(ds.clone(), Euclidean)));
        for idx in &all {
            for k in 1..=3 {
                check_group_dk(&**idx, k);
            }
        }
    }
    // On the four points, k = 1 and t = 1 retrieve two of them around
    // point 0 and leave `p` the one miss: its `d_1` is 5e153 < d(q, p), so
    // it is no reverse neighbor of the query.
    let ds = Dataset::from_rows(&line).unwrap().into_shared();
    let mut all = substrates(&ds);
    all.push(Box::new(LinearScan::build(ds.clone(), Euclidean)));
    for idx in &all {
        let ans = run_query(
            &**idx,
            idx.point(0),
            Some(0),
            RdtParams::new(1, 1.0),
            RdtVariant::Plain,
            TSchedule::Fixed,
            &mut QueryScratch::new(2),
            None,
            &CancelToken::never(),
        )
        .unwrap();
        assert_eq!(ans.stats.verified, 1, "{}", idx.name());
        assert!(!ans.ids().contains(&2), "{}: {:?}", idx.name(), ans.ids());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tree_streams_are_equivalent_to_the_linear_scan(
        levels in proptest::collection::vec(0u8..9, 24..120),
        dim in 1usize..5,
        q_sel in 0usize..64,
        exclude_query in 0usize..2,
    ) {
        let ds = grid_dataset(&levels, dim);
        let q_id = q_sel % ds.len();
        let q = ds.point(q_id).to_vec();
        let exclude = (exclude_query == 1).then_some(q_id);
        let expected_len = ds.len() - usize::from(exclude.is_some());

        // The linear scan's table is the reference: ascending (dist, id).
        let linear = LinearScan::build(ds.clone(), Euclidean);
        let reference = drain(&mut *linear.cursor(&q, exclude), usize::MAX);
        prop_assert_eq!(reference.len(), expected_len);

        let mut scratch = CursorScratch::new();
        for idx in substrates(&ds) {
            let name = idx.name();
            let boxed = drain(&mut *idx.cursor(&q, exclude), usize::MAX);
            let scratched = drain(&mut *idx.cursor_with(&q, exclude, &mut scratch), usize::MAX);

            // Boxed and scratch-reusing paths: byte-identical sequences.
            prop_assert_eq!(boxed.len(), scratched.len(), "{}", name);
            for (b, s) in boxed.iter().zip(&scratched) {
                prop_assert_eq!(b.id, s.id, "{}", name);
                prop_assert_eq!(b.dist.to_bits(), s.dist.to_bits(), "{}", name);
            }

            // Exact nondecreasing order, each id exactly once, exclusion.
            prop_assert_eq!(boxed.len(), expected_len, "{}: completeness", name);
            let mut seen = std::collections::HashSet::new();
            let mut prev = f64::NEG_INFINITY;
            for n in &boxed {
                prop_assert!(Some(n.id) != exclude, "{}: excluded id surfaced", name);
                prop_assert!(seen.insert(n.id), "{}: duplicate id {}", name, n.id);
                prop_assert!(n.dist >= prev, "{}: order violated", name);
                prev = n.dist;
            }

            // Sorted by (dist, id), the stream is bit-identical to the
            // linear scan's distance table.
            let mut sorted = boxed.clone();
            rknn_core::neighbor::sort_neighbors(&mut sorted);
            for (s, r) in sorted.iter().zip(&reference) {
                prop_assert_eq!(s.id, r.id, "{}: id set diverged", name);
                prop_assert_eq!(
                    s.dist.to_bits(), r.dist.to_bits(),
                    "{}: distance bits diverged", name
                );
            }

            // Bounded streams are exact prefixes of the unbounded stream.
            for limit in [0usize, 1, 3, expected_len / 2, expected_len, expected_len + 7] {
                let bounded =
                    drain(&mut *idx.cursor_bounded(&q, exclude, limit, &mut scratch), limit);
                prop_assert_eq!(
                    bounded.len(), limit.min(expected_len),
                    "{} limit={}", name, limit
                );
                for (i, (b, f)) in bounded.iter().zip(&boxed).enumerate() {
                    prop_assert_eq!(b.id, f.id, "{} limit={} step={}", name, limit, i);
                    prop_assert_eq!(
                        b.dist.to_bits(), f.dist.to_bits(),
                        "{} limit={} step={}", name, limit, i
                    );
                }
            }
        }
    }

    #[test]
    fn scan_tile_fast_path_matches_per_point_fallback(
        levels in proptest::collection::vec(0u8..9, 24..120),
        dim in 1usize..5,
        q_sel in 0usize..64,
        exclude_query in 0usize..2,
        limit_sel in 0usize..16,
        r_level in 0u8..12,
    ) {
        // Same live point set, two execution paths: a pristine scan
        // streams the padded contiguous dataset through `dist_tile`; a
        // scan that saw one insert-then-remove holds a tombstone, so its
        // pool is no longer the bare dataset and every query takes the
        // per-point fallback. Results, streams, and counters must be
        // byte-identical.
        let ds = grid_dataset(&levels, dim);
        let q_id = q_sel % ds.len();
        let q = ds.point(q_id).to_vec();
        let exclude = (exclude_query == 1).then_some(q_id);
        let tile = LinearScan::build(ds.clone(), Euclidean);
        let mut fallback = LinearScan::build(ds.clone(), Euclidean);
        let tomb = fallback.insert(&vec![0.25; dim]).expect("insert");
        prop_assert!(fallback.remove(tomb));
        prop_assert!(tile.base_rows().is_some(), "pristine scan must expose tile rows");
        prop_assert!(fallback.base_rows().is_none(), "tombstoned scan must not");

        // Unbounded streams.
        let a = drain(&mut *tile.cursor(&q, exclude), usize::MAX);
        let b = drain(&mut *fallback.cursor(&q, exclude), usize::MAX);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.dist.to_bits(), y.dist.to_bits());
        }

        // Bounded streams with identical work counters.
        let mut s1 = CursorScratch::new();
        let mut s2 = CursorScratch::new();
        let limit = limit_sel % (ds.len() + 2);
        let mut c1 = tile.cursor_bounded(&q, exclude, limit, &mut s1);
        let mut c2 = fallback.cursor_bounded(&q, exclude, limit, &mut s2);
        loop {
            let (x, y) = (c1.next(), c2.next());
            prop_assert_eq!(x.map(|n| n.id), y.map(|n| n.id));
            prop_assert_eq!(
                x.map(|n| n.dist.to_bits()),
                y.map(|n| n.dist.to_bits())
            );
            if x.is_none() {
                break;
            }
        }
        prop_assert_eq!(c1.stats(), c2.stats(), "bounded-cursor stats diverged");
        drop(c1);
        drop(c2);

        // Direct traversals: knn, range, range_count (closed and strict),
        // including their distance-computation counters.
        let k = (limit_sel % 7) + 1;
        let mut st1 = SearchStats::new();
        let mut st2 = SearchStats::new();
        let nn1 = tile.knn(&q, k, exclude, &mut st1);
        let nn2 = fallback.knn(&q, k, exclude, &mut st2);
        prop_assert_eq!(st1, st2, "knn stats diverged");
        prop_assert_eq!(nn1.len(), nn2.len());
        for (x, y) in nn1.iter().zip(&nn2) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.dist.to_bits(), y.dist.to_bits());
        }
        let r = f64::from(r_level) * 0.5;
        let w1 = tile.range(&q, r, exclude, &mut st1);
        let w2 = fallback.range(&q, r, exclude, &mut st2);
        prop_assert_eq!(w1.len(), w2.len(), "range sets diverged at r={}", r);
        for (x, y) in w1.iter().zip(&w2) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.dist.to_bits(), y.dist.to_bits());
        }
        for strict in [false, true] {
            prop_assert_eq!(
                tile.range_count(&q, r, strict, exclude, &mut st1),
                fallback.range_count(&q, r, strict, exclude, &mut st2),
                "range_count diverged at r={} strict={}", r, strict
            );
        }
    }

    #[test]
    fn churned_cover_tree_streams_the_scan_table(
        levels in proptest::collection::vec(0u8..9, 24..120),
        inserted in proptest::collection::vec(0u8..9, 0..80),
        dim in 1usize..5,
        remove_every in 2usize..5,
        q_sel in 0usize..64,
    ) {
        let ds = grid_dataset(&levels, dim);
        let lattice = |row: &[u8]| -> Vec<f64> { row.iter().map(|&v| f64::from(v) * 0.5).collect() };
        let mut tree = CoverTree::build(ds.clone(), Euclidean);
        let mut linear = LinearScan::build(ds.clone(), Euclidean);
        // Inserted nodes land at the arena's tail, outside breadth-first
        // order; removed points keep routing the tree's searches.
        for row in inserted.chunks_exact(dim) {
            let id = tree.insert(&lattice(row)).expect("insert");
            prop_assert_eq!(linear.insert(&lattice(row)).expect("insert"), id);
        }
        let total = ds.len() + inserted.len() / dim;
        for id in (0..total).step_by(remove_every) {
            prop_assert!(tree.remove(id));
            prop_assert!(linear.remove(id));
        }
        prop_assert!(tree.check_invariants());
        let q = ds.point(q_sel % ds.len()).to_vec();
        let before = check_stream_against_scan(&tree, &linear, &q);

        // A clone's updates never reach the original.
        let mut fork = tree.clone();
        fork.insert(&q).expect("insert");
        fork.insert(&vec![0.25; dim]).expect("insert");
        prop_assert!(fork.remove(1));
        prop_assert!(fork.check_invariants());
        let untouched = drain(&mut *tree.cursor(&q, None), usize::MAX);
        prop_assert_eq!(untouched.len(), before.len());
        for (a, b) in untouched.iter().zip(&before) {
            prop_assert_eq!((a.id, a.dist.to_bits()), (b.id, b.dist.to_bits()));
        }

        tree.compact();
        prop_assert!(tree.check_invariants());
        prop_assert_eq!(tree.node_count(), linear.num_points());
        check_stream_against_scan(&tree, &linear, &q);
    }

    #[test]
    fn batched_knn_dists_equal_bounded_cursor_prefixes(
        levels in proptest::collection::vec(0u8..9, 8..160),
        inserted in proptest::collection::vec(0u8..9, 0..40),
        dim in 1usize..5,
        spread in 0u8..2,
        remove_every in 3usize..7,
        every in 1usize..4,
        k_sel in 0usize..64,
    ) {
        // On the half-integer grid, duplicate points and ties at the k-th
        // distance are common. A spread of 40 shifts every row `i` by
        // `(i % 4)·40`, making four far-apart clusters whose buckets the
        // batched pass prunes.
        let grid = grid_dataset(&levels, dim);
        let shift = |i: usize| f64::from(spread) * 40.0 * (i % 4) as f64;
        let rows: Vec<Vec<f64>> = (0..grid.len())
            .map(|i| grid.point(i).iter().map(|&x| x + shift(i)).collect())
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap().into_shared();
        let inserted: Vec<Vec<f64>> = inserted
            .chunks_exact(dim)
            .enumerate()
            .map(|(i, row)| row.iter().map(|&v| f64::from(v) * 0.5 + shift(i)).collect())
            .collect();
        let churn = (&inserted[..], remove_every, every, k_sel);
        check_knn_dists_under(Euclidean, &ds, churn);
        check_knn_dists_under(Manhattan, &ds, churn);
        check_knn_dists_under(Chebyshev, &ds, churn);
        check_knn_dists_under(Minkowski::new(3.0), &ds, churn);
    }
}
