//! Churn equivalence: interleaved inserts, deletes, compactions and
//! queries on a tie-heavy lattice, checked **byte-identical** to a
//! rebuild-from-scratch reference at every step — for every
//! [`DynamicIndex`] substrate, for both RDT variants through the unified
//! driver, and for the maintained all-points stream.
//!
//! The reference is a fresh `LinearScan` over the live points only, with
//! ids renumbered to live ranks. The remap is monotone (ascending old ids
//! ↔ ascending ranks), so `(dist, id)` tie-breaking orders candidates
//! identically on both sides and the engine's witness dynamics replay
//! exactly: answers must match in members, order, and distance *bits*.
//! Nothing here assumes exactness — RDT+ at heuristic `t` must agree with
//! its own rebuilt replay just as exact RDT does.
//!
//! Chained snapshot advances are checked the same way: a fully prewarmed
//! snapshot carries its `d_k` cache, and the list of clusters the prewarm
//! built, through many churn batches, and after every batch each cached
//! threshold equals a fresh cursor's and every answer equals a cold
//! re-prepare's.

use proptest::prelude::*;
use rknn::core::{Dataset, Euclidean, PointId};
use rknn::index::{CoverTree, DynamicIndex, KnnIndex, LinearScan, RTree, VpTree};
use rknn::rdt::algorithm::{run_algorithm_batch, RdtAlgorithm, RknnAlgorithm};
use rknn::rdt::{DkCache, MaintainedStream, RdtParams};
use rknn::serve::{advance_snapshot, ChurnOp, Snapshot};

/// Tie-heavy half-integer lattice: many coincident distances, the
/// adversarial input for anything sensitive to `(dist, id)` ordering.
fn grid_rows(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![((i * 7) % 9) as f64 * 0.5, ((i * 3 + 1) % 9) as f64 * 0.5])
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    /// Insert a point drawn from the same lattice (keeps ties adversarial).
    Insert(f64, f64),
    /// Remove the `i % live`-th live point.
    Remove(usize),
    /// Unlink tombstones from every tree substrate's navigation structure.
    Compact,
}

fn arb_ops(steps: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..6, 0usize..64, 0usize..64), steps).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, a, b)| match kind {
                0..=2 => Op::Insert((a % 9) as f64 * 0.5, (b % 9) as f64 * 0.5),
                3..=4 => Op::Remove(a),
                _ => Op::Compact,
            })
            .collect()
    })
}

/// Answers for `queries` (old ids, ascending) from a rebuilt-from-scratch
/// `LinearScan` over the live points only, remapped back to old ids.
fn rebuilt_reference(
    algo_template: &RdtAlgorithm,
    live_sorted: &[PointId],
    coords: &[Vec<f64>],
) -> Vec<Vec<(PointId, u64)>> {
    let rows: Vec<Vec<f64>> = live_sorted.iter().map(|&id| coords[id].clone()).collect();
    let ds = Dataset::from_rows(&rows)
        .expect("live set is non-empty")
        .into_shared();
    let fresh = LinearScan::build(ds, Euclidean);
    let mut algo = algo_template.fresh();
    algo.prepare(&fresh);
    let ranks: Vec<PointId> = (0..live_sorted.len()).collect();
    run_algorithm_batch(&algo, &fresh, &ranks, 2)
        .answers
        .into_iter()
        .map(|ans| {
            ans.result
                .iter()
                .map(|n| (live_sorted[n.id], n.dist.to_bits()))
                .collect()
        })
        .collect()
}

/// Runs the same batch on a churned substrate (old ids) and asserts byte
/// identity against the rebuilt reference.
fn assert_matches_reference<I: KnnIndex<Euclidean> + Sync>(
    algo_template: &RdtAlgorithm,
    index: &I,
    live_sorted: &[PointId],
    want: &[Vec<(PointId, u64)>],
    label: &str,
) {
    let mut algo = algo_template.fresh();
    algo.prepare(index);
    let out = run_algorithm_batch(&algo, index, live_sorted, 2);
    for ((q, ans), want) in live_sorted.iter().zip(&out.answers).zip(want) {
        let got: Vec<(PointId, u64)> = ans
            .result
            .iter()
            .map(|n| (n.id, n.dist.to_bits()))
            .collect();
        assert_eq!(&got, want, "{label}: diverged from rebuild at q={q}");
    }
}

fn run_churn_scenario(n0: usize, k: usize, t_plus: f64, ops: &[Op]) {
    let rows = grid_rows(n0);
    let ds = Dataset::from_rows(&rows).unwrap().into_shared();
    let mut linear = LinearScan::build(ds.clone(), Euclidean);
    let mut cover = CoverTree::build(ds.clone(), Euclidean);
    let mut vp = VpTree::build(ds.clone(), Euclidean);
    let mut rtree = RTree::build(ds.clone(), Euclidean);
    // The maintained stream owns its own substrate copy (it must observe
    // the index on the correct side of each mutation). Exact regime: the
    // maintained-repair argument needs true RkNN answers.
    let exact = RdtAlgorithm::new(RdtParams::new(k, 50.0));
    let mut stream_tree = CoverTree::build(ds, Euclidean);
    let mut stream = MaintainedStream::new(exact.fresh(), &stream_tree, 2);

    let mut coords: Vec<Vec<f64>> = rows;
    let mut live: Vec<PointId> = (0..n0).collect();
    let plus = RdtAlgorithm::plus(RdtParams::new(k, t_plus));

    for op in ops {
        match op {
            Op::Insert(x, y) => {
                let p = vec![*x, *y];
                let id = linear.insert(&p).unwrap();
                assert_eq!(cover.insert(&p).unwrap(), id);
                assert_eq!(vp.insert(&p).unwrap(), id);
                assert_eq!(rtree.insert(&p).unwrap(), id);
                assert_eq!(stream.insert(&mut stream_tree, &p).unwrap().0, id);
                coords.push(p);
                live.push(id);
            }
            Op::Remove(i) => {
                if live.len() <= k + 2 {
                    continue;
                }
                let victim = live.remove(i % live.len());
                assert!(linear.remove(victim));
                assert!(cover.remove(victim));
                assert!(vp.remove(victim));
                assert!(rtree.remove(victim));
                assert!(stream.remove(&mut stream_tree, victim).is_some());
            }
            Op::Compact => {
                cover.compact();
                vp.compact();
                rtree.compact();
            }
        }

        let mut live_sorted = live.clone();
        live_sorted.sort_unstable();

        // Exact RDT: every substrate byte-identical to the rebuild.
        let want = rebuilt_reference(&exact, &live_sorted, &coords);
        assert_matches_reference(&exact, &linear, &live_sorted, &want, "linear/rdt");
        assert_matches_reference(&exact, &cover, &live_sorted, &want, "cover/rdt");
        assert_matches_reference(&exact, &vp, &live_sorted, &want, "vp/rdt");
        assert_matches_reference(&exact, &rtree, &live_sorted, &want, "rtree/rdt");

        // The maintained stream agrees with the rebuild at every step.
        assert_eq!(stream.live(), live_sorted.len());
        for (&q, want) in live_sorted.iter().zip(&want) {
            let got: Vec<(PointId, u64)> = stream
                .answer(q)
                .expect("live point is maintained")
                .result
                .iter()
                .map(|x| (x.id, x.dist.to_bits()))
                .collect();
            assert_eq!(&got, want, "stream: diverged from rebuild at q={q}");
        }

        // Heuristic RDT+: the churned run replays the rebuilt run exactly
        // (determinism under monotone renumbering), exact or not.
        let want_plus = rebuilt_reference(&plus, &live_sorted, &coords);
        assert_matches_reference(&plus, &linear, &live_sorted, &want_plus, "linear/rdt+");
        assert_matches_reference(&plus, &cover, &live_sorted, &want_plus, "cover/rdt+");
        assert_matches_reference(&plus, &vp, &live_sorted, &want_plus, "vp/rdt+");
        assert_matches_reference(&plus, &rtree, &live_sorted, &want_plus, "rtree/rdt+");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The full interleaved workload, byte-identical at every step.
    #[test]
    fn churned_indexes_match_rebuild_at_every_step(
        n0 in 8usize..24,
        k in 1usize..4,
        t_scaled in 20u32..80,
        ops in arb_ops(6),
    ) {
        run_churn_scenario(n0.max(k + 3), k, t_scaled as f64 / 10.0, &ops);
    }
}

/// A deterministic dense scenario covering the op mix exhaustively:
/// duplicate-coordinate inserts, deletion of base and inserted points,
/// compaction mid-stream, and deletion of a point adjacent to a tombstone.
#[test]
fn dense_scripted_churn_scenario() {
    let ops = vec![
        Op::Insert(0.5, 0.5),
        Op::Insert(0.5, 0.5),
        Op::Remove(0),
        Op::Insert(2.0, 1.5),
        Op::Remove(3),
        Op::Compact,
        Op::Remove(7),
        Op::Insert(0.0, 4.0),
        Op::Compact,
        Op::Remove(1),
    ];
    run_churn_scenario(14, 2, 4.0, &ops);
}

/// Takes a fully prewarmed snapshot over `index` through chained 16-op
/// advances (8 inserts near existing points, some exact duplicates, and 8
/// removes). After every advance, each set slot of the carried cache
/// equals a fresh bounded cursor's `d_k`, and the answers of a third of
/// the live points equal a cold re-prepare's bit for bit. On the clustered
/// data used here the carried list of clusters must also keep the eviction
/// well below a pass that scans every cached slot.
fn check_chained_advances<I>(index: I, steps: usize, label: &str)
where
    I: DynamicIndex<Euclidean> + Clone + Sync,
{
    let params = RdtParams::new(5, 4.0);
    let n0 = index.num_points();
    let mut snap = Snapshot::prepare(0, index, RdtAlgorithm::new(params).with_prewarm(n0));
    assert_eq!(snap.algo().dk_cache().unwrap().filled(), n0);
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move |below: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % below
    };
    let mut live: Vec<PointId> = (0..n0).collect();
    // No slots: every lookup runs a fresh bounded cursor.
    let fresh = DkCache::new(params.k, 0);
    let mut scratch = rknn::core::CursorScratch::new();
    for step in 0..steps {
        let mut ops = Vec::with_capacity(16);
        for i in 0..8 {
            let src = snap.index().point(live[next(live.len())]);
            let jitter = if i % 4 == 0 { 0.0 } else { 0.01 };
            let row = src
                .iter()
                .map(|c| c + jitter * (next(100) as f64 - 50.0) / 50.0);
            ops.push(ChurnOp::Insert(row.collect()));
        }
        for _ in 0..8 {
            ops.push(ChurnOp::Remove(live.swap_remove(next(live.len()))));
        }
        let (succ, report) = advance_snapshot(&snap, &ops).unwrap();
        live.extend(&report.inserted);
        // The carried list keeps skipping buckets: well under the 16
        // distances per cached slot a pass without it would cost.
        let dists = report.maintenance.dist_computations;
        assert!(
            dists < 8 * n0 as u64,
            "{label} step {step}: {dists} distances"
        );
        let (index, cache) = (succ.index(), succ.algo().dk_cache().unwrap());
        for id in 0..index.id_bound() {
            let Some(dk) = cache.get(id) else { continue };
            assert!(
                index.has_point(id),
                "{label} step {step}: dead id {id} cached"
            );
            let want = fresh.dk_or_compute(index, id, &mut scratch, &mut Default::default());
            assert_eq!(
                dk.to_bits(),
                want.to_bits(),
                "{label} step {step}: d_k({id})"
            );
        }

        // A third of the live points; their queries also refill evicted
        // slots the next step carries.
        let mut queries: Vec<PointId> = live.iter().copied().step_by(3).collect();
        queries.sort_unstable();
        let got = run_algorithm_batch(succ.algo(), index, &queries, 2);
        let mut cold = RdtAlgorithm::new(params);
        cold.prepare(index);
        let want = run_algorithm_batch(&cold, index, &queries, 2);
        for ((a, b), q) in got.answers.iter().zip(&want.answers).zip(&queries) {
            let bits = |r: &[rknn::core::Neighbor]| -> Vec<(PointId, u64)> {
                r.iter().map(|n| (n.id, n.dist.to_bits())).collect()
            };
            assert_eq!(
                bits(&a.result),
                bits(&b.result),
                "{label} step {step}: q={q}"
            );
        }
        snap = succ;
    }
}

#[test]
fn chained_prewarmed_advances_keep_exact_thresholds_and_answers() {
    let ds = rknn::data::gaussian_blobs(400, 4, 6, 0.2, 31).into_shared();
    check_chained_advances(LinearScan::build(ds.clone(), Euclidean), 20, "linear");
    check_chained_advances(VpTree::build(ds, Euclidean), 20, "vp");
}
