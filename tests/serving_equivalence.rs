//! Serving equivalence: the concurrent engine is **byte-identical** to the
//! sequential driver — for every algorithm, every worker count, under
//! backpressure, and across mid-stream snapshot swaps.
//!
//! The engine adds three things on top of the batch driver: sharded queues
//! with work stealing (arbitrary execution interleavings), epoch-pinned
//! snapshots (a query and a concurrently published successor must never
//! mix), and backpressure (rejected submissions must lose nothing). None
//! of them may change a single answer bit:
//!
//! 1. every method — naive, SFT, TPL, MRkNNCoP, RdNN-Tree, RDT, RDT+ —
//!    served through the engine at worker counts {1, 2, 5} returns the
//!    same ids and bit-identical distances as a sequential per-query loop,
//!    under adversarial submission orders (duplicates, shuffles) and queue
//!    capacities small enough to force saturation retries;
//! 2. a snapshot published mid-stream splits the responses cleanly: every
//!    response carries an epoch, its answer is byte-identical to the
//!    sequential reference *of that epoch alone*, and submissions made
//!    after the publish are answered under the new epoch — the warm-cache
//!    successor ([`rknn::serve::advance_snapshot`]) and a cold re-prepared
//!    snapshot both behave this way, and so does a publish made while an
//!    earlier batch is still queued, which the engine counts as one swap.
//!
//! Coordinates live on the tie-heavy half-integer grid (the adversarial
//! case for `(dist, id)` ordering), so any cross-epoch or cross-worker
//! leakage shows up as a bit difference immediately.

use proptest::prelude::*;
use rknn::baselines::{MrknncopAlgorithm, NaiveRknn, RdnnAlgorithm, Sft, TplAlgorithm};
use rknn::core::{Dataset, Euclidean, Neighbor, PointId};
use rknn::index::{KnnIndex, LinearScan};
use rknn::rdt::algorithm::{RdtAlgorithm, RknnAlgorithm};
use rknn::rdt::RdtParams;
use rknn::serve::{advance_snapshot, ChurnOp, Engine, EngineConfig, QueryError, Snapshot, Ticket};
use std::sync::Arc;

/// Tie-heavy half-integer lattice rows.
fn grid_rows(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![((i * 7) % 9) as f64 * 0.5, ((i * 3 + 1) % 9) as f64 * 0.5])
        .collect()
}

fn grid_dataset(n: usize) -> Arc<Dataset> {
    Dataset::from_rows(&grid_rows(n))
        .expect("grid coordinates are finite")
        .into_shared()
}

type Digest = Vec<(PointId, u64)>;

fn digest(neighbors: &[Neighbor]) -> Digest {
    neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// Sequential per-query reference over all `n` points: one worker, one
/// thread, submission order irrelevant by construction.
fn sequential_reference<A>(algo: &A, index: &LinearScan<Euclidean>) -> Vec<Digest>
where
    A: RknnAlgorithm<Euclidean, LinearScan<Euclidean>>,
{
    use rknn::rdt::algorithm::AlgorithmAnswer;
    let mut worker = algo.make_worker(index);
    (0..index.num_points())
        .map(|q| digest(algo.query(index, q, &mut worker).neighbors()))
        .collect()
}

/// Submits `order` (retrying saturated submits so backpressure sheds no
/// work), waits for every ticket, and returns `(query, epoch, digest)`
/// in submission order.
fn drive<A>(
    engine: &Engine<Euclidean, LinearScan<Euclidean>, A>,
    order: &[PointId],
) -> (Vec<(PointId, u64, Digest)>, usize)
where
    A: RknnAlgorithm<Euclidean, LinearScan<Euclidean>> + Send + Sync + 'static,
{
    let mut tickets = Vec::with_capacity(order.len());
    let mut retries = 0usize;
    for &q in order {
        loop {
            match engine.submit(q) {
                Ok(t) => {
                    tickets.push(t);
                    break;
                }
                Err(QueryError::Saturated { .. }) => {
                    retries += 1;
                    std::thread::yield_now();
                }
                Err(other) => panic!("unexpected submit error mid-test: {other}"),
            }
        }
    }
    let responses = tickets
        .into_iter()
        .map(|t| {
            let r = t.wait().expect("no faults injected: every ticket answers");
            let q = r.point_id().expect("point query echoes its id");
            (q, r.epoch, digest(&r.neighbors))
        })
        .collect();
    (responses, retries)
}

/// One algorithm through the engine vs its sequential reference.
fn assert_engine_matches_sequential<A, F>(
    make: F,
    ds: &Arc<Dataset>,
    workers: usize,
    queue_cap: usize,
    order: &[PointId],
    label: &str,
) where
    A: RknnAlgorithm<Euclidean, LinearScan<Euclidean>> + Send + Sync + 'static,
    F: Fn() -> A,
{
    let reference = {
        let index = LinearScan::build(ds.clone(), Euclidean);
        let mut algo = make();
        algo.prepare(&index);
        sequential_reference(&algo, &index)
    };
    let engine = Engine::new(
        Snapshot::prepare(0, LinearScan::build(ds.clone(), Euclidean), make()),
        EngineConfig {
            workers,
            queue_capacity: queue_cap,
            ..EngineConfig::default()
        },
    );
    let (responses, _retries) = drive(&engine, order);
    let stats = engine.shutdown();
    assert_eq!(
        responses.len(),
        order.len(),
        "{label}: every submission answered exactly once"
    );
    assert_eq!(stats.completed as usize, order.len());
    for (i, (query, epoch, got)) in responses.iter().enumerate() {
        assert_eq!(*query, order[i], "{label}: ticket order");
        assert_eq!(*epoch, 0, "{label}: single-snapshot run");
        assert_eq!(
            got, &reference[*query],
            "{label} workers={workers} q={query}: engine diverged from the sequential driver"
        );
    }
}

/// Raw proptest levels → an adversarial submission order over `0..n`
/// (duplicates and arbitrary shuffles included).
fn order_from(raw: &[u16], n: usize) -> Vec<PointId> {
    raw.iter().map(|&v| v as usize % n).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every algorithm, byte-identical through the concurrent executor at
    /// every worker count, under adversarial orderings and queue bounds
    /// tight enough to saturate.
    #[test]
    fn engine_is_byte_identical_to_the_sequential_driver(
        n in 24usize..48,
        k in 1usize..4,
        workers in prop_oneof![Just(1usize), Just(2), Just(5)],
        queue_cap in prop_oneof![Just(1usize), Just(2), Just(16)],
        raw_order in proptest::collection::vec(any::<u16>(), 24..64),
    ) {
        let ds = grid_dataset(n);
        let order = order_from(&raw_order, n);
        let k_max = k + 2;

        assert_engine_matches_sequential(
            || NaiveRknn::new(k), &ds, workers, queue_cap, &order, "naive");
        assert_engine_matches_sequential(
            || Sft::new(k, 3.0), &ds, workers, queue_cap, &order, "sft");
        assert_engine_matches_sequential(
            || TplAlgorithm::new(ds.clone(), Euclidean, k),
            &ds, workers, queue_cap, &order, "tpl");
        assert_engine_matches_sequential(
            || MrknncopAlgorithm::new(ds.clone(), Euclidean, k, k_max),
            &ds, workers, queue_cap, &order, "mrknncop");
        assert_engine_matches_sequential(
            || RdnnAlgorithm::new(ds.clone(), Euclidean, k),
            &ds, workers, queue_cap, &order, "rdnn");
        assert_engine_matches_sequential(
            || RdtAlgorithm::new(RdtParams::new(k, 50.0)),
            &ds, workers, queue_cap, &order, "rdt");
        assert_engine_matches_sequential(
            || RdtAlgorithm::plus(RdtParams::new(k, 4.0)),
            &ds, workers, queue_cap, &order, "rdt+");
    }

    /// A warm-cache successor published mid-stream: every response is
    /// consistent with exactly the epoch it reports, and submissions after
    /// the publish land on the new epoch.
    #[test]
    fn mid_stream_swap_splits_responses_by_epoch(
        n in 24usize..40,
        k in 1usize..4,
        workers in prop_oneof![Just(1usize), Just(2), Just(5)],
        raw_order in proptest::collection::vec(any::<u16>(), 30..60),
    ) {
        let ds = grid_dataset(n);
        let params = RdtParams::new(k, 50.0);
        // The last base id is the removal victim; queries stay on ids live
        // in *both* epochs.
        let victim = n - 1;
        let order = order_from(&raw_order, victim);

        // Epoch-0 reference.
        let index0 = LinearScan::build(ds.clone(), Euclidean);
        let mut ref_algo = RdtAlgorithm::new(params);
        ref_algo.prepare(&index0);
        let ref0 = sequential_reference(&ref_algo, &index0);

        let engine = Engine::new(
            Snapshot::prepare(0, LinearScan::build(ds.clone(), Euclidean), RdtAlgorithm::new(params)),
            EngineConfig { workers, queue_capacity: 8, ..EngineConfig::default() },
        );

        // Derive the epoch-1 successor off to the side (warm d_k cache),
        // and its own sequential reference, before publishing.
        let pinned = engine.snapshot();
        let ops = vec![
            ChurnOp::Insert(vec![0.5, 1.5]),
            ChurnOp::Remove(victim),
        ];
        let (next, report) = advance_snapshot(&pinned, &ops).expect("grid rows insert cleanly");
        prop_assert_eq!(next.epoch(), 1);
        prop_assert_eq!(&report.removed, &vec![victim]);
        let ref1 = {
            let mut cold = RdtAlgorithm::new(params);
            cold.prepare(next.index());
            sequential_reference(&cold, next.index())
        };

        let split = order.len() / 2;
        let (before, after) = order.split_at(split);
        let (mut responses, _) = drive(&engine, before);
        engine.publish(next);
        let (late, _) = drive(&engine, after);
        responses.extend(late);
        engine.shutdown();

        for (i, (query, epoch, got)) in responses.iter().enumerate() {
            prop_assert_eq!(*query, order[i]);
            let want = match epoch {
                0 => &ref0[*query],
                1 => &ref1[*query],
                other => panic!("unknown epoch {other}"),
            };
            prop_assert_eq!(
                got, want,
                "q={} answered under epoch {} but does not match that epoch's reference",
                query, epoch
            );
            // A submission made after the publish is dequeued after it too,
            // so it must see the successor.
            if i >= split {
                prop_assert_eq!(*epoch, 1u64, "post-publish submission pinned the old epoch");
            }
        }
    }
}

/// Epoch swaps are not RDT-specific: a cold re-prepared snapshot of any
/// algorithm publishes the same way. Scripted (not property-driven)
/// because the cold successor is just `Snapshot::prepare` again.
#[test]
fn cold_published_successor_serves_any_algorithm() {
    let n = 30;
    let k = 2;
    let ds0 = grid_dataset(n);
    // Epoch 1 drops the last row entirely (a rebuilt catalog, not churn).
    let ds1 = Dataset::from_rows(&grid_rows(n)[..n - 1])
        .expect("grid coordinates are finite")
        .into_shared();

    let index0 = LinearScan::build(ds0.clone(), Euclidean);
    let mut algo0 = NaiveRknn::new(k);
    algo0.prepare(&index0);
    let ref0 = sequential_reference(&algo0, &index0);
    let index1 = LinearScan::build(ds1.clone(), Euclidean);
    let mut algo1 = NaiveRknn::new(k);
    algo1.prepare(&index1);
    let ref1 = sequential_reference(&algo1, &index1);

    let engine = Engine::new(
        Snapshot::prepare(0, LinearScan::build(ds0, Euclidean), NaiveRknn::new(k)),
        EngineConfig {
            workers: 2,
            queue_capacity: 4,
            ..EngineConfig::default()
        },
    );
    let order: Vec<usize> = (0..n - 1).collect();
    let (early, _) = drive(&engine, &order);
    engine.publish(Snapshot::prepare(
        1,
        LinearScan::build(ds1, Euclidean),
        NaiveRknn::new(k),
    ));
    let (late, _) = drive(&engine, &order);
    engine.shutdown();

    for (query, epoch, got) in &early {
        let want = if *epoch == 0 { &ref0 } else { &ref1 };
        assert_eq!(got, &want[*query], "early q={query} epoch={epoch}");
    }
    for (query, epoch, got) in &late {
        assert_eq!(*epoch, 1, "post-publish submissions see the successor");
        assert_eq!(got, &ref1[*query], "late q={query}");
    }
}

/// A warm-cache successor published while an earlier batch is still
/// queued: every response matches the reference of the epoch it reports,
/// the second batch sees the successor, and the engine counts exactly one
/// swap and loses no ticket.
#[test]
fn publish_with_tickets_outstanding_splits_responses_by_epoch() {
    let n = 200;
    let k = 3;
    let ds = grid_dataset(n);
    let params = RdtParams::new(k, 50.0);
    // Queries stay on ids live in both epochs; the last id is removed.
    let victim = n - 1;
    let queries: Vec<PointId> = (0..victim).collect();

    let index0 = LinearScan::build(ds.clone(), Euclidean);
    let mut ref_algo = RdtAlgorithm::new(params);
    ref_algo.prepare(&index0);
    let ref0 = sequential_reference(&ref_algo, &index0);

    for workers in [1usize, 2] {
        let engine = Engine::new(
            Snapshot::prepare(
                0,
                LinearScan::build(ds.clone(), Euclidean),
                RdtAlgorithm::new(params),
            ),
            EngineConfig {
                workers,
                queue_capacity: queries.len(),
                ..EngineConfig::default()
            },
        );
        // The first batch goes in without waiting; only its first ticket
        // is awaited before the successor is derived and published.
        let mut first = queries.iter().map(|&q| {
            let ticket = engine.submit(q).expect("each shard holds the whole batch");
            (q, ticket)
        });
        let (head_query, head) = first.next().expect("non-empty batch");
        let head = head.wait().expect("no faults injected");
        let outstanding: Vec<(PointId, Ticket)> = first.collect();

        let ops = vec![ChurnOp::Insert(vec![0.5, 1.5]), ChurnOp::Remove(victim)];
        let (next, _) = advance_snapshot(&engine.snapshot(), &ops).expect("grid rows insert");
        engine.publish(next);
        let (second, _) = drive(&engine, &queries);
        let ref1 = {
            let successor = engine.snapshot();
            assert_eq!(successor.epoch(), 1);
            let mut cold = RdtAlgorithm::new(params);
            cold.prepare(successor.index());
            sequential_reference(&cold, successor.index())
        };

        let mut responses = vec![(head_query, head.epoch, digest(&head.neighbors))];
        for (q, ticket) in outstanding {
            let r = ticket.wait().expect("no faults injected");
            responses.push((q, r.epoch, digest(&r.neighbors)));
        }
        for &(_, epoch, _) in &second {
            assert_eq!(
                epoch, 1,
                "workers={workers}: post-publish submission pinned epoch 0"
            );
        }
        responses.extend(second);

        let mut epochs: Vec<u64> = Vec::new();
        for (query, epoch, got) in &responses {
            let want = match epoch {
                0 => &ref0[*query],
                1 => &ref1[*query],
                other => panic!("unknown epoch {other}"),
            };
            assert_eq!(
                got, want,
                "workers={workers} q={query}: answer does not match epoch {epoch}'s reference"
            );
            if !epochs.contains(epoch) {
                epochs.push(*epoch);
            }
        }
        assert!(
            epochs.len() >= 2,
            "workers={workers}: saw epochs {epochs:?}"
        );

        let stats = engine.shutdown();
        assert_eq!(stats.swaps, 1, "workers={workers}: one publish, one swap");
        assert_eq!(
            stats.completed, stats.submitted,
            "workers={workers}: lost tickets"
        );
        assert_eq!(stats.submitted as usize, 2 * queries.len());
    }
}
