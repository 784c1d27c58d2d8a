//! A maintained all-points RkNN stream under insert/delete churn.
//!
//! The paper's experimental workload is the *all-points* protocol: every
//! dataset point's reverse k-nearest neighbors. This module keeps that
//! entire answer table **live** while the underlying index churns: each
//! insert or delete repairs exactly the answers it can have touched,
//! instead of re-running the whole batch.
//!
//! # The localization argument
//!
//! A point `v ≠ q` belongs to `RkNN(q)` iff `d(v, q) ≤ d_k(v)` — membership
//! depends only on the pairwise distance and `v`'s verification threshold,
//! never on the rest of the point set. An update at point `p` can therefore
//! change query `q`'s answer only through one of two channels:
//!
//! * **`p`'s own membership** — `p` joins (insert) or leaves (delete)
//!   answers of exactly the queries `q` with `d(p, q) ≤ d_k(p)`: the ball
//!   around `p` of radius `d_k(p)` (post-insert / pre-delete respectively).
//! * **A threshold change** — `d_k(v)` changes only for points `v` whose
//!   k-nearest neighborhood gains or loses `p`, and every such `v`
//!   satisfies `d(v, p) ≤ d_k(v)` against the larger of its old/new
//!   thresholds — i.e. `v ∈ RkNN(p, k)` evaluated on the side of the
//!   update where `p` is live. For such a `v`, membership of `v` can only
//!   change in answers of queries `q` with `d(v, q) ≤ max(d_k^old(v),
//!   d_k^new(v))`: the ball around `v` of its larger threshold.
//!
//! The recompute set is the union of those balls; every query outside it
//! provably keeps a byte-identical answer (distances are bitwise symmetric
//! across all kernel backends, see `rknn_core::kernel`). Repaired queries
//! are re-run through the deterministic batch driver, so the maintained
//! table equals a rebuild-from-scratch *bit for bit* — the churn
//! equivalence tests assert exactly that at every step.
//!
//! # Exactness requirement
//!
//! The byte-identity guarantee holds when the configured engine is $exact$
//! (scale parameter `t` large enough that RDT reports the true RkNN sets —
//! the tests use `t = 50`). At heuristic `t`, RDT's termination tests
//! depend on global quantities (`n`, witness dynamics), so an update may
//! legitimately change the *heuristic* answer of a far-away query; the
//! maintained stream still repairs every exactly-affected query, but
//! equality with a rebuild is then approximate, as is RDT itself.

use crate::algorithm::{
    run_algorithm_all_points, run_algorithm_batch, IndexUpdate, RdtAlgorithm, RknnAlgorithm,
};
use crate::answer::RknnAnswer;
use rknn_core::{CoreError, CursorScratch, Metric, PointId, SearchStats};
use rknn_index::{DynamicIndex, KnnIndex};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// What one maintained update did: the localization footprint and its cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UpdateReport {
    /// Points whose verification threshold the update may have changed
    /// (`|RkNN(p)|` on the side of the update where `p` is live).
    pub affected: usize,
    /// Queries re-run through the batch driver.
    pub recomputed: usize,
    /// Localization overhead: the threshold probes and range queries that
    /// computed the recompute set (the per-query re-runs report their own
    /// work through the maintained answers).
    pub overhead: SearchStats,
    /// Wall-clock time of the whole update (index mutation, cache
    /// maintenance, localization, and recomputation).
    pub elapsed: Duration,
}

/// A live all-points RkNN answer table over a dynamic index.
///
/// Construction seeds the table with one all-points batch;
/// [`insert`](Self::insert) and [`remove`](Self::remove) own the index
/// mutation (the stream must observe the index on the correct side of
/// every update) and repair the table locally. Answers are indexed by
/// point id and exist exactly for live points.
#[derive(Debug)]
pub struct MaintainedStream {
    algo: RdtAlgorithm,
    threads: usize,
    answers: Vec<Option<RknnAnswer>>,
    scratch: CursorScratch,
}

/// `d_k(v)` drained from a bounded forward cursor, optionally skipping one
/// point id — `skip = Some(p)` yields the threshold the index *would* have
/// without `p`, which is how the stream reads pre-update thresholds after
/// an insert (and post-update thresholds before a delete) without ever
/// holding two index versions.
fn dk_excluding<M, I>(
    index: &I,
    v: PointId,
    k: usize,
    skip: Option<PointId>,
    scratch: &mut CursorScratch,
    stats: &mut SearchStats,
) -> f64
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    let limit = k + usize::from(skip.is_some());
    let mut cursor = index.cursor_bounded(index.point(v), Some(v), limit, scratch);
    let mut dk = f64::INFINITY;
    let mut got = 0usize;
    while got < k {
        match cursor.next() {
            Some(n) => {
                if Some(n.id) == skip {
                    continue;
                }
                dk = n.dist;
                got += 1;
            }
            None => break,
        }
    }
    stats.absorb(&cursor.stats());
    if got < k {
        f64::INFINITY
    } else {
        dk
    }
}

impl MaintainedStream {
    /// Seeds the maintained table: prepares `algo` against `index` and runs
    /// one all-points batch.
    ///
    /// Requires an un-churned index (ids `0..num_points()` are exactly the
    /// live points) — grow and shrink it afterwards *through the stream*,
    /// which keeps the table in lockstep.
    pub fn new<M, I>(mut algo: RdtAlgorithm, index: &I, threads: usize) -> Self
    where
        M: Metric,
        I: KnnIndex<M> + Sync + ?Sized,
    {
        algo.prepare(index);
        let out = run_algorithm_all_points(&algo, index, threads);
        MaintainedStream {
            algo,
            threads,
            answers: out.answers.into_iter().map(Some).collect(),
            scratch: CursorScratch::new(),
        }
    }

    /// The maintained answer of a live point, `None` for removed or unknown
    /// ids.
    pub fn answer(&self, id: PointId) -> Option<&RknnAnswer> {
        self.answers.get(id).and_then(|a| a.as_ref())
    }

    /// All live `(id, answer)` pairs in id order.
    pub fn answers(&self) -> impl Iterator<Item = (PointId, &RknnAnswer)> {
        self.answers
            .iter()
            .enumerate()
            .filter_map(|(id, a)| a.as_ref().map(|a| (id, a)))
    }

    /// Number of live maintained answers.
    pub fn live(&self) -> usize {
        self.answers.iter().filter(|a| a.is_some()).count()
    }

    /// The engine configuration behind the table (its maintenance
    /// accounting — [`RknnAlgorithm::maintenance_time`] /
    /// [`RknnAlgorithm::maintenance_stats`] — accumulates across updates).
    pub fn algo(&self) -> &RdtAlgorithm {
        &self.algo
    }

    /// Inserts a point through the stream: mutates the index, repairs the
    /// `d_k` cache, and recomputes exactly the answers the insert can have
    /// touched. Returns the new id and the update's footprint.
    pub fn insert<M, I>(
        &mut self,
        index: &mut I,
        point: &[f64],
    ) -> Result<(PointId, UpdateReport), CoreError>
    where
        M: Metric,
        I: DynamicIndex<M> + Sync + ?Sized,
    {
        let start = Instant::now();
        let mut overhead = SearchStats::new();
        let k = self.algo.params().k;
        let p = index.insert(point)?;
        self.algo
            .apply_updates(&*index, &[IndexUpdate::Inserted(p)]);
        let index = &*index;

        // A = RkNN(p) post-insert ⊇ every point whose threshold changed.
        let p_answer = run_algorithm_batch(&self.algo, index, &[p], 1)
            .answers
            .pop()
            .expect("one answer per query");
        let affected: Vec<PointId> = p_answer.result.iter().map(|n| n.id).collect();

        let mut recompute: BTreeSet<PointId> = BTreeSet::new();
        recompute.insert(p);
        // Queries that may gain p as a member.
        let dk_p = dk_excluding(index, p, k, None, &mut self.scratch, &mut overhead);
        for n in index.range(index.point(p), dk_p, Some(p), &mut overhead) {
            recompute.insert(n.id);
        }
        // Queries that may lose a v whose threshold shrank: ball of the
        // *pre-insert* threshold, read post-insert by skipping p.
        for &v in &affected {
            let dk_old = dk_excluding(index, v, k, Some(p), &mut self.scratch, &mut overhead);
            for n in index.range(index.point(v), dk_old, Some(v), &mut overhead) {
                recompute.insert(n.id);
            }
        }

        let queries: Vec<PointId> = recompute.into_iter().collect();
        let out = run_algorithm_batch(&self.algo, index, &queries, self.threads);
        if self.answers.len() <= p {
            self.answers.resize_with(p + 1, || None);
        }
        for (&q, ans) in queries.iter().zip(out.answers) {
            self.answers[q] = Some(ans);
        }
        Ok((
            p,
            UpdateReport {
                affected: affected.len(),
                recomputed: queries.len(),
                overhead,
                elapsed: start.elapsed(),
            },
        ))
    }

    /// Removes a live point through the stream: localizes against the
    /// pre-delete index, then tombstones, repairs the `d_k` cache, and
    /// recomputes the touched answers. Returns `None` (index untouched) if
    /// `id` is not a live maintained point.
    pub fn remove<M, I>(&mut self, index: &mut I, id: PointId) -> Option<UpdateReport>
    where
        M: Metric,
        I: DynamicIndex<M> + Sync + ?Sized,
    {
        // PRE-delete: A = RkNN(id) is the maintained answer itself;
        // post-delete thresholds are read by skipping `id`. `None` here
        // means `id` is not live — refuse without touching the index.
        let affected: Vec<PointId> = self.answer(id)?.result.iter().map(|n| n.id).collect();
        let start = Instant::now();
        let mut overhead = SearchStats::new();
        let k = self.algo.params().k;
        let mut recompute: BTreeSet<PointId> = BTreeSet::new();
        // Queries that lose `id` as a member.
        let dk_p = dk_excluding(&*index, id, k, None, &mut self.scratch, &mut overhead);
        for n in index.range(index.point(id), dk_p, Some(id), &mut overhead) {
            recompute.insert(n.id);
        }
        // Queries that may gain a v whose threshold grew: ball of the
        // *post-delete* threshold, read pre-delete by skipping `id`.
        for &v in &affected {
            let dk_new = dk_excluding(&*index, v, k, Some(id), &mut self.scratch, &mut overhead);
            for n in index.range(index.point(v), dk_new, Some(v), &mut overhead) {
                recompute.insert(n.id);
            }
        }
        recompute.remove(&id);

        assert!(index.remove(id), "maintained id was live in the index");
        self.algo
            .apply_updates(&*index, &[IndexUpdate::Removed(id)]);
        self.answers[id] = None;

        let queries: Vec<PointId> = recompute.into_iter().collect();
        let out = run_algorithm_batch(&self.algo, &*index, &queries, self.threads);
        for (&q, ans) in queries.iter().zip(out.answers) {
            self.answers[q] = Some(ans);
        }
        Some(UpdateReport {
            affected: affected.len(),
            recomputed: queries.len(),
            overhead,
            elapsed: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RdtParams;
    use rknn_core::Euclidean;
    use rknn_index::{CoverTree, LinearScan};

    /// Exact configuration: t = 50 makes RDT report true RkNN sets, the
    /// precondition of the byte-identity guarantee.
    fn exact_algo(k: usize) -> RdtAlgorithm {
        RdtAlgorithm::new(RdtParams::new(k, 50.0))
    }

    /// Tie-heavy half-integer grid: the adversarial input for anything that
    /// mishandles `(dist, id)` ordering.
    fn grid(n: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * 7 + j * 3) % 9) as f64 * 0.5)
                    .collect()
            })
            .collect()
    }

    fn check_matches_rebuild<M, I>(stream: &MaintainedStream, index: &I, k: usize)
    where
        M: Metric,
        I: KnnIndex<M> + Sync + ?Sized,
    {
        let mut fresh = exact_algo(k);
        fresh.prepare(index);
        // Rebuild answers every maintained id (the rebuild sees the same
        // ids — churn never renumbers).
        let queries: Vec<PointId> = stream.answers().map(|(id, _)| id).collect();
        let rebuilt = run_algorithm_batch(&fresh, index, &queries, 2);
        for (&q, want) in queries.iter().zip(&rebuilt.answers) {
            let got = stream.answer(q).expect("maintained answer exists");
            assert_eq!(got.ids(), want.ids(), "q={q}");
            let gd: Vec<u64> = got.result.iter().map(|n| n.dist.to_bits()).collect();
            let wd: Vec<u64> = want.result.iter().map(|n| n.dist.to_bits()).collect();
            assert_eq!(gd, wd, "q={q}");
        }
    }

    #[test]
    fn maintained_stream_tracks_mixed_churn_exactly() {
        let rows = grid(90, 2);
        let ds = rknn_core::Dataset::from_rows(&rows).unwrap().into_shared();
        let mut index = LinearScan::build(ds, Euclidean);
        let k = 3;
        let mut stream = MaintainedStream::new(exact_algo(k), &index, 2);
        assert_eq!(stream.live(), 90);

        // Mixed workload on the tie-heavy grid, checking byte-identity to a
        // rebuild after every step.
        let (id_a, rep) = stream.insert(&mut index, &[1.25, 0.75]).unwrap();
        assert!(rep.recomputed >= 1);
        check_matches_rebuild(&stream, &index, k);

        let rep = stream.remove(&mut index, 7).unwrap();
        assert!(rep.recomputed > 0 || rep.affected == 0);
        check_matches_rebuild(&stream, &index, k);

        let (_, _) = stream.insert(&mut index, &[0.0, 0.0]).unwrap();
        check_matches_rebuild(&stream, &index, k);

        let _ = stream.remove(&mut index, id_a).unwrap();
        check_matches_rebuild(&stream, &index, k);

        // Double-remove and unknown ids are refused without touching state.
        assert!(stream.remove(&mut index, id_a).is_none());
        assert!(stream.remove(&mut index, 10_000).is_none());
        assert_eq!(stream.live(), 90);
    }

    #[test]
    fn maintained_stream_works_on_tree_substrates() {
        let rows = grid(70, 3);
        let ds = rknn_core::Dataset::from_rows(&rows).unwrap().into_shared();
        let mut index = CoverTree::build(ds, Euclidean);
        let k = 2;
        let mut stream = MaintainedStream::new(exact_algo(k), &index, 1);
        stream.insert(&mut index, &[2.0, 0.5, 1.0]).unwrap();
        stream.remove(&mut index, 3).unwrap();
        stream.insert(&mut index, &[0.5, 0.5, 0.5]).unwrap();
        check_matches_rebuild(&stream, &index, k);
    }

    #[test]
    fn update_reports_expose_the_localization_footprint() {
        let rows = grid(60, 2);
        let ds = rknn_core::Dataset::from_rows(&rows).unwrap().into_shared();
        let mut index = LinearScan::build(ds, Euclidean);
        let mut stream = MaintainedStream::new(exact_algo(3), &index, 1);
        let (_, rep) = stream.insert(&mut index, &[1.0, 1.0]).unwrap();
        assert!(rep.recomputed <= 61, "recompute set is bounded by n");
        assert!(
            rep.overhead.dist_computations > 0,
            "localization is charged"
        );
        assert!(rep.elapsed > Duration::ZERO);
    }
}
