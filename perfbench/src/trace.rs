//! The traced replay: a `KnnIndex` wrapper that times every call into the
//! index layer, so one RDT query splits into its filter cursor, its
//! verification cursors, and RDT's own time (the witness pass and
//! bookkeeping) as the remainder.
//!
//! Nothing inside the program is instrumented. The wrapper forwards every
//! `KnnIndex` method to the wrapped substrate, so a traced query runs the
//! same substrate code as an untraced one; the only added work is two
//! clock reads per cursor call and one box per opened cursor.

use crate::check::bits;
use rknn_core::{CursorScratch, Dataset, Metric, Neighbor, PointId, QueryScratch, SearchStats};
use rknn_index::{KnnIndex, NnCursor};
use rknn_rdt::{RdtAlgorithm, RknnAlgorithm, RknnAnswer};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Index time of one query, by the role of the call that spent it. The
/// first cursor a query opens is RDT's filter cursor; every later index
/// call is a forward-kNN verification (a `d_k` cache miss).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexSpans {
    /// Index calls made (cursor opens and direct kNN/range calls).
    pub calls: u64,
    /// Time inside the filter cursor: its open plus every `next()`.
    pub filter_ns: u64,
    /// Time inside verification calls.
    pub verify_ns: u64,
}

/// A timing wrapper around a borrowed index.
pub struct Traced<'i, I: ?Sized> {
    inner: &'i I,
    calls: AtomicU64,
    filter_ns: AtomicU64,
    verify_ns: AtomicU64,
}

fn add_since(acc: &AtomicU64, t0: Instant) {
    acc.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
}

impl<'i, I: ?Sized> Traced<'i, I> {
    pub fn new(inner: &'i I) -> Self {
        Traced {
            inner,
            calls: AtomicU64::new(0),
            filter_ns: AtomicU64::new(0),
            verify_ns: AtomicU64::new(0),
        }
    }

    /// The spans recorded since the last call, which starts a new query.
    pub fn take(&self) -> IndexSpans {
        IndexSpans {
            calls: self.calls.swap(0, Relaxed),
            filter_ns: self.filter_ns.swap(0, Relaxed),
            verify_ns: self.verify_ns.swap(0, Relaxed),
        }
    }

    /// The accumulator the next index call charges.
    fn slot(&self) -> &AtomicU64 {
        if self.calls.fetch_add(1, Relaxed) == 0 {
            &self.filter_ns
        } else {
            &self.verify_ns
        }
    }

    fn timed<T>(&self, call: impl FnOnce() -> T) -> T {
        let acc = self.slot();
        let t0 = Instant::now();
        let out = call();
        add_since(acc, t0);
        out
    }

    fn wrap<'a>(&'a self, open: impl FnOnce() -> Box<dyn NnCursor + 'a>) -> Box<dyn NnCursor + 'a> {
        let acc = self.slot();
        let t0 = Instant::now();
        let inner = open();
        add_since(acc, t0);
        Box::new(TracedCursor { inner, acc })
    }
}

struct TracedCursor<'a> {
    inner: Box<dyn NnCursor + 'a>,
    acc: &'a AtomicU64,
}

impl NnCursor for TracedCursor<'_> {
    fn next(&mut self) -> Option<Neighbor> {
        let t0 = Instant::now();
        let next = self.inner.next();
        add_since(self.acc, t0);
        next
    }

    fn stats(&self) -> SearchStats {
        self.inner.stats()
    }
}

impl<M: Metric, I: KnnIndex<M> + ?Sized> KnnIndex<M> for Traced<'_, I> {
    fn num_points(&self) -> usize {
        self.inner.num_points()
    }

    fn has_point(&self, id: PointId) -> bool {
        self.inner.has_point(id)
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn point(&self, id: PointId) -> &[f64] {
        self.inner.point(id)
    }

    fn metric(&self) -> &M {
        self.inner.metric()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn base_rows(&self) -> Option<&Dataset> {
        self.inner.base_rows()
    }

    fn cursor<'a>(&'a self, q: &'a [f64], exclude: Option<PointId>) -> Box<dyn NnCursor + 'a> {
        self.wrap(|| self.inner.cursor(q, exclude))
    }

    fn cursor_with<'a>(
        &'a self,
        q: &'a [f64],
        exclude: Option<PointId>,
        scratch: &'a mut CursorScratch,
    ) -> Box<dyn NnCursor + 'a> {
        self.wrap(|| self.inner.cursor_with(q, exclude, scratch))
    }

    fn cursor_bounded<'a>(
        &'a self,
        q: &'a [f64],
        exclude: Option<PointId>,
        limit: usize,
        scratch: &'a mut CursorScratch,
    ) -> Box<dyn NnCursor + 'a> {
        self.wrap(|| self.inner.cursor_bounded(q, exclude, limit, scratch))
    }

    fn knn(
        &self,
        q: &[f64],
        k: usize,
        exclude: Option<PointId>,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        self.timed(|| self.inner.knn(q, k, exclude, stats))
    }

    fn range(
        &self,
        q: &[f64],
        r: f64,
        exclude: Option<PointId>,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        self.timed(|| self.inner.range(q, r, exclude, stats))
    }

    fn range_count(
        &self,
        q: &[f64],
        r: f64,
        strict: bool,
        exclude: Option<PointId>,
        stats: &mut SearchStats,
    ) -> usize {
        self.timed(|| self.inner.range_count(q, r, strict, exclude, stats))
    }
}

/// One replayed query: its answer, wall time and (when traced) index spans.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    pub answer: RknnAnswer,
    pub wall_ns: u64,
    pub spans: IndexSpans,
}

impl QueryTrace {
    /// RDT's own time: the wall time the index spans do not cover. It is
    /// signed so a span accounting error shows instead of wrapping.
    pub fn self_ns(&self) -> i128 {
        self.wall_ns as i128 - self.spans.filter_ns as i128 - self.spans.verify_ns as i128
    }
}

/// Runs one query through `algo`, untraced or through a [`Traced`] view of
/// `index`.
pub fn replay_query<M, I>(
    algo: &RdtAlgorithm,
    index: &I,
    q: PointId,
    worker: &mut QueryScratch,
    traced: bool,
) -> QueryTrace
where
    M: Metric,
    I: KnnIndex<M>,
{
    if traced {
        let view = Traced::new(index);
        let t0 = Instant::now();
        let answer = RknnAlgorithm::<M, Traced<'_, I>>::query(algo, &view, q, worker);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        QueryTrace {
            answer,
            wall_ns,
            spans: view.take(),
        }
    } else {
        let t0 = Instant::now();
        let answer = RknnAlgorithm::<M, I>::query(algo, index, q, worker);
        QueryTrace {
            answer,
            wall_ns: t0.elapsed().as_nanos() as u64,
            spans: IndexSpans::default(),
        }
    }
}

/// Whether two answers are byte-identical: ids, distance bits and every
/// RDT counter.
pub fn same_answer(a: &RknnAnswer, b: &RknnAnswer) -> bool {
    bits(&a.result) == bits(&b.result) && a.stats == b.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknn_core::Euclidean;
    use rknn_index::{CoverTree, LinearScan, VpTree};
    use rknn_rdt::RdtParams;

    fn check_substrate<I: KnnIndex<Euclidean>>(index: &I, cached: bool) {
        let params = RdtParams::new(5, 4.0);
        let mut plain = RdtAlgorithm::new(params).with_dk_reuse(cached);
        let mut traced = RdtAlgorithm::new(params).with_dk_reuse(cached);
        RknnAlgorithm::<Euclidean, I>::prepare(&mut plain, index);
        RknnAlgorithm::<Euclidean, I>::prepare(&mut traced, index);
        let mut w1 = QueryScratch::new(index.dim());
        let mut w2 = QueryScratch::new(index.dim());
        for q in (0..index.num_points()).step_by(7) {
            let a = replay_query(&plain, index, q, &mut w1, false);
            let b = replay_query(&traced, index, q, &mut w2, true);
            assert!(same_answer(&a.answer, &b.answer), "q={q}");
            assert!(b.self_ns() >= 0, "spans exceed the wall time, q={q}");
            let parts = b.spans.filter_ns as i128 + b.spans.verify_ns as i128 + b.self_ns();
            assert_eq!(parts, b.wall_ns as i128);
            assert!(b.spans.calls >= 1 && b.spans.filter_ns > 0);
            // Every verification that missed the cache opened one cursor.
            if !cached {
                assert_eq!(b.spans.calls, 1 + b.answer.stats.verified as u64);
            }
        }
    }

    #[test]
    fn traced_answers_and_stats_are_byte_identical_and_spans_close() {
        let ds = rknn_data::gaussian_blobs(600, 6, 4, 0.1, 31).into_shared();
        for cached in [false, true] {
            check_substrate(&LinearScan::build(ds.clone(), Euclidean::exact()), cached);
            check_substrate(&VpTree::build(ds.clone(), Euclidean::exact()), cached);
            check_substrate(&CoverTree::build(ds.clone(), Euclidean::exact()), cached);
        }
    }

    #[test]
    fn wrapper_forwards_every_index_method() {
        let ds = rknn_data::gaussian_blobs(300, 4, 3, 0.1, 32).into_shared();
        let inner = LinearScan::build(ds, Euclidean::exact());
        let view = Traced::new(&inner);
        let q = inner.point(3).to_vec();
        let (mut s1, mut s2) = (SearchStats::new(), SearchStats::new());
        assert_eq!(view.num_points(), inner.num_points());
        assert_eq!(view.dim(), inner.dim());
        assert_eq!(view.has_point(299), inner.has_point(299));
        assert_eq!(view.has_point(300), inner.has_point(300));
        assert_eq!(KnnIndex::<Euclidean>::name(&view), inner.name());
        assert!(view.base_rows().is_some() == inner.base_rows().is_some());
        assert_eq!(
            view.knn(&q, 5, Some(3), &mut s1),
            inner.knn(&q, 5, Some(3), &mut s2)
        );
        assert_eq!(
            view.range(&q, 0.2, None, &mut s1),
            inner.range(&q, 0.2, None, &mut s2)
        );
        assert_eq!(
            view.range_count(&q, 0.2, true, None, &mut s1),
            inner.range_count(&q, 0.2, true, None, &mut s2)
        );
        assert_eq!(s1, s2);
        let spans = view.take();
        assert_eq!(spans.calls, 3);
        assert_eq!(view.take(), IndexSpans::default());
    }
}
