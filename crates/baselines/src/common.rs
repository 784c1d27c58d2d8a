//! Shared verification primitives.

use rknn_core::{CursorScratch, Metric, PointId, SearchStats};
use rknn_index::KnnIndex;

/// Verifies whether dataset point `x` at distance `d_xq` from the query is
/// a reverse k-nearest neighbor: `d_k(x) ≥ d(x, q)` (the Korn–Muthukrishnan
/// characterization), equivalently *fewer than `k` other points lie
/// strictly inside the ball of radius `d(x, q)` around `x`*.
///
/// The forward query runs through [`KnnIndex::cursor_bounded`] with the
/// caller's scratch, so every substrate answers it allocation-amortized and
/// threshold-pruned ([`Metric::dist_lt`] early abandonment against the
/// threshold of the scan's and the trees' bounded selection) instead of
/// through the
/// allocating boxed `knn` path. The stream is nondecreasing, so the drain
/// stops at the first entry at distance `≥ d_xq` (verdict: member) or at the
/// `k`-th entry strictly below it (verdict: non-member) — often well before
/// `k` entries.
///
/// When the index holds fewer than `k` other points, `x` is trivially a
/// reverse neighbor.
pub fn verify_rknn<M, I>(
    index: &I,
    x: PointId,
    d_xq: f64,
    k: usize,
    scratch: &mut CursorScratch,
    stats: &mut SearchStats,
) -> bool
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    let mut cursor = index.cursor_bounded(index.point(x), Some(x), k, scratch);
    let mut closer = 0usize;
    let verdict = loop {
        match cursor.next() {
            Some(n) if n.dist < d_xq => {
                closer += 1;
                if closer >= k {
                    break false;
                }
            }
            // Nondecreasing stream: every later entry is ≥ d_xq too, so
            // x's census can never reach k.
            Some(_) => break true,
            // Index exhausted below k other points: trivially a member.
            None => break true,
        }
    };
    stats.absorb(&cursor.stats());
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknn_core::{Dataset, Euclidean};
    use rknn_index::{CoverTree, LinearScan};

    #[test]
    fn verifies_the_dk_test() {
        // Points on a line at 0, 1, 2, 10.
        let ds = Dataset::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![10.0]])
            .unwrap()
            .into_shared();
        let idx = LinearScan::build(ds, Euclidean);
        let mut st = SearchStats::new();
        let mut scratch = CursorScratch::new();
        // Is point 1 a reverse-1NN of point 0? d_1(1) = 1 = d(1, 0) → yes.
        assert!(verify_rknn(&idx, 1, 1.0, 1, &mut scratch, &mut st));
        // Is point 3 (at 10) a reverse-1NN of point 0? d_1(3) = 8 < 10 → no.
        assert!(!verify_rknn(&idx, 3, 10.0, 1, &mut scratch, &mut st));
        // k larger than the dataset: trivially true.
        assert!(verify_rknn(&idx, 3, 10.0, 10, &mut scratch, &mut st));
    }

    #[test]
    fn agrees_with_the_boxed_knn_characterization_on_any_substrate() {
        let ds = rknn_data::uniform_cube(150, 3, 77).into_shared();
        let scan = LinearScan::build(ds.clone(), Euclidean);
        let cover = CoverTree::build(ds.clone(), Euclidean);
        let mut st = SearchStats::new();
        let mut scratch = CursorScratch::new();
        for k in [1usize, 4, 9] {
            for x in [0usize, 60, 149] {
                for q in [1usize, 70] {
                    let d_xq = Euclidean.dist(ds.point(x), ds.point(q));
                    let nn = scan.knn(ds.point(x), k, Some(x), &mut st);
                    let want = nn.len() < k || nn[k - 1].dist >= d_xq;
                    assert_eq!(
                        verify_rknn(&scan, x, d_xq, k, &mut scratch, &mut st),
                        want,
                        "scan k={k} x={x} q={q}"
                    );
                    assert_eq!(
                        verify_rknn(&cover, x, d_xq, k, &mut scratch, &mut st),
                        want,
                        "cover k={k} x={x} q={q}"
                    );
                }
            }
        }
    }
}
