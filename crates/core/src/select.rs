//! Bounded `(dist, id)` selection with a lazily tightened threshold.
//!
//! [`BoundedSelection`] keeps the `limit` smallest of a stream of
//! candidates in one flat buffer and exposes the pruning threshold that
//! both bounded cursor families test candidates against: the sequential
//! scan's selection table and the tree traversal core's emission bound
//! (`rknn_index::traversal`).

use crate::neighbor::Neighbor;
use std::cmp::Ordering;

/// The `limit` smallest candidates by `(dist, id)`, selected lazily.
///
/// Admitted candidates are appended. Once the buffer holds `2·limit` of
/// them it is cut back to the `limit` smallest by one
/// `select_nth_unstable_by`, and the `limit`-th kept key becomes the
/// threshold. Before the first cut there is no threshold and every
/// candidate is admitted, including distances that overflow to `+∞`.
/// After a cut a candidate is admitted only if its key is strictly below
/// the threshold (`Neighbor::cmp_by_dist`), so candidates may come in any
/// id order: a rejected candidate ranks at or behind `limit` kept ones.
/// For ids offered in ascending order the test is `d < threshold.dist`,
/// since every kept id is lower than the one on offer.
///
/// The threshold only tightens, at cuts, and between cuts it is looser
/// than a bounded max-heap's would be; the trade is one append per
/// admitted candidate instead of a heap push and pop. The cut-back length
/// saturates, so a `limit` of `usize::MAX` never cuts and never reserves
/// `2·limit` slots; that is the default. A `limit` of 0 admits nothing.
#[derive(Debug, Clone)]
pub struct BoundedSelection {
    entries: Vec<Neighbor>,
    limit: usize,
    /// The admission threshold: `None` until the first cut, the `limit`-th
    /// key after it, and a key below every candidate when `limit` is 0.
    thr: Option<Neighbor>,
}

impl Default for BoundedSelection {
    fn default() -> Self {
        BoundedSelection::with_buffer(usize::MAX, Vec::new())
    }
}

impl BoundedSelection {
    /// An empty selection of the `limit` smallest candidates that reuses
    /// `buf`'s allocation (its contents are discarded).
    pub fn with_buffer(limit: usize, buf: Vec<Neighbor>) -> Self {
        let mut sel = BoundedSelection {
            entries: buf,
            limit,
            thr: None,
        };
        sel.reset(limit);
        sel
    }

    /// Empties the selection and starts one of the `limit` smallest,
    /// keeping the buffer's allocation.
    pub fn reset(&mut self, limit: usize) {
        self.entries.clear();
        self.limit = limit;
        self.thr = (limit == 0).then_some(Neighbor::new(0, f64::NEG_INFINITY));
    }

    /// The current threshold: no admitted candidate from here on has a key
    /// at or beyond it. `None` before the first cut (nothing is pruned).
    #[inline]
    pub fn threshold(&self) -> Option<Neighbor> {
        self.thr
    }

    /// Whether `n` passes the current threshold.
    #[inline]
    fn admits(&self, n: &Neighbor) -> bool {
        self.thr.is_none_or(|t| n.cmp_by_dist(&t) == Ordering::Less)
    }

    /// Appends `n` if the threshold admits it, cutting back at `2·limit`.
    /// Returns whether it was admitted.
    #[inline]
    pub fn offer(&mut self, n: Neighbor) -> bool {
        if !self.admits(&n) {
            return false;
        }
        self.entries.push(n);
        if self.entries.len() >= self.limit.saturating_mul(2) {
            self.cut();
        }
        true
    }

    /// Keeps the `limit` smallest entries; the last of them sets the
    /// threshold.
    fn cut(&mut self) {
        let nth = self.limit - 1;
        self.entries
            .select_nth_unstable_by(nth, Neighbor::cmp_by_dist);
        self.entries.truncate(self.limit);
        self.thr = Some(self.entries[nth]);
    }

    /// The `limit` smallest candidates offered, sorted ascending by
    /// `(dist, id)`, in the selection's buffer.
    pub fn into_sorted(mut self) -> Vec<Neighbor> {
        if self.entries.len() > self.limit {
            self.cut();
        }
        self.entries.sort_unstable_by(Neighbor::cmp_by_dist);
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `limit` smallest of `offered` by `(dist, id)`, ascending.
    fn reference(offered: &[Neighbor], limit: usize) -> Vec<(usize, u64)> {
        let mut all = offered.to_vec();
        all.sort_by(Neighbor::cmp_by_dist);
        all.truncate(limit);
        all.iter().map(|n| (n.id, n.dist.to_bits())).collect()
    }

    fn select(offered: &[Neighbor], limit: usize) -> (Vec<(usize, u64)>, usize) {
        let mut sel = BoundedSelection::with_buffer(limit, Vec::new());
        let admitted = offered.iter().filter(|&&n| sel.offer(n)).count();
        let kept = sel.into_sorted();
        (
            kept.iter().map(|n| (n.id, n.dist.to_bits())).collect(),
            admitted,
        )
    }

    /// Candidates `(id, f(id))` for the given ids.
    fn candidates(ids: impl IntoIterator<Item = usize>, f: impl Fn(usize) -> f64) -> Vec<Neighbor> {
        ids.into_iter().map(|id| Neighbor::new(id, f(id))).collect()
    }

    /// A small deterministic shuffle (xorshift-driven Fisher–Yates).
    fn shuffled(mut v: Vec<Neighbor>, seed: u64) -> Vec<Neighbor> {
        let mut s = seed | 1;
        for i in (1..v.len()).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            v.swap(i, (s % (i as u64 + 1)) as usize);
        }
        v
    }

    #[test]
    fn keeps_the_sorted_prefix_at_edge_limits() {
        let offered = candidates(0..300, |i| {
            let x = i as f64;
            ((x * 0.37).sin() * 3.0).hypot((x * 0.11).cos() * 2.0)
        });
        for limit in [0, 1, 2, 299, 300, 301, usize::MAX] {
            let (kept, _) = select(&offered, limit);
            assert_eq!(kept, reference(&offered, limit), "limit={limit}");
        }
        // A zero limit admits nothing; one at or above the count never cuts
        // and so admits everything.
        assert_eq!(select(&offered, 0).1, 0);
        assert_eq!(select(&offered, 300).1, 300);
        assert_eq!(select(&offered, usize::MAX).1, 300);
    }

    #[test]
    fn survives_many_cuts() {
        // Descending distances: every candidate beats the current
        // threshold, so the buffer refills and is cut back over and over.
        let offered = candidates(0..500, |i| (500 - i) as f64);
        assert_eq!(
            select(&offered, 3).1,
            500,
            "each candidate is appended once"
        );
        for limit in [1, 3, 7] {
            assert_eq!(select(&offered, limit).0, reference(&offered, limit));
            let around = candidates(0..500, |i| (i as f64 - 250.5).abs());
            assert_eq!(select(&around, limit).0, reference(&around, limit));
        }
    }

    #[test]
    fn breaks_boundary_ties_by_id() {
        // A coarse grid: every distance recurs many times, so the limit
        // falls inside runs of equal distances.
        let offered = candidates(0..240, |i| {
            ((i % 6) as f64 - 2.0).hypot(((i / 6) % 5) as f64 - 2.0)
        });
        for limit in [1, 4, 8, 9, 23, 40, 100] {
            assert_eq!(select(&offered, limit).0, reference(&offered, limit));
        }
    }

    #[test]
    fn skips_absent_ids() {
        // Ids with gaps, as a scan over tombstoned rows offers them.
        let ids = (0..230).filter(|id| ![0, 1, 63, 64, 65, 149, 150, 200].contains(id));
        let offered = candidates(ids, |i| ((i * 7) % 9) as f64 * 0.5);
        for limit in [0, 1, 5, 64, 221, 222] {
            assert_eq!(select(&offered, limit).0, reference(&offered, limit));
        }
    }

    #[test]
    fn any_offer_order_keeps_the_smallest_keys() {
        // Ties at every limit-th distance: only the id order decides which
        // of them are kept.
        let ascending = candidates(0..400, |i| ((i * 13) % 10) as f64);
        let mut descending = ascending.clone();
        descending.reverse();
        for limit in [1, 5, 39, 40, 41, 64, 200, 399] {
            let want = reference(&ascending, limit);
            assert_eq!(select(&ascending, limit).0, want, "ascending limit={limit}");
            assert_eq!(
                select(&descending, limit).0,
                want,
                "descending limit={limit}"
            );
            for seed in [3, 11, 97] {
                let order = shuffled(ascending.clone(), seed);
                assert_eq!(select(&order, limit).0, want, "seed={seed} limit={limit}");
            }
        }
    }

    #[test]
    fn threshold_certifies_the_kept_entries() {
        let offered = shuffled(candidates(0..200, |i| (i % 17) as f64), 5);
        let mut sel = BoundedSelection::with_buffer(10, Vec::new());
        assert_eq!(sel.threshold(), None);
        for (i, &n) in offered.iter().enumerate() {
            let before = sel.threshold();
            let admitted = sel.offer(n);
            assert_eq!(admitted, before.is_none_or(|t| n.cmp_by_dist(&t).is_lt()));
            if let Some(t) = sel.threshold() {
                // At least `limit` offered keys sit at or below it.
                let below = offered[..=i]
                    .iter()
                    .filter(|m| m.cmp_by_dist(&t).is_le())
                    .count();
                assert!(below >= 10, "step {i}");
                if let Some(b) = before {
                    assert!(t.cmp_by_dist(&b).is_le(), "the threshold only tightens");
                }
            }
        }
        assert!(sel.threshold().is_some());
        sel.reset(4);
        assert_eq!(sel.threshold(), None);
        assert!(sel.into_sorted().is_empty());
    }
}
