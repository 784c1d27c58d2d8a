//! Batched forward k-nearest-neighbor distances over a transient list of
//! clusters.
//!
//! Every all-points precomputation in the workspace — RDT's `d_k` prewarm,
//! the RdNN-Tree's kNN radii, MRkNNCoP's bound lines — needs the `k`
//! smallest forward distances of many points at once. One bounded cursor
//! per point scans (or traverses) the whole set each time. [`knn_dists`]
//! answers the whole set in one pass over a list of clusters in the style
//! of Rev-LC (Sadit Tellez & Chávez, "The List of Clusters Revisited",
//! 2012):
//!
//! * **Build.** `m` centers are taken from the live ids at positions
//!   `(i·7919 + 13) mod n` — a plain stride pick would line up with
//!   cyclically assigned clusters and put every center in one of them.
//!   Each live point joins its nearest center's bucket; each bucket keeps
//!   its covering radius. Only the ids are sorted into buckets; the rows
//!   stay where the index keeps them.
//! * **Queries.** Queries sharing a home bucket are answered in groups of
//!   eight. The group visits buckets in order of its smallest
//!   triangle-inequality lower bound `d(q, c) − r_c` and stops once that
//!   bound clears every member's running k-th distance. Each 64-row
//!   block of a visited bucket is gathered once per group into
//!   a padded buffer and streamed through [`Metric::dist_tile`] for every
//!   member whose own bound does not prune the bucket, at that member's
//!   running k-th distance.
//!
//! Distances are the kernel's exact values, so each query's list is bit
//! for bit the first `k` distances of a bounded cursor from the same point
//! (`DESIGN.md` §3 gives the counting rule). The structure lives only for
//! the call.

use crate::traits::KnnIndex;
use rknn_core::kernel::pad_dim;
use rknn_core::{Metric, PointId, SearchStats};

/// Queries answered together: enough to amortize each gathered tile, few
/// enough that the members' bucket orders still agree.
const GROUP: usize = 8;

/// Rows gathered per block of a bucket.
const TILE: usize = 64;

/// Relative widening of each bucket lower bound, so rounding in the
/// computed `d(q, c)` and `r_c` can never prune a bucket holding a row
/// below the running k-th distance.
const SLACK: f64 = 1e-9;

/// Home bucket of a query that is not a live point.
const NO_HOME: u32 = u32::MAX;

/// Number of centers for `n` live points: about `√n`, which balances the
/// `n·m` assignment against the rows each query reads per visited bucket.
fn center_count(n: usize) -> usize {
    (n as f64).sqrt().round() as usize
}

/// Splits `buf` into consecutive slices of the given lengths.
fn carve<T, const N: usize>(mut buf: &mut [T], lens: [usize; N]) -> [&mut [T]; N] {
    lens.map(|len| {
        let (head, tail) = std::mem::take(&mut buf).split_at_mut(len);
        buf = tail;
        head
    })
}

/// The working memory of one pass: the list of clusters (`m` buckets over
/// `n` live points) and the state of the group being answered. Ids are
/// `u32`.
struct Pass<'a> {
    dim: usize,
    stride: usize,
    k: usize,
    /// Live ids grouped by bucket, ascending within each: bucket `b` owns
    /// `ids[start[b]..start[b + 1]]`.
    ids: &'a mut [u32],
    start: &'a mut [u32],
    /// Bucket of each live id, [`NO_HOME`] for the other ids.
    home: &'a mut [u32],
    /// Bucket visiting order of the current group.
    visit: &'a mut [u32],
    /// The centers' rows, zero-padded to `stride` each.
    center_rows: &'a mut [f64],
    /// Covering radius of each bucket.
    radius: &'a mut [f64],
    /// One point's distances to the centers, and `+∞` bounds for them.
    center_dists: &'a mut [f64],
    unbounded: &'a mut [f64],
    /// The members' rows, zero-padded to `stride` each.
    qpad: &'a mut [f64],
    /// Per member and bucket, the lower bound on any row's distance.
    lower: &'a mut [f64],
    /// Per bucket, the smallest lower bound over the members.
    group_lower: &'a mut [f64],
    /// Per member, its `k` smallest distances so far, ascending (`+∞`
    /// where none yet).
    best: &'a mut [f64],
    /// The gathered block of bucket rows.
    tile: &'a mut [f64],
}

impl Pass<'_> {
    fn buckets(&self) -> usize {
        self.radius.len()
    }

    fn home_of(&self, id: PointId) -> u32 {
        self.home.get(id).copied().unwrap_or(NO_HOME)
    }

    /// Picks the centers, assigns the `n` live ids in `ids[..n]` to their
    /// nearest center and sorts them into buckets.
    fn build<M, I>(&mut self, index: &I, n: usize, stats: &mut SearchStats)
    where
        M: Metric,
        I: KnnIndex<M> + ?Sized,
    {
        let (dim, stride, m) = (self.dim, self.stride, self.buckets());
        let metric = index.metric();
        for (i, row) in self.center_rows.chunks_exact_mut(stride).enumerate() {
            let c = self.ids[(i * 7919 + 13) % n];
            row[..dim].copy_from_slice(index.point(c as usize));
        }
        self.unbounded.fill(f64::INFINITY);
        self.home.fill(NO_HOME);
        let qpad = &mut self.qpad[..stride];
        for &id in &self.ids[..n] {
            qpad[..dim].copy_from_slice(index.point(id as usize));
            metric.dist_tile(
                qpad,
                self.center_rows,
                stride,
                dim,
                self.unbounded,
                self.center_dists,
            );
            stats.count_dists(m as u64);
            // Ties go to the first center, so a duplicated center keeps an
            // empty bucket.
            let mut b = 0;
            for (j, &d) in self.center_dists.iter().enumerate() {
                if d < self.center_dists[b] {
                    b = j;
                }
            }
            self.radius[b] = self.radius[b].max(self.center_dists[b]);
            self.home[id as usize] = b as u32;
            self.start[b + 1] += 1;
        }
        for b in 0..m {
            self.start[b + 1] += self.start[b];
        }
        let home = &*self.home;
        self.ids[..n].sort_unstable_by_key(|&id| (home[id as usize], id));
    }

    /// Fills `best` with the `k` smallest distances of each member.
    fn answer_group<M, I>(&mut self, index: &I, members: &[PointId], stats: &mut SearchStats)
    where
        M: Metric,
        I: KnnIndex<M> + ?Sized,
    {
        let (dim, stride, m, k) = (self.dim, self.stride, self.buckets(), self.k);
        let metric = index.metric();
        self.group_lower.fill(f64::INFINITY);
        for (j, &q) in members.iter().enumerate() {
            let qpad = &mut self.qpad[j * stride..(j + 1) * stride];
            qpad[..dim].copy_from_slice(index.point(q));
            metric.dist_tile(
                qpad,
                self.center_rows,
                stride,
                dim,
                self.unbounded,
                self.center_dists,
            );
            stats.count_dists(m as u64);
            let lower = &mut self.lower[j * m..(j + 1) * m];
            for (b, lb) in lower.iter_mut().enumerate() {
                let (d, r) = (self.center_dists[b], self.radius[b]);
                let v = d - r - SLACK * (d + r);
                // `∞ − ∞` bounds nothing.
                *lb = if v.is_nan() { f64::NEG_INFINITY } else { v };
                self.group_lower[b] = self.group_lower[b].min(*lb);
            }
            self.best[j * k..(j + 1) * k].fill(f64::INFINITY);
        }
        let mut buckets = 0;
        for b in 0..m {
            if self.start[b] < self.start[b + 1] {
                self.visit[buckets] = b as u32;
                buckets += 1;
            }
        }
        let group_lower = &*self.group_lower;
        self.visit[..buckets]
            .sort_unstable_by(|&a, &b| group_lower[a as usize].total_cmp(&group_lower[b as usize]));

        let (mut bounds, mut out) = ([0.0; TILE], [0.0; TILE]);
        let kth = |best: &[f64], j: usize| best[j * k + k - 1];
        for &b in &self.visit[..buckets] {
            let b = b as usize;
            let worst = (0..members.len())
                .map(|j| kth(self.best, j))
                .fold(f64::NEG_INFINITY, f64::max);
            if self.group_lower[b] > worst {
                break;
            }
            let bucket = &self.ids[self.start[b] as usize..self.start[b + 1] as usize];
            for block in bucket.chunks(TILE) {
                let lower = &*self.lower;
                let needs = |j: usize, best: &[f64]| lower[j * m + b] <= kth(best, j);
                if !(0..members.len()).any(|j| needs(j, self.best)) {
                    break;
                }
                let rows = &mut self.tile[..block.len() * stride];
                for (row, &id) in rows.chunks_exact_mut(stride).zip(block) {
                    row[..dim].copy_from_slice(index.point(id as usize));
                }
                for (j, &q) in members.iter().enumerate() {
                    if !needs(j, self.best) {
                        continue;
                    }
                    let best = &mut self.best[j * k..(j + 1) * k];
                    let bounds = &mut bounds[..block.len()];
                    bounds.fill(best[k - 1]);
                    let out = &mut out[..block.len()];
                    metric.dist_tile(
                        &self.qpad[j * stride..(j + 1) * stride],
                        rows,
                        stride,
                        dim,
                        bounds,
                        out,
                    );
                    stats.count_dists(block.len() as u64);
                    for (&id, &d) in block.iter().zip(out.iter()) {
                        if id as usize != q && d < best[k - 1] {
                            let at = best.partition_point(|&x| x <= d);
                            best.copy_within(at..k - 1, at + 1);
                            best[at] = d;
                        }
                    }
                }
            }
        }
    }
}

/// The `k` smallest forward distances of every point in `queries`.
///
/// For each query id `q`, `sink(q, dists)` receives the ascending
/// distances from `index.point(q)` to its `k` nearest live points other
/// than `q` itself, `+∞` past the number of such points — bit for bit the
/// first `k` distances a bounded cursor from `q` excluding `q` yields.
/// Queries reach the sink grouped by their cluster, not in input order;
/// a query id need not be live. Live ids are read as `(0..id_bound())`
/// filtered by [`KnnIndex::has_point`]; only [`KnnIndex::point`] and
/// [`KnnIndex::metric`] are used beyond that, so every substrate shares
/// this one pass.
///
/// `stats` is charged `n·m` distances for assigning the `n` live points
/// to `m` centers, `m` per query for its center distances, and one per
/// gathered row a query evaluates (`DESIGN.md` §3).
///
/// # Panics
///
/// Panics if `id_bound()` or `queries.len()` reaches `u32::MAX`.
pub fn knn_dists<M, I>(
    index: &I,
    queries: &[PointId],
    k: usize,
    stats: &mut SearchStats,
    mut sink: impl FnMut(PointId, &[f64]),
) where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    let bound = index.id_bound();
    let live = || (0..bound).filter(|&id| index.has_point(id));
    let n = live().count();
    if k == 0 || n == 0 {
        let none = vec![f64::INFINITY; k];
        for &q in queries {
            sink(q, &none);
        }
        return;
    }
    assert!(
        bound < NO_HOME as usize && queries.len() < NO_HOME as usize,
        "ids and queries must fit in u32"
    );
    let (m, stride) = (center_count(n), pad_dim(index.dim()));
    // Working memory is three buffers: the members' padded rows, the ids,
    // and the other coordinates and bounds. Few large buffers leave fewer
    // small freed blocks behind, which the allocator does not coalesce.
    let mut qpad = vec![0.0; GROUP * stride];
    let mut id_buf = vec![0u32; 2 * bound + m + 1 + m + queries.len()];
    let [ids, start, home, visit, order] =
        carve(&mut id_buf, [bound, m + 1, bound, m, queries.len()]);
    let mut f_buf = vec![0.0; m * stride + 3 * m + GROUP * (m + k) + m + TILE * stride];
    let [center_rows, radius, center_dists, unbounded, lower, group_lower, best, tile] = carve(
        &mut f_buf,
        [m * stride, m, m, m, GROUP * m, m, GROUP * k, TILE * stride],
    );
    for (slot, id) in ids.iter_mut().zip(live()) {
        *slot = id as u32;
    }
    let mut pass = Pass {
        dim: index.dim(),
        stride,
        k,
        ids,
        start,
        home,
        visit,
        center_rows,
        radius,
        center_dists,
        unbounded,
        qpad: &mut qpad,
        lower,
        group_lower,
        best,
        tile,
    };
    pass.build(index, n, stats);

    for (i, slot) in order.iter_mut().enumerate() {
        *slot = i as u32;
    }
    order.sort_unstable_by_key(|&i| (pass.home_of(queries[i as usize]), i));
    let mut members = [0; GROUP];
    let mut rest = &order[..];
    while let Some(&first) = rest.first() {
        let home = pass.home_of(queries[first as usize]);
        let mut len = 0;
        for &i in rest.iter().take(GROUP) {
            let q = queries[i as usize];
            if pass.home_of(q) != home {
                break;
            }
            members[len] = q;
            len += 1;
        }
        rest = &rest[len..];
        pass.answer_group(index, &members[..len], stats);
        for (j, &q) in members[..len].iter().enumerate() {
            sink(q, &pass.best[j * k..(j + 1) * k]);
        }
    }
}
