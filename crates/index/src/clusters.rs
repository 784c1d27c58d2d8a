//! Batched forward k-nearest-neighbor distances over a list of clusters.
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
//! (`DESIGN.md` §3 gives the counting rule). The pass returns the list it
//! built ([`ClusterList`]: centers, radii and buckets) and drops its
//! per-group scratch. Ids are append-only and a point's coordinates never
//! change, so the list stays valid for the index it was built on and
//! every successor derived from it by inserts and removes: RDT's `d_k`
//! cache keeps it to skip whole buckets when it repairs thresholds after
//! an update.

use crate::traits::KnnIndex;
use rknn_core::kernel::pad_dim;
use rknn_core::{triangle_lower, Metric, PointId, SearchStats};

/// Queries answered together: enough to amortize each gathered tile, few
/// enough that the members' bucket orders still agree.
const GROUP: usize = 8;

/// Rows gathered per block of a bucket.
const TILE: usize = 64;

/// Home bucket of a query that is not a live point.
const NO_HOME: u32 = u32::MAX;

/// The list of clusters one [`knn_dists`] pass built over the live ids
/// below its id bound: `m` centers zero-padded to the kernel stride, each
/// bucket's covering radius, and the ids of each bucket.
///
/// Every live id below [`ClusterList::id_bound`] at build time is a member
/// of exactly one bucket, and lies within that bucket's radius of its
/// center by the kernel's own distance. The ids below the bound that were
/// not live are kept apart ([`ClusterList::unlisted`]). Ids at or past the
/// bound were assigned after the build and belong to no bucket. The empty
/// list (the [`Default`]) holds nothing and has bound 0.
#[derive(Default)]
pub struct ClusterList {
    bound: usize,
    /// Number of live ids the buckets hold.
    listed: usize,
    /// `ids[..listed]` grouped by bucket, ascending within each;
    /// `ids[listed..bound]` the unlisted ids, ascending; then the `m + 1`
    /// bucket starts into `ids`.
    ids: Vec<u32>,
    /// The `m` padded center rows, then the `m` covering radii.
    centers: Vec<f64>,
}

impl ClusterList {
    /// One past the largest id the list accounts for: ids below it are
    /// either a bucket's member or [`unlisted`](Self::unlisted).
    pub fn id_bound(&self) -> usize {
        self.bound
    }

    /// Number of buckets `m`.
    pub fn buckets(&self) -> usize {
        self.ids.len().saturating_sub(self.bound + 1)
    }

    /// The `m` center rows, each zero-padded to the kernel stride of the
    /// index ([`pad_dim`]): the `rows` operand of [`Metric::dist_tile`].
    pub fn centers(&self) -> &[f64] {
        &self.centers[..self.centers.len() - self.buckets()]
    }

    /// Covering radius of bucket `b`: no member is farther from its
    /// center.
    pub fn radius(&self, b: usize) -> f64 {
        self.centers[self.centers.len() - self.buckets() + b]
    }

    /// The ids of bucket `b`, ascending.
    pub fn members(&self, b: usize) -> &[u32] {
        let start = &self.ids[self.bound..];
        &self.ids[start[b] as usize..start[b + 1] as usize]
    }

    /// The ids below [`id_bound`](Self::id_bound) that were not live when
    /// the list was built, ascending.
    pub fn unlisted(&self) -> &[u32] {
        &self.ids[self.listed..self.bound]
    }

    /// A lower bound on the distance from a point at distance `d` from
    /// bucket `b`'s center to every member of `b`: the rounding-safe
    /// [`triangle_lower`] of `d` and the radius, so it never exceeds a
    /// member's computed distance. `−∞` when it bounds nothing.
    pub fn lower_bound(&self, b: usize, d: f64) -> f64 {
        triangle_lower(d, self.radius(b))
    }
}

impl std::fmt::Debug for ClusterList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterList")
            .field("id_bound", &self.bound)
            .field("buckets", &self.buckets())
            .field("listed", &self.listed)
            .finish()
    }
}

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
                *lb = triangle_lower(self.center_dists[b], self.radius[b]);
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

/// The `k` smallest forward distances of every point in `queries`, and
/// the list of clusters that found them.
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
/// The returned [`ClusterList`] is the one the pass built, over the live
/// ids below `id_bound()`; callers that only want the distances drop it.
/// With `k = 0` or no live point nothing is built and the list is empty.
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
) -> ClusterList
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    let bound = index.id_bound();
    let n = (0..bound).filter(|&id| index.has_point(id)).count();
    if k == 0 || n == 0 {
        let none = vec![f64::INFINITY; k];
        for &q in queries {
            sink(q, &none);
        }
        return ClusterList::default();
    }
    assert!(
        bound < NO_HOME as usize && queries.len() < NO_HOME as usize,
        "ids and queries must fit in u32"
    );
    let (m, stride) = (center_count(n), pad_dim(index.dim()));
    // Working memory is three buffers: the members' padded rows, the ids,
    // and the other coordinates and bounds. Few large buffers leave fewer
    // small freed blocks behind, which the allocator does not coalesce.
    // The list's parts lead the id and coordinate buffers.
    let mut qpad = vec![0.0; GROUP * stride];
    let mut id_buf = vec![0u32; 2 * bound + m + 1 + m + queries.len()];
    let [ids, start, home, visit, order] =
        carve(&mut id_buf, [bound, m + 1, bound, m, queries.len()]);
    let mut f_buf = vec![0.0; m * stride + 3 * m + GROUP * (m + k) + m + TILE * stride];
    let [center_rows, radius, center_dists, unbounded, lower, group_lower, best, tile] = carve(
        &mut f_buf,
        [m * stride, m, m, m, GROUP * m, m, GROUP * k, TILE * stride],
    );
    // Live ids fill `ids[..n]`, the others `ids[n..]`, both ascending.
    let (mut live, mut dead) = {
        let (live, dead) = ids.split_at_mut(n);
        (live.iter_mut(), dead.iter_mut())
    };
    for id in 0..bound {
        let slot = if index.has_point(id) {
            live.next()
        } else {
            dead.next()
        };
        *slot.expect("the live count was just taken") = id as u32;
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

    // Exact-size copies, and the pass's buffers are freed as before.
    // Keeping the buffers instead, even shrunk in place, changed where the
    // allocator put later large blocks and raised the peak resident set of
    // a prewarmed n = 2·10⁴ set-up by about 1.7 MiB; the copies add the
    // ~0.1 MiB of the list.
    ClusterList {
        bound,
        listed: n,
        ids: id_buf[..bound + m + 1].to_vec(),
        centers: f_buf[..m * stride + m].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicIndex, LinearScan, VpTree};
    use rknn_core::{Dataset, Euclidean, Manhattan};
    use std::sync::Arc;

    fn rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        // Points on four corners of a square, so buckets hold real spreads.
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| next() + if (i >> (j % 2)) & 1 == 1 { 8.0 } else { 0.0 })
                    .collect()
            })
            .collect()
    }

    /// Checks the list's invariants against the live ids of `index`.
    fn check_list<M: Metric, I: KnnIndex<M>>(index: &I) {
        let list = knn_dists(index, &[], 3, &mut SearchStats::new(), |_, _| {});
        let bound = index.id_bound();
        assert_eq!(list.id_bound(), bound);
        let (dim, stride, m) = (index.dim(), pad_dim(index.dim()), list.buckets());
        assert_eq!(
            m,
            center_count((0..bound).filter(|&id| index.has_point(id)).count())
        );
        let mut seen = vec![0; bound];
        let mut dists = vec![0.0; m];
        let unbounded = vec![f64::INFINITY; m];
        let mut q = vec![0.0; stride];
        for b in 0..m {
            let members = list.members(b);
            assert!(
                members.windows(2).all(|w| w[0] < w[1]),
                "bucket {b} unsorted"
            );
            for &x in members {
                seen[x as usize] += 1;
                q[..dim].copy_from_slice(index.point(x as usize));
                index
                    .metric()
                    .dist_tile(&q, list.centers(), stride, dim, &unbounded, &mut dists);
                assert!(
                    dists[b] <= list.radius(b),
                    "id {x} lies {} from center {b}, radius {}",
                    dists[b],
                    list.radius(b)
                );
            }
        }
        for &x in list.unlisted() {
            seen[x as usize] += 1;
        }
        assert!(list.unlisted().windows(2).all(|w| w[0] < w[1]));
        for (id, &times) in seen.iter().enumerate() {
            assert_eq!(times, 1, "id {id} accounted for {times} times");
            let listed = list.unlisted().binary_search(&(id as u32)).is_err();
            assert_eq!(listed, index.has_point(id), "id {id}");
        }
    }

    #[test]
    fn bucket_bounds_hold_where_rounding_breaks_the_inequality() {
        // Points on one line, each coordinate rounded: for a point beyond
        // a bucket's farthest member, `d(p, c) − r` equals `d(p, x)` in
        // exact arithmetic, and rounding lifts it above the computed value
        // somewhere. The slack of `lower_bound` must absorb that.
        let rows: Vec<Vec<f64>> = (0..400)
            .map(|i| {
                let t = 0.37 * i as f64 + 0.011 * (i * i) as f64;
                (0..5)
                    .map(|j| 0.3 + 1.7 * j as f64 + t * (1.0 + 0.13 * j as f64).sqrt())
                    .collect()
            })
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap().into_shared();
        /// Checks the bound for every point and bucket member; returns how
        /// often the unwidened `d(p, c) − r` exceeds the member's distance.
        fn broken<M: Metric>(ds: &Arc<Dataset>, metric: M) -> usize {
            let idx = LinearScan::build(ds.clone(), metric);
            let list = knn_dists(&idx, &[], 3, &mut SearchStats::new(), |_, _| {});
            let (dim, stride, m) = (idx.dim(), pad_dim(idx.dim()), list.buckets());
            let (mut q, mut to_centers) = (vec![0.0; stride], vec![0.0; m]);
            let unbounded = vec![f64::INFINITY; m];
            let mut broken = 0;
            for p in 0..ds.len() {
                q[..dim].copy_from_slice(ds.point(p));
                let metric = idx.metric();
                metric.dist_tile(&q, list.centers(), stride, dim, &unbounded, &mut to_centers);
                for (b, &dc) in to_centers.iter().enumerate() {
                    for &x in list.members(b) {
                        let dx = metric.dist(ds.point(p), ds.point(x as usize));
                        broken += usize::from(dc - list.radius(b) > dx);
                        assert!(list.lower_bound(b, dc) <= dx, "p={p} b={b} x={x}");
                    }
                }
            }
            broken
        }
        let (l2, l1) = (broken(&ds, Euclidean), broken(&ds, Manhattan));
        assert!(
            l2 > 0 && l1 > 0,
            "rounding must break the unwidened bound: {l2}, {l1}"
        );
    }

    #[test]
    fn every_live_id_is_listed_once_within_its_radius() {
        let ds = Dataset::from_rows(&rows(300, 3, 5)).unwrap().into_shared();
        check_list(&LinearScan::build(ds.clone(), Euclidean));
        check_list(&LinearScan::build(ds.clone(), Manhattan));

        // Tombstones below the live count and ids past it.
        let mut vp = VpTree::build(ds, Euclidean);
        for row in rows(40, 3, 6) {
            vp.insert(&row).unwrap();
        }
        for id in (0..340).step_by(7) {
            assert!(vp.remove(id));
        }
        assert!(vp.id_bound() > vp.num_points());
        check_list(&vp);

        // Nothing to build: an empty list that holds no id.
        let idx = LinearScan::build(
            Dataset::from_rows(&rows(5, 2, 7)).unwrap().into_shared(),
            Euclidean,
        );
        let empty = knn_dists(&idx, &[0], 0, &mut SearchStats::new(), |_, d| {
            assert!(d.is_empty())
        });
        assert_eq!((empty.id_bound(), empty.buckets()), (0, 0));
        assert!(empty.unlisted().is_empty() && empty.centers().is_empty());
    }
}
