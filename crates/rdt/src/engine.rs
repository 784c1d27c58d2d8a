//! The shared filter–refinement engine behind RDT and RDT+ (Algorithm 1).
//!
//! The engine follows the paper's listing line by line:
//!
//! 1. **Filter phase** (lines 2–24): an expanding incremental NN search from
//!    the query. Each newly retrieved point `v` exchanges witness updates
//!    with every point of the filter set `F`, may trigger lazy accepts
//!    (Assertion 2), joins `F` (unless excluded by the RDT+ criterion), and
//!    tightens the termination bound
//!    `ω ← min(ω, d(q,v) / ((s/k)^{1/t} − 1))` for ranks `s > k`. The loop
//!    stops when `d(q,v) > ω`, when `s ≥ min(n, ⌊2^t·k⌋)`, or when the
//!    index is exhausted.
//! 2. **Refinement phase** (lines 25–32): every unresolved candidate with
//!    fewer than `k` witnesses is verified (`d_k(v) ≥ d(q,v)`); candidates
//!    with `W ≥ k` are lazily rejected (Assertion 1) at zero additional
//!    cost. The listing runs one forward kNN query per candidate; the
//!    engine answers all of a query's uncached `d_k` together from one
//!    `range` call around the query, with the same values bit for bit
//!    (`DESIGN.md` §2).
//!
//! [`run_query`] is the one entry point; the two phases are its private
//! steps, meeting at the filter set the first leaves in the caller's
//! [`QueryScratch`].
//!
//! **Witness-counter erratum.** The published listing increments `W(v)` under
//! the condition `d(q,x) > d(v,x)` and `W(x)` under `d(q,v) > d(v,x)`, which
//! contradicts the paper's own definition `W(x) = |{y ∈ F : d(x,y) <
//! d(x,q)}|` (and would break Assertions 1–2). We implement the definition:
//! `d(v,x) < d(q,x)` makes `v` a witness *of x*, and `d(v,x) < d(q,v)` makes
//! `x` a witness *of v*. See `DESIGN.md` §2.
//!
//! **Rank under ties.** The listing sets `s ← ρ_S(q, v)`, which assigns the
//! maximum rank to distance ties; a cursor cannot look ahead, so we use the
//! retrieval count. The two differ only on exact ties, a measure-zero event
//! for continuous data.

use crate::answer::{RdtQueryStats, RknnAnswer, Termination};
use crate::params::RdtParams;
use rknn_core::{
    finite_up_to, kernel, triangle_upper, CancelToken, Cancelled, CursorScratch, FilterCandidate,
    Metric, Neighbor, PointId, QueryScratch, SearchStats,
};
use rknn_index::{ClusterList, KnnIndex};
use std::sync::Arc;

/// Rows per witness-pass tile block: large enough to amortize the
/// per-block dispatch and bound transform, small enough to bound the
/// overshoot when `w_v` crosses `k` inside a fetched block.
const WITNESS_TILE: usize = 32;

/// The verification threshold `d_k(v)`: the distance from `v` to its k-th
/// nearest other point, `+∞` when fewer than `k` exist.
///
/// Runs through [`KnnIndex::cursor_bounded`] with the caller's scratch, so
/// every substrate — tree or scan — answers the forward query
/// allocation-amortized and threshold-pruned instead of through the boxed
/// default `knn` path. This is the single-point path of
/// [`DkCache::dk_or_compute`]; a query's refinement verifies its misses
/// together instead ([`verify_misses`]).
fn dk_via_cursor<M, I>(
    index: &I,
    id: PointId,
    k: usize,
    scratch: &mut CursorScratch,
    stats: &mut SearchStats,
) -> f64
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    let mut cursor = index.cursor_bounded(index.point(id), Some(id), k, scratch);
    let mut dk = f64::INFINITY;
    let mut got = 0usize;
    while got < k {
        match cursor.next() {
            Some(n) => {
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

/// Whether `open` lists, in ascending order, exactly the filter members
/// whose witness census is open (not lazily accepted, fewer than `k`
/// witnesses) — the witness pass's invariant between retrievals.
fn open_list_is_exact(filter: &[FilterCandidate], open: &[usize], k: usize) -> bool {
    let is_open = |x: &FilterCandidate| !x.accepted && x.witnesses < k;
    open.windows(2).all(|w| w[0] < w[1])
        && open
            .iter()
            .all(|&i| i < filter.len() && is_open(&filter[i]))
        && filter.iter().filter(|x| is_open(x)).count() == open.len()
}

/// Which flavor of the engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdtVariant {
    /// Algorithm 1 as published.
    Plain,
    /// With the §4.3 candidate-set reduction.
    Plus,
    /// Ablation: witness maintenance disabled — every candidate that
    /// survives the filter phase is verified explicitly. Isolates the
    /// contribution of lazy acceptance/rejection (§7.2/§8.2).
    NoWitness,
}

/// How the scale parameter evolves during one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TSchedule {
    /// The fixed `t` of [`RdtParams`] (Algorithm 1 as published).
    Fixed,
    /// §9's future-work idea: re-estimate the local intrinsic
    /// dimensionality from the expanding neighborhood after every retrieval
    /// (an online Hill/MLE estimate over the observed distances) and use
    /// `t = safety · estimate`, clamped to `[params.t, ∞)` — the configured
    /// `t` acts as the floor. Larger safety factors push toward exactness;
    /// the Hill estimate tracks the local ID that MaxGED upper-bounds.
    Adaptive {
        /// Multiplier on the online estimate.
        safety: f64,
    },
}

/// A lazily filled, lock-free shared cache of verification thresholds
/// `d_k(·)`.
///
/// The refinement phase accepts an unresolved candidate `v` exactly when
/// `d_k(v) >= d(q, v)` — and `d_k(v)` does not depend on the query. In an
/// all-points batch the same point is verified from many different
/// queries, so recomputing its forward kNN each time is pure waste; all
/// workers of a batch share one `DkCache` (it only needs `&self`), compute
/// each threshold at most once-ish, and reuse the exact same
/// floating-point value afterwards. Acceptance decisions (and hence result
/// sets and terminations) are identical to the uncached engine; only the
/// *work counters* of queries that hit the cache shrink, which is the
/// point.
///
/// Slots are plain atomics with relaxed ordering: two workers racing on
/// the same unset slot both compute the identical deterministic `d_k` and
/// store the identical bits, so the race is benign — it can only duplicate
/// work, never change a value. Per-query work counters under a shared
/// cache therefore depend on scheduling; results never do.
#[derive(Debug)]
pub struct DkCache {
    k: usize,
    /// Bit patterns of the cached `d_k` values; [`DkCache::UNSET`] marks a
    /// slot not computed yet (a real `d_k` is never NaN — coordinates are
    /// finite — though it may be `+∞` when fewer than `k` other points
    /// exist).
    vals: Vec<std::sync::atomic::AtomicU64>,
    /// The list of clusters the last [`DkCache::prewarm`] built, shared
    /// with every warm copy; `None` on a cache that was never prewarmed.
    clusters: Option<Arc<ClusterList>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl DkCache {
    /// Sentinel bit pattern for "not computed yet": a NaN payload no
    /// arithmetic result ever carries.
    const UNSET: u64 = u64::MAX;

    /// An empty cache for rank `k`, pre-sized for `n` point ids.
    pub fn new(k: usize, n: usize) -> Self {
        let mut vals = Vec::with_capacity(n);
        vals.resize_with(n, || std::sync::atomic::AtomicU64::new(Self::UNSET));
        DkCache {
            k,
            vals,
            clusters: None,
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The rank this cache's thresholds were computed at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `(hits, misses)` of [`DkCache::dk_or_compute`] lookups so far;
    /// [`DkCache::prewarm`] counts as neither.
    pub fn hit_stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        (self.hits.load(Relaxed), self.misses.load(Relaxed))
    }

    /// The cached threshold of `id`, `None` while its slot is unset or
    /// past the cache's range. Not a lookup: the hit and miss counters are
    /// untouched.
    pub fn get(&self, id: PointId) -> Option<f64> {
        use std::sync::atomic::Ordering::Relaxed;
        let bits = self.vals.get(id)?.load(Relaxed);
        (bits != Self::UNSET).then(|| f64::from_bits(bits))
    }

    /// Number of slots currently holding a computed threshold.
    pub fn filled(&self) -> usize {
        use std::sync::atomic::Ordering::Relaxed;
        self.vals
            .iter()
            .filter(|s| s.load(Relaxed) != Self::UNSET)
            .count()
    }

    /// A copy for carrying the warm cache into a successor instance: same
    /// `k`, every computed threshold copied bit-for-bit, hit/miss counters
    /// zeroed. `&self` suffices — slots are read with the same relaxed
    /// loads queries use, so a copy taken while readers are still filling
    /// slots simply captures "whatever was computed so far"; every captured
    /// bit pattern is a value a fresh computation would also produce. The
    /// copy keeps the slots' capacity, so [`DkCache::grow`] on a successor
    /// reallocates only when this cache's would have, and shares the list
    /// of clusters of the last [`DkCache::prewarm`].
    pub fn warm_copy(&self) -> DkCache {
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        let mut vals = Vec::with_capacity(self.vals.capacity());
        vals.extend(self.vals.iter().map(|s| AtomicU64::new(s.load(Relaxed))));
        DkCache {
            k: self.k,
            vals,
            clusters: self.clusters.clone(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns `d_k(id)`, computing it with one bounded forward cursor over
    /// the caller's scratch on a cache miss (`stats` absorbs the miss's
    /// index work). Ids beyond the cache's pre-sized range (points inserted
    /// after cache construction) are computed but not cached.
    ///
    /// The single-point lookup: the engine's refinement looks up all of a
    /// query's candidates first and computes their misses together, with
    /// the same values and the same hit and miss counts.
    pub fn dk_or_compute<M, I>(
        &self,
        index: &I,
        id: PointId,
        scratch: &mut CursorScratch,
        stats: &mut SearchStats,
    ) -> f64
    where
        M: Metric,
        I: KnnIndex<M> + ?Sized,
    {
        if let Some(dk) = self.lookup(id) {
            return dk;
        }
        let dk = dk_via_cursor(index, id, self.k, scratch, stats);
        self.store_miss(id, dk);
        dk
    }

    /// The cached threshold of `id`, counted as a hit; `None` (not yet
    /// counted) when its slot is unset or past the cache's range.
    fn lookup(&self, id: PointId) -> Option<f64> {
        use std::sync::atomic::Ordering::Relaxed;
        let dk = self.get(id)?;
        self.hits.fetch_add(1, Relaxed);
        Some(dk)
    }

    /// Stores the threshold a [`DkCache::lookup`] missed (ids past the
    /// cache's range are not stored) and counts the miss.
    fn store_miss(&self, id: PointId, dk: f64) {
        use std::sync::atomic::Ordering::Relaxed;
        debug_assert!(dk.to_bits() != Self::UNSET);
        if let Some(slot) = self.vals.get(id) {
            slot.store(dk.to_bits(), Relaxed);
        }
        self.misses.fetch_add(1, Relaxed);
    }

    /// Computes and stores `d_k` for every id in `ids` with one batched
    /// forward pass ([`rknn_index::knn_dists`]), charging its work to
    /// `stats`. Stored thresholds are bit-identical to the ones
    /// [`DkCache::dk_or_compute`] would compute; ids beyond the cache's
    /// range are computed but not stored. Not a lookup, so the hit and
    /// miss counters are untouched.
    ///
    /// The cache keeps the pass's list of clusters over the live ids
    /// (replacing any earlier one) and shares it with its warm copies:
    /// [`DkCache::invalidate_near`] uses it to skip whole buckets. It stays
    /// valid for `index` and every successor derived from it by inserts and
    /// removes, because ids are append-only and coordinates never change.
    pub fn prewarm<M, I>(&mut self, index: &I, ids: &[PointId], stats: &mut SearchStats)
    where
        M: Metric,
        I: KnnIndex<M> + ?Sized,
    {
        let vals = &mut self.vals;
        let clusters = rknn_index::knn_dists(index, ids, self.k, stats, |id, dists| {
            let dk = dists.last().copied().unwrap_or(f64::INFINITY);
            if let Some(slot) = vals.get_mut(id) {
                *slot.get_mut() = dk.to_bits();
            }
        });
        self.clusters = Some(Arc::new(clusters));
    }

    /// Extends the cached id range to `n` slots (new slots unset), so
    /// points inserted after construction get cached thresholds too. A
    /// full slot buffer grows by a sixteenth
    /// ([`rknn_core::reserve_sixteenth`]), since warm copies keep its
    /// capacity. `&mut self`: maintenance runs between batches, never
    /// concurrently with queries.
    pub fn grow(&mut self, n: usize) {
        if n > self.vals.len() {
            let more = n - self.vals.len();
            rknn_core::reserve_sixteenth(&mut self.vals, more);
            self.vals
                .resize_with(n, || std::sync::atomic::AtomicU64::new(Self::UNSET));
        }
    }

    /// Localized invalidation after a batch of inserts and deletes: evicts
    /// exactly the slots whose cached ball contains one of `points`, plus
    /// the slots of `points` themselves, and returns how many were evicted.
    ///
    /// Soundness in both directions: an insert of `p` lowers `d_k(x)` only
    /// if `d(x, p) < d_k(x)`; a delete of `p` raises `d_k(x)` only if `p`
    /// was among `x`'s `k` nearest, i.e. `d(x, p) <= d_k(x)` against the
    /// still-cached pre-delete threshold. Evicting on `d(x, p) <= d_k(x)`
    /// therefore covers every slot either update can change (a `+∞`
    /// threshold always evicts — fewer than `k` neighbors existed, so any
    /// insert can finish the rank).
    ///
    /// The batch's union needs no op order: a cached value never changes
    /// until its slot is evicted, and the rule reads only coordinates,
    /// which stay addressable for tombstoned ids. So one pass evicts the
    /// same slots as one pass per point in any order. It first evicts the
    /// slots of the batch's own ids without a distance. Then it gathers set
    /// slots into padded tiles of `EVICT_TILE` rows, each bounded by
    /// `d_k(x).next_up()` (`+∞` stays `+∞`), and streams updated points
    /// through [`Metric::dist_tile`] against each tile. A row is evicted
    /// when some point's distance is `<= d_k(x)`; the metrics are
    /// symmetric, so `d(p, x)` carries the bits of `d(x, p)`.
    ///
    /// With the list of clusters of the last [`DkCache::prewarm`], each
    /// updated point first takes its distances to the `m` centers. A
    /// bucket is skipped for a point when the triangle-inequality bound
    /// `d(p, c) − r` ([`ClusterList::lower_bound`], with its rounding
    /// slack) exceeds the largest set threshold in the bucket: every
    /// member then lies farther from `p` than its own `d_k`. Each bucket
    /// some point still reaches is gathered once and streamed through the
    /// points that reach it. The slots the list does not hold (ids at or
    /// past its bound, which were inserted after the prewarm, and ids that
    /// were not live then) take the tail: every updated point against
    /// every set slot, where whole blocks of unset slots are skipped by
    /// one branch-free test each. Without a list the tail is every slot.
    ///
    /// Cost (`DESIGN.md` §3), charged to `stats`: with a list, `m`
    /// distances per distinct updated point; then one distance per set
    /// slot outside `points` and updated point that reaches its bucket,
    /// and per set tail slot and distinct updated point (`n · |points|` on
    /// a warm cache without a list). Unset slots cost nothing.
    pub fn invalidate_near<M, I>(
        &mut self,
        index: &I,
        points: &[PointId],
        stats: &mut SearchStats,
    ) -> usize
    where
        M: Metric,
        I: KnnIndex<M> + ?Sized,
    {
        const BLOCK: usize = 8;
        if points.is_empty() {
            return 0;
        }
        let none = ClusterList::default();
        let list = self.clusters.as_deref().unwrap_or(&none);
        let vals = &mut self.vals[..];
        let n = vals.len();
        let (dim, metric) = (index.dim(), index.metric());
        let stride = kernel::pad_dim(dim);
        let mut ids = points.to_vec();
        ids.sort_unstable();
        ids.dedup();
        // The batch's own slots go without a distance.
        let mut evicted = 0;
        for &p in &ids {
            if let Some(slot) = vals.get_mut(p) {
                let bits = std::mem::replace(slot.get_mut(), Self::UNSET);
                evicted += usize::from(bits != Self::UNSET);
            }
        }
        let mut tile = EvictTile {
            queries: vec![0.0; ids.len() * stride],
            rows: vec![0.0; EVICT_TILE * stride],
            slots: [0; EVICT_TILE],
            cached: [0.0; EVICT_TILE],
            len: 0,
            stride,
            dim,
        };
        for (q, &p) in tile.queries.chunks_exact_mut(stride).zip(&ids) {
            q[..dim].copy_from_slice(index.point(p));
        }
        let mut active = Vec::with_capacity(ids.len());

        // The listed slots, bucket by bucket, against the points that
        // reach the bucket's largest threshold.
        let m = list.buckets();
        let mut center_dists = vec![0.0; ids.len() * m];
        let unbounded = vec![f64::INFINITY; m];
        for (q, out) in tile
            .queries
            .chunks_exact(stride)
            // An empty list has no center, and so no chunk.
            .zip(center_dists.chunks_exact_mut(m.max(1)))
        {
            metric.dist_tile(q, list.centers(), stride, dim, &unbounded, out);
            stats.count_dists(m as u64);
        }
        for b in 0..m {
            let members = list.members(b);
            let reach = members
                .iter()
                .filter_map(|&x| vals.get(x as usize))
                .map(|slot| slot.load(std::sync::atomic::Ordering::Relaxed))
                .filter(|&bits| bits != Self::UNSET)
                .fold(f64::NEG_INFINITY, |r, bits| r.max(f64::from_bits(bits)));
            if reach == f64::NEG_INFINITY {
                // No set slot.
                continue;
            }
            // The bound is never NaN, and a `+∞` threshold is reached by
            // every point.
            active.clear();
            active.extend(
                (0..ids.len()).filter(|&j| list.lower_bound(b, center_dists[j * m + b]) <= reach),
            );
            if active.is_empty() {
                continue;
            }
            for &x in members {
                evicted += tile.offer(index, x as usize, vals, &active, stats);
            }
            evicted += tile.flush(metric, vals, &active, stats);
        }

        // The slots the list does not hold, against every point.
        active.clear();
        active.extend(0..ids.len());
        for &x in list.unlisted() {
            evicted += tile.offer(index, x as usize, vals, &active, stats);
        }
        for start in (list.id_bound().min(n)..n).step_by(BLOCK) {
            let end = (start + BLOCK).min(n);
            if vals[start..end]
                .iter_mut()
                .fold(true, |unset, s| unset & (*s.get_mut() == Self::UNSET))
            {
                continue;
            }
            for x in start..end {
                evicted += tile.offer(index, x, vals, &active, stats);
            }
        }
        evicted + tile.flush(metric, vals, &active, stats)
    }
}

/// Rows per tile of the batched eviction pass
/// ([`DkCache::invalidate_near`]).
const EVICT_TILE: usize = 64;

/// The buffers of one [`DkCache::invalidate_near`] pass, allocated once per
/// call: the updated points as padded queries, and one tile of gathered
/// slots with their cached thresholds.
struct EvictTile {
    /// One zero-padded row of `stride` coordinates per distinct point.
    queries: Vec<f64>,
    /// `EVICT_TILE` zero-padded rows; the first `len` hold gathered slots.
    rows: Vec<f64>,
    slots: [usize; EVICT_TILE],
    cached: [f64; EVICT_TILE],
    len: usize,
    stride: usize,
    dim: usize,
}

impl EvictTile {
    /// Gathers slot `x` if it holds a threshold, flushing the tile against
    /// the `active` queries once it is full; returns how many slots that
    /// flush evicted.
    fn offer<M, I>(
        &mut self,
        index: &I,
        x: usize,
        vals: &mut [std::sync::atomic::AtomicU64],
        active: &[usize],
        stats: &mut SearchStats,
    ) -> usize
    where
        M: Metric,
        I: KnnIndex<M> + ?Sized,
    {
        let Some(bits) = vals.get_mut(x).map(|slot| *slot.get_mut()) else {
            return 0;
        };
        if bits == DkCache::UNSET {
            return 0;
        }
        let at = self.len * self.stride;
        self.rows[at..at + self.dim].copy_from_slice(index.point(x));
        self.slots[self.len] = x;
        self.cached[self.len] = f64::from_bits(bits);
        self.len += 1;
        if self.len < EVICT_TILE {
            return 0;
        }
        self.flush(index.metric(), vals, active, stats)
    }

    /// Evicts every gathered slot within its threshold of one of the
    /// `active` queries, empties the tile and returns how many slots it
    /// evicted.
    fn flush<M: Metric>(
        &mut self,
        metric: &M,
        vals: &mut [std::sync::atomic::AtomicU64],
        active: &[usize],
        stats: &mut SearchStats,
    ) -> usize {
        let len = std::mem::take(&mut self.len);
        if len == 0 {
            return 0;
        }
        let (rows, cached) = (&self.rows[..len * self.stride], &self.cached[..len]);
        let mut bounds = [0.0; EVICT_TILE];
        for (b, &dk) in bounds.iter_mut().zip(cached) {
            *b = dk.next_up();
        }
        let (mut out, mut hit) = ([0.0; EVICT_TILE], [false; EVICT_TILE]);
        for &j in active {
            let q = &self.queries[j * self.stride..(j + 1) * self.stride];
            metric.dist_tile(
                q,
                rows,
                self.stride,
                self.dim,
                &bounds[..len],
                &mut out[..len],
            );
            stats.count_dists(len as u64);
            // A pruned row reads NaN and fails the test; a bound of `+∞`
            // (from `d_k = f64::MAX`) admits more than `d_k`, so the
            // admitted distance is compared against `d_k` itself.
            for ((h, &d), &dk) in hit.iter_mut().zip(&out[..len]).zip(cached) {
                *h |= d <= dk;
            }
        }
        let mut evicted = 0;
        for (&x, h) in self.slots[..len].iter().zip(hit) {
            if h {
                *vals[x].get_mut() = DkCache::UNSET;
                evicted += 1;
            }
        }
        evicted
    }
}

/// Runs the filter–refinement query (Algorithm 1) — the engine's one entry
/// point.
///
/// `q` is the query location and `exclude` its own id when `q ∈ S`
/// (self-excluding convention), `None` for an external location.
/// `variant` selects RDT, RDT+ (the §4.3 candidate-set reduction) or the
/// no-witness ablation, and `schedule` a fixed or adaptive scale
/// parameter.
///
/// `scratch` supplies the cursor buffer, the filter-set bookkeeping vector,
/// and the candidate coordinate tile; all three are cleared on entry and
/// keep their capacity afterwards, so a worker reuses one scratch for every
/// query it executes. Reuse changes where buffers live, never what is
/// computed.
///
/// With a `dk_cache`, queries whose refinement phase re-verifies an
/// already-known point reuse the exact threshold value, so their
/// `verified` counter is unchanged but their index work shrinks. The
/// other verifications (all of them without a cache) are computed
/// together by one group pass (`DESIGN.md` §2).
///
/// `cancel` is checked at block granularity: once per `WITNESS_TILE` (32)
/// retrievals during the filter phase and once before the refinement's
/// group pass — the two places where a query spends unbounded time. A
/// query whose token never trips ([`CancelToken::never`]) always returns
/// `Ok`, and a live token that does not trip changes nothing (results,
/// counters, terminations); a
/// tripped token returns [`Cancelled`] within one block of work and leaves
/// only the caller's reusable scratch behind (cleared on the next query).
/// This is the serving engine's deadline/cancellation hook: a wedged or
/// past-deadline query releases its worker instead of holding it to
/// completion.
///
/// The witness pass for a retrieved point `v` runs in two phases over the
/// filter set. While `v` still needs witnesses (fewer than `k`), whole
/// blocks of filter members stream through [`Metric::dist_tile`] at the
/// radius `d(q, v)` — the larger of the two open radii, since the cursor
/// yields `d(q, x) <= d(q, v)`. Once `v` has `k` witnesses, only members
/// whose own census is still open can change a decision, so the pass visits
/// just those, each through [`Metric::dist_lt`] at its radius `d(q, x)`.
/// The open members live in an ascending index list (`QueryScratch::open`)
/// that always holds exactly the members neither lazily accepted nor
/// carrying `k` witnesses; a member leaves it once decided and never
/// returns, so decided members are not walked again. Every pair the
/// row-by-row listing evaluates is evaluated and no other, so results and
/// counters match it exactly. Abandoning a distance early changes neither
/// `witness_pairs` nor `witness_dist_comps`: an abandoned evaluation still
/// counts as one distance computation, it just touches fewer coordinates.
///
/// The witness pass, like the traversal feeding it, evaluates every pair
/// through the one metric instance, so cursor distances, witness
/// comparisons and the verification's `d_k` agree bitwise.
///
/// # Panics
///
/// Panics if a supplied cache was built for a different rank than
/// `params.k`.
#[allow(clippy::too_many_arguments)] // the one entry point carries every knob
pub fn run_query<M, I>(
    index: &I,
    q: &[f64],
    exclude: Option<PointId>,
    params: RdtParams,
    variant: RdtVariant,
    schedule: TSchedule,
    scratch: &mut QueryScratch,
    dk_cache: Option<&DkCache>,
    cancel: &CancelToken,
) -> Result<RknnAnswer, Cancelled>
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    if let Some(cache) = dk_cache {
        assert_eq!(cache.k(), params.k, "DkCache rank mismatch");
    }
    let stats = filter(
        index, q, exclude, params, variant, schedule, scratch, cancel,
    )?;
    refine(index, q, params.k, stats, scratch, dk_cache, cancel)
}

/// The filter phase (lines 2–24): the expanding search, the witness pass
/// and the dimensional test. Leaves the filter set in `scratch.filter` and
/// returns the filter-phase counters, termination and cursor work; the
/// refinement counters are left at zero for [`refine`].
#[allow(clippy::too_many_arguments)] // `run_query`'s knobs minus the cache
fn filter<M, I>(
    index: &I,
    q: &[f64],
    exclude: Option<PointId>,
    params: RdtParams,
    variant: RdtVariant,
    schedule: TSchedule,
    scratch: &mut QueryScratch,
    cancel: &CancelToken,
) -> Result<RdtQueryStats, Cancelled>
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    let plus = variant == RdtVariant::Plus;
    let witnesses_enabled = variant != RdtVariant::NoWitness;
    let k = params.k;
    let mut t = params.t;
    let metric = index.metric();
    let n = index
        .num_points()
        .saturating_sub(usize::from(exclude.is_some()));
    let mut cap = params.rank_cap(n);

    let mut omega = f64::INFINITY;
    let QueryScratch {
        cursor: cursor_scratch,
        filter,
        tile,
        wtile,
        open,
        ..
    } = scratch;
    filter.clear();
    open.clear();
    tile.reset(index.dim().max(1));
    let mut excluded = 0usize;
    let mut lazy_accepts = 0usize;
    let mut witness_pairs = 0u64;
    let mut witness_dist_comps = 0u64;
    let mut s = 0usize;
    let mut termination = Termination::Exhausted;

    // Under a fixed scale parameter the filter phase never drains past the
    // rank cap, so the substrate may prune its stream to the cap-nearest
    // (the adaptive schedule can raise the cap mid-query and needs the
    // unbounded stream).
    let mut cursor = match schedule {
        TSchedule::Fixed => index.cursor_bounded(q, exclude, cap, cursor_scratch),
        TSchedule::Adaptive { .. } => index.cursor_with(q, exclude, cursor_scratch),
    };
    let mut inv_t = 1.0 / t;
    let kf = k as f64;
    // Online Hill state for TSchedule::Adaptive: with s observed distances
    // d_1..d_s (ascending), the MLE is -s / Σ ln(d_i / d_s)
    // = s / (s·ln d_s − Σ ln d_i); both terms update in O(1).
    let mut sum_ln_d = 0.0f64;
    let mut pos_count = 0usize;
    // In adaptive mode the dimensional test stays disarmed until the online
    // estimate has stabilized, so bounds computed from the floor t cannot
    // terminate the search prematurely.
    let mut test_armed = matches!(schedule, TSchedule::Fixed);

    if cancel.is_cancelled() {
        return Err(Cancelled);
    }

    // (An explicit loop rather than `while let`: the else-branch documents
    // the exhaustion case.)
    #[allow(clippy::while_let_loop)]
    loop {
        let Some(v) = cursor.next() else {
            // Index exhausted: s = n, every point was examined.
            break;
        };
        s += 1;
        // Cancellation checkpoint at tile-block granularity: one check per
        // WITNESS_TILE retrievals bounds the post-cancel overrun to a block
        // while keeping the checkpoint off the per-row hot path.
        if s.is_multiple_of(WITNESS_TILE) && cancel.is_cancelled() {
            return Err(Cancelled);
        }
        if let TSchedule::Adaptive { safety } = schedule {
            if v.dist > 0.0 {
                sum_ln_d += v.dist.ln();
                pos_count += 1;
            }
            // Re-estimate once a minimal neighborhood has been observed.
            if pos_count >= k.max(8) {
                let denom = pos_count as f64 * v.dist.ln() - sum_ln_d;
                if denom > 0.0 {
                    let hill = pos_count as f64 / denom;
                    let new_t = (safety * hill).max(params.t);
                    if new_t.is_finite() && new_t > 0.0 {
                        t = new_t;
                        inv_t = 1.0 / t;
                        cap = RdtParams::new(k, t).rank_cap(n);
                        test_armed = true;
                    }
                }
            }
        }
        let v_point = index.point(v.id);
        // Witness pass against the filter set (lines 8–19). Every filter
        // member is one maintenance pair (`witness_pairs`, the (s choose 2)
        // cost the paper bounds), but witness counts beyond k never
        // influence a decision, so a pair's distance is only evaluated
        // (`witness_dist_comps`) while at least one side is still open:
        // v while w_v < k, x while it sits on the `open` list.
        //
        // Phase 1: while v needs witnesses every pair shares the uniform
        // comparison radius d(q, v) — the larger of the two open radii,
        // since the cursor yields x.dist <= v.dist — so whole WITNESS_TILE
        // blocks of the padded candidate tile, aligned at multiples of
        // WITNESS_TILE, stream through `Metric::dist_tile` at that bound.
        // Rows of the block in which w_v reaches k are still consumed for
        // open members only.
        // Phase 2: past the last streamed block only open members can
        // change a decision, so the pass visits just the `open` indices
        // there, one per-row `dist_lt` at the member's own radius x.dist.
        //
        // Both kernels only *admit* distances into the exact comparisons
        // below (a distance at or beyond the open radii decides every
        // comparison negatively whether it arrives pruned or admitted), and
        // admitted values are bit-identical across the tile and one-to-one
        // kernels, so decisions, counters and results match the row-by-row
        // listing exactly while decided members are never walked again.
        let mut w_v = 0usize;
        if witnesses_enabled {
            witness_pairs += filter.len() as u64;
            let stride = tile.stride();
            let mut streamed = 0usize;
            if !filter.is_empty() {
                wtile.set_query(v_point);
            }
            while w_v < k && streamed < filter.len() {
                let start = streamed;
                let end = (start + WITNESS_TILE).min(filter.len());
                let m = end - start;
                if wtile.out.len() < m {
                    wtile.out.resize(m, 0.0);
                }
                if wtile.bounds.len() < m {
                    wtile.bounds.resize(m, 0.0);
                }
                wtile.bounds[..m].fill(v.dist);
                metric.dist_tile(
                    &wtile.qpad,
                    &tile.padded()[start * stride..end * stride],
                    stride,
                    tile.dim(),
                    &wtile.bounds[..m],
                    &mut wtile.out[..m],
                );
                for (x, &d) in filter[start..end].iter_mut().zip(&wtile.out[..m]) {
                    let x_open = !x.accepted && x.witnesses < k;
                    if !x_open && w_v >= k {
                        continue;
                    }
                    witness_dist_comps += 1;
                    if d.is_nan() {
                        continue;
                    }
                    if x_open && d < x.dist {
                        x.witnesses += 1; // v is a witness of x.
                    }
                    if w_v < k && d < v.dist {
                        w_v += 1; // x is a witness of v.
                    }
                }
                streamed = end;
            }
            let past = open.partition_point(|&i| i < streamed);
            for &i in &open[past..] {
                let x = &mut filter[i];
                witness_dist_comps += 1;
                if let Some(d_vx) = metric.dist_lt(v_point, tile.row(i), x.dist) {
                    if d_vx < x.dist {
                        x.witnesses += 1; // v is a witness of x.
                    }
                }
            }
            // Compaction. Lazy accept (Assertion 2, line 16): the search has
            // passed 2·d(q,x), so x's witness census is complete. Members
            // that reached k witnesses or were just accepted are decided
            // and leave the list.
            open.retain(|&i| {
                let x = &mut filter[i];
                if x.witnesses >= k {
                    return false;
                }
                if v.dist >= 2.0 * x.dist {
                    x.accepted = true;
                    lazy_accepts += 1;
                    return false;
                }
                true
            });
        }
        // RDT+ candidate-set reduction (§4.3): drop v if its first witness
        // pass already disqualified it. (The first k retrieved points can
        // never reach k witnesses here, so the paper's "not applied to the
        // first k candidates" proviso is satisfied automatically.)
        if plus && w_v >= k {
            excluded += 1;
        } else {
            if witnesses_enabled && w_v < k {
                open.push(filter.len());
            }
            filter.push(FilterCandidate {
                id: v.id,
                dist: v.dist,
                witnesses: w_v,
                accepted: false,
            });
            tile.push(v_point);
        }
        debug_assert!(
            !witnesses_enabled || open_list_is_exact(filter, open, k),
            "open list must hold exactly the open filter members, ascending"
        );
        // Dimensional test update (Theorem 1, lines 21–23).
        if test_armed && s > k && v.dist > 0.0 {
            let denom = (s as f64 / kf).powf(inv_t) - 1.0;
            if denom > 0.0 {
                let bound = v.dist / denom;
                if bound < omega {
                    omega = bound;
                }
            }
        }
        // Loop exit tests (line 24). The rank cap applies once the
        // dimensional test is armed: under the adaptive schedule the floor
        // t's cap must not truncate the search before the online estimate
        // has stabilized (degenerate data with zero distances never arms
        // it and is scanned fully).
        if v.dist > omega {
            termination = Termination::Omega;
            break;
        }
        if test_armed && s >= cap {
            termination = if s >= n {
                Termination::Exhausted
            } else {
                Termination::RankCap
            };
            break;
        }
    }
    Ok(RdtQueryStats {
        retrieved: s,
        filter_set_size: filter.len(),
        excluded,
        lazy_accepts,
        lazy_rejects: 0,
        verified: 0,
        verified_accepted: 0,
        witness_pairs,
        witness_dist_comps,
        omega,
        termination,
        search: cursor.stats(),
    })
}

/// The refinement phase (lines 25–32) over the filter set [`filter`] left
/// in `scratch.filter`: lazy accepts are reported, candidates with `k`
/// witnesses are lazily rejected (Assertion 1), and every other candidate
/// is verified against `d_k`, through `dk_cache` when one is supplied.
/// The candidates whose `d_k` is not cached (all of them without a cache)
/// are verified together by [`verify_misses`] (one whose ball could
/// overflow by its own cursor), and their thresholds are then cached.
/// Completes the filter-phase `stats` and assembles the answer.
fn refine<M, I>(
    index: &I,
    q: &[f64],
    k: usize,
    mut stats: RdtQueryStats,
    scratch: &mut QueryScratch,
    dk_cache: Option<&DkCache>,
    cancel: &CancelToken,
) -> Result<RknnAnswer, Cancelled>
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    let mut result: Vec<Neighbor> = Vec::new();
    let decide = |cand: &FilterCandidate, dk: f64, st: &mut RdtQueryStats, out: &mut Vec<_>| {
        if dk >= cand.dist {
            st.verified_accepted += 1;
            out.push(Neighbor::new(cand.id, cand.dist));
        }
    };
    scratch.misses.clear();
    for (i, cand) in scratch.filter.iter().enumerate() {
        if cand.accepted {
            result.push(Neighbor::new(cand.id, cand.dist));
            continue;
        }
        if cand.witnesses >= k {
            stats.lazy_rejects += 1; // Assertion 1: cannot be a reverse neighbor.
            continue;
        }
        stats.verified += 1;
        match dk_cache.and_then(|cache| cache.lookup(cand.id)) {
            Some(dk) => decide(cand, dk, &mut stats, &mut result),
            None => scratch.misses.push((i, f64::INFINITY)),
        }
    }
    if !scratch.misses.is_empty() {
        // The group pass is the refinement phase's one block of index
        // work, so the checkpoint sits in front of it.
        if cancel.is_cancelled() {
            return Err(Cancelled);
        }
        verify_misses(index, q, k, scratch, &mut stats.search);
        for (j, &(i, _)) in scratch.misses.iter().enumerate() {
            let cand = &scratch.filter[i];
            let dk = scratch.nearest[j * k + k - 1];
            if let Some(cache) = dk_cache {
                cache.store_miss(cand.id, dk);
            }
            decide(cand, dk, &mut stats, &mut result);
        }
    }
    rknn_core::neighbor::sort_neighbors(&mut result);
    Ok(RknnAnswer { result, stats })
}

/// Rows per gathered tile of the group verification ([`verify_misses`]).
const VERIFY_TILE: usize = 64;

/// Inserts `d` into the ascending list `best`, dropping its largest
/// entry; `d` must be below that entry.
fn insert_nearest(best: &mut [f64], d: f64) {
    let last = best.len() - 1;
    let at = best.partition_point(|&x| x <= d);
    best.copy_within(at..last, at + 1);
    best[at] = d;
}

/// Computes `d_k` of every candidate in `scratch.misses` together, from
/// one [`KnnIndex::range`] call around the query `q` instead of one
/// forward kNN query per candidate. Miss `j` ends with its `d_k` in
/// `scratch.nearest[j·k + k − 1]`, and the misses are reordered: those
/// the ball answered come first.
///
/// 1. **Bound.** Each miss `p` streams the filter set's padded tile
///    through [`Metric::dist_tile`]; the k-th smallest distance to another
///    row is `u_p ≥ d_k(p)` (`+∞` with fewer than `k` other rows).
/// 2. **Ball.** Every `x` with `d(p, x) ≤ d_k(p)` has
///    `d(q, x) ≤ d(q, p) + u_p`, so the closed ball of radius
///    `R = max_p` [`triangle_upper`]`(d(q, p), u_p)` holds every miss's
///    `k` nearest points; the rounding slack keeps it so for computed
///    distances. A computed `d(q, x)` that overflows to `+∞` is outside
///    every ball, so a miss whose own radius fails [`finite_up_to`]
///    (among them every `u_p = +∞`) is left out of the ball and verified
///    by its own bounded cursor. One `range(q, R)` fetches the ball of
///    the others, in no particular order.
/// 3. **Evaluate.** The ball's rows are gathered into padded tiles of
///    `VERIFY_TILE` and every miss in it streams each tile at its running
///    k-th distance, closed at `u_p` from the start, skipping its own id;
///    its `k` smallest distances end in `scratch.nearest[j·k..(j + 1)·k]`.
///
/// All distances come from the one metric's kernel, and a miss keeps the
/// multiset of its `k` smallest values whatever order the ball's rows
/// arrive in, so each `d_k` is bit for bit the value of a bounded cursor
/// from the miss. `stats` is charged one distance per miss and filter row,
/// `range`'s own work, one distance per ball miss and ball row, and the
/// cursors' work (`DESIGN.md` §3).
fn verify_misses<M, I>(
    index: &I,
    q: &[f64],
    k: usize,
    scratch: &mut QueryScratch,
    stats: &mut SearchStats,
) where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    let QueryScratch {
        cursor,
        filter,
        tile,
        wtile,
        misses,
        nearest,
        ..
    } = scratch;
    let metric = index.metric();
    let (stride, dim) = (tile.stride(), tile.dim());
    let filter_rows = tile.padded();
    let (mut bounds, mut out) = ([0.0; VERIFY_TILE], [0.0; VERIFY_TILE]);
    nearest.clear();
    nearest.resize(misses.len() * k, f64::INFINITY);

    // 1. Each miss's bound from the filter set, and the ball's radius; a
    //    miss the ball cannot answer keeps `+∞`.
    let mut radius = 0.0f64;
    for (miss, best) in misses.iter_mut().zip(nearest.chunks_exact_mut(k)) {
        let i = miss.0;
        let p = &filter_rows[i * stride..(i + 1) * stride];
        for (b, rows) in filter_rows.chunks(VERIFY_TILE * stride).enumerate() {
            let len = rows.len() / stride;
            bounds[..len].fill(best[k - 1]);
            metric.dist_tile(p, rows, stride, dim, &bounds[..len], &mut out[..len]);
            stats.count_dists(len as u64);
            for (x, &d) in out[..len].iter().enumerate() {
                if d < best[k - 1] && b * VERIFY_TILE + x != i {
                    insert_nearest(best, d);
                }
            }
        }
        let r = triangle_upper(filter[i].dist, best[k - 1]);
        miss.1 = if finite_up_to(metric, r) {
            radius = radius.max(r);
            best[k - 1]
        } else {
            f64::INFINITY
        };
        best.fill(f64::INFINITY);
    }
    misses.sort_unstable_by_key(|&(_, bound)| bound == f64::INFINITY);
    let in_ball = misses.partition_point(|&(_, bound)| bound < f64::INFINITY);
    let (ball_misses, own_cursor) = misses.split_at(in_ball);
    let (ball_nearest, cursor_nearest) = nearest.split_at_mut(in_ball * k);
    for (&(i, _), best) in own_cursor.iter().zip(cursor_nearest.chunks_exact_mut(k)) {
        best[k - 1] = dk_via_cursor(index, filter[i].id, k, cursor, stats);
    }
    if ball_misses.is_empty() {
        return;
    }

    // 2–3. One range call, its rows streamed through every ball miss.
    let ball = index.range(q, radius, None, stats);
    wtile.ensure_rows(dim, VERIFY_TILE);
    for block in ball.chunks(VERIFY_TILE) {
        for (r, x) in block.iter().enumerate() {
            wtile.fill_row(r, index.point(x.id));
        }
        let (rows, len) = (&wtile.rows[..block.len() * stride], block.len());
        for (&(i, bound), best) in ball_misses.iter().zip(ball_nearest.chunks_exact_mut(k)) {
            let p = &filter_rows[i * stride..(i + 1) * stride];
            // `u_p` closes the ball from the start: a distance of at most
            // `u_p` is admitted below its `next_up`.
            bounds[..len].fill(best[k - 1].min(bound.next_up()));
            metric.dist_tile(p, rows, stride, dim, &bounds[..len], &mut out[..len]);
            stats.count_dists(len as u64);
            let own = filter[i].id;
            for (x, &d) in block.iter().zip(&out[..len]) {
                if d < best[k - 1] && x.id != own {
                    insert_nearest(best, d);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rknn_core::{BruteForce, Dataset, Euclidean, SearchStats};
    use rknn_index::LinearScan;
    use std::sync::Arc;
    use std::time::Duration;

    fn uniform(n: usize, dim: usize, seed: u64) -> Arc<Dataset> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.random::<f64>() * 10.0).collect())
            .collect();
        Dataset::from_rows(&rows).unwrap().into_shared()
    }

    /// What one checked eviction pass did.
    #[derive(Debug, Default, PartialEq)]
    struct Checked {
        /// Evicted slots outside the batch.
        neighbours: usize,
        /// Pairs of a set slot and an updated point exactly at the slot's
        /// threshold.
        ties: usize,
        /// Those of the ties whose slot and point lie in different buckets
        /// of the cache's list (0 without a list).
        ties_across: usize,
        /// Distances the pass charged.
        dists: u64,
    }

    /// The bucket of the cache's list holding `id`, if any.
    fn bucket_of(cache: &DkCache, id: PointId) -> Option<usize> {
        let list = cache.clusters.as_deref()?;
        (0..list.buckets()).find(|&b| list.members(b).contains(&(id as u32)))
    }

    /// Runs one eviction pass over `cache` and checks it against the brute
    /// rule: a set slot `x` is evicted iff `x ∈ points` or
    /// `metric.dist(x, p) <= d_k(x)` for some `p ∈ points`; unset slots
    /// stay unset. Without a list of clusters the pass costs one distance
    /// per set slot outside `points` and distinct point; with one it costs
    /// `m` per distinct point plus at most that.
    fn evict_against_oracle<M: Metric, I: KnnIndex<M>>(
        idx: &I,
        cache: &mut DkCache,
        points: &[PointId],
    ) -> Checked {
        let before: Vec<u64> = cache.vals.iter_mut().map(|s| *s.get_mut()).collect();
        let mut stats = SearchStats::new();
        let evicted = cache.invalidate_near(idx, points, &mut stats);
        let mut distinct = points.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let (mut want_evicted, mut want_dists) = (0, 0);
        let mut checked = Checked {
            dists: stats.dist_computations,
            ..Checked::default()
        };
        for (x, &bits) in before.iter().enumerate() {
            let after = *cache.vals[x].get_mut();
            if bits == DkCache::UNSET {
                assert_eq!(after, DkCache::UNSET, "points={points:?} x={x}");
                continue;
            }
            let dk = f64::from_bits(bits);
            let own = distinct.contains(&x);
            want_dists += if own { 0 } else { distinct.len() as u64 };
            let dist = |p: PointId| idx.metric().dist(idx.point(x), idx.point(p));
            for &p in &distinct {
                if dist(p) == dk {
                    checked.ties += 1;
                    let across =
                        bucket_of(cache, x).is_some_and(|b| bucket_of(cache, p) != Some(b));
                    checked.ties_across += usize::from(across);
                }
            }
            if own || distinct.iter().any(|&p| dist(p) <= dk) {
                want_evicted += 1;
                checked.neighbours += usize::from(!own);
                assert_eq!(after, DkCache::UNSET, "points={points:?} x={x}");
            } else {
                assert_eq!(after, bits, "points={points:?} x={x}");
            }
        }
        assert_eq!(evicted, want_evicted, "points={points:?}");
        match cache.clusters.as_deref() {
            None => assert_eq!(checked.dists, want_dists, "points={points:?}"),
            Some(list) => {
                let centers = (list.buckets() * distinct.len()) as u64;
                assert!(
                    (centers..=centers + want_dists).contains(&checked.dists),
                    "points={points:?}: {} distances",
                    checked.dists
                );
            }
        }
        checked
    }

    /// A cache of rank `k` over `len` slots holding the thresholds of
    /// `ids`: filled by `prewarm` with a list of clusters over `idx` when
    /// `listed`, by one cursor per id without one otherwise.
    fn warm_cache<M: Metric, I: KnnIndex<M>>(
        idx: &I,
        k: usize,
        len: usize,
        ids: &[PointId],
        listed: bool,
    ) -> DkCache {
        let mut cache = DkCache::new(k, len);
        if listed {
            cache.prewarm(idx, ids, &mut SearchStats::new());
            assert!(cache.clusters.is_some());
        } else {
            let mut cs = CursorScratch::new();
            for &x in ids {
                cache.dk_or_compute(idx, x, &mut cs, &mut SearchStats::new());
            }
        }
        cache
    }

    #[test]
    fn invalidate_near_evicts_exactly_the_balls_holding_the_point() {
        // 37 slots: four blocks of 8 and a tail of 5. Blocks 0 and 2 stay
        // unset; blocks 1 and 3 and the tail hold thresholds.
        let ds = uniform(37, 2, 5);
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let mut cs = CursorScratch::new();
        let mut neighbours_evicted = 0;
        let batches: [&[PointId]; 5] = [&[0], &[12], &[34], &[0, 12, 34], &[36, 9, 20, 9]];
        for points in batches {
            let mut cache = DkCache::new(8, ds.len());
            for x in (0..ds.len()).filter(|x| (x / 8) % 2 == 1 || *x >= 32) {
                cache.dk_or_compute(&idx, x, &mut cs, &mut SearchStats::new());
            }
            neighbours_evicted += evict_against_oracle(&idx, &mut cache, points).neighbours;
        }
        assert!(neighbours_evicted > 3, "the cases must evict neighbours");
    }

    /// An `n × n` grid of spacing ½: many pairs share a distance bit for
    /// bit, so thresholds are met with exact ties.
    fn half_lattice(n: usize) -> Arc<Dataset> {
        let rows: Vec<Vec<f64>> = (0..n * n)
            .map(|i| vec![(i % n) as f64 * 0.5, (i / n) as f64 * 0.5])
            .collect();
        Dataset::from_rows(&rows).unwrap().into_shared()
    }

    fn batched_eviction_matches_the_oracle<M: Metric + Copy>(metric: M, listed: bool) {
        use rknn_index::DynamicIndex;
        let ds = half_lattice(7);
        let n = ds.len();
        let mut cs = CursorScratch::new();
        // Every slot but block 2 (ids 16..24), which stays unset.
        let warm = |idx: &LinearScan<M>, k: usize, len: usize| {
            let ids: Vec<PointId> = (0..len).filter(|x| x / 8 != 2).collect();
            warm_cache(idx, k, len, &ids, listed)
        };
        let mut idx = LinearScan::build(ds.clone(), metric);
        let name = format!("{} (list: {listed})", metric.name());

        // Ties exactly at the thresholds, one point and several.
        let mut sum = Checked::default();
        let batches: [&[PointId]; 3] = [&[24], &[3, 24, 45], &[0, 48, 48, 17]];
        for points in batches {
            let mut cache = warm(&idx, 4, n);
            let c = evict_against_oracle(&idx, &mut cache, points);
            sum.neighbours += c.neighbours;
            sum.ties += c.ties;
            sum.ties_across += c.ties_across;
        }
        assert!(
            sum.neighbours > 3,
            "{name}: the lattice batches must evict neighbours"
        );
        assert!(
            sum.ties > 0,
            "{name}: some point must sit exactly at a threshold"
        );
        assert_eq!(
            sum.ties_across > 0,
            listed,
            "{name}: a tie must cross a bucket boundary"
        );

        // `+∞` thresholds: fewer than k other points, so any point evicts.
        let mut cache = warm(&idx, n, n);
        assert_eq!(f64::from_bits(*cache.vals[0].get_mut()), f64::INFINITY);
        evict_against_oracle(&idx, &mut cache, &[10, 30]);
        assert_eq!(cache.filled(), 0, "{name}: a +inf threshold always evicts");

        // Ids past the cache range are queries without a slot of their own.
        let mut cache = warm(&idx, 4, n - 6);
        let c = evict_against_oracle(&idx, &mut cache, &[n - 1, n - 3, 20]);
        assert!(
            c.neighbours > 0,
            "{name}: out-of-range points must still evict"
        );

        // Listed ids that get tombstoned: the batch removing them, then a
        // later batch over the same cache.
        let mut churned = idx.clone();
        let mut cache = warm(&churned, 4, n);
        assert!(churned.remove(24) && churned.remove(3));
        evict_against_oracle(&churned, &mut cache, &[24, 3]);
        let c = evict_against_oracle(&churned, &mut cache, &[31, 10]);
        assert!(c.neighbours > 0, "{name}: tombstoned members must not hide");

        // Ids past the list's bound: inserted after the cache was warmed,
        // then cached themselves.
        let mut grown = idx.clone();
        let mut cache = warm(&grown, 4, n);
        let new: Vec<PointId> = [[1.25, 1.5], [2.0, 2.25], [0.0, 0.25]]
            .iter()
            .map(|row| grown.insert(row).unwrap())
            .collect();
        cache.grow(grown.id_bound());
        for &x in &new[1..] {
            cache.dk_or_compute(&grown, x, &mut cs, &mut SearchStats::new());
        }
        let c = evict_against_oracle(&grown, &mut cache, &[new[0], 10]);
        assert!(
            c.neighbours > 2,
            "{name}: late ids must evict and be evicted"
        );

        // An id that was not live when the list was built, whose slot is
        // filled afterwards: the list does not hold it.
        let mut cache = warm(&churned, 4, n);
        cache.dk_or_compute(&churned, 24, &mut cs, &mut SearchStats::new());
        let c = evict_against_oracle(&churned, &mut cache, &[25]);
        assert!(c.neighbours > 0, "{name}: unlisted slots must be scanned");

        // One batch inserts a point and removes it again.
        let mut cache = warm(&idx, 4, n);
        let id = idx.insert(&[1.25, 1.5]).unwrap();
        assert!(idx.remove(id));
        cache.grow(id + 1);
        let c = evict_against_oracle(&idx, &mut cache, &[id, id]);
        assert!(
            c.neighbours > 0,
            "{name}: the transient point must evict its balls"
        );

        // An empty batch evicts nothing and costs nothing.
        let mut cache = warm(&idx, 4, n);
        let filled = cache.filled();
        assert_eq!(
            evict_against_oracle(&idx, &mut cache, &[]),
            Checked::default()
        );
        assert_eq!(cache.filled(), filled);

        // Duplicate points: eight copies of each of six locations, so the
        // list holds zero-radius buckets (and empty ones, from duplicated
        // centers).
        let rows: Vec<Vec<f64>> = (0..48)
            .map(|i| vec![(i % 6) as f64 * 0.5, (i % 3) as f64])
            .collect();
        let dup = LinearScan::build(Dataset::from_rows(&rows).unwrap().into_shared(), metric);
        let mut neighbours = 0;
        for k in [4, 10] {
            let all: Vec<PointId> = (0..48).collect();
            let mut cache = warm_cache(&dup, k, 48, &all, listed);
            if let Some(list) = cache.clusters.as_deref() {
                assert!(
                    (0..list.buckets())
                        .any(|b| !list.members(b).is_empty() && list.radius(b) == 0.0),
                    "{name}: duplicates must give a zero-radius bucket"
                );
            }
            neighbours += evict_against_oracle(&dup, &mut cache, &[7, 20]).neighbours;
        }
        assert!(neighbours > 7, "{name}: duplicates must evict their copies");
    }

    #[test]
    fn batched_eviction_matches_the_oracle_under_every_metric() {
        use rknn_core::{Chebyshev, Manhattan, Minkowski};
        for listed in [false, true] {
            batched_eviction_matches_the_oracle(Euclidean, listed);
            batched_eviction_matches_the_oracle(Manhattan, listed);
            batched_eviction_matches_the_oracle(Chebyshev, listed);
            batched_eviction_matches_the_oracle(Minkowski::new(3.0), listed);
        }
    }

    #[test]
    fn the_list_of_clusters_skips_far_buckets() {
        // Eight well-separated blobs; the batch touches two of them.
        let ds = rknn_data::gaussian_blobs(2000, 8, 8, 0.05, 17).into_shared();
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let all: Vec<PointId> = (0..ds.len()).collect();
        let points: &[PointId] = &[3, 11, 19, 4, 12];
        let mut runs = [false, true].map(|listed| {
            let mut cache = warm_cache(&idx, 10, ds.len(), &all, listed);
            let checked = evict_against_oracle(&idx, &mut cache, points);
            let left: Vec<Option<u64>> = all
                .iter()
                .map(|&x| cache.get(x).map(f64::to_bits))
                .collect();
            (checked, left)
        });
        let [(plain, plain_left), (listed, listed_left)] = &mut runs;
        assert_eq!(
            plain_left, listed_left,
            "both runs must keep the same slots"
        );
        assert!(plain.neighbours > 0);
        assert!(
            2 * listed.dists < plain.dists,
            "list {} vs plain {} distances",
            listed.dists,
            plain.dists
        );
    }

    #[test]
    fn warm_copies_keep_thresholds_and_capacity() {
        let ds = uniform(20, 2, 6);
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let mut cache = DkCache::new(3, ds.len());
        cache.grow(ds.len() + 1);
        let dk = cache.dk_or_compute(&idx, 4, &mut CursorScratch::new(), &mut SearchStats::new());
        let mut copy = cache.warm_copy();
        assert_eq!(copy.vals.capacity(), cache.vals.capacity());
        assert_eq!((copy.filled(), copy.hit_stats()), (1, (0, 0)));
        assert_eq!(
            copy.vals[4].load(std::sync::atomic::Ordering::Relaxed),
            dk.to_bits()
        );
        let slots = copy.vals.as_ptr();
        copy.grow(cache.vals.capacity());
        assert_eq!(copy.vals.as_ptr(), slots, "the copy's slots moved");
    }

    /// One uncached, never-cancelled query at a fixed `t` with fresh scratch.
    fn query_once<M: Metric, I: KnnIndex<M>>(
        index: &I,
        q: &[f64],
        exclude: Option<PointId>,
        params: RdtParams,
        variant: RdtVariant,
    ) -> RknnAnswer {
        let mut scratch = QueryScratch::new(index.dim().max(1));
        let never = CancelToken::never();
        let fixed = TSchedule::Fixed;
        run_query(
            index,
            q,
            exclude,
            params,
            variant,
            fixed,
            &mut scratch,
            None,
            &never,
        )
        .unwrap()
    }

    #[test]
    fn candidate_accounting_partitions_retrieved() {
        let ds = uniform(400, 2, 50);
        let idx = LinearScan::build(ds, Euclidean);
        for variant in [RdtVariant::Plain, RdtVariant::Plus] {
            let ans = query_once(&idx, idx.point(3), Some(3), RdtParams::new(5, 3.0), variant);
            let st = &ans.stats;
            assert_eq!(
                st.verified + st.lazy_accepts + st.lazy_rejects + st.excluded,
                st.retrieved,
                "{variant:?}"
            );
            assert_eq!(st.filter_set_size + st.excluded, st.retrieved);
        }
    }

    #[test]
    fn huge_t_gives_exact_result() {
        // t far above MaxGED ⇒ Theorem 1 exactness.
        let ds = uniform(300, 3, 51);
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        for q in [0usize, 100, 299] {
            let ans = query_once(
                &idx,
                idx.point(q),
                Some(q),
                RdtParams::new(4, 50.0),
                RdtVariant::Plain,
            );
            let mut st = SearchStats::new();
            let truth = bf.rknn(q, 4, &mut st);
            assert_eq!(
                ans.ids(),
                truth.iter().map(|n| n.id).collect::<Vec<_>>(),
                "q={q}"
            );
        }
    }

    #[test]
    fn plus_has_full_recall_at_exhaustive_t() {
        // RDT+ may lose *precision* (lazy accepts act on witness counts
        // undercounted by exclusions), but it can never lose a true member
        // once the filter phase retrieves everything: exclusions and lazy
        // rejects both require k genuine witnesses, and verification is
        // exact.
        let ds = uniform(250, 2, 52);
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        let ans = query_once(
            &idx,
            idx.point(7),
            Some(7),
            RdtParams::new(3, 40.0),
            RdtVariant::Plus,
        );
        let mut st = SearchStats::new();
        let truth: Vec<_> = bf.rknn(7, 3, &mut st).iter().map(|n| n.id).collect();
        let got: std::collections::HashSet<_> = ans.ids().into_iter().collect();
        for id in &truth {
            assert!(got.contains(id), "RDT+ missed true member {id}");
        }
    }

    #[test]
    fn small_t_terminates_early() {
        let ds = uniform(2000, 2, 53);
        let idx = LinearScan::build(ds, Euclidean);
        let ans = query_once(
            &idx,
            idx.point(0),
            Some(0),
            RdtParams::new(10, 1.0),
            RdtVariant::Plain,
        );
        assert!(ans.stats.retrieved <= 20, "rank cap 2^1·10 = 20");
        assert_ne!(ans.stats.termination, Termination::Exhausted);
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let ds = uniform(12, 2, 54);
        let idx = LinearScan::build(ds, Euclidean);
        let ans = query_once(
            &idx,
            idx.point(0),
            Some(0),
            RdtParams::new(50, 5.0),
            RdtVariant::Plain,
        );
        assert_eq!(
            ans.result.len(),
            11,
            "all other points are trivially reverse neighbors"
        );
        assert_eq!(ans.stats.termination, Termination::Exhausted);
    }

    #[test]
    fn duplicate_points_do_not_divide_by_zero() {
        let mut rows = vec![vec![0.0, 0.0]; 30];
        rows.extend((0..30).map(|i| vec![i as f64 + 1.0, 0.0]));
        let ds = Dataset::from_rows(&rows).unwrap().into_shared();
        let idx = LinearScan::build(ds, Euclidean);
        // Query at the duplicate pile: first 29 retrieved distances are 0.
        let ans = query_once(
            &idx,
            idx.point(0),
            Some(0),
            RdtParams::new(3, 2.0),
            RdtVariant::Plain,
        );
        assert!(ans.stats.omega.is_finite() || ans.stats.retrieved <= 12);
        // All co-located duplicates are mutual reverse neighbors.
        assert!(ans.result.iter().filter(|n| n.dist == 0.0).count() > 0);
    }

    #[test]
    fn no_witness_ablation_matches_results_but_verifies_more() {
        let ds = uniform(500, 3, 56);
        let idx = LinearScan::build(ds, Euclidean);
        let params = RdtParams::new(5, 30.0);
        let with = query_once(&idx, idx.point(9), Some(9), params, RdtVariant::Plain);
        let without = query_once(&idx, idx.point(9), Some(9), params, RdtVariant::NoWitness);
        assert_eq!(with.ids(), without.ids(), "same exact result set");
        assert!(
            without.stats.verified > with.stats.verified,
            "disabling witnesses forces more explicit verifications: {} vs {}",
            without.stats.verified,
            with.stats.verified
        );
        assert_eq!(without.stats.witness_pairs, 0);
        assert_eq!(without.stats.witness_dist_comps, 0);
        assert_eq!(without.stats.lazy_accepts, 0);
        assert_eq!(without.stats.lazy_rejects, 0);
    }

    #[test]
    fn erratum_swapped_witness_lines_would_break_assertion_one() {
        // DESIGN.md §2: the published listing credits the witness to the
        // wrong counter. Simulate both readings over a real retrieval
        // sequence and compare against ground-truth censuses: the corrected
        // reading reproduces them; the literal listing does not, so lazy
        // rejection (Assertion 1) would discard true reverse neighbors.
        let ds = uniform(150, 2, 58);
        let q = 0usize;
        let m = Euclidean;
        let qp = ds.point(q).to_vec();
        let mut stream: Vec<(usize, f64)> = (1..ds.len())
            .map(|i| (i, m.dist(ds.point(i), &qp)))
            .collect();
        stream.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

        let simulate = |swapped: bool| -> Vec<usize> {
            let mut f: Vec<(usize, f64, usize)> = Vec::new(); // (id, dist, W)
            for &(v, dv) in &stream {
                let mut w_v = 0usize;
                for x in f.iter_mut() {
                    let d_vx = m.dist(ds.point(v), ds.point(x.0));
                    // Condition A (line 10): d(q,x) > d(v,x).
                    if d_vx < x.1 {
                        if swapped {
                            w_v += 1; // literal listing: increment W(v)
                        } else {
                            x.2 += 1; // definition: v witnesses x
                        }
                    }
                    // Condition B (line 13): d(q,v) > d(v,x).
                    if d_vx < dv {
                        if swapped {
                            x.2 += 1; // literal listing: increment W(x)
                        } else {
                            w_v += 1; // definition: x witnesses v
                        }
                    }
                }
                f.push((v, dv, w_v));
            }
            f.into_iter().map(|(_, _, w)| w).collect()
        };

        // True censuses over the retrieved prefix of each candidate.
        let truth: Vec<usize> = stream
            .iter()
            .map(|&(x, dxq)| {
                stream
                    .iter()
                    .filter(|&&(y, _)| y != x)
                    .filter(|&&(y, _)| m.dist(ds.point(x), ds.point(y)) < dxq)
                    .count()
            })
            .collect();
        let correct = simulate(false);
        let swapped = simulate(true);
        // The corrected reading never overcounts the census (it sees only
        // discovered points), so W(x) <= truth and Assertion 1 stays sound.
        for (w, t) in correct.iter().zip(&truth) {
            assert!(w <= t, "corrected reading overcounted: {w} > {t}");
        }
        // The literal listing overcounts for some candidate — it would
        // reject points whose true census is below k.
        let overcounts = swapped.iter().zip(&truth).filter(|(w, t)| w > t).count();
        assert!(
            overcounts > 0,
            "the swapped listing should overcount witnesses somewhere"
        );
    }

    #[test]
    fn witness_shortcut_preserves_decisions() {
        // The engine skips distance computations for decided pairs; the
        // *decisions* must match a literal re-count: every lazily rejected
        // candidate truly has ≥ k witnesses among the retrieved set, every
        // lazily accepted one has < k witnesses in its complete census.
        let ds = uniform(400, 2, 57);
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let k = 5;
        let ans = query_once(
            &idx,
            idx.point(11),
            Some(11),
            RdtParams::new(k, 60.0),
            RdtVariant::Plain,
        );
        // Re-derive censuses by brute force over the whole dataset (the
        // filter phase retrieved everything at t = 60).
        let metric = Euclidean;
        let truth_census = |x: usize| -> usize {
            let dxq = metric.dist(ds.point(x), ds.point(11));
            (0..ds.len())
                .filter(|&y| y != x && y != 11)
                .filter(|&y| metric.dist(ds.point(x), ds.point(y)) < dxq)
                .count()
        };
        let accepted: std::collections::HashSet<_> = ans.ids().into_iter().collect();
        let mut checked = 0;
        for x in 0..ds.len() {
            if x == 11 {
                continue;
            }
            let census = truth_census(x);
            if accepted.contains(&x) {
                assert!(census < k, "accepted {x} has census {census} >= k");
            } else {
                assert!(census >= k, "rejected {x} has census {census} < k");
            }
            checked += 1;
        }
        assert_eq!(checked, ds.len() - 1);
    }

    #[test]
    fn cancellation_aborts_and_absence_changes_nothing() {
        let ds = uniform(600, 3, 59);
        let idx = LinearScan::build(ds, Euclidean);
        let params = RdtParams::new(5, 30.0);
        let mut scratch = QueryScratch::new(3);
        // A pre-tripped token aborts before any work.
        let tripped = CancelToken::new();
        tripped.cancel();
        let got = run_query(
            &idx,
            idx.point(4),
            Some(4),
            params,
            RdtVariant::Plain,
            TSchedule::Fixed,
            &mut scratch,
            None,
            &tripped,
        );
        assert_eq!(got.unwrap_err(), Cancelled);
        // An untripped token is byte-identical to a never-token run,
        // including all work counters — the checkpoints only read.
        let live = CancelToken::with_deadline(std::time::Instant::now() + Duration::from_secs(60));
        let with_token = run_query(
            &idx,
            idx.point(4),
            Some(4),
            params,
            RdtVariant::Plain,
            TSchedule::Fixed,
            &mut scratch,
            None,
            &live,
        )
        .unwrap();
        let plain = query_once(&idx, idx.point(4), Some(4), params, RdtVariant::Plain);
        assert_eq!(with_token.ids(), plain.ids());
        assert_eq!(with_token.stats, plain.stats);
        let bits: Vec<u64> = with_token.result.iter().map(|n| n.dist.to_bits()).collect();
        let want: Vec<u64> = plain.result.iter().map(|n| n.dist.to_bits()).collect();
        assert_eq!(bits, want);
    }

    /// The witness pass exactly as the listing reads it: for every
    /// retrieval a full walk over the filter set, one `dist_lt` per pair
    /// with an open side at the larger open radius (`d(q, v)` while `v`
    /// needs witnesses, `d(q, x)` after), and the lazy accept checked in
    /// place. Cursor, termination and refinement mirror the engine, so the
    /// engine must match this reference bit for bit and counter for counter.
    fn reference_query<M: Metric, I: KnnIndex<M>>(
        index: &I,
        q: &[f64],
        exclude: Option<PointId>,
        params: RdtParams,
        variant: RdtVariant,
        schedule: TSchedule,
        dk_cache: Option<&DkCache>,
    ) -> RknnAnswer {
        let k = params.k;
        let metric = index.metric();
        let n = index
            .num_points()
            .saturating_sub(usize::from(exclude.is_some()));
        let (mut t, mut cap) = (params.t, params.rank_cap(n));
        let mut cursor_scratch = CursorScratch::new();
        let mut cursor = match schedule {
            TSchedule::Fixed => index.cursor_bounded(q, exclude, cap, &mut cursor_scratch),
            TSchedule::Adaptive { .. } => index.cursor_with(q, exclude, &mut cursor_scratch),
        };
        let mut filter: Vec<FilterCandidate> = Vec::new();
        let (mut s, mut excluded, mut lazy_accepts) = (0usize, 0usize, 0usize);
        let (mut witness_pairs, mut witness_dist_comps) = (0u64, 0u64);
        let (mut sum_ln_d, mut pos_count) = (0.0f64, 0usize);
        let mut test_armed = matches!(schedule, TSchedule::Fixed);
        let mut omega = f64::INFINITY;
        let mut termination = Termination::Exhausted;
        while let Some(v) = cursor.next() {
            s += 1;
            if let TSchedule::Adaptive { safety } = schedule {
                if v.dist > 0.0 {
                    sum_ln_d += v.dist.ln();
                    pos_count += 1;
                }
                if pos_count >= k.max(8) {
                    let denom = pos_count as f64 * v.dist.ln() - sum_ln_d;
                    if denom > 0.0 {
                        let new_t = (safety * pos_count as f64 / denom).max(params.t);
                        if new_t.is_finite() && new_t > 0.0 {
                            t = new_t;
                            cap = RdtParams::new(k, t).rank_cap(n);
                            test_armed = true;
                        }
                    }
                }
            }
            let v_point = index.point(v.id);
            let mut w_v = 0usize;
            if variant != RdtVariant::NoWitness {
                witness_pairs += filter.len() as u64;
                for x in filter.iter_mut() {
                    let x_open = !x.accepted && x.witnesses < k;
                    if x_open || w_v < k {
                        witness_dist_comps += 1;
                        let radius = if w_v < k { v.dist } else { x.dist };
                        if let Some(d) = metric.dist_lt(v_point, index.point(x.id), radius) {
                            if x_open && d < x.dist {
                                x.witnesses += 1;
                            }
                            if w_v < k && d < v.dist {
                                w_v += 1;
                            }
                        }
                    }
                    if !x.accepted && x.witnesses < k && v.dist >= 2.0 * x.dist {
                        x.accepted = true;
                        lazy_accepts += 1;
                    }
                }
            }
            if variant == RdtVariant::Plus && w_v >= k {
                excluded += 1;
            } else {
                filter.push(FilterCandidate {
                    id: v.id,
                    dist: v.dist,
                    witnesses: w_v,
                    accepted: false,
                });
            }
            if test_armed && s > k && v.dist > 0.0 {
                let denom = (s as f64 / k as f64).powf(1.0 / t) - 1.0;
                if denom > 0.0 {
                    omega = omega.min(v.dist / denom);
                }
            }
            if v.dist > omega {
                termination = Termination::Omega;
                break;
            }
            if test_armed && s >= cap {
                termination = if s >= n {
                    Termination::Exhausted
                } else {
                    Termination::RankCap
                };
                break;
            }
        }
        let mut search = cursor.stats();
        drop(cursor);
        // Each `d_k` comes from a bounded cursor, whose work is not
        // charged; the charges are the group verification's.
        let mut result = Vec::new();
        let (mut lazy_rejects, mut verified, mut verified_accepted) = (0usize, 0usize, 0usize);
        let mut misses = Vec::new();
        for cand in &filter {
            if cand.accepted {
                result.push(Neighbor::new(cand.id, cand.dist));
            } else if cand.witnesses >= k {
                lazy_rejects += 1;
            } else {
                verified += 1;
                let uncharged = &mut SearchStats::new();
                let dk = match dk_cache {
                    Some(c) => {
                        if c.get(cand.id).is_none() {
                            misses.push(*cand);
                        }
                        c.dk_or_compute(index, cand.id, &mut cursor_scratch, uncharged)
                    }
                    None => {
                        misses.push(*cand);
                        dk_via_cursor(index, cand.id, k, &mut cursor_scratch, uncharged)
                    }
                };
                if dk >= cand.dist {
                    verified_accepted += 1;
                    result.push(Neighbor::new(cand.id, cand.dist));
                }
            }
        }
        // One distance per miss and filter row. A miss whose radius may
        // overflow is charged its own cursor; the others share the range
        // call at the largest radius, with one distance per such miss and
        // ball row.
        search.count_dists(misses.len() as u64 * filter.len() as u64);
        let (mut radius, mut in_ball) = (0.0f64, 0u64);
        for p in &misses {
            let mut others: Vec<f64> = filter
                .iter()
                .filter(|x| x.id != p.id)
                .map(|x| metric.dist(index.point(p.id), index.point(x.id)))
                .collect();
            others.sort_by(f64::total_cmp);
            let bound = others.get(k - 1).copied().unwrap_or(f64::INFINITY);
            let r = triangle_upper(p.dist, bound);
            if finite_up_to(metric, r) {
                radius = radius.max(r);
                in_ball += 1;
            } else {
                dk_via_cursor(index, p.id, k, &mut cursor_scratch, &mut search);
            }
        }
        if in_ball > 0 {
            let ball = index.range(q, radius, None, &mut search);
            search.count_dists(in_ball * ball.len() as u64);
        }
        rknn_core::neighbor::sort_neighbors(&mut result);
        RknnAnswer {
            result,
            stats: RdtQueryStats {
                retrieved: s,
                filter_set_size: filter.len(),
                excluded,
                lazy_accepts,
                lazy_rejects,
                verified,
                verified_accepted,
                witness_pairs,
                witness_dist_comps,
                omega,
                termination,
                search,
            },
        }
    }

    #[test]
    fn open_set_witness_pass_matches_the_row_by_row_reference() {
        // A tie-heavy integer grid (many duplicates and coincident
        // distances) and uniform data, large enough that full-scan filter
        // sets cross several WITNESS_TILE blocks.
        let mut rng = SmallRng::seed_from_u64(60);
        let grid_rows: Vec<Vec<f64>> = (0..300)
            .map(|_| (0..2).map(|_| rng.random_range(0u32..6) as f64).collect())
            .collect();
        let grid = Dataset::from_rows(&grid_rows).unwrap().into_shared();
        let runs = [
            (RdtVariant::Plain, TSchedule::Fixed),
            (RdtVariant::Plus, TSchedule::Fixed),
            (RdtVariant::NoWitness, TSchedule::Fixed),
            (RdtVariant::Plain, TSchedule::Adaptive { safety: 1.0 }),
            (RdtVariant::Plus, TSchedule::Adaptive { safety: 2.0 }),
        ];
        let bits =
            |a: &RknnAnswer| -> Vec<u64> { a.result.iter().map(|n| n.dist.to_bits()).collect() };
        let mut cases = Vec::new();
        for t in [3.0, 20.0] {
            for run in runs {
                for cached in [false, true] {
                    cases.push((t, run, cached));
                }
            }
        }
        let mut scratch = QueryScratch::new(3);
        let mut widest_filter = 0usize;
        for ds in [grid, uniform(300, 3, 61)] {
            let idx = LinearScan::build(ds.clone(), Euclidean);
            let external = vec![2.5; ds.dim()];
            let queries = [
                (idx.point(0), Some(0)),
                (idx.point(150), Some(150)),
                (&external[..], None),
            ];
            for k in [1usize, 3, 10] {
                // A half-warm cache: verifications both hit and miss it.
                let warm = DkCache::new(k, ds.len());
                let mut cs = CursorScratch::new();
                for id in (0..ds.len()).step_by(2) {
                    warm.dk_or_compute(&idx, id, &mut cs, &mut SearchStats::new());
                }
                for &(t, (variant, schedule), cached) in &cases {
                    for &(q, exclude) in &queries {
                        let params = RdtParams::new(k, t);
                        let (c1, c2) = (warm.warm_copy(), warm.warm_copy());
                        let (c1, c2) = if cached {
                            (Some(&c1), Some(&c2))
                        } else {
                            (None, None)
                        };
                        let got = run_query(
                            &idx,
                            q,
                            exclude,
                            params,
                            variant,
                            schedule,
                            &mut scratch,
                            c1,
                            &CancelToken::never(),
                        )
                        .unwrap();
                        let want = reference_query(&idx, q, exclude, params, variant, schedule, c2);
                        let dim = ds.dim();
                        let ctx = format!(
                            "dim={dim} k={k} t={t} {variant:?} {schedule:?} {exclude:?} {cached}"
                        );
                        assert_eq!(got.ids(), want.ids(), "{ctx}");
                        assert_eq!(bits(&got), bits(&want), "{ctx}");
                        assert_eq!(got.stats, want.stats, "{ctx}");
                        assert_eq!(
                            got.stats.omega.to_bits(),
                            want.stats.omega.to_bits(),
                            "{ctx}"
                        );
                        // The group's thresholds are the cursors' bit for bit.
                        if let (Some(c1), Some(c2)) = (c1, c2) {
                            for id in 0..ds.len() {
                                let bits = |c: &DkCache| c.get(id).map(f64::to_bits);
                                assert_eq!(bits(c1), bits(c2), "{ctx} id={id}");
                            }
                            assert_eq!(c1.hit_stats(), c2.hit_stats(), "{ctx}");
                        }
                        widest_filter = widest_filter.max(got.stats.filter_set_size);
                    }
                }
            }
        }
        assert!(
            widest_filter > 4 * WITNESS_TILE,
            "filter sets must cross several tile blocks: {widest_filter}"
        );
    }

    #[test]
    fn the_group_radius_absorbs_rounding_on_near_collinear_points() {
        // A query `q` and two points `p`, `x` on one line, `p` between
        // them, each coordinate rounded: the computed `d(q, x)` exceeds
        // `d(q, p) + d(p, x)`. With `x` the only other filter member, `p`'s
        // bound is `u_p = d(p, x)`, so a ball of radius `d(q, p) + u_p`
        // would leave `x` out and give `p` no neighbor at all.
        let line = |t: f64| vec![0.3 + 0.7 * t, 1.1 + 1.3 * t, -0.2 + 0.9 * t];
        let metric = Euclidean;
        let (q, p, x) = (1..10_000)
            .map(|i| {
                let t = 1.0 + 0.0137 * i as f64;
                (line(0.0), line(t), line(t + 0.61))
            })
            .find(|(q, p, x)| metric.dist(q, x) > metric.dist(q, p) + metric.dist(p, x))
            .expect("rounding breaks the triangle inequality on some triple");
        let idx = LinearScan::build(
            Dataset::from_rows(&[p.clone(), x.clone()])
                .unwrap()
                .into_shared(),
            metric,
        );
        // The filter set as the filter phase would leave it: `p` open, `x`
        // decided, so `p` is the one miss.
        let mut scratch = QueryScratch::new(3);
        for (id, row, witnesses) in [(0, &p, 0), (1, &x, 1)] {
            scratch.filter.push(FilterCandidate {
                id,
                dist: metric.dist(&q, row),
                witnesses,
                accepted: false,
            });
            scratch.tile.push(row);
        }
        let stats = RdtQueryStats {
            retrieved: 2,
            filter_set_size: 2,
            excluded: 0,
            lazy_accepts: 0,
            lazy_rejects: 0,
            verified: 0,
            verified_accepted: 0,
            witness_pairs: 0,
            witness_dist_comps: 0,
            omega: f64::INFINITY,
            termination: Termination::Exhausted,
            search: SearchStats::new(),
        };
        let cache = DkCache::new(1, 2);
        let never = CancelToken::never();
        let ans = refine(&idx, &q, 1, stats, &mut scratch, Some(&cache), &never).unwrap();
        let want = dk_via_cursor(
            &idx,
            0,
            1,
            &mut CursorScratch::new(),
            &mut SearchStats::new(),
        );
        assert_eq!(want, metric.dist(&p, &x));
        assert_eq!(cache.get(0).map(f64::to_bits), Some(want.to_bits()));
        assert_eq!((ans.stats.verified, ans.stats.lazy_rejects), (1, 1));
    }

    #[test]
    fn external_query_location() {
        let ds = uniform(200, 2, 55);
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        let q = vec![5.0, 5.0];
        let ans = query_once(&idx, &q, None, RdtParams::new(5, 40.0), RdtVariant::Plain);
        let mut st = SearchStats::new();
        let truth = bf.rknn_external(&q, 5, &mut st);
        assert_eq!(ans.ids(), truth.iter().map(|n| n.id).collect::<Vec<_>>());
    }
}
