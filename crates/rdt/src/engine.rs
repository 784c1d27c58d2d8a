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
//!    fewer than `k` witnesses is verified by a forward kNN query
//!    (`d_k(v) ≥ d(q,v)`); candidates with `W ≥ k` are lazily rejected
//!    (Assertion 1) at zero additional cost.
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
    CancelToken, Cancelled, CursorScratch, FilterCandidate, Metric, Neighbor, PointId,
    QueryScratch, SearchStats,
};
use rknn_index::KnnIndex;

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
/// default `knn` path.
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
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The rank this cache's thresholds were computed at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `(hits, misses)` so far.
    pub fn hit_stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        (self.hits.load(Relaxed), self.misses.load(Relaxed))
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
    /// bit pattern is a value a fresh computation would also produce.
    pub fn warm_copy(&self) -> DkCache {
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        DkCache {
            k: self.k,
            vals: self
                .vals
                .iter()
                .map(|s| AtomicU64::new(s.load(Relaxed)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns `d_k(id)`, computing it with one bounded forward cursor over
    /// the caller's scratch on a cache miss (`stats` absorbs the miss's
    /// index work). Ids beyond the cache's pre-sized range (points inserted
    /// after cache construction) are computed but not cached.
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
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(slot) = self.vals.get(id) {
            let bits = slot.load(Relaxed);
            if bits != Self::UNSET {
                self.hits.fetch_add(1, Relaxed);
                return f64::from_bits(bits);
            }
        }
        let dk = dk_via_cursor(index, id, self.k, scratch, stats);
        debug_assert!(dk.to_bits() != Self::UNSET);
        if let Some(slot) = self.vals.get(id) {
            slot.store(dk.to_bits(), Relaxed);
        }
        self.misses.fetch_add(1, Relaxed);
        dk
    }

    /// Extends the cached id range to `n` slots (new slots unset), so
    /// points inserted after construction get cached thresholds too.
    /// `&mut self`: maintenance runs between batches, never concurrently
    /// with queries.
    pub fn grow(&mut self, n: usize) {
        if n > self.vals.len() {
            self.vals
                .resize_with(n, || std::sync::atomic::AtomicU64::new(Self::UNSET));
        }
    }

    /// Localized invalidation after inserting or deleting point `p`: evicts
    /// exactly the slots whose cached ball contains `p`, plus `p`'s own,
    /// and returns how many were evicted.
    ///
    /// Soundness in both directions: an insert of `p` lowers `d_k(x)` only
    /// if `d(x, p) < d_k(x)`; a delete of `p` raises `d_k(x)` only if `p`
    /// was among `x`'s `k` nearest, i.e. `d(x, p) <= d_k(x)` against the
    /// still-cached pre-delete threshold. Evicting on `d(x, p) <= d_k(x)`
    /// therefore covers every slot either update can change (a `+∞`
    /// threshold always evicts — fewer than `k` neighbors existed, so any
    /// insert can finish the rank). Every slot evaluation runs through
    /// [`Metric::dist_le`], abandoning against the cached threshold, and is
    /// charged to `stats` — this is the per-update maintenance cost the
    /// dynamic experiments report.
    pub fn invalidate_near<M, I>(&mut self, index: &I, p: PointId, stats: &mut SearchStats) -> usize
    where
        M: Metric,
        I: KnnIndex<M> + ?Sized,
    {
        const BLOCK: usize = 8;
        let metric = index.metric();
        let pc = index.point(p);
        let mut evicted = 0usize;
        let mut visit = |x: usize, slot: &mut std::sync::atomic::AtomicU64| {
            let bits = *slot.get_mut();
            if bits == Self::UNSET {
                return;
            }
            if x == p {
                *slot.get_mut() = Self::UNSET;
                evicted += 1;
                return;
            }
            stats.count_dist();
            if metric
                .dist_le(index.point(x), pc, f64::from_bits(bits))
                .is_some()
            {
                *slot.get_mut() = Self::UNSET;
                evicted += 1;
            }
        };
        // Whole blocks of unset slots (all of a cold cache) are skipped by
        // one branch-free test each instead of a branch per slot.
        let tail = self.vals.len() - self.vals.len() % BLOCK;
        let mut blocks = self.vals.chunks_exact_mut(BLOCK);
        for (b, block) in (&mut blocks).enumerate() {
            if block
                .iter_mut()
                .fold(true, |unset, s| unset & (*s.get_mut() == Self::UNSET))
            {
                continue;
            }
            for (j, slot) in block.iter_mut().enumerate() {
                visit(b * BLOCK + j, slot);
            }
        }
        for (j, slot) in blocks.into_remainder().iter_mut().enumerate() {
            visit(tail + j, slot);
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
/// already-known point skip the forward kNN query and reuse the exact
/// threshold value, so their `verified` counter is unchanged but their
/// index work shrinks. Without one (`None`), every verification runs its
/// own bounded forward kNN.
///
/// `cancel` is checked at block granularity: once per `WITNESS_TILE` (32)
/// retrievals during the filter phase and before each forward-kNN
/// verification during refinement — the two places where a query spends
/// unbounded time. A query whose token never trips
/// ([`CancelToken::never`]) always returns `Ok`, and a live token that
/// does not trip changes nothing (results, counters, terminations); a
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
/// comparisons and the verification kNN agree bitwise.
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
    refine(index, params.k, stats, scratch, dk_cache, cancel)
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
/// Completes the filter-phase `stats` and assembles the answer.
fn refine<M, I>(
    index: &I,
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
    let mut verify_stats = SearchStats::new();
    for cand in &scratch.filter {
        if cand.accepted {
            result.push(Neighbor::new(cand.id, cand.dist));
            continue;
        }
        if cand.witnesses >= k {
            stats.lazy_rejects += 1; // Assertion 1: cannot be a reverse neighbor.
            continue;
        }
        // Each verification is one bounded forward-kNN query — the
        // refinement-phase block — so the checkpoint sits in front of it.
        if cancel.is_cancelled() {
            return Err(Cancelled);
        }
        stats.verified += 1;
        // The filter-phase cursor has released the cursor scratch, so the
        // verification queries reuse the same buffers on any substrate.
        let cursor = &mut scratch.cursor;
        let dk = match dk_cache {
            Some(cache) => cache.dk_or_compute(index, cand.id, cursor, &mut verify_stats),
            None => dk_via_cursor(index, cand.id, k, cursor, &mut verify_stats),
        };
        if dk >= cand.dist {
            stats.verified_accepted += 1;
            result.push(Neighbor::new(cand.id, cand.dist));
        }
    }
    stats.search.absorb(&verify_stats);
    rknn_core::neighbor::sort_neighbors(&mut result);
    Ok(RknnAnswer { result, stats })
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

    #[test]
    fn invalidate_near_evicts_exactly_the_balls_holding_the_point() {
        // 37 slots: four blocks of 8 and a tail of 5. Blocks 0 and 2 stay
        // unset; blocks 1 and 3 and the tail hold thresholds.
        let ds = uniform(37, 2, 5);
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let mut cs = CursorScratch::new();
        let mut neighbours_evicted = 0;
        for p in [0, 12, 34] {
            let mut cache = DkCache::new(8, ds.len());
            for x in (0..ds.len()).filter(|x| (x / 8) % 2 == 1 || *x >= 32) {
                cache.dk_or_compute(&idx, x, &mut cs, &mut SearchStats::new());
            }
            let before: Vec<u64> = cache.vals.iter_mut().map(|s| *s.get_mut()).collect();
            let mut stats = SearchStats::new();
            let evicted = cache.invalidate_near(&idx, p, &mut stats);
            let (mut want_evicted, mut want_dists) = (0, 0);
            for (x, &bits) in before.iter().enumerate() {
                let after = *cache.vals[x].get_mut();
                if bits == DkCache::UNSET {
                    assert_eq!(after, DkCache::UNSET, "p={p} x={x}");
                    continue;
                }
                want_dists += u64::from(x != p);
                let d = Euclidean.dist(ds.point(x), ds.point(p));
                if x == p || d <= f64::from_bits(bits) {
                    want_evicted += 1;
                    neighbours_evicted += usize::from(x != p);
                    assert_eq!(after, DkCache::UNSET, "p={p} x={x}");
                } else {
                    assert_eq!(after, bits, "p={p} x={x}");
                }
            }
            assert_eq!(evicted, want_evicted, "p={p}");
            assert_eq!(stats.dist_computations, want_dists, "p={p}");
        }
        assert!(neighbours_evicted > 3, "the cases must evict neighbours");
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
        let mut result = Vec::new();
        let (mut lazy_rejects, mut verified, mut verified_accepted) = (0usize, 0usize, 0usize);
        for cand in &filter {
            if cand.accepted {
                result.push(Neighbor::new(cand.id, cand.dist));
            } else if cand.witnesses >= k {
                lazy_rejects += 1;
            } else {
                verified += 1;
                let dk = match dk_cache {
                    Some(c) => c.dk_or_compute(index, cand.id, &mut cursor_scratch, &mut search),
                    None => dk_via_cursor(index, cand.id, k, &mut cursor_scratch, &mut search),
                };
                if dk >= cand.dist {
                    verified_accepted += 1;
                    result.push(Neighbor::new(cand.id, cand.dist));
                }
            }
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
