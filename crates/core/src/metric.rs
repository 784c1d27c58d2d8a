//! Distance measures.
//!
//! The paper's analysis (§5) holds for *any* metric — any distance for which
//! the triangle inequality holds. The experiments use the Euclidean distance
//! "so that our method could be tested against competitors that require it"
//! (§7.1); we default to [`struct@Euclidean`] but also provide the rest of the
//! Minkowski family so metric-capable components (cover tree, VP-tree,
//! M-tree, RDT itself) can be exercised beyond L2.
//!
//! All four provided metrics evaluate through the runtime-dispatched SIMD
//! kernels of [`crate::kernel`]: every accumulation — full distances,
//! early-abandoned [`Metric::dist_lt`] evaluations, the one-query-to-many
//! [`Metric::dist_tile`] kernel, and the box bounds — uses the same
//! canonical 4-lane blocked order, so results are bit-identical across the
//! scalar and AVX2 backends *and* across the one-to-one and tile entry
//! points.

use crate::kernel::{self, KernelOps, KernelTier, LANES};
use std::fmt::Debug;

/// A metric distance over coordinate vectors.
///
/// Implementations must satisfy the metric axioms on finite inputs:
/// non-negativity, identity of indiscernibles, symmetry, and the triangle
/// inequality. Property tests in this crate check these axioms for every
/// provided implementation.
pub trait Metric: Send + Sync + Debug {
    /// The distance `d(a, b)`.
    ///
    /// # Panics
    ///
    /// May panic if `a.len() != b.len()`.
    fn dist(&self, a: &[f64], b: &[f64]) -> f64;

    /// Threshold-pruned distance: `Some(d(a, b))` when `d(a, b) < bound`,
    /// `None` otherwise.
    ///
    /// The contract is *decision equivalence* with [`Metric::dist`]: the
    /// returned option must be `Some(d)` exactly when `self.dist(a, b) <
    /// bound`, and the carried `d` must be the identical floating-point
    /// value `dist` would produce. Implementations are free to abandon the
    /// accumulation early once a monotone partial sum proves the bound
    /// unreachable (the standard early-abandonment trick of
    /// high-dimensional search); the Minkowski family here does exactly
    /// that, checking the combined 4-lane partial accumulator every
    /// [`kernel::CHECK_EVERY`] coordinates. The default implementation
    /// evaluates the full distance.
    ///
    /// Callers that count distance computations should count a `dist_lt`
    /// call as **one** evaluation whether or not it abandoned early: early
    /// abandonment changes the per-evaluation coordinate work, not the
    /// number of evaluations.
    #[inline]
    fn dist_lt(&self, a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
        let d = self.dist(a, b);
        (d < bound).then_some(d)
    }

    /// Threshold-pruned distance for *selection* against a possibly
    /// unbounded threshold: like [`Metric::dist_lt`], except an infinite
    /// `bound` admits every distance — including distances that overflow to
    /// `+∞` on finite coordinates — instead of applying a strict comparison
    /// no infinite value can win.
    ///
    /// Use this wherever "no threshold yet" is encoded as `bound = +∞` (kNN
    /// heaps that are still filling, unbounded cursor streams): a
    /// completeness contract must not silently drop overflowing points.
    /// Keep [`Metric::dist_lt`] for genuine strict comparisons against
    /// finite radii.
    ///
    /// The returned distance is the `dist` value, bit-stable across
    /// backends, entry points and processes.
    #[inline]
    fn dist_under(&self, a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
        if bound == f64::INFINITY {
            Some(self.dist(a, b))
        } else {
            self.dist_lt(a, b, bound)
        }
    }

    /// Threshold-pruned distance for *closed-ball* decisions: `Some(d(a,
    /// b))` when `d(a, b) <= bound`, `None` otherwise.
    ///
    /// Containment tests (`d(q, p) ≤ d_k(p)` in the RdNN-Tree, `d ≤ ub(k)`
    /// in MRkNNCoP) compare against inclusive radii, where the strict
    /// [`Metric::dist_lt`] would wrongly reject exact ties. For finite
    /// bounds, `d <= bound` is exactly `d < bound.next_up()`, so the
    /// default implementation inherits every metric's early-abandoning
    /// `dist_lt` unchanged; an infinite bound admits everything (including
    /// distances overflowing to `+∞`). Decision equivalence with
    /// [`Metric::dist`] and the one-call-one-evaluation counting convention
    /// carry over verbatim.
    #[inline]
    fn dist_le(&self, a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
        if bound == f64::INFINITY {
            Some(self.dist(a, b))
        } else {
            self.dist_lt(a, b, bound.next_up())
        }
    }

    /// One query against a contiguous block of row-padded points: for each
    /// row `i`, `out[i]` is the distance when
    /// [`Metric::dist_under`]`(q, row_i, bounds[i])` would admit it, and
    /// `NaN` when it would prune — with the admitted value bit-identical to
    /// the one-to-one evaluation.
    ///
    /// `rows` holds `out.len()` rows of `stride` coordinates each, of which
    /// the first `dim` are the point and the remainder is padding;
    /// `bounds[i]` is row `i`'s pruning bound with `dist_under` semantics.
    /// The Minkowski-family implementations stream the whole padded row
    /// through the dispatched SIMD kernel — amortizing the per-call
    /// dispatch, bound transforms and threshold loads across the block, and
    /// letting the hardware prefetch sequential rows — which requires the
    /// caller to uphold the **padded-tile contract**: `stride` a multiple
    /// of [`kernel::LANES`], `q.len() == stride`, and every coordinate past
    /// `dim` (in `q` and in each row) equal on both sides (canonically
    /// `0.0`), so pad terms contribute `+0.0` and the canonical
    /// accumulation is untouched. When the layout does not satisfy the
    /// contract, implementations fall back to this default row-by-row
    /// evaluation over the logical slices.
    ///
    /// Callers that count distance computations count **one evaluation per
    /// row** they consume, exactly as if they had called `dist_under` per
    /// row.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are inconsistent (`rows.len() !=
    /// out.len() * stride`, `bounds.len() != out.len()`, or `dim > stride`).
    fn dist_tile(
        &self,
        q: &[f64],
        rows: &[f64],
        stride: usize,
        dim: usize,
        bounds: &[f64],
        out: &mut [f64],
    ) {
        fallback_dist_tile(self, q, rows, stride, dim, bounds, out);
    }

    /// A human-readable name, used in experiment reports.
    fn name(&self) -> &'static str;

    /// The kernel tier this instance evaluates under: always
    /// [`KernelTier::Exact`]. Kept only because the repository benchmark
    /// reports it; it goes with [`KernelTier`] once the benchmark stops
    /// reading it.
    #[inline]
    fn tier(&self) -> KernelTier {
        KernelTier::Exact
    }

    /// Smallest distance from `q` to any point of the axis-aligned box
    /// `[lo, hi]` (the `MINDIST` of R-tree literature).
    ///
    /// Returns `None` when the metric does not support box lower bounds, in
    /// which case box-based indexes cannot be used with it.
    fn box_min_dist(&self, _q: &[f64], _lo: &[f64], _hi: &[f64]) -> Option<f64> {
        None
    }

    /// Largest distance from `q` to any point of the axis-aligned box
    /// `[lo, hi]` (the `MAXDIST` bound).
    fn box_max_dist(&self, _q: &[f64], _lo: &[f64], _hi: &[f64]) -> Option<f64> {
        None
    }
}

/// Validates tile-call slice lengths shared by every implementation.
#[inline]
fn check_tile(rows: &[f64], stride: usize, dim: usize, bounds: &[f64], out: &mut [f64]) {
    assert!(dim <= stride, "tile dim {dim} exceeds stride {stride}");
    assert_eq!(rows.len(), out.len() * stride, "tile rows length mismatch");
    assert_eq!(bounds.len(), out.len(), "tile bounds length mismatch");
}

/// The default [`Metric::dist_tile`] body: row-by-row `dist_under` over the
/// logical (unpadded) slices. Factored out so kernel-backed implementations
/// can fall back to it when the padded-tile contract does not hold.
fn fallback_dist_tile<M: Metric + ?Sized>(
    metric: &M,
    q: &[f64],
    rows: &[f64],
    stride: usize,
    dim: usize,
    bounds: &[f64],
    out: &mut [f64],
) {
    check_tile(rows, stride, dim, bounds, out);
    if out.is_empty() {
        return;
    }
    let q = &q[..dim];
    for ((row, &b), o) in rows
        .chunks_exact(stride.max(1))
        .zip(bounds)
        .zip(out.iter_mut())
    {
        *o = metric.dist_under(q, &row[..dim], b).unwrap_or(f64::NAN);
    }
}

/// Whether a tile call satisfies the padded-tile contract well enough to go
/// through the SIMD kernels (pad *values* are the caller's obligation and
/// cannot be checked here without touching every row).
#[inline]
fn kernel_tile_ok(q: &[f64], stride: usize) -> bool {
    stride > 0 && stride.is_multiple_of(LANES) && q.len() == stride
}

/// Row-by-row tile driver for [`Minkowski`], whose `powf` terms have no
/// kernel tile entry: per row, early-abandoning accumulation with
/// [`Metric::dist_under`] semantics. `transform` maps a finite distance
/// bound into the accumulator domain (conservatively, so abandonment proves
/// `d >= bound`); `finish` maps a completed accumulator back to a distance.
/// An infinite bound admits every row, so those rows skip the threshold
/// checks entirely and run the plain `full` reduction — the completed
/// accumulator is the same canonical value either way (and a hypothetical
/// abandonment at a partial of `+∞` would only ever stand in for a `+∞`
/// total, which `finish` maps to the same `+∞` distance).
#[inline]
#[allow(clippy::too_many_arguments)] // one slot per tile buffer; private helper
fn tile_via_until(
    q: &[f64],
    rows: &[f64],
    stride: usize,
    bounds: &[f64],
    out: &mut [f64],
    full: impl Fn(&[f64], &[f64]) -> f64,
    until: impl Fn(&[f64], &[f64], f64) -> Option<f64>,
    transform: impl Fn(f64) -> f64,
    finish: impl Fn(f64) -> f64,
) {
    for ((row, &b), o) in rows.chunks_exact(stride).zip(bounds).zip(out.iter_mut()) {
        *o = if b == f64::INFINITY {
            finish(full(q, row))
        } else {
            match until(q, row, transform(b)) {
                Some(acc) => {
                    let d = finish(acc);
                    if d < b {
                        d
                    } else {
                        f64::NAN
                    }
                }
                None => f64::NAN,
            }
        };
    }
}

/// Per-coordinate gap to the box `[lo, hi]` (zero inside).
#[inline(always)]
fn box_gap(qi: f64, l: f64, h: f64) -> f64 {
    if qi < l {
        l - qi
    } else if qi > h {
        qi - h
    } else {
        0.0
    }
}

/// Per-coordinate farthest gap to the box `[lo, hi]`.
#[inline(always)]
fn box_far_gap(qi: f64, l: f64, h: f64) -> f64 {
    (qi - l).abs().max((h - qi).abs())
}

/// Folds box-gap terms in the **canonical lane order** of
/// [`crate::kernel`]: term `i` into lane `i mod 4`, lanes combined as
/// `(l0 + l1) + (l2 + l3)`.
///
/// Sharing the canonical order with the point-to-point kernels is
/// load-bearing, not cosmetic: for a point `p` inside the box, each gap term
/// is `<=` the corresponding point term, and a same-order monotone
/// accumulation of smaller non-negative terms yields a smaller (or equal)
/// lane — so `box_min_dist(q, lo, hi) <= dist(q, p)` holds *exactly*, not
/// just up to rounding, and best-first traversals can use box bounds for
/// pruning without ever contradicting a point distance by one ulp. The
/// symmetric argument gives `box_max_dist >= dist` exactly.
#[inline]
fn box_fold_sum<G: Fn(f64, f64, f64) -> f64, T: Fn(f64) -> f64>(
    q: &[f64],
    lo: &[f64],
    hi: &[f64],
    gap: G,
    term: T,
) -> f64 {
    let mut l = [0.0f64; LANES];
    for (i, ((&qi, &lv), &hv)) in q.iter().zip(lo).zip(hi).enumerate() {
        l[i % LANES] += term(gap(qi, lv, hv));
    }
    (l[0] + l[1]) + (l[2] + l[3])
}

/// [`box_fold_sum`] under `max` instead of `+`.
#[inline]
fn box_fold_max<G: Fn(f64, f64, f64) -> f64>(q: &[f64], lo: &[f64], hi: &[f64], gap: G) -> f64 {
    let mut l = [0.0f64; LANES];
    for (i, ((&qi, &lv), &hv)) in q.iter().zip(lo).zip(hi).enumerate() {
        l[i % LANES] = l[i % LANES].max(gap(qi, lv, hv));
    }
    l[0].max(l[1]).max(l[2].max(l[3]))
}

/// The dispatched kernel table (cached per process).
#[inline]
fn ops() -> &'static KernelOps {
    kernel::selected()
}

/// Rows per kernel tile call in [`euclid_tile`]: the size of its
/// on-stack threshold buffer.
const THRESHOLD_CHUNK: usize = 64;

/// Euclidean tile body over the fused
/// [`KernelOps::sum_sq_tile`] entry. Each finite bound becomes its
/// [`euclid_threshold`] (an infinite bound stays `+∞`, admitting
/// everything); the kernel drops rows whose completed sum reaches it, and
/// the survivors take the square root and the exact `d < bound` decision —
/// the same steps as the one-to-one `dist_lt`, hence the same bits.
fn euclid_tile(q: &[f64], rows: &[f64], stride: usize, bounds: &[f64], out: &mut [f64]) {
    let k = ops();
    let mut thresholds = [0.0f64; THRESHOLD_CHUNK];
    for ((rows, bounds), out) in rows
        .chunks(THRESHOLD_CHUNK * stride)
        .zip(bounds.chunks(THRESHOLD_CHUNK))
        .zip(out.chunks_mut(THRESHOLD_CHUNK))
    {
        let thresholds = &mut thresholds[..bounds.len()];
        for (t, &b) in thresholds.iter_mut().zip(bounds) {
            *t = euclid_threshold(b);
        }
        k.sum_sq_tile(q, rows, stride, thresholds, out);
        for (o, &b) in out.iter_mut().zip(bounds) {
            let d = o.sqrt();
            *o = if d < b || b == f64::INFINITY {
                d
            } else {
                f64::NAN
            };
        }
    }
}

/// Adapter that disables threshold pruning on an inner metric: every
/// [`Metric::dist_lt`] call evaluates the full distance via the default
/// implementation.
///
/// This is the reference "sequential scalar path": benchmarks use it as
/// the un-optimized baseline, and equivalence tests run the same workload
/// through `FullPrecision<M>` and `M` to prove early abandonment changes
/// no decision, result, or counter. (`dist_tile` likewise stays on the
/// unpruned row-by-row default.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullPrecision<M>(pub M);

impl<M: Metric> Metric for FullPrecision<M> {
    #[inline]
    fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        self.0.dist(a, b)
    }

    // dist_lt and dist_tile deliberately NOT forwarded: the trait defaults
    // compute the full distance and compare, which is the point of this
    // adapter.

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn box_min_dist(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> Option<f64> {
        self.0.box_min_dist(q, lo, hi)
    }

    fn box_max_dist(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> Option<f64> {
        self.0.box_max_dist(q, lo, hi)
    }
}

/// The Euclidean (L2) distance — the paper's experimental metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Euclidean;

/// The early-abandonment threshold for a finite Euclidean bound: the
/// squared bound, inflated by a few ulps so that a partial sum crossing the
/// threshold *guarantees* `sqrt(total) >= bound` (squaring the bound
/// rounds, sqrt rounds back; without the margin a one-ulp disagreement with
/// the exact `dist < bound` test would be possible at the boundary). A
/// completed accumulation is decided by the exact comparison, so decisions
/// always match `dist`. The `.max` keeps a tiny positive bound (whose
/// square underflows to zero) from abandoning the exact-zero distance it
/// still admits.
#[inline(always)]
fn euclid_threshold(bound: f64) -> f64 {
    ((bound * bound) * (1.0 + 4.0 * f64::EPSILON)).max(f64::MIN_POSITIVE)
}

impl Euclidean {
    /// The one Euclidean metric, [`struct@Euclidean`] itself. Kept only
    /// because the repository benchmark spells its metric this way; it goes
    /// once the benchmark writes plain `Euclidean`.
    pub const fn exact() -> Euclidean {
        Euclidean
    }

    /// Squared Euclidean distance; cheaper when only comparisons are
    /// needed.
    #[inline]
    pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        ops().sum_sq(a, b)
    }
}

impl Metric for Euclidean {
    #[inline]
    fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        ops().sum_sq(a, b).sqrt()
    }

    #[inline]
    fn dist_lt(&self, a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
        let acc = ops().sum_sq_until(a, b, euclid_threshold(bound))?;
        let d = acc.sqrt();
        (d < bound).then_some(d)
    }

    fn dist_tile(
        &self,
        q: &[f64],
        rows: &[f64],
        stride: usize,
        dim: usize,
        bounds: &[f64],
        out: &mut [f64],
    ) {
        if !kernel_tile_ok(q, stride) {
            return fallback_dist_tile(self, q, rows, stride, dim, bounds, out);
        }
        check_tile(rows, stride, dim, bounds, out);
        euclid_tile(q, rows, stride, bounds, out);
    }

    fn name(&self) -> &'static str {
        "euclidean"
    }

    fn box_min_dist(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> Option<f64> {
        Some(box_fold_sum(q, lo, hi, box_gap, |g| g * g).sqrt())
    }

    fn box_max_dist(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> Option<f64> {
        Some(box_fold_sum(q, lo, hi, box_far_gap, |g| g * g).sqrt())
    }
}

/// The Manhattan (L1) distance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Manhattan;

impl Metric for Manhattan {
    #[inline]
    fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        ops().sum_abs(a, b)
    }

    #[inline]
    fn dist_lt(&self, a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
        // L1 needs no transform of the bound, so no margin: the partial sum
        // is the distance prefix itself.
        let d = ops().sum_abs_until(a, b, bound)?;
        (d < bound).then_some(d)
    }

    fn dist_tile(
        &self,
        q: &[f64],
        rows: &[f64],
        stride: usize,
        dim: usize,
        bounds: &[f64],
        out: &mut [f64],
    ) {
        if !kernel_tile_ok(q, stride) {
            return fallback_dist_tile(self, q, rows, stride, dim, bounds, out);
        }
        check_tile(rows, stride, dim, bounds, out);
        // The accumulation is the distance itself, so the bounds serve as
        // the kernel's thresholds and its decision is `dist_under`'s.
        ops().sum_abs_tile(q, rows, stride, bounds, out);
    }

    fn name(&self) -> &'static str {
        "manhattan"
    }

    fn box_min_dist(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> Option<f64> {
        Some(box_fold_sum(q, lo, hi, box_gap, |g| g))
    }

    fn box_max_dist(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> Option<f64> {
        Some(box_fold_sum(q, lo, hi, box_far_gap, |g| g))
    }
}

/// The Chebyshev (L∞) distance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Chebyshev;

impl Metric for Chebyshev {
    #[inline]
    fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        ops().max_abs(a, b)
    }

    #[inline]
    fn dist_lt(&self, a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
        // The running maximum only grows, so a partial maximum reaching the
        // bound settles the comparison immediately and exactly.
        let d = ops().max_abs_until(a, b, bound)?;
        (d < bound).then_some(d)
    }

    fn dist_tile(
        &self,
        q: &[f64],
        rows: &[f64],
        stride: usize,
        dim: usize,
        bounds: &[f64],
        out: &mut [f64],
    ) {
        if !kernel_tile_ok(q, stride) {
            return fallback_dist_tile(self, q, rows, stride, dim, bounds, out);
        }
        check_tile(rows, stride, dim, bounds, out);
        // As for Manhattan: the bounds are the thresholds.
        ops().max_abs_tile(q, rows, stride, bounds, out);
    }

    fn name(&self) -> &'static str {
        "chebyshev"
    }

    fn box_min_dist(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> Option<f64> {
        Some(box_fold_max(q, lo, hi, box_gap))
    }

    fn box_max_dist(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> Option<f64> {
        Some(box_fold_max(q, lo, hi, box_far_gap))
    }
}

/// The Minkowski (Lp) distance for `p ≥ 1`.
///
/// `powf` is only faithfully rounded and does not vectorize
/// bit-reproducibly, so the Lp accumulation runs through the shared scalar
/// kernel ([`kernel::sum_pow`]) on every backend — trivially bit-identical
/// across backends, and still in the canonical lane order so the tile and
/// one-to-one entry points agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minkowski {
    p: f64,
}

impl Minkowski {
    /// Creates an Lp metric. `p` must be `≥ 1` for the triangle inequality
    /// to hold.
    ///
    /// # Panics
    ///
    /// Panics if `p < 1` or `p` is not finite.
    pub fn new(p: f64) -> Self {
        assert!(
            p.is_finite() && p >= 1.0,
            "Minkowski requires finite p >= 1"
        );
        Minkowski { p }
    }

    /// The order `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The early-abandonment threshold for a finite Lp bound: `powf` is
    /// only faithfully rounded, so the transformed threshold gets a
    /// relative margin far wider than powf's error but far narrower than
    /// any distance gap that matters; a completed accumulation is again
    /// decided by the exact comparison.
    #[inline(always)]
    fn threshold(&self, bound: f64) -> f64 {
        (bound.powf(self.p) * (1.0 + 1e-12)).max(f64::MIN_POSITIVE)
    }
}

impl Metric for Minkowski {
    #[inline]
    fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        kernel::sum_pow(a, b, self.p).powf(1.0 / self.p)
    }

    #[inline]
    fn dist_lt(&self, a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
        let acc = kernel::sum_pow_until(a, b, self.p, self.threshold(bound))?;
        let d = acc.powf(1.0 / self.p);
        (d < bound).then_some(d)
    }

    fn dist_tile(
        &self,
        q: &[f64],
        rows: &[f64],
        stride: usize,
        dim: usize,
        bounds: &[f64],
        out: &mut [f64],
    ) {
        if !kernel_tile_ok(q, stride) {
            return fallback_dist_tile(self, q, rows, stride, dim, bounds, out);
        }
        check_tile(rows, stride, dim, bounds, out);
        let p = self.p;
        tile_via_until(
            q,
            rows,
            stride,
            bounds,
            out,
            |a, b| kernel::sum_pow(a, b, p),
            |a, b, t| kernel::sum_pow_until(a, b, p, t),
            |b| self.threshold(b),
            |acc| acc.powf(1.0 / p),
        );
    }

    fn name(&self) -> &'static str {
        "minkowski"
    }

    fn box_min_dist(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> Option<f64> {
        Some(box_fold_sum(q, lo, hi, box_gap, |g| g.powf(self.p)).powf(1.0 / self.p))
    }

    fn box_max_dist(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> Option<f64> {
        Some(box_fold_sum(q, lo, hi, box_far_gap, |g| g.powf(self.p)).powf(1.0 / self.p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn metrics() -> Vec<Box<dyn Metric>> {
        vec![
            Box::new(Euclidean),
            Box::new(Manhattan),
            Box::new(Chebyshev),
            Box::new(Minkowski::new(3.0)),
            Box::new(Minkowski::new(1.5)),
        ]
    }

    #[test]
    fn euclidean_matches_hand_computation() {
        let d = Euclidean.dist(&[0.0, 0.0], &[3.0, 4.0]);
        assert!((d - 5.0).abs() < 1e-12);
        assert!((Euclidean::dist_sq(&[0.0, 0.0], &[3.0, 4.0]) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn manhattan_and_chebyshev() {
        assert_eq!(Manhattan.dist(&[1.0, 2.0], &[4.0, 0.0]), 5.0);
        assert_eq!(Chebyshev.dist(&[1.0, 2.0], &[4.0, 0.0]), 3.0);
    }

    #[test]
    fn minkowski_interpolates() {
        // p = 1 equals Manhattan, p = 2 equals Euclidean.
        let a = [0.3, -1.2, 4.0];
        let b = [1.0, 0.0, -2.0];
        assert!((Minkowski::new(1.0).dist(&a, &b) - Manhattan.dist(&a, &b)).abs() < 1e-12);
        assert!((Minkowski::new(2.0).dist(&a, &b) - Euclidean.dist(&a, &b)).abs() < 1e-12);
        assert!((Minkowski::new(2.0).p() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    #[should_panic(expected = "p >= 1")]
    fn minkowski_rejects_sub_one_p() {
        let _ = Minkowski::new(0.5);
    }

    #[test]
    fn dist_lt_agrees_on_exact_ties() {
        // Duplicate coordinate patterns make d(a, b) == bound exactly; the
        // strict-inequality contract must reject them, as `dist` would.
        let a = vec![1.25; 40];
        let b = vec![3.5; 40];
        for m in metrics() {
            let d = m.dist(&a, &b);
            assert_eq!(
                m.dist_lt(&a, &b, d),
                None,
                "{}: tie must be rejected",
                m.name()
            );
            let above = d * (1.0 + 1e-9);
            assert_eq!(m.dist_lt(&a, &b, above), Some(d), "{}", m.name());
        }
    }

    #[test]
    fn dist_le_admits_exact_ties_and_nothing_past_them() {
        let a = vec![1.25; 40];
        let b = vec![3.5; 40];
        for m in metrics() {
            let d = m.dist(&a, &b);
            assert_eq!(
                m.dist_le(&a, &b, d),
                Some(d),
                "{}: tie must be admitted",
                m.name()
            );
            assert_eq!(m.dist_le(&a, &b, d.next_down()), None, "{}", m.name());
            assert_eq!(m.dist_le(&a, &b, f64::INFINITY), Some(d), "{}", m.name());
            // Zero bound admits exactly the zero distance.
            assert_eq!(m.dist_le(&a, &a, 0.0), Some(0.0), "{}", m.name());
            assert_eq!(m.dist_le(&a, &b, 0.0), None, "{}", m.name());
        }
        // Overflowing distances are admitted at the infinite bound.
        let x = vec![1e200; 4];
        let y = vec![-1e200; 4];
        let d = Minkowski::new(3.0).dist(&x, &y);
        if d.is_infinite() {
            assert_eq!(Minkowski::new(3.0).dist_le(&x, &y, f64::INFINITY), Some(d));
            assert_eq!(Minkowski::new(3.0).dist_le(&x, &y, f64::MAX), None);
        }
    }

    #[test]
    fn dist_lt_handles_degenerate_bounds() {
        let a = vec![0.0; 20];
        let b = vec![1.0; 20];
        for m in metrics() {
            assert_eq!(m.dist_lt(&a, &b, 0.0), None, "{}", m.name());
            assert_eq!(
                m.dist_lt(&a, &b, f64::INFINITY),
                Some(m.dist(&a, &b)),
                "{}",
                m.name()
            );
            // Identical points are strictly below any positive bound.
            assert_eq!(m.dist_lt(&a, &a, 1e-300), Some(0.0), "{}", m.name());
        }
    }

    #[test]
    fn dist_under_admits_overflowing_distances_at_infinite_bound() {
        // Finite coordinates whose distance overflows to +∞: an infinite
        // bound (= "no threshold yet") must admit them, while any finite
        // bound keeps the strict dist_lt decision.
        let a = vec![1e200; 4];
        let b = vec![-1e200; 4];
        for m in metrics() {
            let d = m.dist(&a, &b);
            if d.is_infinite() {
                assert_eq!(m.dist_lt(&a, &b, f64::INFINITY), None, "{}", m.name());
                assert_eq!(m.dist_under(&a, &b, f64::INFINITY), Some(d), "{}", m.name());
            }
            assert_eq!(m.dist_under(&a, &b, 1.0), None, "{}", m.name());
            // Finite distances: dist_under coincides with dist_lt.
            let c = vec![0.5; 4];
            let z = vec![0.0; 4];
            let dcz = m.dist(&c, &z);
            assert_eq!(
                m.dist_under(&c, &z, f64::INFINITY),
                Some(dcz),
                "{}",
                m.name()
            );
            assert_eq!(
                m.dist_under(&c, &z, dcz),
                m.dist_lt(&c, &z, dcz),
                "{}",
                m.name()
            );
        }
    }

    #[test]
    fn box_bounds_inside_point() {
        // A query inside the box has min dist 0.
        let lo = [0.0, 0.0];
        let hi = [2.0, 2.0];
        let q = [1.0, 1.5];
        for m in metrics() {
            assert_eq!(m.box_min_dist(&q, &lo, &hi).unwrap(), 0.0, "{}", m.name());
            let far = m.box_max_dist(&q, &lo, &hi).unwrap();
            // Farthest corner from (1, 1.5) is (0, 0) or (2, 0).
            assert!(far >= m.dist(&q, &[0.0, 0.0]) - 1e-12, "{}", m.name());
        }
    }

    /// Builds a zero-padded tile from logical rows.
    fn padded_tile(rows: &[Vec<f64>], dim: usize) -> (usize, Vec<f64>) {
        let stride = kernel::pad_dim(dim);
        let mut flat = vec![0.0; rows.len() * stride];
        for (r, row) in rows.iter().enumerate() {
            flat[r * stride..r * stride + dim].copy_from_slice(row);
        }
        (stride, flat)
    }

    #[test]
    fn dist_tile_matches_per_row_dist_under_bitwise() {
        // Tie-heavy rows at several dims (covering tails, pad widths and
        // the check cadence) against assorted bounds, including exact-tie
        // bounds, zero, and +∞ with overflowing distances.
        for dim in [1usize, 2, 3, 4, 5, 7, 8, 9, 12, 16, 30, 33] {
            let rows: Vec<Vec<f64>> = (0..37)
                .map(|i| {
                    (0..dim)
                        .map(|j| match (i * dim + j) % 11 {
                            10 => 1e200, // may overflow squared/cubed terms
                            v => (v as f64) * 0.5 - 2.0,
                        })
                        .collect()
                })
                .collect();
            let q: Vec<f64> = (0..dim).map(|j| (j % 5) as f64 * 0.5).collect();
            let (stride, flat) = padded_tile(&rows, dim);
            let mut qpad = vec![0.0; stride];
            qpad[..dim].copy_from_slice(&q);
            for m in metrics() {
                let dists: Vec<f64> = rows.iter().map(|r| m.dist(&q, r)).collect();
                // Per-row bounds that exercise every decision branch.
                let bounds: Vec<f64> = dists
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| match i % 5 {
                        0 => d,               // exact tie: pruned
                        1 => d * 1.5 + 1e-12, // admitted
                        2 => 0.0,             // always pruned
                        3 => f64::INFINITY,   // always admitted
                        _ => d * 0.5,         // pruned (or tie at 0)
                    })
                    .collect();
                let mut out = vec![0.0; rows.len()];
                m.dist_tile(&qpad, &flat, stride, dim, &bounds, &mut out);
                for (i, row) in rows.iter().enumerate() {
                    let want = m.dist_under(&q, row, bounds[i]);
                    match want {
                        Some(d) => assert_eq!(
                            out[i].to_bits(),
                            d.to_bits(),
                            "{} dim={dim} row={i}: admitted value must be bit-identical",
                            m.name()
                        ),
                        None => assert!(
                            out[i].is_nan(),
                            "{} dim={dim} row={i}: pruned row must be NaN (got {})",
                            m.name(),
                            out[i]
                        ),
                    }
                }
                // The unpadded fallback layout must decide identically.
                let (flat_raw, stride_raw) =
                    (rows.iter().flatten().copied().collect::<Vec<f64>>(), dim);
                let mut out_raw = vec![0.0; rows.len()];
                m.dist_tile(&q, &flat_raw, stride_raw, dim, &bounds, &mut out_raw);
                for (a, b) in out.iter().zip(&out_raw) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} dim={dim}: padded and fallback tiles diverged",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn tier_is_reported_per_instance() {
        // The benchmark pins `Euclidean::exact()`; it must be the metric
        // every library caller gets by writing `Euclidean`.
        assert_eq!(Euclidean, Euclidean::exact());
        assert_eq!(Euclidean.tier(), KernelTier::Exact);
        assert_eq!(FullPrecision(Euclidean).tier(), KernelTier::Exact);
        assert_eq!(Manhattan.tier(), KernelTier::Exact);
    }

    #[test]
    fn full_precision_tile_admits_like_dist() {
        let m = FullPrecision(Euclidean);
        let rows = vec![vec![0.0, 0.0], vec![3.0, 4.0]];
        let (stride, flat) = padded_tile(&rows, 2);
        let qpad = vec![0.0; stride];
        let mut out = vec![0.0; 2];
        m.dist_tile(&qpad[..], &flat, stride, 2, &[1.0, 5.0], &mut out);
        assert_eq!(out[0], 0.0);
        assert!(out[1].is_nan(), "tie at bound must prune");
        m.dist_tile(
            &qpad[..],
            &flat,
            stride,
            2,
            &[1.0, 5.0f64.next_up()],
            &mut out,
        );
        assert_eq!(out[1], 5.0);
    }

    proptest! {
        #[test]
        fn dist_lt_is_decision_equivalent_to_dist(
            a in proptest::collection::vec(-100.0f64..100.0, 24),
            b in proptest::collection::vec(-100.0f64..100.0, 24),
            frac in 0.0f64..2.0,
        ) {
            for m in metrics() {
                let d = m.dist(&a, &b);
                let bound = d * frac;
                let got = m.dist_lt(&a, &b, bound);
                if d < bound {
                    prop_assert_eq!(got, Some(d), "{} bound={}", m.name(), bound);
                } else {
                    prop_assert_eq!(got, None, "{} bound={}", m.name(), bound);
                }
            }
        }

        #[test]
        fn metric_axioms(
            a in proptest::collection::vec(-100.0f64..100.0, 4),
            b in proptest::collection::vec(-100.0f64..100.0, 4),
            c in proptest::collection::vec(-100.0f64..100.0, 4),
        ) {
            for m in metrics() {
                let dab = m.dist(&a, &b);
                let dba = m.dist(&b, &a);
                let dac = m.dist(&a, &c);
                let dcb = m.dist(&c, &b);
                prop_assert!(dab >= 0.0);
                prop_assert!((dab - dba).abs() < 1e-9, "symmetry failed for {}", m.name());
                prop_assert!(m.dist(&a, &a) < 1e-12);
                // Triangle inequality with a small slack for float rounding.
                prop_assert!(
                    dab <= dac + dcb + 1e-9 * (1.0 + dab.abs()),
                    "triangle inequality failed for {}: {} > {} + {}",
                    m.name(), dab, dac, dcb
                );
            }
        }

        #[test]
        fn box_bounds_bracket_all_contained_points(
            q in proptest::collection::vec(-10.0f64..10.0, 3),
            x in proptest::collection::vec(0.0f64..1.0, 3),
            lo in proptest::collection::vec(-5.0f64..0.0, 3),
            ext in proptest::collection::vec(0.0f64..5.0, 3),
        ) {
            let hi: Vec<f64> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
            // x interpolated into the box.
            let p: Vec<f64> = lo
                .iter()
                .zip(&hi)
                .zip(&x)
                .map(|((l, h), t)| l + (h - l) * t)
                .collect();
            for m in metrics() {
                let d = m.dist(&q, &p);
                let min = m.box_min_dist(&q, &lo, &hi).unwrap();
                let max = m.box_max_dist(&q, &lo, &hi).unwrap();
                prop_assert!(min <= d + 1e-9, "{}: min {} > {}", m.name(), min, d);
                prop_assert!(max >= d - 1e-9, "{}: max {} < {}", m.name(), max, d);
            }
        }

        #[test]
        fn dist_tile_is_decision_equivalent_on_random_tiles(
            rows in proptest::collection::vec(
                proptest::collection::vec(-50.0f64..50.0, 7), 1..20),
            q in proptest::collection::vec(-50.0f64..50.0, 7),
            frac in proptest::collection::vec(0.0f64..2.0, 20),
        ) {
            let dim = 7;
            let (stride, flat) = padded_tile(&rows, dim);
            let mut qpad = vec![0.0; stride];
            qpad[..dim].copy_from_slice(&q);
            for m in metrics() {
                let bounds: Vec<f64> = rows
                    .iter()
                    .zip(&frac)
                    .map(|(r, &f)| m.dist(&q, r) * f)
                    .collect();
                let mut out = vec![0.0; rows.len()];
                m.dist_tile(&qpad, &flat, stride, dim, &bounds, &mut out);
                for (i, row) in rows.iter().enumerate() {
                    match m.dist_under(&q, row, bounds[i]) {
                        Some(d) => prop_assert_eq!(out[i].to_bits(), d.to_bits()),
                        None => prop_assert!(out[i].is_nan()),
                    }
                }
            }
        }
    }
}
