//! Runtime-dispatched SIMD distance kernels with one canonical accumulation
//! order.
//!
//! Every hot loop in the workspace bottoms out in the same handful of
//! reductions over coordinate pairs: a sum of squared differences
//! (Euclidean), a sum of absolute differences (Manhattan), a running maximum
//! of absolute differences (Chebyshev), and a sum of `|x−y|^p` terms
//! (Minkowski). This module implements those reductions in two backends —
//! a portable scalar-unrolled reference and AVX2 (selected at runtime via
//! [`is_x86_feature_detected!`]) — that return **bit-identical** results, so
//! the repo's byte-identity equivalence contracts survive the
//! vectorization.
//!
//! # The canonical accumulation order
//!
//! Floating-point addition is not associative, so "the same sum" must be
//! pinned down to one reduction tree before backends can agree bitwise. The
//! canonical order used by every kernel (and by the [`crate::Metric`]
//! implementations built on them) is:
//!
//! 1. **Four independent lane accumulators.** Term `t_i` (the per-coordinate
//!    contribution at position `i`) is added to lane `i mod 4`, in
//!    increasing `i` order. This is exactly what a 4×`f64` vector
//!    accumulator computes, and the scalar backend mirrors it with four
//!    scalar accumulators over `chunks_exact(4)`.
//! 2. **Tail.** When the length is not a multiple of 4, the final `r < 4`
//!    terms are added to lanes `0..r` (one each) — i.e. the tail behaves
//!    like a partial chunk. Because every term is non-negative and lanes
//!    start at `+0.0`, padding the inputs with coordinates whose term is
//!    `+0.0` (equal pad values on both sides) leaves all four lanes
//!    bit-identical: `x + 0.0 == x` for every non-negative `x`. This is what
//!    makes the padded tile kernels agree bitwise with the unpadded
//!    one-to-one kernels.
//! 3. **Fixed combine.** The lanes are reduced as
//!    `(l0 + l1) + (l2 + l3)` (or the same shape under `max`). The AVX2
//!    backend performs exactly these three adds, on extracted lanes or
//!    in-register (unpacks pair the lanes so that each add takes the
//!    scalar combine's operands in its order), so the combine is the same
//!    IEEE operations on every backend.
//!
//! The per-term arithmetic uses only IEEE-exact operations (`sub`, `mul`,
//! `add`, `max`, sign-bit `abs`), never FMA, so a lane's value is identical
//! whether the lane lives in a vector register or a scalar one.
//!
//! # Early abandonment under the blocked order
//!
//! The `*_until` kernels abandon an accumulation once it provably cannot
//! stay below a threshold. Their check cadence is part of the canonical
//! contract: after every **8 consumed coordinates** (two 4-lane blocks),
//! while at least 8 coordinates remain to be consumed at loop entry, the
//! current combine of the four partial lanes is compared against the
//! threshold and the kernel returns `None` when `partial >= threshold`.
//! Because terms are non-negative and IEEE addition is monotone, each
//! partial lane is `<=` its completed value and the monotone combine
//! preserves that, so `partial >= threshold` proves the completed
//! accumulation would be too — abandonment can never change a decision that
//! the completed sum plus an exact final comparison would make. And because
//! the partial lanes at every 8-coordinate boundary are themselves
//! bit-identical across backends, all backends abandon at exactly the same
//! boundary: `None`/`Some` results match bitwise, not just decision-wise.
//!
//! # Tile entries
//!
//! [`KernelOps::sum_sq_tile`], [`KernelOps::sum_abs_tile`] and
//! [`KernelOps::max_abs_tile`] evaluate one query against a block of
//! padded rows inside one backend call: one dispatch per block instead of
//! one per row, and on AVX2 one `#[target_feature]` loop whose lanes
//! combine in-register. A tile writes, per row, the canonical accumulation
//! when it lies below the row's threshold (or the threshold is `+∞`) and
//! `NaN` otherwise. That output is a function of the *completed*
//! accumulation alone, so the tile's own abandonment cadence cannot change
//! it: a partial at or past the threshold already proves the completed
//! value fails `acc < threshold`. The cadence is therefore chosen by
//! measurement — rows of up to `TILE_FULL_SUM_MAX` coordinates run full
//! sums (in L1, a check costs more than the coordinates it skips), longer
//! rows check every `TILE_CHECK_EVERY` coordinates.
//!
//! # Dispatch
//!
//! [`selected`] picks the best available backend once per process (cached in
//! a `OnceLock`): AVX2 when detected, else the scalar reference. The
//! `RKNN_KERNEL` environment variable (`scalar`, `avx2`, `auto`) overrides
//! the choice — CI uses it to pin a backend for the bit-identity suites —
//! and silently degrades to the best available backend when the requested
//! one is unsupported on the host. [`ops`] exposes each available backend
//! directly so tests and benchmarks can compare backends within one
//! process.

use std::sync::OnceLock;

/// Number of independent accumulator lanes in the canonical order.
pub const LANES: usize = 4;

/// Coordinates consumed between early-abandonment threshold checks.
pub const CHECK_EVERY: usize = 2 * LANES;

/// Rows of up to this many (padded) coordinates run full sums in the tile
/// entries: at such lengths an in-register threshold check costs more than
/// the coordinates it could skip.
const TILE_FULL_SUM_MAX: usize = 32;

/// Coordinates a tile entry consumes between threshold checks on rows
/// longer than [`TILE_FULL_SUM_MAX`].
const TILE_CHECK_EVERY: usize = 16;

/// Rounds a row length up to the canonical lane multiple (see
/// [`crate::Dataset::stride`]).
#[inline]
pub const fn pad_dim(dim: usize) -> usize {
    dim.div_ceil(LANES) * LANES
}

/// The kernel tier. There is one: the canonical kernels of this module.
///
/// Kept only because the repository benchmark reports
/// `Metric::tier().name()`; it goes once the benchmark stops reading it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// The bit-identical canonical kernels.
    Exact,
}

impl KernelTier {
    /// The tier's name, `exact`.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Exact => "exact",
        }
    }
}

/// A distance-kernel backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar-unrolled reference (always available).
    Scalar,
    /// 4×`f64` AVX2 vectors, one accumulator register (`x86_64`).
    Avx2,
}

impl Backend {
    /// The backend's lower-case name (as accepted by `RKNN_KERNEL`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }

    /// Parses a backend name (the same strings `RKNN_KERNEL` accepts,
    /// minus `auto`, which means "don't pin").
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "scalar" => Some(Backend::Scalar),
            "avx2" => Some(Backend::Avx2),
            _ => None,
        }
    }
}

/// Signature of a full reduction: the canonical accumulator value.
type SumFn = fn(&[f64], &[f64]) -> f64;
/// Signature of an early-abandoning reduction: `None` once a partial
/// combine reaches the threshold, `Some(canonical accumulator)` otherwise.
type UntilFn = fn(&[f64], &[f64], f64) -> Option<f64>;
/// Signature of a tile reduction: `(q, rows, stride, thresholds, out)`, see
/// [`KernelOps::sum_sq_tile`].
type TileFn = fn(&[f64], &[f64], usize, &[f64], &mut [f64]);

/// Validates a tile call's layout; the SIMD tile loops read `stride`
/// coordinates of `q` and of each row in 4-lane steps without bounds
/// checks, so these assertions are what keeps them in bounds.
#[inline]
fn check_tile_layout(q: &[f64], rows: &[f64], stride: usize, thresholds: &[f64], out: &[f64]) {
    assert!(
        stride > 0 && stride.is_multiple_of(LANES) && q.len() == stride,
        "tile stride {stride} must be a positive multiple of {LANES} equal to the query length {}",
        q.len()
    );
    assert_eq!(rows.len(), out.len() * stride, "tile rows length mismatch");
    assert_eq!(
        thresholds.len(),
        out.len(),
        "tile thresholds length mismatch"
    );
}

/// One backend's kernel entry points.
///
/// All functions take raw coordinate slices of equal length and reduce them
/// in the canonical order; see the module docs for the bit-identity
/// contract. Obtain instances via [`selected`] (the dispatched backend) or
/// [`ops`] (a specific backend, when available on this host).
pub struct KernelOps {
    backend: Backend,
    sum_sq: SumFn,
    sum_abs: SumFn,
    max_abs: SumFn,
    sum_sq_until: UntilFn,
    sum_abs_until: UntilFn,
    max_abs_until: UntilFn,
    sum_sq_tile: TileFn,
    sum_abs_tile: TileFn,
    max_abs_tile: TileFn,
}

impl KernelOps {
    /// Which backend these entry points belong to.
    #[inline]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Canonical sum of squared coordinate differences.
    #[inline]
    pub fn sum_sq(&self, a: &[f64], b: &[f64]) -> f64 {
        (self.sum_sq)(a, b)
    }

    /// Canonical sum of absolute coordinate differences.
    #[inline]
    pub fn sum_abs(&self, a: &[f64], b: &[f64]) -> f64 {
        (self.sum_abs)(a, b)
    }

    /// Canonical maximum absolute coordinate difference.
    #[inline]
    pub fn max_abs(&self, a: &[f64], b: &[f64]) -> f64 {
        (self.max_abs)(a, b)
    }

    /// Early-abandoning [`KernelOps::sum_sq`] against `threshold`.
    #[inline]
    pub fn sum_sq_until(&self, a: &[f64], b: &[f64], threshold: f64) -> Option<f64> {
        (self.sum_sq_until)(a, b, threshold)
    }

    /// Early-abandoning [`KernelOps::sum_abs`] against `threshold`.
    #[inline]
    pub fn sum_abs_until(&self, a: &[f64], b: &[f64], threshold: f64) -> Option<f64> {
        (self.sum_abs_until)(a, b, threshold)
    }

    /// Early-abandoning [`KernelOps::max_abs`] against `threshold`.
    #[inline]
    pub fn max_abs_until(&self, a: &[f64], b: &[f64], threshold: f64) -> Option<f64> {
        (self.max_abs_until)(a, b, threshold)
    }

    /// [`KernelOps::sum_sq`] of `q` against each of the `out.len()` rows of
    /// `stride` coordinates in `rows`, decided against per-row thresholds:
    /// `out[i]` is row `i`'s canonical accumulation when it is below
    /// `thresholds[i]` or `thresholds[i]` is `+∞`, and `NaN` otherwise.
    /// The output depends only on the completed accumulation, never on
    /// where the kernel abandons (see the module docs, "Tile entries").
    ///
    /// # Panics
    ///
    /// Panics unless `stride` is a positive multiple of [`LANES`] equal to
    /// `q.len()`, `rows.len() == out.len() * stride` and
    /// `thresholds.len() == out.len()`.
    #[inline]
    pub fn sum_sq_tile(
        &self,
        q: &[f64],
        rows: &[f64],
        stride: usize,
        thresholds: &[f64],
        out: &mut [f64],
    ) {
        check_tile_layout(q, rows, stride, thresholds, out);
        (self.sum_sq_tile)(q, rows, stride, thresholds, out)
    }

    /// The [`KernelOps::sum_abs`] tile entry; same contract as
    /// [`KernelOps::sum_sq_tile`].
    #[inline]
    pub fn sum_abs_tile(
        &self,
        q: &[f64],
        rows: &[f64],
        stride: usize,
        thresholds: &[f64],
        out: &mut [f64],
    ) {
        check_tile_layout(q, rows, stride, thresholds, out);
        (self.sum_abs_tile)(q, rows, stride, thresholds, out)
    }

    /// The [`KernelOps::max_abs`] tile entry; same contract as
    /// [`KernelOps::sum_sq_tile`].
    #[inline]
    pub fn max_abs_tile(
        &self,
        q: &[f64],
        rows: &[f64],
        stride: usize,
        thresholds: &[f64],
        out: &mut [f64],
    ) {
        check_tile_layout(q, rows, stride, thresholds, out);
        (self.max_abs_tile)(q, rows, stride, thresholds, out)
    }
}

/// The tile decision shared by every backend: the completed accumulation
/// when it is below the threshold or the threshold is `+∞`, else `NaN`.
#[inline(always)]
fn tile_decide(acc: f64, threshold: f64) -> f64 {
    if acc < threshold || threshold == f64::INFINITY {
        acc
    } else {
        f64::NAN
    }
}

/// Canonical sum of `|x − y|^p` terms (shared scalar implementation — `powf`
/// does not vectorize bit-reproducibly, so every backend uses this one).
#[inline]
pub fn sum_pow(a: &[f64], b: &[f64], p: f64) -> f64 {
    scalar::sum(a, b, |x, y| (x - y).abs().powf(p))
}

/// Early-abandoning [`sum_pow`] against `threshold` (shared scalar
/// implementation, canonical check cadence).
#[inline]
pub fn sum_pow_until(a: &[f64], b: &[f64], p: f64, threshold: f64) -> Option<f64> {
    scalar::sum_until(a, b, threshold, |x, y| (x - y).abs().powf(p))
}

/// The backends available on this host, in preference order (best first).
pub fn available() -> Vec<Backend> {
    let mut v = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(Backend::Avx2);
        }
    }
    v.push(Backend::Scalar);
    v
}

/// The entry points of one specific backend, or `None` when the host cannot
/// run it (calling into an unsupported backend would be undefined behavior,
/// so unsupported backends are simply unobtainable).
pub fn ops(backend: Backend) -> Option<&'static KernelOps> {
    match backend {
        Backend::Scalar => Some(&SCALAR_OPS),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2").then_some(&x86::AVX2_OPS),
        #[cfg(not(target_arch = "x86_64"))]
        _ => None,
    }
}

static SELECTED: OnceLock<&'static KernelOps> = OnceLock::new();

/// The dispatched kernel table: chosen once per process from the best
/// available backend, overridable with `RKNN_KERNEL=scalar|avx2|auto`
/// or (before first use) with [`pin_backend`]. An override naming a backend
/// the host lacks (or an unknown value) falls back to automatic selection.
pub fn selected() -> &'static KernelOps {
    SELECTED.get_or_init(|| {
        let best = ops(available()[0]).expect("best available backend exists");
        match std::env::var("RKNN_KERNEL").ok().as_deref() {
            Some("scalar") => &SCALAR_OPS,
            Some("avx2") => ops(Backend::Avx2).unwrap_or(best),
            Some("auto") | None => best,
            Some(other) => {
                eprintln!(
                    "RKNN_KERNEL={other:?} not recognized; using {}",
                    best.backend.name()
                );
                best
            }
        }
    })
}

/// Pins the dispatched backend programmatically (the CLI `--kernel` flag),
/// degrading to automatic selection when the host lacks it. First selection
/// wins: a pin after the first [`selected`] call (or a competing pin) is a
/// no-op. Returns the table that is actually active, so callers can report
/// the live backend rather than the requested one.
pub fn pin_backend(backend: Backend) -> &'static KernelOps {
    if let Some(requested) = ops(backend) {
        SELECTED.get_or_init(|| requested)
    } else {
        selected()
    }
}

/// Fixed-order lane combine for sums: `(l0 + l1) + (l2 + l3)`.
#[inline(always)]
fn combine_sum(l: [f64; LANES]) -> f64 {
    (l[0] + l[1]) + (l[2] + l[3])
}

/// Fixed-order lane combine for maxima.
#[inline(always)]
fn combine_max(l: [f64; LANES]) -> f64 {
    l[0].max(l[1]).max(l[2].max(l[3]))
}

/// The portable scalar-unrolled backend: the reference the SIMD backends
/// must agree with bitwise.
mod scalar {
    use super::{combine_max, combine_sum, tile_decide, LANES};

    /// Canonical full reduction with `+`.
    #[inline(always)]
    pub(super) fn sum<T: Fn(f64, f64) -> f64>(a: &[f64], b: &[f64], term: T) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut l = [0.0f64; LANES];
        let mut ca = a.chunks_exact(LANES);
        let mut cb = b.chunks_exact(LANES);
        for (x, y) in (&mut ca).zip(&mut cb) {
            l[0] += term(x[0], y[0]);
            l[1] += term(x[1], y[1]);
            l[2] += term(x[2], y[2]);
            l[3] += term(x[3], y[3]);
        }
        for (j, (&x, &y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
            l[j] += term(x, y);
        }
        combine_sum(l)
    }

    /// Canonical full reduction with `max`.
    #[inline(always)]
    pub(super) fn fold_max<T: Fn(f64, f64) -> f64>(a: &[f64], b: &[f64], term: T) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut l = [0.0f64; LANES];
        let mut ca = a.chunks_exact(LANES);
        let mut cb = b.chunks_exact(LANES);
        for (x, y) in (&mut ca).zip(&mut cb) {
            l[0] = l[0].max(term(x[0], y[0]));
            l[1] = l[1].max(term(x[1], y[1]));
            l[2] = l[2].max(term(x[2], y[2]));
            l[3] = l[3].max(term(x[3], y[3]));
        }
        for (j, (&x, &y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
            l[j] = l[j].max(term(x, y));
        }
        combine_max(l)
    }

    /// Canonical early-abandoning `+` reduction (checks every 8 coords).
    #[inline(always)]
    pub(super) fn sum_until<T: Fn(f64, f64) -> f64>(
        a: &[f64],
        b: &[f64],
        threshold: f64,
        term: T,
    ) -> Option<f64> {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut l = [0.0f64; LANES];
        let mut i = 0usize;
        while n - i >= 2 * LANES {
            for off in [0, LANES] {
                let (x, y) = (&a[i + off..i + off + LANES], &b[i + off..i + off + LANES]);
                l[0] += term(x[0], y[0]);
                l[1] += term(x[1], y[1]);
                l[2] += term(x[2], y[2]);
                l[3] += term(x[3], y[3]);
            }
            i += 2 * LANES;
            if combine_sum(l) >= threshold {
                return None;
            }
        }
        if n - i >= LANES {
            let (x, y) = (&a[i..i + LANES], &b[i..i + LANES]);
            l[0] += term(x[0], y[0]);
            l[1] += term(x[1], y[1]);
            l[2] += term(x[2], y[2]);
            l[3] += term(x[3], y[3]);
            i += LANES;
        }
        let mut j = 0usize;
        while i < n {
            l[j] += term(a[i], b[i]);
            j += 1;
            i += 1;
        }
        Some(combine_sum(l))
    }

    /// Canonical early-abandoning `max` reduction (checks every 8 coords).
    #[inline(always)]
    pub(super) fn max_until<T: Fn(f64, f64) -> f64>(
        a: &[f64],
        b: &[f64],
        threshold: f64,
        term: T,
    ) -> Option<f64> {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut l = [0.0f64; LANES];
        let mut i = 0usize;
        while n - i >= 2 * LANES {
            for off in [0, LANES] {
                let (x, y) = (&a[i + off..i + off + LANES], &b[i + off..i + off + LANES]);
                l[0] = l[0].max(term(x[0], y[0]));
                l[1] = l[1].max(term(x[1], y[1]));
                l[2] = l[2].max(term(x[2], y[2]));
                l[3] = l[3].max(term(x[3], y[3]));
            }
            i += 2 * LANES;
            if combine_max(l) >= threshold {
                return None;
            }
        }
        if n - i >= LANES {
            let (x, y) = (&a[i..i + LANES], &b[i..i + LANES]);
            l[0] = l[0].max(term(x[0], y[0]));
            l[1] = l[1].max(term(x[1], y[1]));
            l[2] = l[2].max(term(x[2], y[2]));
            l[3] = l[3].max(term(x[3], y[3]));
            i += LANES;
        }
        let mut j = 0usize;
        while i < n {
            l[j] = l[j].max(term(a[i], b[i]));
            j += 1;
            i += 1;
        }
        Some(combine_max(l))
    }

    #[inline(always)]
    fn sq(x: f64, y: f64) -> f64 {
        let d = x - y;
        d * d
    }

    #[inline(always)]
    fn ad(x: f64, y: f64) -> f64 {
        (x - y).abs()
    }

    pub(super) fn sum_sq(a: &[f64], b: &[f64]) -> f64 {
        sum(a, b, sq)
    }
    pub(super) fn sum_abs(a: &[f64], b: &[f64]) -> f64 {
        sum(a, b, ad)
    }
    pub(super) fn max_abs(a: &[f64], b: &[f64]) -> f64 {
        fold_max(a, b, ad)
    }
    pub(super) fn sum_sq_until(a: &[f64], b: &[f64], t: f64) -> Option<f64> {
        sum_until(a, b, t, sq)
    }
    pub(super) fn sum_abs_until(a: &[f64], b: &[f64], t: f64) -> Option<f64> {
        sum_until(a, b, t, ad)
    }
    pub(super) fn max_abs_until(a: &[f64], b: &[f64], t: f64) -> Option<f64> {
        max_until(a, b, t, ad)
    }

    /// The scalar tile entry: each row through the one-to-one kernels (an
    /// infinite threshold runs the plain full reduction), then the shared
    /// tile decision.
    #[inline(always)]
    fn tile(
        q: &[f64],
        rows: &[f64],
        stride: usize,
        thresholds: &[f64],
        out: &mut [f64],
        full: fn(&[f64], &[f64]) -> f64,
        until: fn(&[f64], &[f64], f64) -> Option<f64>,
    ) {
        for ((row, &t), o) in rows.chunks_exact(stride).zip(thresholds).zip(out) {
            *o = if t == f64::INFINITY {
                full(q, row)
            } else {
                until(q, row, t).map_or(f64::NAN, |acc| tile_decide(acc, t))
            };
        }
    }

    pub(super) fn sum_sq_tile(q: &[f64], rows: &[f64], stride: usize, t: &[f64], o: &mut [f64]) {
        tile(q, rows, stride, t, o, sum_sq, sum_sq_until)
    }
    pub(super) fn sum_abs_tile(q: &[f64], rows: &[f64], stride: usize, t: &[f64], o: &mut [f64]) {
        tile(q, rows, stride, t, o, sum_abs, sum_abs_until)
    }
    pub(super) fn max_abs_tile(q: &[f64], rows: &[f64], stride: usize, t: &[f64], o: &mut [f64]) {
        tile(q, rows, stride, t, o, max_abs, max_abs_until)
    }
}

static SCALAR_OPS: KernelOps = KernelOps {
    backend: Backend::Scalar,
    sum_sq: scalar::sum_sq,
    sum_abs: scalar::sum_abs,
    max_abs: scalar::max_abs,
    sum_sq_until: scalar::sum_sq_until,
    sum_abs_until: scalar::sum_abs_until,
    max_abs_until: scalar::max_abs_until,
    sum_sq_tile: scalar::sum_sq_tile,
    sum_abs_tile: scalar::sum_abs_tile,
    max_abs_tile: scalar::max_abs_tile,
};

/// The AVX2 backend. Lane `j` of the 4-lane accumulator is exactly
/// canonical lane `j`, all four in one `__m256d`. The lanes combine either
/// extracted or in-register (`vcombine_sum`/`vcombine_max`), with the same
/// IEEE operations in the same order as the scalar combine, and every
/// vector op is IEEE-exact (no FMA), so completed accumulations are
/// bit-identical to the scalar reference.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{
        combine_max, combine_sum, Backend, KernelOps, LANES, TILE_CHECK_EVERY, TILE_FULL_SUM_MAX,
    };
    use core::arch::x86_64::*;

    /// Generates one AVX2 full reduction, until-reduction and tile entry
    /// around a `$step` primitive (fold one 4-coordinate block into the
    /// accumulator), which carries the feature attribute and so inlines
    /// into the generated `#[target_feature(enable = "avx2")]` bodies.
    /// `sc`/`sfold`/`combine` handle the scalar tail of lengths that are
    /// not a multiple of `LANES`.
    macro_rules! avx2_kernels {
        ($sum:ident, $until:ident, $tile:ident, step = $step:ident,
         sc($sx:ident, $sy:ident) $sterm:block,
         sfold = $sfold:ident, combine = $combine:ident, vcombine = $vcombine:ident,
         vcombine4 = $vcombine4:ident) => {
            #[target_feature(enable = "avx2")]
            unsafe fn $sum(a: &[f64], b: &[f64]) -> f64 {
                debug_assert_eq!(a.len(), b.len());
                let n = a.len();
                let (pa, pb) = (a.as_ptr(), b.as_ptr());
                let mut acc = _mm256_setzero_pd();
                let mut i = 0usize;
                while n - i >= LANES {
                    acc = $step(acc, pa.add(i), pb.add(i));
                    i += LANES;
                }
                if i == n {
                    return $vcombine(acc);
                }
                let mut l = [0.0f64; LANES];
                _mm256_storeu_pd(l.as_mut_ptr(), acc);
                let mut j = 0usize;
                while i < n {
                    let ($sx, $sy) = (*pa.add(i), *pb.add(i));
                    l[j] = $sfold(l[j], $sterm);
                    j += 1;
                    i += 1;
                }
                $combine(l)
            }

            #[target_feature(enable = "avx2")]
            unsafe fn $until(a: &[f64], b: &[f64], threshold: f64) -> Option<f64> {
                debug_assert_eq!(a.len(), b.len());
                let n = a.len();
                let (pa, pb) = (a.as_ptr(), b.as_ptr());
                let mut acc = _mm256_setzero_pd();
                let mut i = 0usize;
                while n - i >= 2 * LANES {
                    acc = $step(acc, pa.add(i), pb.add(i));
                    acc = $step(acc, pa.add(i + LANES), pb.add(i + LANES));
                    i += 2 * LANES;
                    if $vcombine(acc) >= threshold {
                        return None;
                    }
                }
                if n - i >= LANES {
                    acc = $step(acc, pa.add(i), pb.add(i));
                    i += LANES;
                }
                if i == n {
                    return Some($vcombine(acc));
                }
                let mut l = [0.0f64; LANES];
                _mm256_storeu_pd(l.as_mut_ptr(), acc);
                let mut j = 0usize;
                while i < n {
                    let ($sx, $sy) = (*pa.add(i), *pb.add(i));
                    l[j] = $sfold(l[j], $sterm);
                    j += 1;
                    i += 1;
                }
                Some($combine(l))
            }

            /// Tile entry: rows go four at a time, one accumulator chain
            /// each, through `tile_rows`, instantiated per block count so
            /// short rows run fully unrolled. The caller (`KernelOps`) has
            /// checked that `stride` is a positive multiple of `LANES`
            /// equal to `q.len()` and that `rows` holds `out.len()` rows,
            /// so every load is in bounds.
            #[target_feature(enable = "avx2")]
            unsafe fn $tile(
                q: &[f64],
                rows: &[f64],
                stride: usize,
                thresholds: &[f64],
                out: &mut [f64],
            ) {
                /// Four rows at `p` against thresholds `t`: the tile
                /// decision for each, as a vector. `B > 0`: rows of exactly
                /// `B` blocks, full sums. `B == 0`: rows of any length,
                /// checked every `TILE_CHECK_EVERY` coordinates.
                #[target_feature(enable = "avx2")]
                #[inline]
                unsafe fn group<const B: usize>(
                    pq: *const f64,
                    p: [*const f64; 4],
                    stride: usize,
                    t: __m256d,
                ) -> __m256d {
                    let nan = _mm256_set1_pd(f64::NAN);
                    let inf = _mm256_set1_pd(f64::INFINITY);
                    let mut acc = [_mm256_setzero_pd(); 4];
                    // Rows not abandoned yet, as an all-bits lane mask.
                    let mut live = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
                    let mut i = 0usize;
                    if B > 0 {
                        for b in 0..B {
                            let k = b * LANES;
                            for j in 0..4 {
                                acc[j] = $step(acc[j], pq.add(k), p[j].add(k));
                            }
                        }
                    } else {
                        // An infinite threshold never abandons, so a group
                        // of them skips the checks.
                        let unbounded = _mm256_cmp_pd::<_CMP_EQ_OQ>(t, inf);
                        if _mm256_movemask_pd(unbounded) != 0b1111 {
                            // Infinite thresholds check against NaN, which
                            // no partial reaches.
                            let check = _mm256_blendv_pd(t, nan, unbounded);
                            while stride - i >= TILE_CHECK_EVERY && _mm256_movemask_pd(live) != 0 {
                                for b in 0..TILE_CHECK_EVERY / LANES {
                                    let k = i + b * LANES;
                                    for j in 0..4 {
                                        acc[j] = $step(acc[j], pq.add(k), p[j].add(k));
                                    }
                                }
                                i += TILE_CHECK_EVERY;
                                let partial = $vcombine4(acc);
                                live = _mm256_and_pd(
                                    live,
                                    _mm256_cmp_pd::<_CMP_NGE_UQ>(partial, check),
                                );
                            }
                        }
                        if _mm256_movemask_pd(live) != 0 {
                            while i < stride {
                                for j in 0..4 {
                                    acc[j] = $step(acc[j], pq.add(i), p[j].add(i));
                                }
                                i += LANES;
                            }
                        }
                    }
                    // The shared tile decision, four rows at once.
                    let s = $vcombine4(acc);
                    let admit = _mm256_or_pd(
                        _mm256_cmp_pd::<_CMP_LT_OQ>(s, t),
                        _mm256_cmp_pd::<_CMP_EQ_OQ>(t, inf),
                    );
                    _mm256_blendv_pd(nan, s, _mm256_and_pd(admit, live))
                }

                #[target_feature(enable = "avx2")]
                unsafe fn tile_rows<const B: usize>(
                    q: &[f64],
                    rows: &[f64],
                    stride: usize,
                    thresholds: &[f64],
                    out: &mut [f64],
                ) {
                    let (pq, pr) = (q.as_ptr(), rows.as_ptr());
                    let n = out.len();
                    let mut r = 0usize;
                    while n - r >= 4 {
                        let p0 = pr.add(r * stride);
                        let p = [p0, p0.add(stride), p0.add(2 * stride), p0.add(3 * stride)];
                        let t = _mm256_loadu_pd(thresholds.as_ptr().add(r));
                        _mm256_storeu_pd(out.as_mut_ptr().add(r), group::<B>(pq, p, stride, t));
                        r += 4;
                    }
                    if r < n {
                        // The last 1–3 rows fill the group by repeating the
                        // last one; only the real rows are stored.
                        let m = n - r;
                        let mut p = [pq; 4];
                        let mut tv = [0.0f64; 4];
                        for j in 0..4 {
                            let row = r + j.min(m - 1);
                            p[j] = pr.add(row * stride);
                            tv[j] = thresholds[row];
                        }
                        let mut res = [0.0f64; 4];
                        let t = _mm256_loadu_pd(tv.as_ptr());
                        _mm256_storeu_pd(res.as_mut_ptr(), group::<B>(pq, p, stride, t));
                        out[r..].copy_from_slice(&res[..m]);
                    }
                }
                match stride / LANES {
                    1 => tile_rows::<1>(q, rows, stride, thresholds, out),
                    2 => tile_rows::<2>(q, rows, stride, thresholds, out),
                    3 => tile_rows::<3>(q, rows, stride, thresholds, out),
                    4 => tile_rows::<4>(q, rows, stride, thresholds, out),
                    5 => tile_rows::<5>(q, rows, stride, thresholds, out),
                    6 => tile_rows::<6>(q, rows, stride, thresholds, out),
                    7 => tile_rows::<7>(q, rows, stride, thresholds, out),
                    8 => tile_rows::<8>(q, rows, stride, thresholds, out),
                    _ => tile_rows::<0>(q, rows, stride, thresholds, out),
                }
            }
        };
    }

    // The unrolled arms above cover exactly the full-sum strides.
    const _: () = assert!(TILE_FULL_SUM_MAX == 8 * LANES);

    #[inline(always)]
    fn lane_add(l: f64, t: f64) -> f64 {
        l + t
    }
    #[inline(always)]
    fn lane_max(l: f64, t: f64) -> f64 {
        l.max(t)
    }

    // The 4-coordinate step primitives: load a block of each operand, form
    // the four terms, fold them into the lanes.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn v4_abs_diff(a: *const f64, b: *const f64) -> __m256d {
        _mm256_andnot_pd(
            _mm256_set1_pd(-0.0),
            _mm256_sub_pd(_mm256_loadu_pd(a), _mm256_loadu_pd(b)),
        )
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn sq_step(acc: __m256d, a: *const f64, b: *const f64) -> __m256d {
        let d = _mm256_sub_pd(_mm256_loadu_pd(a), _mm256_loadu_pd(b));
        _mm256_add_pd(acc, _mm256_mul_pd(d, d))
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn abs_step(acc: __m256d, a: *const f64, b: *const f64) -> __m256d {
        _mm256_add_pd(acc, v4_abs_diff(a, b))
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn max_step(acc: __m256d, a: *const f64, b: *const f64) -> __m256d {
        // Operand order matters for NaN terms: `maxpd` returns the *second*
        // operand when either is NaN, while the scalar reference's
        // `f64::max(lane, term)` discards a NaN term. Passing the term
        // first and the accumulator second reproduces the scalar semantics
        // bit for bit (a NaN term leaves the accumulator untouched, and a
        // NaN can therefore never enter the accumulator). For non-NaN
        // operands `maxpd` is exact and symmetric (terms are `abs` results,
        // so the ±0 tie-order quirk cannot arise).
        _mm256_max_pd(v4_abs_diff(a, b), acc)
    }

    /// In-register [`combine_sum`]: pairs lanes `(l0, l2)` and `(l1, l3)`
    /// with unpacks, so one vector add forms `l0 + l1` and `l2 + l3` with
    /// the scalar combine's operand order, then adds those two.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn vcombine_sum(acc: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(acc);
        let hi = _mm256_extractf128_pd::<1>(acc);
        let pairs = _mm_add_pd(_mm_unpacklo_pd(lo, hi), _mm_unpackhi_pd(lo, hi));
        _mm_cvtsd_f64(_mm_add_sd(pairs, _mm_unpackhi_pd(pairs, pairs)))
    }

    /// In-register [`combine_max`]. Max lanes are never NaN (`max_step`
    /// discards NaN terms) and never `-0.0` (they start at `+0.0` and fold
    /// `abs` terms), and on such values `max` is an exact, associative
    /// selection, so `max(max(l0, l2), max(l1, l3))` is bit-identical to
    /// the scalar `max(max(l0, l1), max(l2, l3))`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn vcombine_max(acc: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(acc);
        let hi = _mm256_extractf128_pd::<1>(acc);
        let m = _mm_max_pd(lo, hi);
        _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)))
    }

    /// Four rows' [`combine_sum`] at once: lane `j` of the result is
    /// `(a[j]_0 + a[j]_1) + (a[j]_2 + a[j]_3)`, each add with the scalar
    /// combine's operands in the scalar combine's order.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn vcombine4_sum(a: [__m256d; 4]) -> __m256d {
        // [a0_0+a0_1, a1_0+a1_1, a0_2+a0_3, a1_2+a1_3], likewise rows 2, 3.
        let s01 = _mm256_add_pd(
            _mm256_unpacklo_pd(a[0], a[1]),
            _mm256_unpackhi_pd(a[0], a[1]),
        );
        let s23 = _mm256_add_pd(
            _mm256_unpacklo_pd(a[2], a[3]),
            _mm256_unpackhi_pd(a[2], a[3]),
        );
        _mm256_add_pd(
            _mm256_permute2f128_pd::<0x20>(s01, s23),
            _mm256_permute2f128_pd::<0x31>(s01, s23),
        )
    }

    /// Four rows' [`combine_max`] at once (exact for the same reasons as
    /// [`vcombine_max`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn vcombine4_max(a: [__m256d; 4]) -> __m256d {
        let m01 = _mm256_max_pd(
            _mm256_unpacklo_pd(a[0], a[1]),
            _mm256_unpackhi_pd(a[0], a[1]),
        );
        let m23 = _mm256_max_pd(
            _mm256_unpacklo_pd(a[2], a[3]),
            _mm256_unpackhi_pd(a[2], a[3]),
        );
        _mm256_max_pd(
            _mm256_permute2f128_pd::<0x20>(m01, m23),
            _mm256_permute2f128_pd::<0x31>(m01, m23),
        )
    }

    avx2_kernels!(
        avx2_sum_sq, avx2_sum_sq_until, avx2_sum_sq_tile, step = sq_step,
        sc(x, y) { let d = x - y; d * d },
        sfold = lane_add, combine = combine_sum, vcombine = vcombine_sum,
        vcombine4 = vcombine4_sum
    );
    avx2_kernels!(
        avx2_sum_abs, avx2_sum_abs_until, avx2_sum_abs_tile, step = abs_step,
        sc(x, y) { (x - y).abs() },
        sfold = lane_add, combine = combine_sum, vcombine = vcombine_sum,
        vcombine4 = vcombine4_sum
    );
    avx2_kernels!(
        avx2_max_abs, avx2_max_abs_until, avx2_max_abs_tile, step = max_step,
        sc(x, y) { (x - y).abs() },
        sfold = lane_max, combine = combine_max, vcombine = vcombine_max,
        vcombine4 = vcombine4_max
    );
    // Safe wrappers stored in the dispatch tables. The AVX2 wrappers are
    // sound because `super::ops` never hands out `AVX2_OPS` unless
    // `is_x86_feature_detected!("avx2")` succeeded on this host.
    macro_rules! wrap {
        ($w:ident, $inner:ident, sum) => {
            fn $w(a: &[f64], b: &[f64]) -> f64 {
                unsafe { $inner(a, b) }
            }
        };
        ($w:ident, $inner:ident, until) => {
            fn $w(a: &[f64], b: &[f64], t: f64) -> Option<f64> {
                unsafe { $inner(a, b, t) }
            }
        };
        ($w:ident, $inner:ident, tile) => {
            fn $w(q: &[f64], rows: &[f64], stride: usize, t: &[f64], out: &mut [f64]) {
                unsafe { $inner(q, rows, stride, t, out) }
            }
        };
    }

    wrap!(w_avx2_sum_sq, avx2_sum_sq, sum);
    wrap!(w_avx2_sum_abs, avx2_sum_abs, sum);
    wrap!(w_avx2_max_abs, avx2_max_abs, sum);
    wrap!(w_avx2_sum_sq_until, avx2_sum_sq_until, until);
    wrap!(w_avx2_sum_abs_until, avx2_sum_abs_until, until);
    wrap!(w_avx2_max_abs_until, avx2_max_abs_until, until);
    wrap!(w_avx2_sum_sq_tile, avx2_sum_sq_tile, tile);
    wrap!(w_avx2_sum_abs_tile, avx2_sum_abs_tile, tile);
    wrap!(w_avx2_max_abs_tile, avx2_max_abs_tile, tile);

    pub(super) static AVX2_OPS: KernelOps = KernelOps {
        backend: Backend::Avx2,
        sum_sq: w_avx2_sum_sq,
        sum_abs: w_avx2_sum_abs,
        max_abs: w_avx2_max_abs,
        sum_sq_until: w_avx2_sum_sq_until,
        sum_abs_until: w_avx2_sum_abs_until,
        max_abs_until: w_avx2_max_abs_until,
        sum_sq_tile: w_avx2_sum_sq_tile,
        sum_abs_tile: w_avx2_sum_abs_tile,
        max_abs_tile: w_avx2_max_abs_tile,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random coordinates covering ties, subnormals,
    /// and magnitudes that overflow squared terms.
    fn vectors(seed: u64, len: usize) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let pick = |r: u64| -> f64 {
            match r % 7 {
                0 => 0.5 * ((r >> 8) % 9) as f64,
                1 => -0.5 * ((r >> 8) % 9) as f64,
                2 => 1e-310 * ((r >> 8) % 5) as f64, // subnormal gaps
                3 => 1e160,                          // squared term overflows
                4 => -1e160,
                5 => ((r >> 8) % 1000) as f64 / 997.0,
                _ => -(((r >> 8) % 1000) as f64) / 991.0,
            }
        };
        let a = (0..len).map(|_| pick(next())).collect();
        let b = (0..len).map(|_| pick(next())).collect();
        (a, b)
    }

    fn bits(x: f64) -> u64 {
        x.to_bits()
    }

    #[test]
    fn backends_agree_bitwise_on_full_reductions() {
        let backends = available();
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 32, 33, 100] {
            for seed in 0..50u64 {
                let (a, b) = vectors(seed.wrapping_add(len as u64 * 1000), len);
                let reference = &SCALAR_OPS;
                for &be in &backends {
                    let o = ops(be).unwrap();
                    assert_eq!(
                        bits(o.sum_sq(&a, &b)),
                        bits(reference.sum_sq(&a, &b)),
                        "sum_sq {be:?} len={len} seed={seed}"
                    );
                    assert_eq!(
                        bits(o.sum_abs(&a, &b)),
                        bits(reference.sum_abs(&a, &b)),
                        "sum_abs {be:?} len={len} seed={seed}"
                    );
                    assert_eq!(
                        bits(o.max_abs(&a, &b)),
                        bits(reference.max_abs(&a, &b)),
                        "max_abs {be:?} len={len} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn backends_agree_bitwise_on_until_reductions() {
        let backends = available();
        for len in [0usize, 1, 4, 7, 8, 9, 16, 24, 31, 32, 40, 64] {
            for seed in 0..40u64 {
                let (a, b) = vectors(seed.wrapping_add(len as u64 * 77), len);
                let full = SCALAR_OPS.sum_sq(&a, &b);
                // Thresholds straddling the full value, plus exact ties and
                // the degenerate edges.
                let thresholds = [
                    0.0,
                    f64::MIN_POSITIVE,
                    full * 0.25,
                    full * 0.5,
                    full,
                    full * 1.5,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ];
                for &th in &thresholds {
                    let r = SCALAR_OPS.sum_sq_until(&a, &b, th);
                    for &be in &backends {
                        let o = ops(be).unwrap();
                        assert_eq!(
                            o.sum_sq_until(&a, &b, th).map(bits),
                            r.map(bits),
                            "sum_sq_until {be:?} len={len} seed={seed} th={th}"
                        );
                        assert_eq!(
                            o.sum_abs_until(&a, &b, th).map(bits),
                            SCALAR_OPS.sum_abs_until(&a, &b, th).map(bits),
                            "sum_abs_until {be:?} len={len} seed={seed} th={th}"
                        );
                        assert_eq!(
                            o.max_abs_until(&a, &b, th).map(bits),
                            SCALAR_OPS.max_abs_until(&a, &b, th).map(bits),
                            "max_abs_until {be:?} len={len} seed={seed} th={th}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn padding_with_zero_terms_is_bit_identity() {
        // The tile kernels run over rows padded to a multiple of 4 with
        // equal coordinates on both sides (terms +0.0); that must never
        // perturb the canonical accumulation.
        for len in [1usize, 2, 3, 5, 6, 7, 9, 13, 30] {
            for seed in 0..30u64 {
                let (mut a, mut b) = vectors(seed * 31 + len as u64, len);
                let plain_sq = SCALAR_OPS.sum_sq(&a, &b);
                let plain_ab = SCALAR_OPS.sum_abs(&a, &b);
                let plain_mx = SCALAR_OPS.max_abs(&a, &b);
                let padded = pad_dim(len);
                a.resize(padded, 0.0);
                b.resize(padded, 0.0);
                for o in available().iter().filter_map(|&be| ops(be)) {
                    assert_eq!(bits(o.sum_sq(&a, &b)), bits(plain_sq));
                    assert_eq!(bits(o.sum_abs(&a, &b)), bits(plain_ab));
                    assert_eq!(bits(o.max_abs(&a, &b)), bits(plain_mx));
                }
            }
        }
    }

    #[test]
    fn until_none_implies_completed_at_or_over_threshold() {
        for seed in 0..60u64 {
            let (a, b) = vectors(seed, 37);
            let full = SCALAR_OPS.sum_abs(&a, &b);
            for frac in [0.1, 0.5, 0.9, 1.0, 1.1] {
                let th = full * frac;
                match SCALAR_OPS.sum_abs_until(&a, &b, th) {
                    None => assert!(full >= th, "abandoned below threshold"),
                    Some(acc) => {
                        assert_eq!(bits(acc), bits(full), "completed sum must be canonical")
                    }
                }
            }
        }
    }

    #[test]
    fn minkowski_power_sums_share_the_canonical_order() {
        let (a, b) = vectors(9, 23);
        // p = 1 must agree bitwise with sum_abs: identical terms, identical
        // order. (powf(x, 1.0) == x exactly.)
        assert_eq!(bits(sum_pow(&a, &b, 1.0)), bits(SCALAR_OPS.sum_abs(&a, &b)));
        let full = sum_pow(&a, &b, 3.0);
        // At an infinite threshold the accumulation either completes with
        // the canonical sum or abandons at a partial of `+∞` — which proves
        // the completed sum is `+∞` too.
        match sum_pow_until(&a, &b, 3.0, f64::INFINITY) {
            Some(acc) => assert_eq!(bits(acc), bits(full)),
            None => assert!(full.is_infinite()),
        }
        assert_eq!(sum_pow_until(&a, &b, 3.0, 0.0), None);
    }

    #[test]
    fn nan_terms_are_discarded_identically_on_every_backend() {
        // Queries are not validated the way Dataset coordinates are, so a
        // NaN can reach the kernels; the max fold must discard NaN terms on
        // every backend exactly like the scalar reference's `f64::max`.
        let a = [f64::NAN, 1.0, f64::NAN, -2.0, 0.5, f64::NAN, 3.0, 0.0, 1.5];
        let b = [0.0, 4.0, 1.0, -2.0, f64::NAN, 2.0, 0.0, 0.25, f64::NAN];
        let reference = SCALAR_OPS.max_abs(&a, &b);
        assert!(!reference.is_nan(), "scalar reference discards NaN terms");
        for be in available() {
            let o = ops(be).unwrap();
            assert_eq!(
                o.max_abs(&a, &b).to_bits(),
                reference.to_bits(),
                "max_abs {be:?}"
            );
            for th in [0.0, reference, f64::INFINITY] {
                assert_eq!(
                    o.max_abs_until(&a, &b, th).map(bits),
                    SCALAR_OPS.max_abs_until(&a, &b, th).map(bits),
                    "max_abs_until {be:?} th={th}"
                );
            }
        }
    }

    #[test]
    fn tile_entries_decide_on_the_completed_accumulation_on_every_backend() {
        type Full = fn(&KernelOps, &[f64], &[f64]) -> f64;
        type Tile = fn(&KernelOps, &[f64], &[f64], usize, &[f64], &mut [f64]);
        let reductions: [(&str, Full, Tile); 3] = [
            ("sum_sq", KernelOps::sum_sq, KernelOps::sum_sq_tile),
            ("sum_abs", KernelOps::sum_abs, KernelOps::sum_abs_tile),
            ("max_abs", KernelOps::max_abs, KernelOps::max_abs_tile),
        ];
        // Strides on both sides of TILE_FULL_SUM_MAX and at every
        // TILE_CHECK_EVERY phase.
        for stride in (LANES..=72).step_by(LANES) {
            let (q, _) = vectors(stride as u64, stride);
            // Every third row keeps the overflow-prone raw coordinates;
            // the rest are clamped so their sums stay finite and the
            // finite thresholds below really abandon.
            let rows: Vec<f64> = (0..12u64)
                .flat_map(|r| {
                    let (a, _) = vectors(stride as u64 * 101 + r, stride);
                    a.into_iter()
                        .map(move |v| if r % 3 == 0 { v } else { v.clamp(-4.0, 4.0) })
                })
                .collect();
            for (name, full, tile) in reductions {
                let accs: Vec<f64> = rows
                    .chunks_exact(stride)
                    .map(|r| full(&SCALAR_OPS, &q, r))
                    .collect();
                let thresholds: Vec<f64> = accs
                    .iter()
                    .enumerate()
                    .map(|(i, &acc)| match i % 7 {
                        0 => acc,           // exact tie: dropped
                        1 => acc.next_up(), // just above: kept
                        2 => acc * 0.5,     // abandons early on long rows
                        3 => f64::INFINITY, // keeps everything, +∞ included
                        4 => f64::MAX,      // drops overflowed rows only
                        5 => 0.0,
                        _ => f64::NEG_INFINITY,
                    })
                    .collect();
                for be in available() {
                    let mut out = vec![0.0; accs.len()];
                    tile(ops(be).unwrap(), &q, &rows, stride, &thresholds, &mut out);
                    for (i, (&acc, &t)) in accs.iter().zip(&thresholds).enumerate() {
                        let want = tile_decide(acc, t);
                        assert!(
                            out[i].to_bits() == want.to_bits() || out[i].is_nan() && want.is_nan(),
                            "{name} {be:?} stride={stride} row={i}: {} vs {want}",
                            out[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive multiple")]
    fn tile_entries_reject_an_unpadded_stride() {
        let mut out = [0.0; 2];
        SCALAR_OPS.sum_sq_tile(&[0.0; 3], &[0.0; 6], 3, &[1.0; 2], &mut out);
    }

    #[test]
    fn selection_reports_a_live_backend() {
        let sel = selected();
        assert!(available().contains(&sel.backend()));
        assert!(!sel.backend().name().is_empty());
        assert_eq!(pad_dim(0), 0);
        assert_eq!(pad_dim(1), 4);
        assert_eq!(pad_dim(4), 4);
        assert_eq!(pad_dim(5), 8);
        assert_eq!(pad_dim(32), 32);
        // Pinning after first use is a no-op that returns the live table.
        assert_eq!(pin_backend(Backend::Scalar).backend(), sel.backend());
    }
}
