//! Bit-identity property tests for the distance-kernel subsystem.
//!
//! The contract under test (see `rknn_core::kernel`): the scalar-unrolled
//! reference and AVX2 backends share one canonical 4-lane blocked
//! accumulation order and one early-abandonment check cadence, so
//!
//! * full reductions return **identical bits** on every backend;
//! * early-abandoning reductions return identical `None`/`Some(bits)`;
//! * `dist`/`dist_lt`/`dist_le`/`dist_under` on the Minkowski family are
//!   decision-equivalent with bit-identical carried values;
//! * `dist_tile` over zero-padded rows reproduces the one-to-one
//!   `dist_under` decision and value for every row, on the padded SIMD
//!   path and the unpadded fallback path alike —
//!
//! across ordinary coordinates, exact ties, subnormal gaps, and
//! coordinates whose squared/cubed terms overflow to `+∞`.
//!
//! CI additionally reruns this suite (and the cursor/algorithm equivalence
//! suites) with `RKNN_KERNEL=scalar` and — on capable hosts —
//! `RKNN_KERNEL=avx2` pinned, so the dispatched path itself is exercised
//! under every backend; `kernel_env_override_is_honored` asserts the pin
//! took effect.

use proptest::prelude::*;
use rknn::core::kernel::{self, Backend};
use rknn::core::{Chebyshev, Euclidean, Manhattan, Metric, Minkowski};

fn metrics() -> Vec<Box<dyn Metric>> {
    vec![
        Box::new(Euclidean),
        Box::new(Manhattan),
        Box::new(Chebyshev),
        Box::new(Minkowski::new(3.0)),
        Box::new(Minkowski::new(1.5)),
    ]
}

/// Mixes raw draws into coordinates covering ties (coarse grid),
/// subnormal-scale gaps, and magnitudes whose squared/cubed terms overflow
/// to `+∞` (the class selection is a second drawn vector).
fn mix(vals: &[f64], classes: &[u32]) -> Vec<f64> {
    vals.iter()
        .zip(classes)
        .map(|(&v, &c)| match c % 6 {
            0 => (v * 2.0).round() * 0.5,          // tie-prone half grid
            1 => (v.abs().round() % 5.0) * 1e-310, // subnormal gaps
            2 => 1e160,                            // term overflow
            3 => -1e160,
            _ => v / 0.997,
        })
        .collect()
}

fn vec_of(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, len)
}

fn classes_of(len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..6, len)
}

fn opt_bits(o: Option<f64>) -> Option<u64> {
    o.map(f64::to_bits)
}

proptest! {
    #[test]
    fn backends_agree_bitwise_on_raw_kernels(
        len in 0usize..40,
        seed_a in vec_of(40),
        seed_b in vec_of(40),
        class_a in classes_of(40),
        class_b in classes_of(40),
        frac in 0.0f64..2.0,
    ) {
        let a = &mix(&seed_a, &class_a)[..len];
        let b = &mix(&seed_b, &class_b)[..len];
        let reference = kernel::ops(Backend::Scalar).expect("scalar always available");
        let full = reference.sum_sq(a, b);
        // Thresholds straddling the completed value plus the exact tie.
        let thresholds = [0.0, full * frac, full, f64::INFINITY];
        for be in kernel::available() {
            let o = kernel::ops(be).expect("listed backend available");
            prop_assert_eq!(o.sum_sq(a, b).to_bits(), reference.sum_sq(a, b).to_bits());
            prop_assert_eq!(o.sum_abs(a, b).to_bits(), reference.sum_abs(a, b).to_bits());
            prop_assert_eq!(o.max_abs(a, b).to_bits(), reference.max_abs(a, b).to_bits());
            for &t in &thresholds {
                prop_assert_eq!(
                    opt_bits(o.sum_sq_until(a, b, t)),
                    opt_bits(reference.sum_sq_until(a, b, t)),
                    "sum_sq_until {:?} t={}", be, t
                );
                prop_assert_eq!(
                    opt_bits(o.sum_abs_until(a, b, t)),
                    opt_bits(reference.sum_abs_until(a, b, t)),
                    "sum_abs_until {:?} t={}", be, t
                );
                prop_assert_eq!(
                    opt_bits(o.max_abs_until(a, b, t)),
                    opt_bits(reference.max_abs_until(a, b, t)),
                    "max_abs_until {:?} t={}", be, t
                );
            }
        }
    }

    #[test]
    fn threshold_variants_are_decision_equivalent_with_dist(
        len in 1usize..40,
        seed_a in vec_of(40),
        seed_b in vec_of(40),
        class_a in classes_of(40),
        class_b in classes_of(40),
        frac in 0.0f64..2.0,
    ) {
        let a = &mix(&seed_a, &class_a)[..len];
        let b = &mix(&seed_b, &class_b)[..len];
        for m in metrics() {
            let d = m.dist(a, b);
            for bound in [0.0, d * frac, d, f64::INFINITY] {
                // dist_lt: strict decision, bit-identical carried value.
                let lt = m.dist_lt(a, b, bound);
                if d < bound {
                    prop_assert_eq!(opt_bits(lt), Some(d.to_bits()), "{} lt", m.name());
                } else {
                    prop_assert_eq!(lt, None, "{} lt bound={}", m.name(), bound);
                }
                // dist_le: closed-ball decision.
                let le = m.dist_le(a, b, bound);
                if d <= bound {
                    prop_assert_eq!(opt_bits(le), Some(d.to_bits()), "{} le", m.name());
                } else {
                    prop_assert_eq!(le, None, "{} le bound={}", m.name(), bound);
                }
                // dist_under: selection semantics (+∞ admits everything,
                // including overflowing distances).
                let under = m.dist_under(a, b, bound);
                if bound == f64::INFINITY || d < bound {
                    prop_assert_eq!(opt_bits(under), Some(d.to_bits()), "{} under", m.name());
                } else {
                    prop_assert_eq!(under, None, "{} under bound={}", m.name(), bound);
                }
            }
        }
    }

    /// Strides 4–72 reach both tile cadences (full sums up to 32 padded
    /// coordinates, periodic checks beyond), the bounds include exact ties
    /// and `+∞` (where overflowing distances must come back `+∞`), and
    /// beneath the metrics the three kernel tile entries must agree
    /// bitwise across backends.
    #[test]
    fn dist_tile_reproduces_per_row_decisions_bitwise(
        dim in 1usize..73,
        raw_rows in proptest::collection::vec(vec_of(72), 1..24),
        row_classes in proptest::collection::vec(classes_of(72), 24),
        q_seed in vec_of(72),
        q_class in classes_of(72),
        fracs in proptest::collection::vec(0.0f64..2.0, 24),
    ) {
        let rows: Vec<Vec<f64>> = raw_rows
            .iter()
            .zip(&row_classes)
            .map(|(r, c)| mix(r, c))
            .collect();
        let q_full = mix(&q_seed, &q_class);
        let q = &q_full[..dim];
        let stride = kernel::pad_dim(dim);
        let mut flat = vec![0.0; rows.len() * stride];
        for (r, row) in rows.iter().enumerate() {
            flat[r * stride..r * stride + dim].copy_from_slice(&row[..dim]);
        }
        let mut qpad = vec![0.0; stride];
        qpad[..dim].copy_from_slice(q);
        for m in metrics() {
            let bounds: Vec<f64> = rows
                .iter()
                .zip(&fracs)
                .enumerate()
                .map(|(i, (row, &f))| match i % 4 {
                    0 => m.dist(q, &row[..dim]),   // exact tie → pruned
                    1 => f64::INFINITY,            // always admitted
                    _ => m.dist(q, &row[..dim]) * f,
                })
                .collect();
            let mut out = vec![0.0; rows.len()];
            // Padded SIMD layout.
            m.dist_tile(&qpad, &flat, stride, dim, &bounds, &mut out);
            // Unpadded layout (exercises the row-by-row fallback).
            let flat_raw: Vec<f64> = rows.iter().flat_map(|r| r[..dim].to_vec()).collect();
            let mut out_raw = vec![0.0; rows.len()];
            m.dist_tile(q, &flat_raw, dim, dim, &bounds, &mut out_raw);
            for (i, row) in rows.iter().enumerate() {
                match m.dist_under(q, &row[..dim], bounds[i]) {
                    Some(d) => {
                        prop_assert_eq!(out[i].to_bits(), d.to_bits(),
                            "{} row {} padded", m.name(), i);
                        prop_assert_eq!(out_raw[i].to_bits(), d.to_bits(),
                            "{} row {} fallback", m.name(), i);
                    }
                    None => {
                        prop_assert!(out[i].is_nan(), "{} row {} padded", m.name(), i);
                        prop_assert!(out_raw[i].is_nan(), "{} row {} fallback", m.name(), i);
                    }
                }
            }
        }
        // The kernel tile entries themselves, in the accumulator domain:
        // each row gets its completed accumulation when that is below the
        // threshold (or the threshold is +∞) and NaN otherwise, with the
        // same bits on every backend.
        let scalar = kernel::ops(Backend::Scalar).expect("scalar always available");
        type Full = fn(&kernel::KernelOps, &[f64], &[f64]) -> f64;
        type Tile = fn(&kernel::KernelOps, &[f64], &[f64], usize, &[f64], &mut [f64]);
        let reductions: [(&str, Full, Tile); 3] = [
            ("sum_sq", kernel::KernelOps::sum_sq, kernel::KernelOps::sum_sq_tile),
            ("sum_abs", kernel::KernelOps::sum_abs, kernel::KernelOps::sum_abs_tile),
            ("max_abs", kernel::KernelOps::max_abs, kernel::KernelOps::max_abs_tile),
        ];
        for (name, full, tile) in reductions {
            let accs: Vec<f64> = flat.chunks_exact(stride).map(|r| full(scalar, &qpad, r)).collect();
            let thresholds: Vec<f64> = accs
                .iter()
                .zip(&fracs)
                .enumerate()
                .map(|(i, (&acc, &f))| match i % 4 {
                    0 => acc,
                    1 => f64::INFINITY,
                    _ => acc * f,
                })
                .collect();
            for be in kernel::available() {
                let o = kernel::ops(be).expect("listed backend available");
                let mut out = vec![0.0; rows.len()];
                tile(o, &qpad, &flat, stride, &thresholds, &mut out);
                for (i, (&acc, &t)) in accs.iter().zip(&thresholds).enumerate() {
                    if acc < t || t == f64::INFINITY {
                        prop_assert_eq!(out[i].to_bits(), acc.to_bits(),
                            "{} {:?} row {} stride {}", name, be, i, stride);
                    } else {
                        prop_assert!(out[i].is_nan(),
                            "{} {:?} row {} stride {}", name, be, i, stride);
                    }
                }
            }
        }
    }
}

/// When CI pins a backend via `RKNN_KERNEL`, dispatch must honor it (the
/// suite is then genuinely running on that backend). Without the variable
/// the dispatched backend must be the best available one.
#[test]
fn kernel_env_override_is_honored() {
    let selected = kernel::selected().backend();
    match std::env::var("RKNN_KERNEL").ok().as_deref() {
        Some("scalar") => assert_eq!(selected, Backend::Scalar),
        Some("avx2") if kernel::ops(Backend::Avx2).is_some() => {
            assert_eq!(selected, Backend::Avx2)
        }
        _ => assert_eq!(selected, kernel::available()[0]),
    }
    assert!(kernel::available().contains(&selected));
}

/// The canonical-order invariant the padded storage relies on: appending
/// zero-gap coordinates to both operands never changes any reduction's
/// bits.
#[test]
fn zero_padding_is_bit_identity_on_every_backend() {
    let a = [0.5, -1.25, 1e-310, 1e160, 2.0, -3.5, 0.0];
    let b = [0.5, 2.75, 0.0, -1e160, 2.0, 1.5, -4.25];
    for extra in 1..=5usize {
        let mut ap = a.to_vec();
        let mut bp = b.to_vec();
        ap.resize(a.len() + extra, 0.0);
        bp.resize(b.len() + extra, 0.0);
        for be in kernel::available() {
            let o = kernel::ops(be).unwrap();
            assert_eq!(o.sum_sq(&ap, &bp).to_bits(), o.sum_sq(&a, &b).to_bits());
            assert_eq!(o.sum_abs(&ap, &bp).to_bits(), o.sum_abs(&a, &b).to_bits());
            assert_eq!(o.max_abs(&ap, &bp).to_bits(), o.max_abs(&a, &b).to_bits());
        }
        for m in metrics() {
            assert_eq!(
                m.dist(&ap, &bp).to_bits(),
                m.dist(&a, &b).to_bits(),
                "{}",
                m.name()
            );
        }
    }
}
