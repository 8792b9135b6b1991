//! Floating-point comparison with relative-epsilon and ULP tolerance.
//!
//! The kernel verification checks originally compared against the sequential
//! reference with exact equality or tiny absolute bounds. That breaks the
//! moment a kernel body reassociates a floating-point sum — which is exactly
//! what the [`crate::KernelVariant::Optimized`] data paths do (multi-
//! accumulator reductions, blocked matmul). These helpers
//! express "equal up to reassociation": a relative-epsilon test with an ULP
//! (units-in-the-last-place) fallback for values too close to zero for a
//! relative bound to be meaningful.

/// Distance between `a` and `b` in units of last place, or `None` when
/// either is NaN.
///
/// Maps the IEEE-754 bit patterns onto a monotone integer line (negative
/// floats are reflected below zero) so the difference counts representable
/// doubles between the two values; `+0.0` and `-0.0` are 0 apart.
pub fn ulp_distance(a: f64, b: f64) -> Option<u64> {
    if a.is_nan() || b.is_nan() {
        return None;
    }
    // Lexicographic reinterpretation: positive floats keep their bits,
    // negative floats map to `MIN - bits` so ordering matches the reals.
    fn ordered(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN.wrapping_sub(bits)
        } else {
            bits
        }
    }
    Some(ordered(a).abs_diff(ordered(b)))
}

/// ULP slack granted on top of the relative bound: differences this small
/// are indistinguishable from a single rounding decision.
const ULP_SLACK: u64 = 4;

/// True when `a` and `b` agree to within `rel_tol` (relative to the larger
/// magnitude) or to within [`ULP_SLACK`] representable doubles.
///
/// Exactly equal values (including equal infinities) always pass; NaN never
/// does. The ULP fallback makes the check meaningful near zero, where a
/// relative bound degenerates.
pub fn rel_close(a: f64, b: f64, rel_tol: f64) -> bool {
    if a == b {
        return true;
    }
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    let diff = (a - b).abs();
    if diff <= rel_tol * a.abs().max(b.abs()) {
        return true;
    }
    matches!(ulp_distance(a, b), Some(d) if d <= ULP_SLACK)
}

/// Largest elementwise relative difference `|a-b| / max(|a|,|b|)` over the
/// pair of slices (0.0 for exactly equal elements). Panics if lengths
/// differ; returns infinity when an element pair is NaN/non-finite and
/// unequal.
pub fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_rel_diff: length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            if x == y {
                0.0
            } else if !x.is_finite() || !y.is_finite() {
                f64::INFINITY
            } else {
                (x - y).abs() / x.abs().max(y.abs())
            }
        })
        .fold(0.0, f64::max)
}

/// Verifies two slices elementwise with [`rel_close`]; `Err` carries the
/// worst offending index with values, relative difference, and ULP distance
/// — the kernel claim checks' error format.
pub fn slices_close(a: &[f64], b: &[f64], rel_tol: f64) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("length mismatch: {} vs {}", a.len(), b.len()));
    }
    let mut worst: Option<(usize, f64)> = None;
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        if !rel_close(x, y, rel_tol) {
            let rel = if x.is_finite() && y.is_finite() {
                (x - y).abs() / x.abs().max(y.abs())
            } else {
                f64::INFINITY
            };
            if worst.is_none_or(|(_, w)| rel > w) {
                worst = Some((i, rel));
            }
        }
    }
    match worst {
        None => Ok(()),
        Some((i, rel)) => Err(format!(
            "[{i}] {:e} vs {:e}: rel diff {rel:.3e} > {rel_tol:.1e} ({} ulp)",
            a[i],
            b[i],
            ulp_distance(a[i], b[i]).map_or("NaN".into(), |d| d.to_string()),
        )),
    }
}

/// [`slices_close`] for scalars, same tolerance semantics.
pub fn scalar_close(a: f64, b: f64, rel_tol: f64) -> Result<(), String> {
    if rel_close(a, b, rel_tol) {
        Ok(())
    } else {
        Err(format!(
            "{a:e} vs {b:e}: rel diff {:.3e} > {rel_tol:.1e}",
            (a - b).abs() / a.abs().max(b.abs()),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_distance_counts_representable_steps() {
        assert_eq!(ulp_distance(1.0, 1.0), Some(0));
        assert_eq!(
            ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 1)),
            Some(1)
        );
        assert_eq!(ulp_distance(0.0, -0.0), Some(0));
        // Across zero: smallest positive and smallest negative subnormal are
        // two steps apart (one to each side of ±0).
        let tiny = f64::from_bits(1);
        assert_eq!(ulp_distance(tiny, -tiny), Some(2));
        assert_eq!(ulp_distance(f64::NAN, 1.0), None);
    }

    #[test]
    fn rel_close_accepts_reassociation_noise() {
        // A reassociated sum differs in the low bits only.
        let exact = 0.123456789_f64;
        let noisy = exact * (1.0 + 1e-14);
        assert!(rel_close(exact, noisy, 1e-12));
        assert!(!rel_close(exact, exact * 1.001, 1e-12));
    }

    #[test]
    fn rel_close_near_zero_uses_ulps() {
        let tiny = f64::from_bits(3);
        let tiny2 = f64::from_bits(5);
        // Relative difference is large (0.4) but they are 2 ulps apart.
        assert!(rel_close(tiny, tiny2, 1e-12));
    }

    #[test]
    fn rel_close_handles_non_finite() {
        assert!(rel_close(f64::INFINITY, f64::INFINITY, 1e-12));
        assert!(!rel_close(f64::INFINITY, 1.0, 1e-12));
        assert!(!rel_close(f64::NAN, f64::NAN, 1e-12));
    }

    #[test]
    fn slices_close_reports_worst_index() {
        let a = [1.0, 2.0, 3.0];
        let ok = [1.0, 2.0 * (1.0 + 1e-15), 3.0];
        assert!(slices_close(&a, &ok, 1e-12).is_ok());
        let bad = [1.0, 2.1, 3.0];
        let err = slices_close(&a, &bad, 1e-12).unwrap_err();
        assert!(err.starts_with("[1]"), "{err}");
        assert!(slices_close(&a, &a[..2], 1e-12).is_err());
    }

    #[test]
    fn max_rel_diff_matches_definition() {
        assert_eq!(max_rel_diff(&[1.0, -2.0], &[1.0, -2.0]), 0.0);
        let d = max_rel_diff(&[100.0], &[101.0]);
        assert!((d - 1.0 / 101.0).abs() < 1e-15);
    }

    #[test]
    fn scalar_close_formats_errors() {
        assert!(scalar_close(1.0, 1.0 + 1e-15, 1e-12).is_ok());
        assert!(scalar_close(1.0, 2.0, 1e-12)
            .unwrap_err()
            .contains("rel diff"));
    }
}
