//! Norms and error measures used to validate FMM results against reference
//! products.

use crate::scalar::Scalar;
use crate::view::MatRef;

/// The larger of `acc` and `x`, where NaN wins (unlike `f64::max`, which
/// drops it): a NaN anywhere must make an error measure fail every
/// `err < tol` check instead of reading as 0.
fn max_or_nan(acc: f64, x: f64) -> f64 {
    if x > acc || x.is_nan() {
        x
    } else {
        acc
    }
}

/// Maximum absolute entry, widened to `f64`; NaN if any entry is NaN.
pub fn max_abs<T: Scalar>(a: MatRef<'_, T>) -> f64 {
    a.fold(0.0_f64, |acc, v| max_or_nan(acc, v.abs().to_f64()))
}

/// Frobenius norm, accumulated in `f64` regardless of the element type.
pub fn frobenius<T: Scalar>(a: MatRef<'_, T>) -> f64 {
    a.fold(0.0, |acc, v| acc + v.to_f64() * v.to_f64()).sqrt()
}

/// Maximum absolute elementwise difference (in `f64`); NaN if any
/// compared element is NaN. Panics on shape mismatch.
pub fn max_abs_diff<T: Scalar>(a: MatRef<'_, T>, b: MatRef<'_, T>) -> f64 {
    assert_eq!(a.rows(), b.rows(), "max_abs_diff: row mismatch");
    assert_eq!(a.cols(), b.cols(), "max_abs_diff: col mismatch");
    let mut worst = 0.0_f64;
    for j in 0..a.cols() {
        for i in 0..a.rows() {
            // SAFETY: loop bounds are the (checked-equal) shape.
            let d =
                unsafe { (a.at_unchecked(i, j).to_f64() - b.at_unchecked(i, j).to_f64()).abs() };
            worst = max_or_nan(worst, d);
        }
    }
    worst
}

/// Relative error `||a - b||_max / max(1, ||b||_max)` — the acceptance
/// metric for FMM-vs-reference comparisons.
pub fn rel_error<T: Scalar>(a: MatRef<'_, T>, b: MatRef<'_, T>) -> f64 {
    max_abs_diff(a, b) / max_abs(b).max(1.0)
}

/// Tolerance for accepting an L-level FMM product of matrices with entries
/// in [-1, 1]. Strassen-like algorithms lose roughly a constant number of
/// bits per level; this bound is loose enough for every algorithm in the
/// registry at `k` up to ~10^4 yet tight enough to catch genuine bugs
/// (wrong coefficients produce O(1) errors).
pub fn fmm_tolerance(k: usize, levels: usize) -> f64 {
    let growth = 40.0_f64.powi(levels as i32).max(1.0);
    1e-12 * growth * (k.max(2) as f64)
}

/// Precision-scaled variant of [`fmm_tolerance`]: the [`Scalar::accuracy_bound`]
/// for `T`, so `f32` executions are accepted against a bound derived from
/// `f32::EPSILON` rather than the hard-wired `f64` constant above.
pub fn fmm_tolerance_t<T: Scalar>(k: usize, levels: usize) -> f64 {
    T::accuracy_bound(k, levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn frobenius_of_identity() {
        let id = Matrix::<f64>::identity(9);
        assert!((frobenius(id.as_ref()) - 3.0).abs() < 1e-15);
    }

    #[test]
    fn max_abs_diff_detects_single_entry() {
        let a = Matrix::<f64>::zeros(3, 3);
        let mut b = Matrix::zeros(3, 3);
        b.set(2, 1, 1e-3);
        assert_eq!(max_abs_diff(a.as_ref(), b.as_ref()), 1e-3);
    }

    #[test]
    fn rel_error_zero_for_identical() {
        let a = crate::fill::bench_workload(5, 7, 1);
        assert_eq!(rel_error(a.as_ref(), a.as_ref()), 0.0);
    }

    #[test]
    fn nan_entries_poison_every_error_measure() {
        let good = crate::fill::bench_workload(4, 3, 1);
        let mut bad = good.clone();
        bad.set(3, 2, f64::NAN);
        assert!(max_abs(bad.as_ref()).is_nan());
        assert!(max_abs_diff(bad.as_ref(), good.as_ref()).is_nan());
        assert!(max_abs_diff(good.as_ref(), bad.as_ref()).is_nan());
        // NaN fails every `err < tol` check the suite makes.
        assert!(rel_error(bad.as_ref(), good.as_ref()).is_nan());
        let bad32 = bad.cast::<f32>();
        assert!(rel_error(bad32.as_ref(), good.cast::<f32>().as_ref()).is_nan());
    }

    #[test]
    fn tolerance_grows_with_levels_and_k() {
        assert!(fmm_tolerance(1000, 2) > fmm_tolerance(1000, 1));
        assert!(fmm_tolerance(2000, 1) > fmm_tolerance(1000, 1));
        assert!(fmm_tolerance(1000, 2) < 1e-3);
    }

    #[test]
    #[should_panic(expected = "row mismatch")]
    fn diff_shape_mismatch_panics() {
        let a = Matrix::<f64>::zeros(2, 2);
        let b = Matrix::zeros(3, 2);
        max_abs_diff(a.as_ref(), b.as_ref());
    }
}
