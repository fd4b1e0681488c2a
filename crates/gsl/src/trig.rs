//! Trigonometric helpers following GSL's `trig.c` structure.
//!
//! [`cos_e`] ports the shape of `gsl_sf_cos_e`: a Cody–Waite style argument
//! reduction by multiples of π/4 using a three-part split of the constant,
//! followed by a polynomial kernel on the reduced angle, always returning
//! `GSL_SUCCESS` for finite inputs.
//!
//! This structure reproduces the *behavioural* defect underlying the
//! paper's Bug 2: once `|x|` is so large that `x/(π/4)` cannot be resolved
//! to an exact integer in binary64, the reduced angle is garbage of
//! potentially enormous magnitude, and the kernel — valid only on
//! `[-π/4, π/4]` — produces values of arbitrary magnitude, including
//! infinities, while the returned status remains `GSL_SUCCESS`.

use crate::machine::{GSL_DBL_EPSILON, M_PI};
use crate::result::{SfOutcome, SfResult, Status};

/// Three-part split of π/4 (the classic Cody–Waite constants).
const P1: f64 = 7.853_981_256_484_985_351_56e-1;
const P2: f64 = 3.774_894_707_930_798_176_68e-8;
const P3: f64 = 2.695_151_429_079_059_526_45e-15;

/// Maclaurin polynomial for cosine, accurate on `[-π/2, π/2]`, wildly invalid
/// outside — exactly the failure mode of evaluating a fixed expansion after
/// a failed argument reduction.
fn cos_poly(z: f64) -> f64 {
    let z2 = z * z;
    1.0 + z2
        * (-0.5
            + z2 * (1.0 / 24.0
                + z2 * (-1.0 / 720.0
                    + z2 * (1.0 / 40_320.0
                        + z2 * (-1.0 / 3_628_800.0
                            + z2 * (1.0 / 479_001_600.0
                                + z2 * (-1.0 / 87_178_291_200.0
                                    + z2 * (1.0 / 20_922_789_888_000.0))))))))
}

/// Maclaurin polynomial for sine, accurate on `[-π/2, π/2]`.
fn sin_poly(z: f64) -> f64 {
    let z2 = z * z;
    z * (1.0
        + z2 * (-1.0 / 6.0
            + z2 * (1.0 / 120.0
                + z2 * (-1.0 / 5_040.0
                    + z2 * (1.0 / 362_880.0
                        + z2 * (-1.0 / 39_916_800.0 + z2 * (1.0 / 6_227_020_800.0)))))))
}

/// Port of `gsl_sf_cos_e(x, result)` with GSL's "always succeed on finite
/// input" behaviour.
///
/// # Example
///
/// ```
/// use mini_gsl::trig::cos_e;
/// let (r, status) = cos_e(1.0);
/// assert!(status.is_success());
/// assert!((r.val - 1.0_f64.cos()).abs() < 1e-12);
/// ```
pub fn cos_e(x: f64) -> SfOutcome {
    if x.is_nan() {
        return (SfResult::new(f64::NAN, f64::NAN), Status::Domain);
    }
    let abs_x = x.abs();
    if abs_x < M_PI / 4.0 {
        let val = cos_poly(abs_x);
        let err = GSL_DBL_EPSILON * val.abs();
        return (SfResult::new(val, err), Status::Success);
    }
    // Reduction by multiples of π/4: y is the (floating-point) multiple and
    // the octant selects the kernel. For |x| beyond 2^53 the octant and the
    // reduced angle are both meaningless, but the code — like GSL's —
    // proceeds regardless.
    let mut y = (abs_x / (M_PI / 4.0)).floor();
    let mut octant = (y - 8.0 * (y / 8.0).floor()) as i64;
    if octant % 2 != 0 {
        octant += 1;
        y += 1.0;
    }
    octant %= 8;
    let z = ((abs_x - y * P1) - y * P2) - y * P3;
    let val = match octant {
        0 => cos_poly(z),
        2 => -sin_poly(z),
        4 => -cos_poly(z),
        6 => sin_poly(z),
        // Unreachable for well-reduced arguments; garbage octants (huge
        // inputs) fall back to the cosine kernel, as the original does.
        _ => cos_poly(z),
    };
    let err = GSL_DBL_EPSILON * (1.0 + abs_x * GSL_DBL_EPSILON) * val.abs().max(1.0);
    (SfResult::new(val, err), Status::Success)
}

/// Port of `gsl_sf_cos_err_e(x, dx, result)`: cosine of an argument known
/// only up to an absolute uncertainty `dx`; the error estimate is inflated
/// by `|sin(x)| * dx`.
pub fn cos_err_e(x: f64, dx: f64) -> SfOutcome {
    let (mut result, status) = cos_e(x);
    result.err += (dx * x.sin()).abs();
    result.err += GSL_DBL_EPSILON * result.val.abs();
    (result, status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accurate_for_moderate_arguments() {
        for &x in &[0.0, 0.5, -1.2, 3.0, -3.1, 10.0, -40.0, 1.0e3, 12_345.678] {
            let (r, status) = cos_e(x);
            assert!(status.is_success());
            assert!((r.val - x.cos()).abs() < 1e-9, "cos({x}) = {}", r.val);
        }
    }

    #[test]
    fn error_estimate_grows_with_argument_uncertainty() {
        let (small, _) = cos_err_e(1.0, 1e-15);
        let (large, _) = cos_err_e(1.0, 1e-3);
        assert!(large.err > small.err);
    }

    #[test]
    fn huge_arguments_keep_success_but_lose_meaning() {
        // The Bug 2 mechanism: a huge phase with a huge uncertainty (the
        // values the Airy function passes for x ≈ -1.14e34).
        let mut garbage = 0;
        for k in 0..50 {
            let x = -8.11e50 * (1.0 + k as f64 * 1e-3);
            let (r, status) = cos_err_e(x, 7.50e35);
            assert!(status.is_success(), "GSL-style: status stays SUCCESS");
            if !r.val.is_finite() || r.val.abs() > 1.0 || !r.err.is_finite() || r.err > 1.0 {
                garbage += 1;
            }
        }
        assert!(
            garbage > 40,
            "only {garbage}/50 huge arguments were garbage"
        );
    }

    #[test]
    fn nan_input_is_a_domain_error() {
        let (_, status) = cos_e(f64::NAN);
        assert_eq!(status, Status::Domain);
    }

    #[test]
    fn kernels_are_consistent_on_reduction_interval() {
        for i in 0..100 {
            let z = -0.78 + 1.56 * i as f64 / 99.0;
            assert!((cos_poly(z) - z.cos()).abs() < 1e-13, "cos_poly({z})");
            assert!((sin_poly(z) - z.sin()).abs() < 1e-13, "sin_poly({z})");
        }
    }
}
