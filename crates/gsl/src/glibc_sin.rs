//! A branch-faithful port of the Glibc 2.19 `sin` routine
//! (`sysdeps/ieee754/dbl-64/s_sin.c`), the Section 6.2 case study.
//!
//! The paper's boundary value analysis does not care about the polynomial
//! kernels inside each range — it targets the *range-selection branches*,
//! which compare the high word `k = 0x7fffffff & hi(x)` of the input against
//! five hexadecimal constants (Fig. 8). This port keeps exactly that
//! structure: `k` is extracted from the binary64 representation and compared
//! against the same constants; the per-range computations use simple
//! approximations of the original kernels.

use fp_runtime::{Analyzable, BranchSite, Cmp, Ctx, FpOp, Interval, NullObserver, OpSite};

/// The five high-word thresholds of Fig. 8, in source order.
pub const K_THRESHOLDS: [u32; 5] = [
    0x3e50_0000, // |x| < 1.490120e-08
    0x3feb_6000, // |x| < 8.554690e-01
    0x4003_68fd, // |x| < 2.426260e+00
    0x4199_21fb, // |x| < 1.054140e+08
    0x7ff0_0000, // |x| < 2^1024
];

/// The `|x|` values the developers quote for each threshold (Table 2's
/// `ref` row).
pub const REFERENCE_BOUNDS: [f64; 5] =
    [1.490_120e-8, 8.554_690e-1, 2.426_260, 1.054_140e8, f64::MAX];

/// Extracts `k = 0x7fffffff & (high word of x)`, the quantity every branch
/// of the Glibc implementation compares.
pub fn high_word(x: f64) -> u32 {
    ((x.to_bits() >> 32) as u32) & 0x7fff_ffff
}

/// The smallest nonnegative double whose high word equals `k` (with low word
/// zero); useful for turning a boundary condition on `k` back into an input.
pub fn double_from_high_word(k: u32) -> f64 {
    f64::from_bits((k as u64) << 32)
}

fn poly_sin(x: f64) -> f64 {
    // Degree-13 Maclaurin polynomial, plenty for |x| < 0.855.
    let x2 = x * x;
    x * (1.0
        + x2 * (-1.0 / 6.0
            + x2 * (1.0 / 120.0
                + x2 * (-1.0 / 5_040.0 + x2 * (1.0 / 362_880.0 + x2 * (-1.0 / 39_916_800.0))))))
}

fn reduce_and_sin(x: f64) -> f64 {
    // Cody-Waite style reduction good enough for the mid ranges.
    let two_pi = 2.0 * std::f64::consts::PI;
    let n = (x / two_pi).round();
    let r = x - n * two_pi;
    r.sin()
}

/// Probed body of the Glibc-structured `sin`.
///
/// Branch site `i` compares `k` against `K_THRESHOLDS[i]` with `<`; every
/// comparison is reported so that boundary value analysis can target
/// `k == c` for each threshold.
pub fn glibc_sin_probed(x: f64, ctx: &mut Ctx<'_>) -> f64 {
    let k = high_word(x) as f64;
    if ctx.branch(0, k, Cmp::Lt, K_THRESHOLDS[0] as f64) {
        // |x| < 1.49e-8: sin(x) = x to double precision.
        x
    } else if ctx.branch(1, k, Cmp::Lt, K_THRESHOLDS[1] as f64) {
        // |x| < 0.855: polynomial kernel.
        ctx.op(0, FpOp::Sin, poly_sin(x))
    } else if ctx.branch(2, k, Cmp::Lt, K_THRESHOLDS[2] as f64) {
        // |x| < 2.426: sin(x) = sign(x) * cos(|x| - pi/2) via the kernel.
        let shifted = x.abs() - std::f64::consts::FRAC_PI_2;
        let c = ctx.op(1, FpOp::Cos, shifted.cos());
        if x >= 0.0 {
            c
        } else {
            -c
        }
    } else if ctx.branch(3, k, Cmp::Lt, K_THRESHOLDS[3] as f64) {
        // |x| < 1.05e8: reduction by a few multiples of 2*pi.
        ctx.op(2, FpOp::Sin, reduce_and_sin(x))
    } else if ctx.branch(4, k, Cmp::Lt, K_THRESHOLDS[4] as f64) {
        // |x| < 2^1024: full payne-hanek style reduction in Glibc; here the
        // same naive reduction (accuracy is irrelevant to the analysis).
        ctx.op(3, FpOp::Sin, reduce_and_sin(x))
    } else {
        // x is inf or NaN.
        f64::NAN
    }
}

/// Plain (unobserved) version.
///
/// # Example
///
/// ```
/// use mini_gsl::glibc_sin::glibc_sin;
/// assert!((glibc_sin(0.5) - 0.5_f64.sin()).abs() < 1e-12);
/// ```
pub fn glibc_sin(x: f64) -> f64 {
    let mut obs = NullObserver;
    let mut ctx = Ctx::new(&mut obs);
    glibc_sin_probed(x, &mut ctx)
}

/// The probed GNU `sin` benchmark of Section 6.2.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlibcSin;

impl GlibcSin {
    /// Creates the benchmark.
    pub fn new() -> Self {
        GlibcSin
    }

    /// Number of range-selection branches (each contributes two boundary
    /// conditions ±|x|, giving the paper's count of 10).
    pub const NUM_BRANCHES: u32 = 5;
}

impl Analyzable for GlibcSin {
    fn name(&self) -> &str {
        "glibc sin (2.19, x86-64 structure)"
    }

    fn num_inputs(&self) -> usize {
        1
    }

    fn search_domain(&self) -> Vec<Interval> {
        vec![Interval::whole()]
    }

    fn op_sites(&self) -> Vec<OpSite> {
        vec![
            OpSite::new(0, FpOp::Sin, "polynomial kernel, |x| < 0.855"),
            OpSite::new(1, FpOp::Cos, "cos kernel, |x| < 2.426"),
            OpSite::new(2, FpOp::Sin, "reduced kernel, |x| < 1.054e8"),
            OpSite::new(3, FpOp::Sin, "payne-hanek kernel, |x| < 2^1024"),
        ]
    }

    fn branch_sites(&self) -> Vec<BranchSite> {
        vec![
            BranchSite::new(0, Cmp::Lt, "k < 0x3e500000"),
            BranchSite::new(1, Cmp::Lt, "k < 0x3feb6000"),
            BranchSite::new(2, Cmp::Lt, "k < 0x400368fd"),
            BranchSite::new(3, Cmp::Lt, "k < 0x419921fb"),
            BranchSite::new(4, Cmp::Lt, "k < 0x7ff00000"),
        ]
    }

    fn execute(&self, input: &[f64], ctx: &mut Ctx<'_>) -> Option<f64> {
        Some(glibc_sin_probed(input[0], ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_runtime::TraceRecorder;

    #[test]
    fn agrees_with_std_sin_on_every_range() {
        for &x in &[
            1.0e-9, -3.0e-9, 0.1, -0.5, 0.854, 1.0, -2.0, 2.4, 10.0, -1.0e4, 5.0e7, 1.0e9, -3.0e10,
        ] {
            let got = glibc_sin(x);
            let want = x.sin();
            assert!(
                (got - want).abs() < 1e-6,
                "sin({x}) = {got}, expected {want}"
            );
        }
    }

    #[test]
    fn non_finite_inputs_return_nan() {
        assert!(glibc_sin(f64::INFINITY).is_nan());
        assert!(glibc_sin(f64::NAN).is_nan());
    }

    #[test]
    fn high_word_extraction_matches_thresholds() {
        // 1.4901161193847656e-8 = 2^-26 has high word exactly 0x3e500000.
        assert_eq!(high_word(2.0_f64.powi(-26)), 0x3e50_0000);
        assert_eq!(high_word(-(2.0_f64.powi(-26))), 0x3e50_0000);
        // The reference |x| bounds sit at (or just above) their thresholds.
        for (i, &k) in K_THRESHOLDS.iter().enumerate().take(4) {
            let x = double_from_high_word(k);
            assert_eq!(high_word(x), k);
            let rel = (x - REFERENCE_BOUNDS[i]).abs() / REFERENCE_BOUNDS[i];
            assert!(rel < 1e-4, "threshold {i}: {x} vs {}", REFERENCE_BOUNDS[i]);
        }
    }

    #[test]
    fn branch_events_expose_k_comparisons() {
        let s = GlibcSin::new();
        let mut rec = TraceRecorder::new();
        s.run(&[1.0], &mut rec);
        let branches: Vec<_> = rec.branches().collect();
        // x = 1.0 falls in the third range: branches 0, 1 and 2 execute.
        assert_eq!(branches.len(), 3);
        assert_eq!(branches[0].lhs, high_word(1.0) as f64);
        assert!(!branches[0].taken);
        assert!(!branches[1].taken);
        assert!(branches[2].taken);
    }

    #[test]
    fn boundary_condition_is_reachable_for_first_threshold() {
        // Executing on the smallest |x| of the second range hits k == c.
        let x = double_from_high_word(K_THRESHOLDS[0]);
        let s = GlibcSin::new();
        let mut rec = TraceRecorder::new();
        s.run(&[x], &mut rec);
        let b0 = rec.branches().next().unwrap();
        assert_eq!(b0.lhs, b0.rhs, "k == threshold 0 boundary condition");
    }

    #[test]
    fn last_two_boundary_conditions_are_unreachable() {
        // k == 0x7ff00000 requires |x| = 2^1024 which is not a finite double;
        // the largest finite double has high word 0x7fefffff.
        assert_eq!(high_word(f64::MAX), 0x7fef_ffff);
        assert!(high_word(f64::MAX) < K_THRESHOLDS[4]);
    }

    #[test]
    fn metadata() {
        let s = GlibcSin::new();
        assert_eq!(s.num_inputs(), 1);
        assert_eq!(s.branch_sites().len(), 5);
        assert_eq!(s.op_sites().len(), 4);
    }
}
