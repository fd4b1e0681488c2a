//! Port of `gsl_sf_hyperg_2F0_e` (GSL `hyperg_2F0.c`), the second benchmark
//! of the overflow study (Tables 3 and 5).
//!
//! GSL computes `2F0(a, b, x)` for `x < 0` through the confluent
//! hypergeometric function of the second kind:
//! `2F0(a,b,x) = (-1/x)^a U(a, 1+a-b, -1/x)`. The full `gsl_sf_hyperg_U_e`
//! is a very large routine; this port substitutes a truncated asymptotic
//! series for `U` (see `DESIGN.md`), which preserves the operation and
//! error-propagation structure of `2F0` itself — the part the paper's
//! analyses exercise.

use crate::machine::GSL_DBL_EPSILON;
use crate::result::{SfOutcome, SfResult, Status};
use fp_runtime::{Analyzable, BranchSite, Cmp, Ctx, FpOp, Interval, NullObserver, OpSite};

/// Truncated asymptotic series for `U(a, b, x) ≈ x^-a Σ (a)_k (a-b+1)_k / (k! (-x)^k)`.
///
/// Returns value and a crude error estimate (the magnitude of the last term).
fn hyperg_u_series(a: f64, b: f64, x: f64) -> SfResult {
    let xa = x.powf(-a);
    let mut sum = 1.0;
    let mut term = 1.0;
    let mut last = 1.0_f64;
    for k in 0..15 {
        let kf = k as f64;
        term *= (a + kf) * (a - b + 1.0 + kf) / ((kf + 1.0) * (-x));
        // An asymptotic series: stop when the terms start growing.
        if term.abs() > last.abs() {
            break;
        }
        sum += term;
        last = term;
    }
    SfResult::new(
        xa * sum,
        (xa * last).abs() + GSL_DBL_EPSILON * (xa * sum).abs(),
    )
}

/// Probed body of `gsl_sf_hyperg_2F0_e(a, b, x, result)`.
pub fn hyperg_2f0_probed(a: f64, b: f64, x: f64, ctx: &mut Ctx<'_>) -> SfOutcome {
    if ctx.branch(0, x, Cmp::Lt, 0.0) {
        // 2F0(a,b,x) = (-1/x)^a U(a, 1+a-b, -1/x)
        let mxi = ctx.op(0, FpOp::Div, -1.0 / x);
        let pre = ctx.op(1, FpOp::Pow, mxi.powf(a));
        let ap1 = ctx.op(2, FpOp::Add, 1.0 + a);
        let bu = ctx.op(3, FpOp::Sub, ap1 - b);
        let u = hyperg_u_series(a, bu, mxi);
        let val = ctx.op(4, FpOp::Mul, pre * u.val);
        let e1 = ctx.op(5, FpOp::Mul, GSL_DBL_EPSILON * val.abs());
        let e2 = ctx.op(6, FpOp::Mul, pre * u.err);
        let err = ctx.op(7, FpOp::Add, e1 + e2);
        (SfResult::new(val, err), Status::Success)
    } else if ctx.branch(1, x, Cmp::Eq, 0.0) {
        (SfResult::new(1.0, 0.0), Status::Success)
    } else {
        // x > 0 is a domain error in GSL.
        (SfResult::new(f64::NAN, f64::NAN), Status::Domain)
    }
}

/// Plain GSL-convention entry point.
///
/// # Example
///
/// ```
/// use mini_gsl::hyperg::hyperg_2f0_e;
/// let (r, status) = hyperg_2f0_e(0.5, 1.5, -0.01);
/// assert!(status.is_success());
/// assert!(r.val.is_finite());
/// ```
pub fn hyperg_2f0_e(a: f64, b: f64, x: f64) -> SfOutcome {
    let mut obs = NullObserver;
    let mut ctx = Ctx::new(&mut obs);
    hyperg_2f0_probed(a, b, x, &mut ctx)
}

/// Invokes the plain function on a 3-element slice (Table 5 replay).
pub fn hyperg_outcome(input: &[f64]) -> SfOutcome {
    hyperg_2f0_e(input[0], input[1], input[2])
}

/// The probed Hypergeometric benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hyperg2F0;

impl Hyperg2F0 {
    /// Creates the benchmark.
    pub fn new() -> Self {
        Hyperg2F0
    }

    /// Number of labelled floating-point operation sites (the paper's 8).
    pub const NUM_OPS: u32 = 8;
}

impl Analyzable for Hyperg2F0 {
    fn name(&self) -> &str {
        "gsl_sf_hyperg_2F0_e"
    }

    fn num_inputs(&self) -> usize {
        3
    }

    fn search_domain(&self) -> Vec<Interval> {
        vec![Interval::whole(), Interval::whole(), Interval::whole()]
    }

    fn op_sites(&self) -> Vec<OpSite> {
        vec![
            OpSite::new(0, FpOp::Div, "double pre = pow(-1.0/x, a): -1.0/x"),
            OpSite::new(1, FpOp::Pow, "double pre = pow (-1.0/x, a)"),
            OpSite::new(2, FpOp::Add, "1.0 + a"),
            OpSite::new(3, FpOp::Sub, "(1.0 + a) - b"),
            OpSite::new(4, FpOp::Mul, "result->val = pre * U.val"),
            OpSite::new(5, FpOp::Mul, "err = GSL_DBL_EPSILON * fabs(val) + ..."),
            OpSite::new(6, FpOp::Mul, "err = ... + pre * U.err"),
            OpSite::new(7, FpOp::Add, "err = EPSILON*fabs(val) + pre*U.err"),
        ]
    }

    fn branch_sites(&self) -> Vec<BranchSite> {
        vec![
            BranchSite::new(0, Cmp::Lt, "x < 0.0"),
            BranchSite::new(1, Cmp::Eq, "x == 0.0"),
        ]
    }

    fn execute(&self, input: &[f64], ctx: &mut Ctx<'_>) -> Option<f64> {
        let (r, _) = hyperg_2f0_probed(input[0], input[1], input[2], ctx);
        Some(r.val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_runtime::TraceRecorder;

    #[test]
    fn small_negative_argument_is_near_one() {
        // 2F0(a, b, x) = 1 + a*b*x + O(x^2) for x -> 0^-.
        let (r, status) = hyperg_2f0_e(0.5, 1.5, -1.0e-4);
        assert!(status.is_success());
        let expected = 1.0 + 0.5 * 1.5 * (-1.0e-4);
        assert!((r.val - expected).abs() < 1e-4, "val = {}", r.val);
    }

    #[test]
    fn zero_argument_is_exactly_one() {
        let (r, status) = hyperg_2f0_e(2.0, 3.0, 0.0);
        assert!(status.is_success());
        assert_eq!(r.val, 1.0);
    }

    #[test]
    fn positive_argument_is_domain_error() {
        let (_, status) = hyperg_2f0_e(1.0, 1.0, 0.5);
        assert_eq!(status, Status::Domain);
    }

    #[test]
    fn table5_inconsistencies_reproduce() {
        // Table 5: large exponent of pow — (-1/x)^a overflows.
        let (r, status) = hyperg_outcome(&[-6.2e2, -3.7e2, -1.5e2]);
        assert!(status.is_success());
        assert!(r.is_exceptional(), "val = {}, err = {}", r.val, r.err);
        // Table 5: large operands — a denormal x overflows -1.0/x, which then
        // propagates through pow and the final multiplication while the
        // status stays SUCCESS.
        let (r, status) = hyperg_outcome(&[2.0, 1.0, -1.0e-320]);
        assert!(status.is_success());
        assert!(r.is_exceptional(), "val = {}, err = {}", r.val, r.err);
    }

    #[test]
    fn probed_benchmark_reports_eight_ops() {
        let h = Hyperg2F0::new();
        assert_eq!(h.op_sites().len(), 8);
        assert_eq!(h.num_inputs(), 3);
        let mut rec = TraceRecorder::new();
        h.run(&[0.5, 1.5, -2.0], &mut rec);
        assert_eq!(rec.ops().count(), 8);
        assert_eq!(rec.branches().count(), 1);
    }

    #[test]
    fn probed_and_plain_agree() {
        let h = Hyperg2F0::new();
        let mut rec = TraceRecorder::new();
        let probed = h.run(&[0.5, 1.5, -2.0], &mut rec).unwrap();
        let (plain, _) = hyperg_2f0_e(0.5, 1.5, -2.0);
        assert_eq!(probed.to_bits(), plain.val.to_bits());
    }
}
