//! Port of `gsl_sf_bessel_Knu_scaled_asympx_e` (GSL `bessel.c`), the Fig. 5
//! benchmark of the paper.
//!
//! The function evaluates the large-argument asymptotic expansion of the
//! scaled modified Bessel function `K_nu(x) * exp(x)` and contains exactly
//! 23 elementary floating-point operations, each of which is a potential
//! overflow site (Table 4).

use crate::machine::{GSL_DBL_EPSILON, M_PI};
use crate::result::{SfOutcome, SfResult, Status};
use fp_runtime::{Analyzable, BranchSite, Ctx, FpOp, Interval, OpSite};

/// Plain port of `gsl_sf_bessel_Knu_scaled_asympx_e(nu, x, result)`.
///
/// # Example
///
/// ```
/// use mini_gsl::bessel::bessel_knu_scaled_asympx;
/// let (r, status) = bessel_knu_scaled_asympx(1.0, 10.0);
/// assert!(status.is_success());
/// assert!(r.val > 0.0 && r.val.is_finite());
/// ```
pub fn bessel_knu_scaled_asympx(nu: f64, x: f64) -> SfOutcome {
    let mu = 4.0 * nu * nu;
    let mum1 = mu - 1.0;
    let mum9 = mu - 9.0;
    let pre = (M_PI / (2.0 * x)).sqrt();
    let r = nu / x;
    let val = pre * (1.0 + mum1 / (8.0 * x) + mum1 * mum9 / (128.0 * x * x));
    let err = 2.0 * GSL_DBL_EPSILON * val.abs() + pre * (0.1 * r * r * r).abs();
    (SfResult::new(val, err), Status::Success)
}

/// The probed Fig. 5 benchmark: every one of the 23 elementary operations is
/// reported as an [`fp_runtime::OpEvent`] with the site numbering of
/// Table 4.
#[derive(Debug, Clone, Copy, Default)]
pub struct BesselKnuScaled;

impl BesselKnuScaled {
    /// Creates the benchmark.
    pub fn new() -> Self {
        BesselKnuScaled
    }

    /// Number of elementary floating-point operations (the paper's `|Op|`).
    pub const NUM_OPS: u32 = 23;

    /// Executes the instrumented body on `(nu, x)`.
    pub fn eval_probed(&self, nu: f64, x: f64, ctx: &mut Ctx<'_>) -> SfOutcome {
        // double mu = 4.0 * nu * nu;
        let t = ctx.op(0, FpOp::Mul, 4.0 * nu);
        let mu = ctx.op(1, FpOp::Mul, t * nu);
        // double mum1 = mu - 1.0;
        let mum1 = ctx.op(2, FpOp::Sub, mu - 1.0);
        // double mum9 = mu - 9.0;
        let mum9 = ctx.op(3, FpOp::Sub, mu - 9.0);
        // double pre = sqrt(M_PI / (2.0 * x));
        let tx = ctx.op(4, FpOp::Mul, 2.0 * x);
        let frac = ctx.op(5, FpOp::Div, M_PI / tx);
        let pre = frac.sqrt();
        // double r = nu / x;
        let r = ctx.op(6, FpOp::Div, nu / x);
        // result->val = pre * (1.0 + mum1/(8.0*x) + mum1*mum9/(128.0*x*x));
        let e8x = ctx.op(7, FpOp::Mul, 8.0 * x);
        let term1 = ctx.op(8, FpOp::Div, mum1 / e8x);
        let onep = ctx.op(9, FpOp::Add, 1.0 + term1);
        let mm = ctx.op(10, FpOp::Mul, mum1 * mum9);
        let c128x = ctx.op(11, FpOp::Mul, 128.0 * x);
        let c128xx = ctx.op(12, FpOp::Mul, c128x * x);
        let term2 = ctx.op(13, FpOp::Div, mm / c128xx);
        let sum = ctx.op(14, FpOp::Add, onep + term2);
        let val = ctx.op(15, FpOp::Mul, pre * sum);
        // result->err = 2.0*GSL_DBL_EPSILON*fabs(val) + pre*fabs(0.1*r*r*r);
        let two_eps = ctx.op(16, FpOp::Mul, 2.0 * GSL_DBL_EPSILON);
        let abs_term = ctx.op(17, FpOp::Mul, two_eps * val.abs());
        let r01 = ctx.op(18, FpOp::Mul, 0.1 * r);
        let rr = ctx.op(19, FpOp::Mul, r01 * r);
        let rrr = ctx.op(20, FpOp::Mul, rr * r);
        let pre_term = ctx.op(21, FpOp::Mul, pre * rrr.abs());
        let err = ctx.op(22, FpOp::Add, abs_term + pre_term);
        (SfResult::new(val, err), Status::Success)
    }
}

impl Analyzable for BesselKnuScaled {
    fn name(&self) -> &str {
        "gsl_sf_bessel_Knu_scaled_asympx_e"
    }

    fn num_inputs(&self) -> usize {
        2
    }

    fn search_domain(&self) -> Vec<Interval> {
        // nu and x range over the whole binary64 line, as in the paper's
        // overflow experiments (inputs like 1.79e308 are reported).
        vec![Interval::whole(), Interval::whole()]
    }

    fn op_sites(&self) -> Vec<OpSite> {
        vec![
            OpSite::new(0, FpOp::Mul, "double mu = 4.0 * nu*nu"),
            OpSite::new(1, FpOp::Mul, "double mu = 4.0*nu * nu"),
            OpSite::new(2, FpOp::Sub, "double mum1 = mu - 1.0"),
            OpSite::new(3, FpOp::Sub, "double mum9 = mu - 9.0"),
            OpSite::new(4, FpOp::Mul, "double pre = sqrt(M_PI/(2.0 * x))"),
            OpSite::new(5, FpOp::Div, "double pre = sqrt(M_PI / (2.0*x))"),
            OpSite::new(6, FpOp::Div, "double r = nu / x"),
            OpSite::new(7, FpOp::Mul, "val = pre*(1.0 + mum1/(8.0 * x) + ...)"),
            OpSite::new(8, FpOp::Div, "val = pre*(1.0 + mum1 / (8.0*x) + ...)"),
            OpSite::new(9, FpOp::Add, "val = pre*(1.0 + mum1/(8.0*x) + ...)"),
            OpSite::new(10, FpOp::Mul, "val = pre*(... + mum1 * mum9/(128.0*x*x))"),
            OpSite::new(11, FpOp::Mul, "val = pre*(... + mum1*mum9/(128.0 * x*x))"),
            OpSite::new(12, FpOp::Mul, "val = pre*(... + mum1*mum9/(128.0*x * x))"),
            OpSite::new(13, FpOp::Div, "val = pre*(... + mum1*mum9 / (128.0*x*x))"),
            OpSite::new(14, FpOp::Add, "val = pre*(1.0 + ... + ...)"),
            OpSite::new(15, FpOp::Mul, "val = pre * (1.0 + ... + ...)"),
            OpSite::new(16, FpOp::Mul, "err = 2.0 * EPSILON*fabs(val) + ..."),
            OpSite::new(17, FpOp::Mul, "err = 2.0*EPSILON * fabs(val) + ..."),
            OpSite::new(18, FpOp::Mul, "err = ... + pre*fabs(0.1 * r*r*r)"),
            OpSite::new(19, FpOp::Mul, "err = ... + pre*fabs(0.1*r * r*r)"),
            OpSite::new(20, FpOp::Mul, "err = ... + pre*fabs(0.1*r*r * r)"),
            OpSite::new(21, FpOp::Mul, "err = ... + pre * fabs(0.1*r*r*r)"),
            OpSite::new(22, FpOp::Add, "err = 2.0*EPSILON*fabs(val) + pre*fabs(...)"),
        ]
    }

    fn branch_sites(&self) -> Vec<BranchSite> {
        Vec::new()
    }

    fn execute(&self, input: &[f64], ctx: &mut Ctx<'_>) -> Option<f64> {
        let (r, _) = self.eval_probed(input[0], input[1], ctx);
        Some(r.val)
    }
}

/// Invokes the plain GSL-convention function on a 2-element input slice;
/// used by the inconsistency replay of Table 5.
pub fn bessel_outcome(input: &[f64]) -> SfOutcome {
    bessel_knu_scaled_asympx(input[0], input[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_runtime::{NullObserver, TraceRecorder};

    #[test]
    fn matches_asymptotic_value_for_moderate_inputs() {
        // K_0(10) * e^10 ≈ 0.39163... ; the asymptotic expansion is close.
        let (r, status) = bessel_knu_scaled_asympx(0.0, 10.0);
        assert!(status.is_success());
        assert!((r.val - 0.391_66).abs() < 1e-3, "val = {}", r.val);
        assert!(r.err >= 0.0);
    }

    #[test]
    fn probed_and_plain_versions_agree() {
        let b = BesselKnuScaled::new();
        let mut obs = NullObserver;
        for &(nu, x) in &[(0.5, 3.0), (2.0, 25.0), (10.0, 1.0e5), (-1.5, 0.25)] {
            let mut ctx = Ctx::new(&mut obs);
            let (probed, _) = b.eval_probed(nu, x, &mut ctx);
            let (plain, _) = bessel_knu_scaled_asympx(nu, x);
            assert_eq!(
                probed.val.to_bits(),
                plain.val.to_bits(),
                "val at ({nu}, {x})"
            );
            assert_eq!(
                probed.err.to_bits(),
                plain.err.to_bits(),
                "err at ({nu}, {x})"
            );
        }
    }

    #[test]
    fn reports_exactly_23_operations() {
        let b = BesselKnuScaled::new();
        assert_eq!(b.op_sites().len(), 23);
        let mut rec = TraceRecorder::new();
        b.run(&[1.0, 2.0], &mut rec);
        assert_eq!(rec.ops().count(), 23);
        // Site ids are 0..=22, each seen exactly once.
        let mut ids: Vec<u32> = rec.ops().map(|o| o.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn paper_inputs_trigger_overflows() {
        // Table 4: nu = 1.79e308 overflows the first multiplication,
        // nu = 3.9e157 overflows the second.
        let b = BesselKnuScaled::new();
        let mut rec = TraceRecorder::new();
        b.run(&[1.79e308, -1.5e2], &mut rec);
        let first = rec.ops().find(|o| o.id.0 == 0).unwrap();
        assert!(first.overflowed(), "4.0 * nu should overflow");

        let mut rec = TraceRecorder::new();
        b.run(&[3.9e157, 2.5e2], &mut rec);
        let second = rec.ops().find(|o| o.id.0 == 1).unwrap();
        assert!(second.overflowed(), "(4.0*nu) * nu should overflow");
        let first = rec.ops().find(|o| o.id.0 == 0).unwrap();
        assert!(!first.overflowed(), "4.0 * nu should stay finite");
    }

    #[test]
    fn inconsistency_shape_of_table5() {
        // Table 5 row 1: nu = 1.79e308, x = -1.5e2 gives SUCCESS with nan val.
        let (r, status) = bessel_outcome(&[1.79e308, -1.5e2]);
        assert!(status.is_success());
        assert!(r.is_exceptional(), "val = {}, err = {}", r.val, r.err);
        // Table 5 row 3: negative operand of sqrt.
        let (r, status) = bessel_outcome(&[8.4e77, -2.5e2]);
        assert!(status.is_success());
        assert!(r.val.is_nan() || r.err.is_nan());
    }

    #[test]
    fn metadata() {
        let b = BesselKnuScaled::new();
        assert_eq!(b.num_inputs(), 2);
        assert_eq!(b.search_domain().len(), 2);
        assert!(b.branch_sites().is_empty());
        assert_eq!(b.name(), "gsl_sf_bessel_Knu_scaled_asympx_e");
    }
}
