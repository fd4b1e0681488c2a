//! Port of `gsl_sf_airy_Ai_e` (GSL `airy.c`), the third benchmark of the
//! overflow study (Tables 3 and 5).
//!
//! Structure of the port (mirroring GSL):
//!
//! * `x < -1` — oscillatory region: `airy_mod_phase` computes a modulus and
//!   a phase from asymptotic correction series, then [`cos_err_e`]
//!   combines them;
//! * `-1 <= x <= 1` — Maclaurin series `Ai(x) = c1 f(x) - c2 g(x)`;
//! * `x > 1` — exponentially decaying asymptotic expansion.
//!
//! Two defects of the original library are reproduced behaviourally (see
//! `DESIGN.md`):
//!
//! * **Bug 1** (division by a vanished intermediate): the modulus
//!   correction series suffers absorption against the constant `0.3125` for
//!   inputs near `x ≈ -3.02`, evaluating to exactly zero over a small input
//!   window; the error estimate divides by it, producing `inf` while the
//!   status stays `GSL_SUCCESS`.
//! * **Bug 2** (inaccurate cosine): for very negative inputs the phase is
//!   astronomically large; `cos_err_e`'s naive argument reduction then
//!   yields a meaningless (often infinite) value, again under
//!   `GSL_SUCCESS`.

use crate::machine::{GSL_DBL_EPSILON, M_PI_4, M_SQRTPI};
use crate::result::{SfOutcome, SfResult, Status};
use crate::trig::cos_err_e;
use fp_runtime::{Analyzable, BranchSite, Cmp, Ctx, FpOp, Interval, NullObserver, OpSite};

/// Ai(0) = 3^(-2/3) / Γ(2/3).
const AI_0: f64 = 0.355_028_053_887_817_24;
/// -Ai'(0) = 3^(-1/3) / Γ(1/3).
const AIP_0: f64 = 0.258_819_403_792_806_8;

/// Modulus/phase decomposition for `x < -1` (port of `airy_mod_phase`).
///
/// Returns `(modulus, phase, status)`.
pub fn airy_mod_phase(x: f64, ctx: &mut Ctx<'_>) -> (SfResult, SfResult, Status) {
    if x > -1.0 {
        return (
            SfResult::new(f64::NAN, f64::NAN),
            SfResult::new(f64::NAN, f64::NAN),
            Status::Domain,
        );
    }
    let x2 = ctx.op(0, FpOp::Mul, x * x);
    let x3 = ctx.op(1, FpOp::Mul, x2 * x);
    let inv = ctx.op(2, FpOp::Div, 16.0 / x3);

    // Correction series for the modulus; the grouping `(0.3125 + t) - 0.3125`
    // reproduces GSL's vanishing intermediate (Bug 1).
    let (result_m, result_p) = if ctx.branch(0, x, Cmp::Lt, -2.0) {
        let z = ctx.op(3, FpOp::Add, inv + 1.0);
        let t = ctx.op(4, FpOp::Mul, 0.01 * (z - 0.419_07));
        let absorbed = ctx.op(5, FpOp::Add, 0.3125 + t);
        let m_corr = ctx.op(6, FpOp::Sub, absorbed - 0.3125);
        let m_res = SfResult::new(m_corr, GSL_DBL_EPSILON * (0.3125 + t.abs()));
        let p_corr = ctx.op(
            7,
            FpOp::Mul,
            -0.041_666_666_666_666_664 * (1.0 + 0.05 * (z - 1.0)),
        );
        let p_res = SfResult::new(p_corr, GSL_DBL_EPSILON * p_corr.abs());
        (m_res, p_res)
    } else {
        let z9 = ctx.op(8, FpOp::Add, inv + 9.0);
        let z = ctx.op(9, FpOp::Div, z9 / 7.0);
        let t = ctx.op(10, FpOp::Mul, 0.002 * (z - 1.0) + 0.005_809);
        let absorbed = ctx.op(11, FpOp::Add, 0.3125 + t);
        let m_corr = ctx.op(12, FpOp::Sub, absorbed - 0.3125);
        let m_res = SfResult::new(m_corr, GSL_DBL_EPSILON * (0.3125 + t.abs()));
        let p_corr = ctx.op(
            13,
            FpOp::Mul,
            -0.041_666_666_666_666_664 * (1.0 + 0.03 * (z - 1.0)),
        );
        let p_res = SfResult::new(p_corr, GSL_DBL_EPSILON * p_corr.abs());
        (m_res, p_res)
    };

    let m = ctx.op(14, FpOp::Add, 0.3125 + result_m.val);
    let p = ctx.op(15, FpOp::Add, -0.625 + result_p.val);
    let sqx = (-x).sqrt();
    let m_over = ctx.op(16, FpOp::Div, m / sqx);
    let mod_val = m_over.sqrt();
    // GSL-style relative error of the correction: divides by result_m.val,
    // which vanishes near x ≈ -3.02 (Bug 1).
    let rel = ctx.op(17, FpOp::Div, result_m.err / result_m.val);
    let mod_err =
        ctx.op(18, FpOp::Mul, mod_val.abs() * rel.abs()) + GSL_DBL_EPSILON * mod_val.abs();

    let xsqx = ctx.op(19, FpOp::Mul, x * sqx);
    let phase_term = ctx.op(20, FpOp::Mul, xsqx * p);
    let theta_val = ctx.op(21, FpOp::Sub, M_PI_4 - phase_term);
    let theta_err = ctx.op(
        22,
        FpOp::Mul,
        xsqx.abs() * (result_p.err + GSL_DBL_EPSILON * p.abs()),
    ) + GSL_DBL_EPSILON * theta_val.abs();

    (
        SfResult::new(mod_val, mod_err),
        SfResult::new(theta_val, theta_err),
        Status::Success,
    )
}

/// Probed body of `gsl_sf_airy_Ai_e`.
pub fn airy_ai_probed(x: f64, ctx: &mut Ctx<'_>) -> SfOutcome {
    if ctx.branch(1, x, Cmp::Lt, -1.0) {
        // Oscillatory region.
        let (mod_r, theta_r, stat_mp) = airy_mod_phase(x, ctx);
        let (cos_r, stat_cos) = cos_err_e(theta_r.val, theta_r.err);
        let val = ctx.op(23, FpOp::Mul, mod_r.val * cos_r.val);
        let e1 = (mod_r.val * cos_r.err).abs();
        let e2 = (cos_r.val * mod_r.err).abs();
        let err0 = ctx.op(24, FpOp::Add, e1 + e2);
        let err = ctx.op(25, FpOp::Add, err0 + GSL_DBL_EPSILON * val.abs());
        (SfResult::new(val, err), stat_mp.select(stat_cos))
    } else if ctx.branch(2, x, Cmp::Le, 1.0) {
        // Maclaurin series Ai(x) = c1 f(x) - c2 g(x).
        let mut f = 1.0;
        let mut g = x;
        let mut term_f = 1.0;
        let mut term_g = x;
        let mut k = 0.0;
        for _ in 0..12 {
            term_f *= x * x * x / ((3.0 * k + 2.0) * (3.0 * k + 3.0));
            term_g *= x * x * x / ((3.0 * k + 3.0) * (3.0 * k + 4.0));
            f += term_f;
            g += term_g;
            k += 1.0;
        }
        let val = AI_0 * f - AIP_0 * g;
        let err = GSL_DBL_EPSILON * (1.0 + val.abs());
        (SfResult::new(val, err), Status::Success)
    } else {
        // Exponentially decaying asymptotic region.
        let sqx = x.sqrt();
        let xi = ctx.op(26, FpOp::Mul, 2.0 / 3.0 * (x * sqx));
        let pre_den = ctx.op(27, FpOp::Mul, 2.0 * M_SQRTPI * (sqx.sqrt()));
        let damp = (-xi).exp();
        let series = 1.0 - 5.0 / (72.0 * xi) + 385.0 / (10_368.0 * xi * xi);
        let num = ctx.op(28, FpOp::Mul, damp * series);
        let val = ctx.op(29, FpOp::Div, num / pre_den);
        let err = GSL_DBL_EPSILON * val.abs() * (1.0 + xi.abs() * GSL_DBL_EPSILON);
        (SfResult::new(val, err), Status::Success)
    }
}

/// Plain GSL-convention entry point `gsl_sf_airy_Ai_e(x, result)`.
///
/// # Example
///
/// ```
/// use mini_gsl::airy::airy_ai_e;
/// let (r, status) = airy_ai_e(0.0);
/// assert!(status.is_success());
/// assert!((r.val - 0.3550280538878172).abs() < 1e-12);
/// ```
pub fn airy_ai_e(x: f64) -> SfOutcome {
    let mut obs = NullObserver;
    let mut ctx = Ctx::new(&mut obs);
    airy_ai_probed(x, &mut ctx)
}

/// Invokes the plain function on a 1-element slice; used by the Table 5
/// inconsistency replay.
pub fn airy_outcome(input: &[f64]) -> SfOutcome {
    airy_ai_e(input[0])
}

/// The probed Airy benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct AiryAi;

impl AiryAi {
    /// Creates the benchmark.
    pub fn new() -> Self {
        AiryAi
    }

    /// Number of labelled floating-point operation sites.
    pub const NUM_OPS: u32 = 30;
}

impl Analyzable for AiryAi {
    fn name(&self) -> &str {
        "gsl_sf_airy_Ai_e"
    }

    fn num_inputs(&self) -> usize {
        1
    }

    fn search_domain(&self) -> Vec<Interval> {
        vec![Interval::whole()]
    }

    fn op_sites(&self) -> Vec<OpSite> {
        let labels: [(u32, FpOp, &str); 30] = [
            (0, FpOp::Mul, "airy_mod_phase: x*x"),
            (1, FpOp::Mul, "airy_mod_phase: (x*x)*x"),
            (2, FpOp::Div, "airy_mod_phase: 16.0/(x*x*x)"),
            (3, FpOp::Add, "airy_mod_phase: z = 16/x^3 + 1.0"),
            (4, FpOp::Mul, "airy_mod_phase: 0.01*(z - 0.41907)"),
            (5, FpOp::Add, "airy_mod_phase: 0.3125 + t"),
            (6, FpOp::Sub, "airy_mod_phase: (0.3125 + t) - 0.3125"),
            (7, FpOp::Mul, "airy_mod_phase: phase correction (x < -2)"),
            (8, FpOp::Add, "airy_mod_phase: 16/x^3 + 9.0"),
            (9, FpOp::Div, "airy_mod_phase: z = (16/x^3 + 9)/7"),
            (10, FpOp::Mul, "airy_mod_phase: 0.002*(z-1) + 0.005809"),
            (11, FpOp::Add, "airy_mod_phase: 0.3125 + t (branch 2)"),
            (
                12,
                FpOp::Sub,
                "airy_mod_phase: (0.3125 + t) - 0.3125 (branch 2)",
            ),
            (
                13,
                FpOp::Mul,
                "airy_mod_phase: phase correction (-2 <= x <= -1)",
            ),
            (14, FpOp::Add, "airy_mod_phase: m = 0.3125 + result_m.val"),
            (15, FpOp::Add, "airy_mod_phase: p = -0.625 + result_p.val"),
            (16, FpOp::Div, "airy_mod_phase: m / sqrt(-x)"),
            (17, FpOp::Div, "airy_mod_phase: result_m.err / result_m.val"),
            (18, FpOp::Mul, "airy_mod_phase: mod.err = |mod.val| * rel"),
            (19, FpOp::Mul, "airy_mod_phase: x * sqrt(-x)"),
            (20, FpOp::Mul, "airy_mod_phase: (x*sqrt(-x)) * p"),
            (21, FpOp::Sub, "airy_mod_phase: theta = pi/4 - x*sqx*p"),
            (22, FpOp::Mul, "airy_mod_phase: theta.err"),
            (23, FpOp::Mul, "airy_Ai: val = mod.val * cos_result.val"),
            (
                24,
                FpOp::Add,
                "airy_Ai: err = |mod*cos.err| + |cos*mod.err|",
            ),
            (25, FpOp::Add, "airy_Ai: err += EPSILON*|val|"),
            (26, FpOp::Mul, "airy_Ai (x>1): xi = 2/3 * x*sqrt(x)"),
            (27, FpOp::Mul, "airy_Ai (x>1): 2*sqrt(pi)*x^(1/4)"),
            (28, FpOp::Mul, "airy_Ai (x>1): exp(-xi)*series"),
            (29, FpOp::Div, "airy_Ai (x>1): val = num/den"),
        ];
        labels
            .iter()
            .map(|&(id, op, label)| OpSite::new(id, op, label))
            .collect()
    }

    fn branch_sites(&self) -> Vec<BranchSite> {
        vec![
            BranchSite::new(0, Cmp::Lt, "airy_mod_phase: x < -2.0"),
            BranchSite::new(1, Cmp::Lt, "airy_Ai: x < -1.0"),
            BranchSite::new(2, Cmp::Le, "airy_Ai: x <= 1.0"),
        ]
    }

    fn execute(&self, input: &[f64], ctx: &mut Ctx<'_>) -> Option<f64> {
        let (r, _) = airy_ai_probed(input[0], ctx);
        Some(r.val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_runtime::TraceRecorder;

    #[test]
    fn series_region_matches_reference_values() {
        // Reference values of Ai from DLMF/Abramowitz & Stegun.
        let cases = [
            (0.0, 0.355_028_053_887_817_2),
            (1.0, 0.135_292_416_312_881_4),
            (-1.0, 0.535_560_883_292_352_6),
            (0.5, 0.231_693_606_480_833_5),
        ];
        for (x, expected) in cases {
            let (r, status) = airy_ai_e(x);
            assert!(status.is_success());
            assert!(
                (r.val - expected).abs() < 1e-6,
                "Ai({x}) = {} expected {expected}",
                r.val
            );
        }
    }

    #[test]
    fn decaying_region_is_roughly_right() {
        // Ai(2) ≈ 0.03492, Ai(5) ≈ 1.0834e-4.
        let (r2, _) = airy_ai_e(2.0);
        assert!((r2.val - 0.034_92).abs() < 5e-3, "Ai(2) = {}", r2.val);
        let (r5, _) = airy_ai_e(5.0);
        assert!(r5.val > 0.0 && r5.val < 1e-3, "Ai(5) = {}", r5.val);
    }

    #[test]
    fn oscillatory_region_is_bounded_and_oscillates() {
        let mut signs = std::collections::BTreeSet::new();
        for i in 0..200 {
            let x = -1.5 - i as f64 * 0.05; // down to -11.5
            let (r, status) = airy_ai_e(x);
            assert!(status.is_success());
            assert!(r.val.abs() < 1.0, "Ai({x}) = {}", r.val);
            signs.insert(r.val > 0.0);
        }
        assert_eq!(
            signs.len(),
            2,
            "Ai should change sign in the oscillatory region"
        );
    }

    #[test]
    fn bug1_division_by_vanished_intermediate() {
        // The modulus correction is absorbed to exactly zero on a ~20-ULP
        // window of inputs around the x where z(x) = 0.41907; the error
        // estimate then divides by zero. Locate the window by scanning ULPs
        // around the analytic center.
        let center = -(16.0_f64 / (1.0 - 0.419_07)).cbrt();
        let mut found = None;
        let center_bits = center.to_bits();
        for offset in -200_000i64..200_000 {
            let x = f64::from_bits((center_bits as i64 + offset) as u64);
            let (r, status) = airy_ai_e(x);
            if status.is_success() && r.is_exceptional() {
                found = Some((x, r));
                break;
            }
        }
        let (x, r) = found.expect("no division-by-zero inconsistency found near -3.02");
        assert!(r.err.is_infinite() || r.err.is_nan(), "err = {}", r.err);
        // Slightly disturbing the input makes the exception disappear,
        // exactly as reported in the paper.
        let (r2, _) = airy_ai_e(x + 1e-3);
        assert!(!r2.is_exceptional());
    }

    #[test]
    fn bug2_inaccurate_cosine_for_huge_negative_input() {
        // For inputs of magnitude ~1e34 the phase handed to cos_err_e is
        // ~1e50 with an uncertainty of ~1e35; the naive argument reduction
        // then produces garbage. The symptom for most such inputs is a
        // non-finite val/err under GSL_SUCCESS; for the rest the error
        // estimate is absurdly large.
        let mut exceptional = 0;
        let mut absurd_err = 0;
        let n = 500;
        for k in 0..n {
            let x = -1.14e34 * (1.0 + k as f64 * 1.0e-6);
            let (r, status) = airy_ai_e(x);
            assert!(status.is_success(), "GSL-style: status stays SUCCESS");
            if r.is_exceptional() {
                exceptional += 1;
            } else if r.err > 1.0 {
                absurd_err += 1;
            }
        }
        assert!(
            exceptional > 0,
            "no inf/nan inconsistency among {n} huge inputs (absurd errors: {absurd_err})"
        );
        assert_eq!(
            exceptional + absurd_err,
            n,
            "every huge input is inconsistent"
        );
    }

    #[test]
    fn probed_benchmark_reports_sites() {
        let a = AiryAi::new();
        assert_eq!(a.op_sites().len(), 30);
        assert_eq!(a.branch_sites().len(), 3);
        let mut rec = TraceRecorder::new();
        a.run(&[-2.5], &mut rec);
        assert!(rec.ops().count() > 10);
        assert!(rec.branches().count() >= 2);
        let mut rec = TraceRecorder::new();
        a.run(&[3.0], &mut rec);
        assert!(rec.ops().any(|o| o.id.0 == 29), "decay-branch ops reported");
    }

    #[test]
    fn domain_error_outside_mod_phase_region() {
        let mut obs = NullObserver;
        let mut ctx = Ctx::new(&mut obs);
        let (_, _, status) = airy_mod_phase(0.5, &mut ctx);
        assert_eq!(status, Status::Domain);
    }
}
