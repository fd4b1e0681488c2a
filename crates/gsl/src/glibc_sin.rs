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
//!
//! Because every branch reads only `k`, the port can state its own branch
//! reachability: `k` is monotone in `|x|`, so over a search box it ranges
//! between the high words of the box's smallest and largest `|x|`, and the
//! comparison chain splits that range exactly. The last condition,
//! `k == 0x7ff00000`, needs `|x| = 2^1024`, which no finite double reaches.

use fp_runtime::{
    Analyzable, BranchId, BranchSite, Cmp, Ctx, FpOp, Interval, NullObserver, OpSite, Reachability,
};

/// The five high-word thresholds of Fig. 8, in source order (strictly
/// increasing, which the reachability answers rely on).
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

/// The range of `k = high_word(x)` over `x ∈ domain`. The high word is
/// monotone in `|x|`, so `k` runs between the high words of the smallest
/// and the largest `|x|` in the interval.
fn high_word_range(domain: &Interval) -> (u32, u32) {
    let (lo, hi) = (domain.lo(), domain.hi());
    let min_abs = if lo <= 0.0 && hi >= 0.0 {
        0.0
    } else {
        lo.abs().min(hi.abs())
    };
    (high_word(min_abs), high_word(lo.abs().max(hi.abs())))
}

/// What some `x ∈ domain` reaches at range-selection site `i`.
struct SiteReach {
    then: Reachability,
    otherwise: Reachability,
    boundary: Reachability,
}

impl SiteReach {
    /// Site `i` runs exactly when every earlier comparison failed, that is
    /// when `k ≥ c_{i-1}` (the thresholds increase), so over the domain it
    /// sees `k ∈ [max(k_min, c_{i-1}), k_max]`. A side or boundary that no
    /// `k` in that range meets is `Unreachable`. The others are `Reachable`
    /// when the domain holds the witness `±double_from_high_word(c_i)`
    /// (high word `c_i`: the boundary and the else side) or the double just
    /// below it (high word `c_i − 1 ≥ c_{i-1}`: the then side), and
    /// `Unknown` otherwise.
    fn of(domain: &Interval, site: BranchId) -> Option<SiteReach> {
        let i = site.0 as usize;
        let c = *K_THRESHOLDS.get(i)?;
        let (k_min, k_max) = high_word_range(domain);
        let first = match i {
            0 => k_min,
            _ => k_min.max(K_THRESHOLDS[i - 1]),
        };
        let runs = first <= k_max;
        let at = double_from_high_word(c);
        let answer = |possible: bool, witness: f64| {
            if !possible {
                Reachability::Unreachable
            } else if domain.contains(witness) || domain.contains(-witness) {
                Reachability::Reachable
            } else {
                Reachability::Unknown
            }
        };
        Some(SiteReach {
            then: answer(runs && first < c, at.next_down()),
            otherwise: answer(runs && c <= k_max, at),
            boundary: answer(runs && first <= c && c <= k_max, at),
        })
    }
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

    /// Derived from the search domain and [`K_THRESHOLDS`]: over
    /// [`Interval::whole`], `k` ranges over `[0, 0x7fef_ffff]`, so only the
    /// else side of `k < 0x7ff00000` is `Unreachable`.
    fn branch_side_reachability(&self, site: BranchId, taken: bool) -> Reachability {
        match SiteReach::of(&self.search_domain()[0], site) {
            Some(reach) if taken => reach.then,
            Some(reach) => reach.otherwise,
            None => Reachability::Unknown,
        }
    }

    /// Derived like [`GlibcSin::branch_side_reachability`]: the boundary
    /// `k == 0x7ff00000` is `Unreachable`, every other one `Reachable`.
    fn branch_boundary_reachability(&self, site: BranchId) -> Reachability {
        SiteReach::of(&self.search_domain()[0], site)
            .map_or(Reachability::Unknown, |reach| reach.boundary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_runtime::{BranchEvent, OpId, TraceRecorder};

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

    /// The event of branch site `site` when `x` runs, if the site executes.
    fn event_at(x: f64, site: BranchId) -> Option<BranchEvent> {
        let mut rec = TraceRecorder::new();
        GlibcSin::new().run(&[x], &mut rec);
        let event = rec.branches().find(|ev| ev.id == site).copied();
        event
    }

    /// The then-side, else-side and boundary answers of `site`.
    fn answers(site: BranchId) -> [Reachability; 3] {
        let s = GlibcSin::new();
        [
            s.branch_side_reachability(site, true),
            s.branch_side_reachability(site, false),
            s.branch_boundary_reachability(site),
        ]
    }

    #[test]
    fn only_the_last_else_side_and_boundary_are_unreachable() {
        use Reachability::{Reachable, Unknown, Unreachable};
        assert!(K_THRESHOLDS.windows(2).all(|c| c[0] < c[1]));
        assert_eq!(high_word_range(&Interval::whole()), (0, 0x7fef_ffff));
        for site in 0..4 {
            assert_eq!(answers(BranchId(site)), [Reachable; 3], "site {site}");
        }
        assert_eq!(answers(BranchId(4)), [Reachable, Unreachable, Unreachable]);
        assert_eq!(answers(BranchId(5)), [Unknown; 3], "no such site");
        assert_eq!(GlibcSin::new().op_site_reachability(OpId(3)), Unknown);
    }

    /// Every `Reachable` answer holds, on either sign, at its witness
    /// `double_from_high_word(c_i)` and the witness's neighbouring doubles:
    /// the double below has high word `c_i − 1` and takes the then side;
    /// the witness and the double above have high word `c_i`, sit on the
    /// boundary and take the else side.
    #[test]
    fn reachable_answers_hold_on_their_witnesses_and_neighbours() {
        let domain = GlibcSin::new().search_domain()[0];
        let mut checked = 0;
        for (i, &c) in K_THRESHOLDS.iter().enumerate() {
            let site = BranchId(i as u32);
            let [then, otherwise, boundary] = answers(site);
            let witness = double_from_high_word(c);
            for sign in [1.0, -1.0] {
                let below = sign * witness.next_down();
                let at_and_above = [sign * witness, sign * witness.next_up()];
                if then == Reachability::Reachable {
                    assert!(domain.contains(below));
                    let ev = event_at(below, site).expect("the site runs below its witness");
                    assert!(ev.taken, "site {i} at {below:e}");
                    assert_eq!(ev.lhs, f64::from(c - 1));
                    checked += 1;
                }
                if otherwise == Reachability::Reachable {
                    assert!(domain.contains(at_and_above[0]));
                    for x in at_and_above {
                        let ev = event_at(x, site).expect("the site runs on its witness");
                        assert!(!ev.taken, "site {i} at {x:e}");
                    }
                    checked += 1;
                }
                if boundary == Reachability::Reachable {
                    assert!(domain.contains(at_and_above[0]));
                    for x in at_and_above {
                        let ev = event_at(x, site).expect("the site runs on its witness");
                        assert_eq!(ev.lhs, ev.rhs, "site {i} at {x:e}");
                    }
                    let ev = event_at(below, site).expect("the site runs below its witness");
                    assert_ne!(ev.lhs, ev.rhs, "site {i} at {below:e}");
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 2 * 13, "13 answers, each on both signs");
    }

    /// Every `Unreachable` answer holds on ±f64::MAX, on both finite
    /// neighbours of every threshold's double, and on seeded samples of
    /// the finite doubles: no finite double has a high word above
    /// `0x7fef_ffff`.
    #[test]
    fn unreachable_answers_hold_on_extremes_threshold_neighbours_and_samples() {
        let mut inputs = vec![f64::MAX, -f64::MAX];
        for &c in &K_THRESHOLDS {
            let witness = double_from_high_word(c);
            for x in [witness.next_down(), witness.next_up()] {
                if x.is_finite() {
                    inputs.extend([x, -x]);
                }
            }
        }
        // SplitMix64 over the raw bit patterns.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        while inputs.len() < 20_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let x = f64::from_bits(z ^ (z >> 31));
            if x.is_finite() {
                inputs.push(x);
            }
        }
        let unreachable: usize = (0..GlibcSin::NUM_BRANCHES)
            .flat_map(|site| answers(BranchId(site)))
            .filter(|answer| answer.is_unreachable())
            .count();
        assert_eq!(unreachable, 2);
        for x in inputs {
            assert!(high_word(x) <= 0x7fef_ffff, "{x:e}");
            let mut rec = TraceRecorder::new();
            GlibcSin::new().run(&[x], &mut rec);
            for ev in rec.branches() {
                let [then, otherwise, boundary] = answers(ev.id);
                let side = if ev.taken { then } else { otherwise };
                assert!(!side.is_unreachable(), "site {} at {x:e}", ev.id.0);
                assert!(
                    ev.lhs != ev.rhs || !boundary.is_unreachable(),
                    "site {} at {x:e}",
                    ev.id.0
                );
            }
        }
    }
}
