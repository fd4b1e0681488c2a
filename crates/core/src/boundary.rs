//! Instance 1: boundary value analysis (Section 4.2, Fig. 3).
//!
//! The boundary conditions of a program are the equality constraints
//! `lhs == rhs` underlying its arithmetic comparisons. The weak distance of
//! Fig. 3 multiplies `w` (initialized to 1) by `|lhs - rhs|` before every
//! executed branch, so `w` is zero exactly when some executed branch sits on
//! its boundary.

use crate::driver::{
    minimize_weak_distance, statically_pruned_run, AnalysisConfig, MinimizationRun, Outcome,
};
use crate::weak_distance::ObservedWeakDistance;
use fp_runtime::{Analyzable, BranchEvent, BranchId, Observer, ProbeControl};
use std::collections::BTreeMap;

/// How the per-branch residuals are folded into `w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryMode {
    /// Fig. 3(a): `w = w * |lhs - rhs|` at every executed branch
    /// (`w` starts at 1). Zero iff *some* executed branch is on its boundary.
    Product,
    /// Target a single branch site: `w` is the smallest `|lhs - rhs|`
    /// observed at that site (a large penalty if the site never executes).
    Single(BranchId),
    /// The Fig. 7 characteristic function: 0 if some executed branch is on
    /// its boundary, 1 otherwise. A valid weak distance, but flat — the
    /// ablation baseline.
    Characteristic,
    /// Squared residuals `(lhs - rhs)^2` instead of absolute values — the
    /// Section 5.2 variant that underflows (ablation).
    SquaredResidual,
}

/// Penalty used when a targeted branch site never executes.
const UNREACHED_PENALTY: f64 = 1.0e300;

/// The boundary-value weak distance of a program; its target is the
/// [`BoundaryMode`].
pub type BoundaryWeakDistance<P> = ObservedWeakDistance<P, BoundaryMode>;

impl<P: Analyzable> BoundaryWeakDistance<P> {
    /// Creates the Fig. 3 (product) weak distance.
    pub fn new(program: P) -> Self {
        ObservedWeakDistance::observing(program, BoundaryMode::Product)
    }

    /// Selects a different folding mode.
    pub fn with_mode(self, mode: BoundaryMode) -> Self {
        // The observation spec depends on the mode; re-specialize.
        self.with_target(mode)
    }
}

mod observer {
    use super::{BoundaryMode, UNREACHED_PENALTY};
    use crate::weak_distance::Target;
    use fp_runtime::{BranchEvent, ObservationSpec, Observer, ProbeControl, SiteSet};

    pub struct BoundaryObserver {
        mode: BoundaryMode,
        w: f64,
    }

    impl Observer for BoundaryObserver {
        fn on_branch(&mut self, ev: &BranchEvent) -> ProbeControl {
            let residual = ev.boundary_residual();
            match self.mode {
                BoundaryMode::Product => self.w *= residual,
                BoundaryMode::SquaredResidual => self.w *= residual * residual,
                BoundaryMode::Characteristic => {
                    if residual == 0.0 {
                        self.w = 0.0;
                    }
                }
                BoundaryMode::Single(target) => {
                    if ev.id == target && residual < self.w {
                        self.w = residual;
                    }
                }
            }
            ProbeControl::Continue
        }
    }

    impl Target for BoundaryMode {
        type Observer<'t> = BoundaryObserver;

        /// Only the targeted site's branch events in
        /// [`BoundaryMode::Single`], every branch event otherwise.
        fn spec(&self) -> ObservationSpec {
            match self {
                BoundaryMode::Single(target) => {
                    ObservationSpec::branches(SiteSet::Only([target.0].into()))
                }
                _ => ObservationSpec::branches(SiteSet::All),
            }
        }

        fn observer(&self) -> BoundaryObserver {
            let w = match self {
                BoundaryMode::Single(_) => UNREACHED_PENALTY,
                _ => 1.0,
            };
            BoundaryObserver { mode: *self, w }
        }

        fn value(&self, observer: BoundaryObserver) -> f64 {
            observer.w
        }

        fn describe(&self, program: &str) -> String {
            format!("boundary weak distance of {program} ({self:?})")
        }
    }
}

/// Per-condition summary produced by [`BoundaryAnalysis::find_all`].
#[derive(Debug, Clone)]
pub struct ConditionReport {
    /// The branch site.
    pub site: BranchId,
    /// Human-readable label of the branch.
    pub label: String,
    /// A boundary value triggering the condition, if one was found.
    pub witness: Option<Vec<f64>>,
    /// Best (smallest) weak-distance value observed for this condition.
    pub best_value: f64,
    /// Objective evaluations spent on this condition.
    pub evals: usize,
}

impl ConditionReport {
    /// Returns `true` if the condition was triggered.
    pub fn reached(&self) -> bool {
        self.witness.is_some()
    }
}

/// Boundary value analysis of an [`Analyzable`] program.
#[derive(Debug, Clone)]
pub struct BoundaryAnalysis<P> {
    program: P,
}

impl<P: Analyzable> BoundaryAnalysis<P> {
    /// Creates the analysis.
    pub fn new(program: P) -> Self {
        BoundaryAnalysis { program }
    }

    /// The program under analysis.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// Finds *some* boundary value (any condition), as in Fig. 3.
    pub fn find_any(&self, config: &AnalysisConfig) -> Outcome {
        self.find_any_run(config).outcome
    }

    /// Like [`BoundaryAnalysis::find_any`] but returns the full minimization
    /// run (including the sampling trace used for Fig. 3(c)).
    pub fn find_any_run(&self, config: &AnalysisConfig) -> MinimizationRun {
        let wd = ObservedWeakDistance::configured(&self.program, BoundaryMode::Product, config);
        minimize_weak_distance(&wd, config)
    }

    /// Finds a boundary value for one specific condition.
    pub fn find_condition(&self, site: BranchId, config: &AnalysisConfig) -> Outcome {
        self.find_condition_run(site, config).outcome
    }

    /// Like [`BoundaryAnalysis::find_condition`] but returns the full run,
    /// so callers can tell a statically pruned target (zero evaluations,
    /// [`MinimizationRun::statically_pruned`]) from a budget-exhausted
    /// miss.
    ///
    /// When the program's static analysis
    /// ([`Analyzable::branch_boundary_reachability`]) *proves* that the
    /// site's boundary `lhs == rhs` cannot hold on any domain input — the
    /// site never executes, or the residual interval excludes zero — no
    /// minimizer runs at all: the weak distance is bounded away from zero,
    /// so the search could only ever burn its budget.
    pub fn find_condition_run(&self, site: BranchId, config: &AnalysisConfig) -> MinimizationRun {
        if self
            .program
            .branch_boundary_reachability(site)
            .is_unreachable()
        {
            return statically_pruned_run(UNREACHED_PENALTY);
        }
        let wd =
            ObservedWeakDistance::configured(&self.program, BoundaryMode::Single(site), config);
        minimize_weak_distance(&wd, config)
    }

    /// Runs [`BoundaryAnalysis::find_condition`] for every declared branch
    /// site (the Table 2 / Fig. 9 experiment shape).
    pub fn find_all(&self, config: &AnalysisConfig) -> Vec<ConditionReport> {
        self.program
            .branch_sites()
            .into_iter()
            .map(|site| {
                let outcome = self.find_condition(site.id, config);
                match outcome {
                    Outcome::Found { input, evals } => ConditionReport {
                        site: site.id,
                        label: site.label.clone(),
                        witness: Some(input),
                        best_value: 0.0,
                        evals,
                    },
                    Outcome::NotFound {
                        best_value, evals, ..
                    } => ConditionReport {
                        site: site.id,
                        label: site.label.clone(),
                        witness: None,
                        best_value,
                        evals,
                    },
                }
            })
            .collect()
    }

    /// Soundness check (Section 6.2(i)): runs the program on `input` and
    /// returns the branch sites whose boundary condition it triggers
    /// (`lhs == rhs` observed at the site).
    pub fn triggered_conditions(&self, input: &[f64]) -> Vec<BranchId> {
        struct Collect {
            hits: BTreeMap<BranchId, bool>,
        }
        impl Observer for Collect {
            fn on_branch(&mut self, ev: &BranchEvent) -> ProbeControl {
                if ev.lhs == ev.rhs {
                    self.hits.insert(ev.id, true);
                }
                ProbeControl::Continue
            }
        }
        let mut obs = Collect {
            hits: BTreeMap::new(),
        };
        self.program.run(input, &mut obs);
        obs.hits.into_keys().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weak_distance::WeakDistance;
    use fp_runtime::KernelPolicy;
    use mini_gsl::toy::Fig2Program;

    #[test]
    fn product_weak_distance_matches_fig3_values() {
        let wd = BoundaryWeakDistance::new(Fig2Program::new());
        // Known zeros: -3, 1, 2 (Fig. 3(b)).
        assert_eq!(wd.eval(&[-3.0]), 0.0);
        assert_eq!(wd.eval(&[1.0]), 0.0);
        assert_eq!(wd.eval(&[2.0]), 0.0);
        // W(0.5) = |0.5 - 1| * |2.25 - 4| = 0.875.
        assert!((wd.eval(&[0.5]) - 0.875).abs() < 1e-12);
        assert!(wd.eval(&[10.0]) > 0.0);
    }

    #[test]
    fn weak_distance_axioms_hold_on_samples() {
        let wd = BoundaryWeakDistance::new(Fig2Program::new());
        let samples: Vec<Vec<f64>> = (-50..50).map(|i| vec![i as f64 * 0.31]).collect();
        let refs: Vec<&[f64]> = samples.iter().map(|v| v.as_slice()).collect();
        assert_eq!(wd.check_nonnegative(refs), None);
    }

    #[test]
    fn batched_eval_matches_scalar_eval() {
        let xs: Vec<Vec<f64>> = (-40..40).map(|i| vec![i as f64 * 0.17]).collect();
        for mode in [
            BoundaryMode::Product,
            BoundaryMode::Single(fp_runtime::BranchId(1)),
            BoundaryMode::Characteristic,
            BoundaryMode::SquaredResidual,
        ] {
            let wd = BoundaryWeakDistance::new(Fig2Program::new()).with_mode(mode);
            let mut out = Vec::new();
            wd.eval_batch(&xs, &mut out);
            assert_eq!(out.len(), xs.len());
            for (x, &batched) in xs.iter().zip(&out) {
                assert_eq!(batched.to_bits(), wd.eval(x).to_bits(), "{mode:?} at {x:?}");
            }
        }
    }

    #[test]
    fn batched_eval_matches_scalar_eval_for_interpreted_programs() {
        // The fpir ModuleProgram overrides batch_executor with a reusable
        // interpreter session; the weak distance values must not change.
        let program = fpir::interp::ModuleProgram::new(fpir::programs::fig2_program(), "prog")
            .expect("entry exists");
        let wd = BoundaryWeakDistance::new(program);
        let xs: Vec<Vec<f64>> = (-60..60).map(|i| vec![i as f64 * 0.13]).collect();
        let mut out = Vec::new();
        wd.eval_batch(&xs, &mut out);
        for (x, &batched) in xs.iter().zip(&out) {
            assert_eq!(batched.to_bits(), wd.eval(x).to_bits(), "at {x:?}");
        }
    }

    #[test]
    fn kernel_policy_never_changes_weak_distance_values() {
        // The same interpreted program through all three batch backends:
        // interpreter session (`Never`), lanewise kernel (`Always`) and
        // the automatic pick — every value bit-identical to scalar eval.
        let xs: Vec<Vec<f64>> = (-60..60).map(|i| vec![i as f64 * 0.13]).collect();
        for policy in [
            KernelPolicy::Never,
            KernelPolicy::Always,
            KernelPolicy::Auto,
        ] {
            let program = fpir::interp::ModuleProgram::new(fpir::programs::fig2_program(), "prog")
                .expect("entry exists");
            let wd = BoundaryWeakDistance::new(program).with_kernel_policy(policy);
            let mut out = Vec::new();
            wd.eval_batch(&xs, &mut out);
            for (x, &batched) in xs.iter().zip(&out) {
                assert_eq!(
                    batched.to_bits(),
                    wd.eval(x).to_bits(),
                    "{policy:?} at {x:?}"
                );
            }
        }
    }

    #[test]
    fn find_any_returns_a_true_boundary_value() {
        let analysis = BoundaryAnalysis::new(Fig2Program::new());
        let outcome = analysis.find_any(&AnalysisConfig::quick(11));
        let input = outcome.into_input().expect("boundary value exists");
        assert!(
            !analysis.triggered_conditions(&input).is_empty(),
            "reported input {input:?} does not trigger a boundary condition"
        );
    }

    #[test]
    fn find_all_covers_both_conditions_of_fig2() {
        let analysis = BoundaryAnalysis::new(Fig2Program::new());
        let reports = analysis.find_all(&AnalysisConfig::quick(5));
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.reached(), "condition {} not reached", r.label);
            let witness = r.witness.clone().unwrap();
            assert!(analysis.triggered_conditions(&witness).contains(&r.site));
        }
    }

    #[test]
    fn single_mode_penalizes_unreached_sites() {
        // Branch 1 of Fig. 2 executes on every input, but a program input of
        // huge magnitude keeps |y - 4| large.
        let wd = BoundaryWeakDistance::new(Fig2Program::new())
            .with_mode(BoundaryMode::Single(BranchId(1)));
        assert!(wd.eval(&[1.0e3]) > 0.0);
        assert_eq!(wd.eval(&[2.0]), 0.0);
    }

    #[test]
    fn characteristic_mode_is_flat_but_sound() {
        let wd =
            BoundaryWeakDistance::new(Fig2Program::new()).with_mode(BoundaryMode::Characteristic);
        assert_eq!(wd.eval(&[2.0]), 0.0);
        assert_eq!(wd.eval(&[0.5]), 1.0);
        assert_eq!(wd.eval(&[17.3]), 1.0);
    }

    /// `|x| + 1 < 0` can never hold (and never sit on its boundary) for
    /// any input: the interval analysis proves it, and the targeted
    /// boundary search is pruned before a single evaluation. The other
    /// branch's boundary (`x == 0`) stays a normal, solvable search.
    #[test]
    fn provably_unreachable_boundary_is_pruned_at_zero_cost() {
        use fpir::ir::{BinOp, UnOp};
        let mut mb = fpir::ModuleBuilder::new();
        let mut f = mb.function("guarded", 1);
        let x = f.param(0);
        let one = f.constant(1.0);
        let zero = f.constant(0.0);
        let a = f.un(UnOp::Abs, x, None);
        let y = f.bin(BinOp::Add, a, one, None);
        let dead = f.new_block();
        let live = f.new_block();
        f.cond_br(Some(0), y, fp_runtime::Cmp::Lt, zero, dead, live);
        f.switch_to(dead);
        f.ret(Some(y));
        f.switch_to(live);
        let neg = f.new_block();
        let pos = f.new_block();
        f.cond_br(Some(1), x, fp_runtime::Cmp::Lt, zero, neg, pos);
        f.switch_to(neg);
        f.ret(Some(x));
        f.switch_to(pos);
        f.ret(Some(y));
        f.finish();
        let program = fpir::ModuleProgram::new(mb.build(), "guarded")
            .expect("entry exists")
            .with_domain(vec![fp_runtime::Interval::symmetric(1.0e3)]);
        let analysis = BoundaryAnalysis::new(program);
        let config = AnalysisConfig::quick(11);

        let pruned = analysis.find_condition_run(BranchId(0), &config);
        assert!(pruned.statically_pruned());
        assert_eq!(pruned.outcome.evals(), 0, "pruned target costs nothing");
        assert!(!pruned.outcome.is_found());

        let solved = analysis.find_condition_run(BranchId(1), &config);
        assert!(!solved.statically_pruned());
        assert!(solved.outcome.is_found(), "x == 0 is a real boundary");
        assert!(solved.outcome.evals() > 0);
    }

    /// Regression: the residual of a branch whose operands are the same
    /// infinity was `inf - inf`, NaN, so an overflowing input that sits on
    /// `x*x <= +inf` got no zero and every search missed the boundary.
    #[test]
    fn a_boundary_at_equal_infinities_is_a_zero() {
        use fp_runtime::{BranchSite, ClosureProgram, Cmp, Interval};
        let program = || {
            ClosureProgram::new("square-le-inf", 1, |x, ctx| {
                let y = x[0] * x[0];
                ctx.branch(0, y, Cmp::Le, f64::INFINITY);
                Some(y)
            })
            .with_branch_sites(vec![BranchSite::new(0, Cmp::Le, "x*x <= inf")])
            .with_domain(vec![Interval::symmetric(1.0e300)])
        };
        for mode in [
            BoundaryMode::Product,
            BoundaryMode::Single(BranchId(0)),
            BoundaryMode::Characteristic,
            BoundaryMode::SquaredResidual,
        ] {
            let wd = BoundaryWeakDistance::new(program()).with_mode(mode);
            assert_eq!(wd.eval(&[1.0e200]), 0.0, "{mode:?}");
        }
        let analysis = BoundaryAnalysis::new(program());
        assert_eq!(analysis.triggered_conditions(&[1.0e200]), vec![BranchId(0)]);
        for seed in 1..=5 {
            let outcome = analysis.find_condition(BranchId(0), &AnalysisConfig::quick(seed));
            let input = outcome.into_input().expect("the boundary is reachable");
            assert!(
                analysis.triggered_conditions(&input).contains(&BranchId(0)),
                "seed {seed}: {input:?} is not on the boundary"
            );
        }
    }

    #[test]
    fn squared_residual_mode_underflows_limitation2() {
        // The Section 5.2 example: for `if (x == 0)` a squared residual
        // underflows to 0 for tiny nonzero x, producing a spurious zero of
        // the weak distance — Limitation 2. The absolute-value encoding does
        // not.
        use mini_gsl::toy::EqZeroProgram;
        let wd = BoundaryWeakDistance::new(EqZeroProgram::new())
            .with_mode(BoundaryMode::SquaredResidual);
        assert_eq!(
            wd.eval(&[1.0e-200]),
            0.0,
            "squared residual underflowed as expected"
        );
        let wd_abs = BoundaryWeakDistance::new(EqZeroProgram::new());
        assert!(wd_abs.eval(&[1.0e-200]) > 0.0);
    }
}
