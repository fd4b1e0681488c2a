//! Instance 3: floating-point overflow detection — Algorithm 3, the `fpod`
//! tool of Section 6.3.
//!
//! The detector runs a sequence of weak-distance minimizations. In each
//! round, the weak distance rewards driving the magnitude of the *last
//! executed not-yet-handled operation* towards `f64::MAX` (later
//! instrumentation sites overwrite `w`, as in the paper), and execution
//! stops as soon as some tracked operation overflows (`w == 0`). The set `L`
//! of handled sites grows every round, which guarantees termination after at
//! most `|L̄|` rounds plus the configured retry budget.

use crate::driver::{minimize_weak_distance, AnalysisConfig, Outcome};
use crate::weak_distance::ObservedWeakDistance;
use fp_runtime::{Analyzable, Observer, OpEvent, OpId, OpSite, ProbeControl};
use std::collections::{BTreeMap, BTreeSet};

/// Value of `w` when no tracked operation executed at all.
const NO_TRACKED_OP: f64 = 1.0;

/// The Algorithm 3 weak distance; its target is the set `L` of sites that
/// have already been handled.
pub type OverflowWeakDistance<P> = ObservedWeakDistance<P, BTreeSet<OpId>>;

impl<P: Analyzable> OverflowWeakDistance<P> {
    /// Creates the weak distance with handled-site set `skip`.
    pub fn new(program: P, skip: BTreeSet<OpId>) -> Self {
        ObservedWeakDistance::observing(program, skip)
    }

    /// Evaluates and also reports the last tracked site — the `target`
    /// heuristic of Algorithm 3 step (7) — and which site (if any)
    /// overflowed. All state lives in the per-call observer, so concurrent
    /// evaluations from the parallel driver do not interact.
    pub fn eval_detailed(&self, x: &[f64]) -> (f64, Option<OpId>, Option<OpId>) {
        let obs = self.observe(x);
        (obs.w, obs.last_tracked, obs.overflowed_at)
    }
}

mod observer {
    use super::NO_TRACKED_OP;
    use crate::weak_distance::Target;
    use fp_runtime::{ObservationSpec, Observer, OpEvent, OpId, ProbeControl, SiteSet};
    use std::collections::BTreeSet;

    pub struct OverflowObserver<'s> {
        skip: &'s BTreeSet<OpId>,
        pub(super) w: f64,
        pub(super) last_tracked: Option<OpId>,
        pub(super) overflowed_at: Option<OpId>,
    }

    impl Observer for OverflowObserver<'_> {
        fn on_op(&mut self, ev: &OpEvent) -> ProbeControl {
            if self.skip.contains(&ev.id) {
                return ProbeControl::Continue;
            }
            self.last_tracked = Some(ev.id);
            let a = ev.value.abs();
            // w = (|a| < MAX) ? MAX - |a| : 0   (NaN compares false, so NaN
            // counts as an overflow, matching the exceptional-value
            // semantics).
            self.w = if a < f64::MAX { f64::MAX - a } else { 0.0 };
            if self.w == 0.0 {
                self.overflowed_at = Some(ev.id);
                return ProbeControl::Stop;
            }
            ProbeControl::Continue
        }
    }

    impl Target for BTreeSet<OpId> {
        type Observer<'t> = OverflowObserver<'t>;

        /// Operation events at every not-yet-handled site.
        fn spec(&self) -> ObservationSpec {
            ObservationSpec::ops(SiteSet::Except(self.iter().map(|id| id.0).collect()))
        }

        fn observer(&self) -> OverflowObserver<'_> {
            OverflowObserver {
                skip: self,
                w: NO_TRACKED_OP,
                last_tracked: None,
                overflowed_at: None,
            }
        }

        fn value(&self, observer: OverflowObserver<'_>) -> f64 {
            observer.w
        }

        fn describe(&self, program: &str) -> String {
            format!(
                "overflow weak distance of {program} ({} handled sites)",
                self.len()
            )
        }
    }
}

/// Per-operation outcome of the detector.
#[derive(Debug, Clone)]
pub struct OpOverflow {
    /// The operation site.
    pub site: OpSite,
    /// An input triggering an overflow at this site, if one was found.
    pub witness: Option<Vec<f64>>,
}

impl OpOverflow {
    /// Returns `true` if an overflow was triggered at this site.
    pub fn overflowed(&self) -> bool {
        self.witness.is_some()
    }
}

/// Result of running Algorithm 3 on a program.
#[derive(Debug, Clone)]
pub struct OverflowReport {
    /// One entry per declared operation site, in site order (Table 4).
    pub operations: Vec<OpOverflow>,
    /// Every distinct witness input generated (the set `X` of Algorithm 3).
    pub inputs: Vec<Vec<f64>>,
    /// Number of minimization rounds run.
    pub rounds: usize,
    /// Total objective evaluations spent.
    pub evals: usize,
    /// Operation sites the program's static analysis proved can never
    /// execute on any domain input: Algorithm 3 pre-retires them into `L`
    /// at zero cost instead of spending a round learning nothing.
    pub statically_pruned: usize,
}

impl OverflowReport {
    /// Number of operation sites (the paper's `|Op|`).
    pub fn num_ops(&self) -> usize {
        self.operations.len()
    }

    /// Number of sites for which an overflow was triggered (the paper's `|O|`).
    pub fn num_overflows(&self) -> usize {
        self.operations.iter().filter(|o| o.overflowed()).count()
    }

    /// Sites that were never triggered (Table 4's "missed" rows).
    pub fn missed(&self) -> Vec<&OpSite> {
        self.operations
            .iter()
            .filter(|o| !o.overflowed())
            .map(|o| &o.site)
            .collect()
    }
}

/// Floating-point overflow detection (Algorithm 3).
#[derive(Debug, Clone)]
pub struct OverflowDetector<P> {
    program: P,
}

impl<P: Analyzable> OverflowDetector<P> {
    /// Creates the detector.
    pub fn new(program: P) -> Self {
        OverflowDetector { program }
    }

    /// The program under analysis.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// Runs Algorithm 3 until every operation site has been handled.
    pub fn run(&self, config: &AnalysisConfig) -> OverflowReport {
        let sites = self.program.op_sites();
        let all_ids: Vec<OpId> = sites.iter().map(|s| s.id).collect();
        let mut handled: BTreeSet<OpId> = BTreeSet::new();
        // Sites that provably never execute on any domain input cannot
        // overflow; retire them into `L` up front (Algorithm 3 would
        // otherwise spend a full minimization round per such site only to
        // watch its weak distance sit at a constant).
        let mut statically_pruned = 0usize;
        for &id in &all_ids {
            if self.program.op_site_reachability(id).is_unreachable() {
                handled.insert(id);
                statically_pruned += 1;
            }
        }
        let mut witnesses: BTreeMap<OpId, Vec<f64>> = BTreeMap::new();
        let mut inputs: Vec<Vec<f64>> = Vec::new();
        let mut rounds = 0usize;
        let mut evals = 0usize;
        // Algorithm 3 terminates after |L̄| productive rounds; allow a bounded
        // number of extra retries for rounds whose minimum was nonzero.
        let max_rounds = all_ids.len() * 2 + 4;

        while handled.len() < all_ids.len() && rounds < max_rounds {
            rounds += 1;
            let wd = ObservedWeakDistance::configured(&self.program, handled.clone(), config);
            let round_config = AnalysisConfig {
                seed: config.seed.wrapping_add(rounds as u64 * 7919),
                ..config.clone()
            };
            let run = minimize_weak_distance(&wd, &round_config);
            evals += run.outcome.evals();

            match run.outcome {
                Outcome::Found { input, .. } => {
                    // Re-run to learn which site overflowed and which was the
                    // last tracked (target) site.
                    let (w, last, overflowed) = wd.eval_detailed(&input);
                    debug_assert_eq!(w, 0.0);
                    let target = overflowed.or(last);
                    if let Some(site) = target {
                        witnesses.entry(site).or_insert_with(|| input.clone());
                        handled.insert(site);
                    }
                    // Record every site that overflows on this input, not just
                    // the target — the replay is free and enriches Table 4.
                    self.record_all_overflows(&input, &mut witnesses, &mut handled);
                    inputs.push(input);
                }
                Outcome::NotFound { best_input, .. } => {
                    // Either the target cannot overflow or the backend failed;
                    // in both cases the target is added to L (Algorithm 3
                    // step 7) to guarantee progress.
                    let (_, last, _) = wd.eval_detailed(&best_input);
                    match last {
                        Some(site) => {
                            handled.insert(site);
                        }
                        None => {
                            // No tracked operation executed at all: retire an
                            // arbitrary remaining site to guarantee progress.
                            if let Some(&next) =
                                all_ids.iter().find(|id| !handled.contains(id))
                            {
                                handled.insert(next);
                            }
                        }
                    }
                }
            }
        }

        let operations = sites
            .into_iter()
            .map(|site| OpOverflow {
                witness: witnesses.get(&site.id).cloned(),
                site,
            })
            .collect();
        OverflowReport {
            operations,
            inputs,
            rounds,
            evals,
            statically_pruned,
        }
    }

    /// Replays `input` and records every site whose operation overflows.
    fn record_all_overflows(
        &self,
        input: &[f64],
        witnesses: &mut BTreeMap<OpId, Vec<f64>>,
        handled: &mut BTreeSet<OpId>,
    ) {
        struct AllOverflows {
            sites: Vec<OpId>,
        }
        impl Observer for AllOverflows {
            fn on_op(&mut self, ev: &OpEvent) -> ProbeControl {
                if ev.overflowed() {
                    self.sites.push(ev.id);
                }
                ProbeControl::Continue
            }
        }
        let mut obs = AllOverflows { sites: Vec::new() };
        self.program.run(input, &mut obs);
        for site in obs.sites {
            witnesses.entry(site).or_insert_with(|| input.to_vec());
            handled.insert(site);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weak_distance::WeakDistance;
    use fp_runtime::{ClosureProgram, Cmp, FpOp};
    use mini_gsl::bessel::BesselKnuScaled;

    /// A two-op program where only the first operation can overflow.
    fn two_op_program() -> impl Analyzable {
        ClosureProgram::new("two-op", 1, |x, ctx| {
            let a = ctx.op(0, FpOp::Mul, x[0] * x[0]);
            // The second op divides by a large constant: it can never reach MAX
            // unless the first already overflowed.
            let b = ctx.op(1, FpOp::Div, a / 1.0e10);
            let _ = ctx.branch(0, b, Cmp::Le, 1.0);
            Some(b)
        })
        .with_op_sites(vec![
            OpSite::new(0, FpOp::Mul, "a = x*x"),
            OpSite::new(1, FpOp::Div, "b = a / 1e10"),
        ])
        .with_branch_sites(vec![fp_runtime::BranchSite::new(0, Cmp::Le, "b <= 1")])
    }

    #[test]
    fn weak_distance_semantics() {
        let p = two_op_program();
        let wd = OverflowWeakDistance::new(&p, BTreeSet::new());
        // Moderate input: positive weak distance.
        assert!(wd.eval(&[10.0]) > 0.0);
        // Overflowing input: zero.
        assert_eq!(wd.eval(&[1.0e200]), 0.0);
        // With both sites handled the weak distance reverts to its initial value.
        let all: BTreeSet<OpId> = [OpId(0), OpId(1)].into_iter().collect();
        let wd_done = OverflowWeakDistance::new(&p, all);
        assert_eq!(wd_done.eval(&[1.0e200]), NO_TRACKED_OP);
    }

    #[test]
    fn detector_finds_overflowable_ops_and_reports_misses() {
        let report = OverflowDetector::new(two_op_program()).run(&AnalysisConfig::quick(5));
        assert_eq!(report.num_ops(), 2);
        // x*x overflows for |x| ~ 1e155; a/1e10 then also overflows only via inf.
        let first = &report.operations[0];
        assert!(first.overflowed(), "x*x should overflow");
        let witness = first.witness.clone().unwrap();
        assert!(witness[0].abs() > 1.0e150, "witness {witness:?}");
        assert!(report.rounds >= 1);
        assert!(report.num_overflows() >= 1);
    }

    #[test]
    fn detector_handles_programs_with_no_overflow() {
        // A program whose single operation is bounded: no overflow possible.
        let p = ClosureProgram::new("bounded", 1, |x, ctx| {
            let s = ctx.op(0, FpOp::Sin, x[0].sin());
            Some(s)
        })
        .with_op_sites(vec![OpSite::new(0, FpOp::Sin, "sin(x)")]);
        let report =
            OverflowDetector::new(p).run(&AnalysisConfig::quick(2).with_rounds(1).with_max_evals(3_000));
        assert_eq!(report.num_ops(), 1);
        assert_eq!(report.num_overflows(), 0);
        assert_eq!(report.missed().len(), 1);
    }

    /// An operation guarded by a provably untakeable branch is pre-retired
    /// into `L` by static analysis: Algorithm 3 never spends a round on it,
    /// and the report records the prune.
    #[test]
    fn provably_unreachable_op_site_is_preretired() {
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
        f.cond_br(Some(0), y, Cmp::Lt, zero, dead, live);
        f.switch_to(dead);
        // Op site 0 only executes on the untakeable side.
        let d = f.bin(BinOp::Mul, y, y, Some(0));
        f.ret(Some(d));
        f.switch_to(live);
        // Op site 1 executes on every input and overflows for |x| > 0.8.
        let big = f.constant(1.0e308);
        let l = f.bin(BinOp::Mul, y, big, Some(1));
        f.ret(Some(l));
        f.finish();
        let program = fpir::ModuleProgram::new(mb.build(), "guarded")
            .expect("entry exists")
            .with_domain(vec![fp_runtime::Interval::symmetric(1.0e4)]);
        let report = OverflowDetector::new(program)
            .run(&AnalysisConfig::quick(8).with_rounds(1).with_max_evals(5_000));
        assert_eq!(report.num_ops(), 2);
        assert_eq!(report.statically_pruned, 1, "site 0 is pre-retired");
        assert!(
            !report.operations[0].overflowed(),
            "the pruned site has no witness"
        );
        assert!(
            report.operations[1].overflowed(),
            "y * 1e308 overflows for |x| > 0.8"
        );
    }

    #[test]
    fn bessel_overflow_study_shape() {
        // A scaled-down version of the Table 4 experiment: most of the 23
        // Bessel operations can be driven to overflow.
        let config = AnalysisConfig::quick(17).with_rounds(2).with_max_evals(15_000);
        let report = OverflowDetector::new(BesselKnuScaled::new()).run(&config);
        assert_eq!(report.num_ops(), 23);
        assert!(
            report.num_overflows() >= 15,
            "only {}/23 operations overflowed",
            report.num_overflows()
        );
        // The constant multiplication 2.0 * GSL_DBL_EPSILON can never overflow.
        assert!(report.missed().iter().any(|s| s.id == OpId(16)));
        // Every witness indeed triggers an overflow at its site when replayed.
        for op in report.operations.iter().filter(|o| o.overflowed()) {
            let input = op.witness.clone().unwrap();
            let mut rec = fp_runtime::TraceRecorder::new();
            BesselKnuScaled::new().run(&input, &mut rec);
            assert!(
                rec.ops().any(|ev| ev.id == op.site.id && ev.overflowed()),
                "witness for {} does not overflow",
                op.site.label
            );
        }
    }
}
