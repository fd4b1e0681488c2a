//! Instance 4: branch-coverage-based testing (the CoverMe construction).
//!
//! The tester keeps the set `B` of already-covered `(branch, direction)`
//! pairs and repeatedly minimizes a weak distance that is zero exactly when
//! the execution covers something outside `B`. Generated inputs accumulate
//! into a test suite; the loop stops when everything reachable is covered or
//! the round budget is exhausted.

use crate::driver::{minimize_weak_distance, AnalysisConfig, Outcome};
use crate::weak_distance::ObservedWeakDistance;
use fp_runtime::{Analyzable, BranchCoverage, BranchId};
use std::collections::BTreeSet;

/// Penalty when the targeted branch site is never reached.
const UNREACHED_PENALTY: f64 = 1.0e300;

/// The CoverMe-style weak distance: zero exactly on inputs that cover a
/// `(branch, direction)` pair outside its target, the covered set `B`.
pub type CoverageWeakDistance<P> = ObservedWeakDistance<P, BTreeSet<(BranchId, bool)>>;

impl<P: Analyzable> CoverageWeakDistance<P> {
    /// Creates the weak distance for the given covered set `B`.
    pub fn new(program: P, covered: BTreeSet<(BranchId, bool)>) -> Self {
        ObservedWeakDistance::observing(program, covered)
    }
}

mod observer {
    use super::UNREACHED_PENALTY;
    use crate::weak_distance::Target;
    use fp_runtime::{BranchEvent, BranchId, ObservationSpec, Observer, ProbeControl, SiteSet};
    use std::collections::BTreeSet;

    pub struct CoverageObserver<'c> {
        covered: &'c BTreeSet<(BranchId, bool)>,
        w: f64,
    }

    impl Observer for CoverageObserver<'_> {
        fn on_branch(&mut self, ev: &BranchEvent) -> ProbeControl {
            // Covering anything new makes w zero immediately.
            if !self.covered.contains(&(ev.id, ev.taken)) {
                self.w = 0.0;
                return ProbeControl::Stop;
            }
            // Otherwise, reward getting close to flipping this branch if its
            // opposite direction is still uncovered.
            if !self.covered.contains(&(ev.id, !ev.taken)) {
                let d = ev.distance_to(!ev.taken).max(f64::MIN_POSITIVE);
                if d < self.w {
                    self.w = d;
                }
            }
            ProbeControl::Continue
        }
    }

    impl Target for BTreeSet<(BranchId, bool)> {
        type Observer<'t> = CoverageObserver<'t>;

        /// Every branch event (the observer folds — and may stop on — any
        /// of them).
        fn spec(&self) -> ObservationSpec {
            ObservationSpec::branches(SiteSet::All)
        }

        fn observer(&self) -> CoverageObserver<'_> {
            CoverageObserver {
                covered: self,
                w: UNREACHED_PENALTY,
            }
        }

        fn value(&self, observer: CoverageObserver<'_>) -> f64 {
            observer.w
        }

        fn describe(&self, program: &str) -> String {
            format!(
                "coverage weak distance of {program} ({} pairs covered)",
                self.len()
            )
        }
    }
}

/// Result of the coverage campaign.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// The generated test inputs.
    pub suite: Vec<Vec<f64>>,
    /// Covered `(branch, direction)` pairs.
    pub covered: BTreeSet<(BranchId, bool)>,
    /// Total number of `(branch, direction)` pairs declared by the program.
    pub total_pairs: usize,
    /// `(branch, direction)` pairs the program's static analysis proved
    /// unreachable over the search domain: the campaign never targets them
    /// and stops once everything else is covered, instead of burning its
    /// retry budget on proofs of impossibility.
    pub statically_pruned: usize,
    /// Minimization rounds run.
    pub rounds: usize,
}

impl CoverageReport {
    /// Branch coverage as a fraction in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.total_pairs == 0 {
            1.0
        } else {
            self.covered.len() as f64 / self.total_pairs as f64
        }
    }
}

/// Branch-coverage-based testing of an [`Analyzable`] program.
#[derive(Debug, Clone)]
pub struct CoverageAnalysis<P> {
    program: P,
}

impl<P: Analyzable> CoverageAnalysis<P> {
    /// Creates the analysis.
    pub fn new(program: P) -> Self {
        CoverageAnalysis { program }
    }

    /// Runs the coverage campaign, optionally seeded with initial inputs.
    pub fn run(&self, seeds: &[Vec<f64>], config: &AnalysisConfig) -> CoverageReport {
        let mut covered: BTreeSet<(BranchId, bool)> = BTreeSet::new();
        let mut suite: Vec<Vec<f64>> = Vec::new();
        for seed in seeds {
            self.absorb(seed, &mut covered);
            suite.push(seed.clone());
        }
        let sites = self.program.branch_sites();
        let total_pairs = sites.len() * 2;
        // Pairs whose direction is provably never taken on any domain
        // input: reaching them is impossible, so they count as "done" for
        // the termination condition (the coverage fraction still reports
        // them as uncovered — they are, and provably stay so).
        let pruned: BTreeSet<(BranchId, bool)> = sites
            .iter()
            .flat_map(|s| [(s.id, true), (s.id, false)])
            .filter(|&(site, dir)| {
                self.program
                    .branch_side_reachability(site, dir)
                    .is_unreachable()
            })
            .collect();
        let mut rounds = 0usize;
        let max_rounds = total_pairs + config.rounds;
        while covered.union(&pruned).count() < total_pairs && rounds < max_rounds {
            rounds += 1;
            let wd = ObservedWeakDistance::configured(&self.program, covered.clone(), config);
            let round_config = AnalysisConfig {
                seed: config.seed.wrapping_add(rounds as u64 * 104_729),
                ..config.clone()
            };
            match minimize_weak_distance(&wd, &round_config).outcome {
                Outcome::Found { input, .. } => {
                    let before = covered.len();
                    self.absorb(&input, &mut covered);
                    suite.push(input);
                    if covered.len() == before {
                        // Should not happen (w = 0 implies new coverage), but
                        // guard against infinite loops all the same.
                        break;
                    }
                }
                Outcome::NotFound { .. } => break,
            }
        }
        CoverageReport {
            suite,
            covered,
            total_pairs,
            statically_pruned: pruned.len(),
            rounds,
        }
    }

    /// Adds the coverage of one execution to `covered`.
    fn absorb(&self, input: &[f64], covered: &mut BTreeSet<(BranchId, bool)>) {
        let mut cov = BranchCoverage::new();
        self.program.run(input, &mut cov);
        covered.extend(cov.covered().iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weak_distance::WeakDistance;
    use mini_gsl::glibc_sin::GlibcSin;
    use mini_gsl::toy::Fig2Program;

    #[test]
    fn weak_distance_is_zero_on_new_coverage() {
        let wd = CoverageWeakDistance::new(Fig2Program::new(), BTreeSet::new());
        // Nothing covered yet: any input covers something new.
        assert_eq!(wd.eval(&[0.0]), 0.0);
        // With the path of x=0 covered, an input taking the same path is
        // positive, one taking a different path is zero.
        let mut covered = BTreeSet::new();
        covered.insert((BranchId(0), true));
        covered.insert((BranchId(1), true));
        let wd = CoverageWeakDistance::new(Fig2Program::new(), covered);
        assert!(wd.eval(&[0.0]) > 0.0);
        assert_eq!(wd.eval(&[10.0]), 0.0);
    }

    #[test]
    fn full_coverage_of_fig2() {
        let analysis = CoverageAnalysis::new(Fig2Program::new());
        let report = analysis.run(&[vec![0.0]], &AnalysisConfig::quick(3));
        assert_eq!(report.total_pairs, 4);
        assert_eq!(report.covered.len(), 4, "covered: {:?}", report.covered);
        assert!((report.coverage() - 1.0).abs() < 1e-12);
        assert!(report.suite.len() >= 2);
    }

    #[test]
    fn covers_most_of_glibc_sin_ranges() {
        // The five range branches of sin: 10 (site, direction) pairs, of
        // which (branch 4, false) requires a non-finite input and is
        // unreachable from the finite search box.
        let analysis = CoverageAnalysis::new(GlibcSin::new());
        let config = AnalysisConfig::quick(7).with_max_evals(30_000);
        let report = analysis.run(&[vec![1.0]], &config);
        assert!(
            report.covered.len() >= 8,
            "covered only {:?} of {} pairs",
            report.covered.len(),
            report.total_pairs
        );
    }

    /// The then-side of `|x| + 1 < 0` is provably uncoverable: the
    /// campaign's termination condition treats it as done instead of
    /// burning the retry budget on it round after round.
    #[test]
    fn provably_uncoverable_pairs_do_not_burn_rounds() {
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
        f.ret(Some(x));
        f.finish();
        let program = fpir::ModuleProgram::new(mb.build(), "guarded")
            .expect("entry exists")
            .with_domain(vec![fp_runtime::Interval::symmetric(1.0e3)]);
        let analysis = CoverageAnalysis::new(program);
        let config = AnalysisConfig::quick(4).with_rounds(1).with_max_evals(2_000);
        let report = analysis.run(&[vec![1.0]], &config);
        assert_eq!(report.total_pairs, 2);
        assert_eq!(report.statically_pruned, 1);
        // The seed already covers the only coverable pair, so the campaign
        // terminates without a single minimization round.
        assert!(report.covered.contains(&(BranchId(0), false)));
        assert_eq!(report.rounds, 0, "nothing left to chase");
    }

    #[test]
    fn empty_program_reports_full_coverage() {
        let p = fp_runtime::ClosureProgram::new("nop", 1, |_x, _ctx| Some(0.0));
        let report = CoverageAnalysis::new(p).run(&[], &AnalysisConfig::quick(1).with_rounds(1));
        assert_eq!(report.total_pairs, 0);
        assert_eq!(report.coverage(), 1.0);
    }
}
