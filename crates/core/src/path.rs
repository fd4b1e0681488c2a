//! Instance 2: path reachability (Section 4.3, Fig. 4).
//!
//! Given a set of branch directions that must be taken, the weak distance
//! adds (to `w`, initialized to 0) the Korel branch distance of every
//! executed branch that is required to go a particular way, plus a penalty
//! for required branches that were never reached. `w = 0` iff the input
//! drives every required branch in the required direction.

use crate::driver::{
    minimize_weak_distance, statically_pruned_run, AnalysisConfig, MinimizationRun, Outcome,
};
use crate::weak_distance::ObservedWeakDistance;
use fp_runtime::{Analyzable, BranchId, TraceRecorder};
use observer::RequiredPath;

/// A (partial) path: the branch sites that must execute and the direction
/// each must take.
pub type Path = Vec<(BranchId, bool)>;

/// Penalty per required branch site that never executed.
const UNREACHED_PENALTY: f64 = 1.0e300;

/// The path-reachability weak distance of Fig. 4(a); its target is the
/// required path.
pub type PathWeakDistance<P> = ObservedWeakDistance<P, RequiredPath>;

impl<P: Analyzable> PathWeakDistance<P> {
    /// Creates the weak distance for the given required path.
    pub fn new(program: P, path: Path) -> Self {
        ObservedWeakDistance::observing(program, RequiredPath::new(path))
    }
}

mod observer {
    use super::{Path, UNREACHED_PENALTY};
    use crate::weak_distance::Target;
    use fp_runtime::{BranchEvent, ObservationSpec, Observer, ProbeControl, SiteSet};

    /// A required path, with the index of each step's site among the
    /// path's distinct sites (numbered by first occurrence) built once:
    /// each evaluation marks the indices it reaches and counts the rest.
    #[derive(Debug, Clone)]
    pub struct RequiredPath {
        path: Path,
        site_index: Vec<usize>,
        distinct: usize,
    }

    impl RequiredPath {
        pub fn new(path: Path) -> Self {
            let mut sites = Vec::new();
            let site_index = path
                .iter()
                .map(|(site, _)| {
                    sites.iter().position(|s| s == site).unwrap_or_else(|| {
                        sites.push(*site);
                        sites.len() - 1
                    })
                })
                .collect();
            RequiredPath {
                path,
                site_index,
                distinct: sites.len(),
            }
        }
    }

    /// The distinct required sites an execution reached, one bit per site
    /// index: inline for the first 64, spilled to the heap past them.
    #[derive(Default)]
    struct Reached {
        first: u64,
        rest: Vec<u64>,
    }

    impl Reached {
        fn insert(&mut self, index: usize) {
            if index < 64 {
                self.first |= 1 << index;
            } else {
                let word = index / 64 - 1;
                if self.rest.len() <= word {
                    self.rest.resize(word + 1, 0);
                }
                self.rest[word] |= 1 << (index % 64);
            }
        }

        fn len(&self) -> usize {
            let rest: u32 = self.rest.iter().map(|w| w.count_ones()).sum();
            (self.first.count_ones() + rest) as usize
        }
    }

    pub struct PathObserver<'p> {
        target: &'p RequiredPath,
        w: f64,
        reached: Reached,
    }

    impl Observer for PathObserver<'_> {
        fn on_branch(&mut self, ev: &BranchEvent) -> ProbeControl {
            let target = self.target;
            for (&(site, dir), &index) in target.path.iter().zip(&target.site_index) {
                if site == ev.id {
                    self.w += ev.distance_to(dir);
                    self.reached.insert(index);
                }
            }
            ProbeControl::Continue
        }
    }

    impl Target for RequiredPath {
        type Observer<'t> = PathObserver<'t>;

        /// Branch events at the required sites only.
        fn spec(&self) -> ObservationSpec {
            ObservationSpec::branches(SiteSet::Only(
                self.path.iter().map(|(site, _)| site.0).collect(),
            ))
        }

        fn observer(&self) -> PathObserver<'_> {
            PathObserver {
                target: self,
                w: 0.0,
                reached: Reached::default(),
            }
        }

        fn value(&self, observer: PathObserver<'_>) -> f64 {
            let missing = self.distinct - observer.reached.len();
            observer.w + missing as f64 * UNREACHED_PENALTY
        }

        fn describe(&self, program: &str) -> String {
            format!(
                "path weak distance of {program} over {} required branches",
                self.path.len()
            )
        }
    }
}

/// Path reachability analysis of an [`Analyzable`] program.
#[derive(Debug, Clone)]
pub struct PathAnalysis<P> {
    program: P,
}

impl<P: Analyzable> PathAnalysis<P> {
    /// Creates the analysis.
    pub fn new(program: P) -> Self {
        PathAnalysis { program }
    }

    /// The program under analysis.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// Finds an input driving every branch of `path` in the required
    /// direction.
    pub fn reach(&self, path: &Path, config: &AnalysisConfig) -> Outcome {
        self.reach_run(path, config).outcome
    }

    /// Like [`PathAnalysis::reach`], returning the full minimization run.
    ///
    /// When static analysis
    /// ([`Analyzable::branch_side_reachability`]) proves that some required
    /// `(site, direction)` of `path` can never be taken on any domain
    /// input, the whole path is infeasible and the run is pruned without
    /// spending a single evaluation
    /// ([`MinimizationRun::statically_pruned`]).
    pub fn reach_run(&self, path: &Path, config: &AnalysisConfig) -> MinimizationRun {
        if path.iter().any(|&(site, dir)| {
            self.program
                .branch_side_reachability(site, dir)
                .is_unreachable()
        }) {
            return statically_pruned_run(UNREACHED_PENALTY);
        }
        let wd = ObservedWeakDistance::configured(
            &self.program,
            RequiredPath::new(path.clone()),
            config,
        );
        minimize_weak_distance(&wd, config)
    }

    /// The complete branch path taken by the program on `input`
    /// (used both to pick targets and to verify reported solutions).
    pub fn path_of(&self, input: &[f64]) -> Path {
        let mut rec = TraceRecorder::new();
        self.program.run(input, &mut rec);
        rec.path()
    }

    /// Verification: does executing `input` drive every branch of `path` in
    /// the required direction (considering every execution of the site)?
    pub fn satisfies(&self, input: &[f64], path: &Path) -> bool {
        let taken = self.path_of(input);
        path.iter().all(|&(site, dir)| {
            let mut seen = false;
            let mut ok = true;
            for &(s, d) in &taken {
                if s == site {
                    seen = true;
                    if d != dir {
                        ok = false;
                    }
                }
            }
            seen && ok
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weak_distance::WeakDistance;
    use mini_gsl::toy::Fig2Program;

    fn both_branches() -> Path {
        vec![(BranchId(0), true), (BranchId(1), true)]
    }

    #[test]
    fn weak_distance_matches_fig4_values() {
        let wd = PathWeakDistance::new(Fig2Program::new(), both_branches());
        // Solution space is [-3, 1] (Fig. 4(b)).
        for x in [-3.0, -2.0, 0.0, 1.0] {
            assert_eq!(wd.eval(&[x]), 0.0, "W({x})");
        }
        // W(2) = 1 (first branch missed by 1, second satisfied).
        assert_eq!(wd.eval(&[2.0]), 1.0);
        for x in [1.5, 3.0, -4.0] {
            assert!(wd.eval(&[x]) > 0.0, "W({x})");
        }
    }

    #[test]
    fn reach_finds_an_input_in_the_solution_interval() {
        let analysis = PathAnalysis::new(Fig2Program::new());
        let path = both_branches();
        let outcome = analysis.reach(&path, &AnalysisConfig::quick(3));
        let input = outcome.into_input().expect("path is reachable");
        assert!(analysis.satisfies(&input, &path), "input {input:?}");
        assert!((-3.0..=1.0).contains(&input[0]), "input {input:?}");
    }

    #[test]
    fn reach_other_direction() {
        // First branch not taken, second taken: x in (1, 2].
        let analysis = PathAnalysis::new(Fig2Program::new());
        let path = vec![(BranchId(0), false), (BranchId(1), true)];
        let outcome = analysis.reach(&path, &AnalysisConfig::quick(9));
        let input = outcome.into_input().expect("path is reachable");
        assert!(analysis.satisfies(&input, &path));
        assert!(input[0] > 1.0 && input[0] <= 2.0, "input {input:?}");
    }

    #[test]
    fn infeasible_path_reports_not_found() {
        // x <= 1 taken and y <= 4 *not* taken is impossible: if x <= 1 then
        // x+1 <= 2 so y <= 4 ... except for x very negative where (x+1)^2 > 4.
        // A genuinely infeasible requirement: both directions of branch 0.
        let analysis = PathAnalysis::new(Fig2Program::new());
        let path = vec![(BranchId(0), true), (BranchId(0), false)];
        let outcome = analysis.reach(
            &path,
            &AnalysisConfig::quick(4)
                .with_rounds(2)
                .with_max_evals(4_000),
        );
        assert!(!outcome.is_found());
    }

    /// Requiring the then-side of `|x| + 1 < 0` is provably infeasible on
    /// every domain input: the run is pruned before any evaluation, while
    /// the feasible else-side still minimizes normally.
    #[test]
    fn provably_untakeable_branch_side_prunes_the_path() {
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
        let analysis = PathAnalysis::new(program);
        let config = AnalysisConfig::quick(6)
            .with_rounds(1)
            .with_max_evals(2_000);

        let pruned = analysis.reach_run(&vec![(BranchId(0), true)], &config);
        assert!(pruned.statically_pruned());
        assert_eq!(pruned.outcome.evals(), 0);
        assert!(!pruned.outcome.is_found());

        let feasible = analysis.reach_run(&vec![(BranchId(0), false)], &config);
        assert!(!feasible.statically_pruned());
        assert!(feasible.outcome.is_found(), "else side is always taken");
    }

    /// W by the construction the bitset observer replaced: the distance of
    /// every required step at each event, then a penalty for each distinct
    /// required site left out of the set of reached sites.
    fn reached_set_reference(program: &dyn Analyzable, path: &Path, x: f64) -> f64 {
        let mut rec = TraceRecorder::new();
        program.run(&[x], &mut rec);
        let mut w = 0.0;
        let mut reached = std::collections::BTreeSet::new();
        for ev in rec.branches() {
            for &(site, dir) in path {
                if site == ev.id {
                    w += ev.distance_to(dir);
                    reached.insert(site);
                }
            }
        }
        let required: std::collections::BTreeSet<BranchId> =
            path.iter().map(|(site, _)| *site).collect();
        w + required.difference(&reached).count() as f64 * UNREACHED_PENALTY
    }

    #[test]
    fn path_weak_distance_equals_the_reached_set_construction() {
        use fp_runtime::{BranchSite, ClosureProgram, Cmp};
        // Site i compares x with i; only the first |x| sites (at most 70)
        // run, the first ten of them twice, so the rest are never reached.
        let program = ClosureProgram::new("seventy sites", 1, |x: &[f64], ctx| {
            let runs = x[0].abs().min(70.0) as u32;
            for i in 0..runs {
                ctx.branch(i, x[0], Cmp::Le, f64::from(i));
            }
            for i in 0..runs.min(10) {
                ctx.branch(i, 0.5 * x[0], Cmp::Gt, f64::from(i));
            }
            Some(x[0])
        })
        .with_branch_sites(
            (0..70)
                .map(|i| BranchSite::new(i, Cmp::Le, format!("x <= {i}")))
                .collect(),
        );
        let site = |i: u32, dir: bool| (BranchId(i), dir);
        let paths: Vec<Path> = vec![
            vec![site(3, true), site(3, false), site(5, true), site(3, true)],
            vec![
                site(2, true),
                site(60, false),
                site(69, true),
                site(60, true),
            ],
            (0..70).map(|i| site(i, i % 3 == 0)).collect(),
            (0..70)
                .rev()
                .chain(0..8)
                .map(|i| site(i, i % 2 == 0))
                .collect(),
        ];
        for path in &paths {
            let wd = PathWeakDistance::new(&program, path.clone());
            for x in [
                -80.0, -65.5, -30.25, -3.0, 0.0, 1.5, 7.0, 42.0, 64.5, 66.0, 69.0, 75.0,
            ] {
                assert_eq!(
                    wd.eval(&[x]).to_bits(),
                    reached_set_reference(&program, path, x).to_bits(),
                    "{path:?} at {x}"
                );
            }
        }
    }

    #[test]
    fn path_of_records_execution_path() {
        let analysis = PathAnalysis::new(Fig2Program::new());
        assert_eq!(
            analysis.path_of(&[0.5]),
            vec![(BranchId(0), true), (BranchId(1), true)]
        );
        assert_eq!(
            analysis.path_of(&[3.0]),
            vec![(BranchId(0), false), (BranchId(1), false)]
        );
    }

    #[test]
    fn satisfies_rejects_wrong_direction() {
        let analysis = PathAnalysis::new(Fig2Program::new());
        let path = both_branches();
        assert!(analysis.satisfies(&[0.0], &path));
        assert!(!analysis.satisfies(&[5.0], &path));
    }
}
