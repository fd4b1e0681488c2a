//! The satisfiability solver: minimize the CNF weak distance and verify the
//! model.
//!
//! Solving is parallel at two levels: [`AnalysisConfig::parallelism`]
//! shards the restart rounds of a single `solve` deterministically, and
//! [`Solver::solve_portfolio`] runs several MO backends on one formula as
//! a deterministic adaptive portfolio with first-hit cancellation.

use crate::ast::Cnf;
use crate::distance::{CnfWeakDistance, DistanceMetric};
use fp_runtime::Interval;
use wdm_core::adaptive::minimize_weak_distance_adaptive;
use wdm_core::driver::{minimize_weak_distance, AnalysisConfig, BackendKind, Outcome};
use wdm_core::weak_distance::WeakDistance;

/// The solver's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// A model was found (and re-checked by direct evaluation).
    Sat(Vec<f64>),
    /// No model was found within the budget. Because the MO backend may miss
    /// the global minimum (Limitation 3), this is *not* a proof of
    /// unsatisfiability; the best residual found is reported.
    Unknown {
        /// Smallest weak-distance value observed.
        best_residual: f64,
        /// Assignment attaining it.
        best_assignment: Vec<f64>,
    },
}

impl Verdict {
    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&[f64]> {
        match self {
            Verdict::Sat(m) => Some(m),
            Verdict::Unknown { .. } => None,
        }
    }

    /// Returns `true` if a model was found.
    pub fn is_sat(&self) -> bool {
        matches!(self, Verdict::Sat(_))
    }
}

/// A quantifier-free floating-point satisfiability solver in the XSat style.
#[derive(Debug, Clone)]
pub struct Solver {
    cnf: Cnf,
    metric: DistanceMetric,
    domain: Option<Vec<Interval>>,
}

impl Solver {
    /// Creates a solver for the formula.
    pub fn new(cnf: Cnf) -> Self {
        Solver {
            cnf,
            metric: DistanceMetric::Absolute,
            domain: None,
        }
    }

    /// Selects the residual metric.
    pub fn with_metric(mut self, metric: DistanceMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Restricts the variable search box.
    pub fn with_domain(mut self, domain: Vec<Interval>) -> Self {
        self.domain = Some(domain);
        self
    }

    /// Solves the formula with the given driver configuration.
    ///
    /// With [`AnalysisConfig::parallelism`] > 1 the minimization rounds are
    /// sharded across worker threads; the verdict is bit-identical for any
    /// thread count.
    pub fn solve(&self, config: &AnalysisConfig) -> Verdict {
        let wd = self.weak_distance();
        let run = minimize_weak_distance(&wd, config);
        self.verdict_of(&wd, run.outcome)
    }

    /// Solves the formula by running several MO backends as an adaptive
    /// portfolio ([`wdm_core::adaptive`]): one run's budget, reallocated
    /// by a deterministic bandit, with first-hit cancellation. The verdict
    /// is bit-identical at any [`AnalysisConfig::parallelism`]. A returned
    /// model is always re-verified.
    pub fn solve_portfolio(&self, config: &AnalysisConfig, backends: &[BackendKind]) -> Verdict {
        let wd = self.weak_distance();
        let run = minimize_weak_distance_adaptive(&wd, config, backends);
        self.verdict_of(&wd, run.outcome())
    }

    fn weak_distance(&self) -> CnfWeakDistance {
        let mut wd = CnfWeakDistance::new(self.cnf.clone()).with_metric(self.metric);
        if let Some(domain) = &self.domain {
            wd = wd.with_domain(domain.clone());
        }
        wd
    }

    fn verdict_of(&self, wd: &CnfWeakDistance, outcome: Outcome) -> Verdict {
        match outcome {
            Outcome::Found { input, .. } => {
                // Soundness check (Section 5.2 remark): re-evaluate the
                // formula directly on the candidate model.
                if self.cnf.holds(&input) {
                    Verdict::Sat(input)
                } else {
                    Verdict::Unknown {
                        best_residual: wd.eval(&input),
                        best_assignment: input,
                    }
                }
            }
            Outcome::NotFound {
                best_value,
                best_input,
                ..
            } => Verdict::Unknown {
                best_residual: best_value,
                best_assignment: best_input,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Clause, Expr};

    fn quick() -> AnalysisConfig {
        AnalysisConfig::quick(13)
    }

    #[test]
    fn solves_linear_conjunction() {
        // x0 >= 5 ∧ x0 <= 5.5 ∧ x1 == x0 + 1
        let cnf = Cnf::new(2)
            .and(Clause::from(Atom::ge(Expr::var(0), Expr::constant(5.0))))
            .and(Clause::from(Atom::le(Expr::var(0), Expr::constant(5.5))))
            .and(Clause::from(Atom::eq(
                Expr::var(1),
                Expr::var(0) + Expr::constant(1.0),
            )));
        let verdict = Solver::new(cnf.clone())
            .with_domain(vec![Interval::symmetric(100.0); 2])
            .solve(&quick());
        let model = verdict.model().expect("satisfiable");
        assert!(cnf.holds(model), "model {model:?}");
    }

    #[test]
    fn solves_the_section1_rounding_constraint() {
        // x < 1 ∧ x + 1 >= 2: only satisfiable thanks to round-to-nearest.
        let x = Expr::var(0);
        let cnf = Cnf::new(1)
            .and(Clause::from(Atom::lt(x.clone(), Expr::constant(1.0))))
            .and(Clause::from(Atom::ge(
                x + Expr::constant(1.0),
                Expr::constant(2.0),
            )));
        let verdict = Solver::new(cnf.clone())
            .with_domain(vec![Interval::symmetric(10.0)])
            .solve(&AnalysisConfig::quick(3).with_rounds(6));
        let model = verdict.model().expect("satisfiable under round-to-nearest");
        assert!(cnf.holds(model));
        assert!(model[0] < 1.0 && model[0] > 0.999_999_999_999_999);
    }

    #[test]
    fn nonlinear_constraint_with_disjunction() {
        // (x*x == 2 ∨ x <= -10) — satisfied by sqrt(2) or anything <= -10.
        let cnf = Cnf::new(1).and(
            Clause::from(Atom::eq(Expr::var(0) * Expr::var(0), Expr::constant(2.0)))
                .or(Atom::le(Expr::var(0), Expr::constant(-10.0))),
        );
        let verdict = Solver::new(cnf.clone())
            .with_domain(vec![Interval::symmetric(100.0)])
            .solve(&quick());
        let model = verdict.model().expect("satisfiable");
        assert!(cnf.holds(model));
    }

    #[test]
    fn unsatisfiable_constraint_reports_unknown_with_positive_residual() {
        // x*x == -1 has no real/floating-point solution.
        let cnf = Cnf::new(1).and(Clause::from(Atom::eq(
            Expr::var(0) * Expr::var(0),
            Expr::constant(-1.0),
        )));
        let verdict = Solver::new(cnf)
            .with_domain(vec![Interval::symmetric(100.0)])
            .solve(
                &AnalysisConfig::quick(5)
                    .with_rounds(2)
                    .with_max_evals(5_000),
            );
        match verdict {
            Verdict::Unknown { best_residual, .. } => assert!(best_residual > 0.0),
            Verdict::Sat(m) => panic!("spurious model {m:?}"),
        }
    }

    #[test]
    fn ulp_metric_solves_equality_constraints() {
        let cnf = Cnf::new(1).and(Clause::from(Atom::eq(
            Expr::var(0) + Expr::constant(1.0),
            Expr::constant(4.0),
        )));
        let verdict = Solver::new(cnf.clone())
            .with_metric(DistanceMetric::Ulp)
            .with_domain(vec![Interval::symmetric(1.0e3)])
            .solve(&quick());
        let model = verdict.model().expect("satisfiable");
        assert!(cnf.holds(model));
    }

    #[test]
    fn parallel_shards_match_sequential_verdict() {
        let cnf = Cnf::new(1).and(Clause::from(Atom::eq(
            Expr::var(0) * Expr::var(0),
            Expr::constant(9.0),
        )));
        let solver = Solver::new(cnf).with_domain(vec![Interval::symmetric(100.0)]);
        let sequential = solver.solve(&AnalysisConfig::quick(8).with_rounds(4));
        for threads in [2, 8] {
            let parallel = solver.solve(
                &AnalysisConfig::quick(8)
                    .with_rounds(4)
                    .with_parallelism(threads),
            );
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn portfolio_solve_finds_and_verifies_a_model() {
        let cnf = Cnf::new(1).and(Clause::from(Atom::eq(
            Expr::var(0) + Expr::constant(2.0),
            Expr::constant(6.0),
        )));
        let solver = Solver::new(cnf.clone()).with_domain(vec![Interval::symmetric(100.0)]);
        let verdict = solver.solve_portfolio(
            &AnalysisConfig::quick(4).with_rounds(2),
            &wdm_core::BackendKind::all(),
        );
        let model = verdict.model().expect("satisfiable");
        assert!(cnf.holds(model));
    }

    #[test]
    fn verdict_helpers() {
        let sat = Verdict::Sat(vec![1.0]);
        assert!(sat.is_sat());
        assert_eq!(sat.model(), Some(&[1.0][..]));
        let unk = Verdict::Unknown {
            best_residual: 0.5,
            best_assignment: vec![0.0],
        };
        assert!(!unk.is_sat());
        assert!(unk.model().is_none());
    }
}
