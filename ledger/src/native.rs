//! `native_suite`: the paper harness's native queries — every Glibc `sin`
//! boundary condition on both signs (Table 2), `fig2`/`eq_zero` boundary
//! and `fig2` path, the Bessel/Hyperg/Airy overflow studies (Tables 3–4)
//! and the XSat formulas — run one at a time on hand-instrumented Rust
//! programs, where the objective costs tens of nanoseconds and the search
//! machinery around it dominates.

use crate::oracle;
use crate::probe::{Meter, Probe};
use crate::run::{Pass, Suite, Verdict};
use crate::stats::mix;
use crate::trace::Layer;
use fp_runtime::{Analyzable, BranchId, Interval};
use mini_gsl::airy::AiryAi;
use mini_gsl::bessel::BesselKnuScaled;
use mini_gsl::glibc_sin::GlibcSin;
use mini_gsl::hyperg::Hyperg2F0;
use mini_gsl::toy::{EqZeroProgram, Fig2Program};
use std::sync::Arc;
use wdm_bench::restricted::Restricted;
use wdm_core::boundary::BoundaryAnalysis;
use wdm_core::driver::{minimize_weak_distance, AnalysisConfig, Outcome};
use wdm_core::overflow::OverflowDetector;
use wdm_core::path::{Path, PathAnalysis};
use wdm_xsat::{Atom, Clause, Cnf, CnfWeakDistance, Expr, Solver, Verdict as XsatVerdict};

/// Per-round budget of the `sin` conditions (the `2^1024` one burns
/// `SIN_ROUNDS` × this).
const SIN_EVALS: usize = 20_000;
const SIN_ROUNDS: usize = 4;
/// Per-round budget and rounds of each overflow study.
const OVERFLOW_EVALS: usize = 4_000;
const OVERFLOW_ROUNDS: usize = 2;
/// Restart rounds of each XSat query.
const XSAT_ROUNDS: usize = 6;

/// The native programs of the suite.
#[derive(Debug, Clone, Copy)]
enum Toy {
    Fig2,
    EqZero,
}

#[derive(Debug, Clone, Copy)]
enum Study {
    Bessel,
    Hyperg,
    Airy,
}

/// One query instance.
#[derive(Debug, Clone)]
enum Query {
    Sin { site: u32, negative: bool },
    Boundary { toy: Toy, site: u32 },
    Path { path: Path },
    Overflow { study: Study },
    Xsat { formula: usize },
}

/// A formula of the XSat suite: the CNF, its search box, and whether it is
/// satisfiable in binary64.
pub struct Formula {
    /// The CNF.
    pub cnf: Cnf,
    /// The variable search box.
    pub domain: Vec<Interval>,
    /// Satisfiable in binary64?
    pub expected_sat: bool,
}

/// The XSat suite: four satisfiable formulas and two unsatisfiable ones.
pub fn formulas() -> Vec<Formula> {
    let x = Expr::var(0);
    let y = Expr::var(1);
    let c = Expr::constant;
    let one = |cnf: Cnf, domain: Vec<Interval>, expected_sat| Formula {
        cnf,
        domain,
        expected_sat,
    };
    vec![
        // x < 1 ∧ x + 1 >= 2: satisfiable only through rounding.
        one(
            Cnf::new(1)
                .and(Clause::from(Atom::lt(x.clone(), c(1.0))))
                .and(Clause::from(Atom::ge(x.clone() + c(1.0), c(2.0)))),
            vec![Interval::symmetric(10.0)],
            true,
        ),
        one(
            Cnf::new(1).and(Clause::from(Atom::eq(x.clone() * x.clone(), c(4.0)))),
            vec![Interval::symmetric(100.0)],
            true,
        ),
        // x*x == 2 has no binary64 solution.
        one(
            Cnf::new(1).and(Clause::from(Atom::eq(x.clone() * x.clone(), c(2.0)))),
            vec![Interval::symmetric(100.0)],
            false,
        ),
        one(
            Cnf::new(2)
                .and(Clause::from(Atom::eq(x.clone() + y.clone(), c(10.0))))
                .and(Clause::from(Atom::eq(x.clone() - y.clone(), c(4.0)))),
            vec![Interval::symmetric(100.0); 2],
            true,
        ),
        one(
            Cnf::new(1).and(Clause::from(Atom::eq(x.clone() * x.clone(), c(-1.0)))),
            vec![Interval::symmetric(100.0)],
            false,
        ),
        one(
            Cnf::new(1)
                .and(Clause::from(Atom::le(x.clone().sin(), c(-0.99))))
                .and(Clause::from(Atom::ge(x, c(3.0)))),
            vec![Interval::new(0.0, 100.0)],
            true,
        ),
    ]
}

/// The suite's set-up product: the query list and the formulas.
pub struct NativeState {
    seed: u64,
    queries: Vec<Query>,
    formulas: Vec<Formula>,
    /// Wrap the programs in probes: only the traced run does, so the
    /// untraced run times the bare programs.
    traced: bool,
}

/// The `native_suite` workload.
pub struct NativeSuite;

fn half_line(negative: bool) -> Vec<Interval> {
    vec![if negative {
        Interval::new(-f64::MAX, 0.0)
    } else {
        Interval::new(0.0, f64::MAX)
    }]
}

fn sin_program(negative: bool) -> Restricted<GlibcSin> {
    Restricted::new(GlibcSin::new(), half_line(negative))
}

impl Suite for NativeSuite {
    type State = NativeState;
    const PREFIX: u64 = 48;

    fn setup(&self, seed: u64) -> NativeState {
        let mut list = Vec::new();
        for site in 0..GlibcSin::NUM_BRANCHES {
            for negative in [false, true] {
                list.push(Query::Sin { site, negative });
            }
        }
        for site in 0..2 {
            list.push(Query::Boundary {
                toy: Toy::Fig2,
                site,
            });
        }
        list.push(Query::Boundary {
            toy: Toy::EqZero,
            site: 0,
        });
        list.push(Query::Path {
            path: vec![(BranchId(0), true), (BranchId(1), true)],
        });
        list.push(Query::Path {
            path: vec![(BranchId(0), false), (BranchId(1), true)],
        });
        for study in [Study::Bessel, Study::Hyperg, Study::Airy] {
            list.push(Query::Overflow { study });
        }
        let formulas = formulas();
        for formula in 0..formulas.len() {
            list.push(Query::Xsat { formula });
        }
        NativeState {
            seed,
            queries: list,
            formulas,
            traced: crate::trace::enabled(),
        }
    }

    fn replica(&self, state: &NativeState, replica: u64, meter: &Arc<Meter>, pass: &mut Pass) {
        for (i, query) in state.queries.iter().enumerate() {
            run_query(state, query, instance_seed(state, replica, i), meter, pass);
        }
    }

    fn replayed_evals(&self, state: &NativeState, replica: u64) -> (u64, u64) {
        // `Solver::solve` reports no evaluation count; replaying the same
        // minimization through the public weak distance recovers it.
        let (mut evals, mut unsolved) = (0, 0);
        for (i, query) in state.queries.iter().enumerate() {
            if let Query::Xsat { formula } = query {
                let f = &state.formulas[*formula];
                let wd = CnfWeakDistance::new(f.cnf.clone()).with_domain(f.domain.clone());
                let seed = instance_seed(state, replica, i);
                let outcome = minimize_weak_distance(&wd, &xsat_config(seed)).outcome;
                let n = outcome.evals() as u64;
                evals += n;
                if !outcome.is_found() {
                    unsolved += n;
                }
            }
        }
        (evals, unsolved)
    }
}

fn instance_seed(state: &NativeState, replica: u64, index: usize) -> u64 {
    mix(
        state.seed,
        replica * state.queries.len() as u64 + index as u64,
    )
}

fn xsat_config(seed: u64) -> AnalysisConfig {
    AnalysisConfig::quick(seed).with_rounds(XSAT_ROUNDS)
}

/// Runs `$body` with `$p` bound to the bare program, or to it wrapped in a
/// probe when tracing.
macro_rules! with_program {
    ($state:expr, $meter:expr, $prog:expr, |$p:ident| $body:expr) => {
        if $state.traced {
            let $p = Probe::native($prog, $meter);
            $body
        } else {
            let $p = $prog;
            $body
        }
    };
}

fn run_query(state: &NativeState, query: &Query, seed: u64, meter: &Arc<Meter>, pass: &mut Pass) {
    match query {
        Query::Sin { site, negative } => {
            let config = AnalysisConfig::quick(seed)
                .with_max_evals(SIN_EVALS)
                .with_rounds(SIN_ROUNDS);
            let negative = *negative;
            with_program!(state, meter, sin_program(negative), |p| boundary(
                pass,
                p,
                BranchId(*site),
                &config,
                move |site, input| oracle::boundary(sin_program(negative), site, input)
            ))
        }
        Query::Boundary { toy, site } => {
            let config = AnalysisConfig::quick(seed);
            match toy {
                Toy::Fig2 => with_program!(state, meter, Fig2Program::new(), |p| boundary(
                    pass,
                    p,
                    BranchId(*site),
                    &config,
                    |site, input| oracle::boundary(Fig2Program::new(), site, input)
                )),
                Toy::EqZero => with_program!(state, meter, EqZeroProgram::new(), |p| boundary(
                    pass,
                    p,
                    BranchId(*site),
                    &config,
                    |site, input| oracle::boundary(EqZeroProgram::new(), site, input)
                )),
            }
        }
        Query::Path { path } => {
            let config = AnalysisConfig::quick(seed);
            with_program!(state, meter, Fig2Program::new(), |p| {
                let analysis = PathAnalysis::new(p);
                if let Some((run, ms)) =
                    pass.attempt(Layer::Path, 1, || analysis.reach_run(path, &config))
                {
                    let found = run.outcome.is_found();
                    pass.verdict(
                        verdict(Layer::Path, ms, run.outcome.evals(), 1, found),
                        u64::from(run.statically_pruned()),
                    );
                    if let Outcome::Found { input, .. } = run.outcome {
                        let path = path.clone();
                        let replay = input.clone();
                        let label = format!("fig2 path {path:?}");
                        pass.witness(
                            move || label,
                            &input,
                            move || oracle::path(Fig2Program::new(), &path, &replay),
                        );
                    }
                }
            })
        }
        Query::Overflow { study } => {
            let config = AnalysisConfig::quick(seed)
                .with_max_evals(OVERFLOW_EVALS)
                .with_rounds(OVERFLOW_ROUNDS);
            match study {
                Study::Bessel => with_program!(state, meter, BesselKnuScaled::new(), |p| overflow(
                    pass,
                    p,
                    &config,
                    BesselKnuScaled::new
                )),
                Study::Hyperg => with_program!(state, meter, Hyperg2F0::new(), |p| overflow(
                    pass,
                    p,
                    &config,
                    Hyperg2F0::new
                )),
                Study::Airy => with_program!(state, meter, AiryAi::new(), |p| overflow(
                    pass,
                    p,
                    &config,
                    AiryAi::new
                )),
            }
        }
        Query::Xsat { formula } => {
            let f = &state.formulas[*formula];
            let solver = Solver::new(f.cnf.clone()).with_domain(f.domain.clone());
            let config = xsat_config(seed);
            if let Some((answer, ms)) = pass.attempt(Layer::Xsat, 1, || solver.solve(&config)) {
                // Evaluations are filled in after the timed window (`settle`).
                pass.verdict(verdict(Layer::Xsat, ms, 0, 1, answer.is_sat()), 0);
                match answer {
                    XsatVerdict::Sat(model) => {
                        let cnf = f.cnf.clone();
                        let expected = f.expected_sat;
                        let replay = model.clone();
                        let formula = *formula;
                        pass.witness(
                            move || format!("xsat formula {formula}"),
                            &model,
                            move || oracle::xsat(&cnf, expected, &replay),
                        );
                    }
                    XsatVerdict::Unknown { best_residual, .. } => {
                        pass.digest_word(best_residual.to_bits());
                    }
                }
            }
        }
    }
}

fn verdict(layer: Layer, ms: f64, evals: usize, targets: u64, found: bool) -> Verdict {
    Verdict {
        layer,
        ms,
        evals: evals as u64,
        targets,
        solved: u64::from(found),
    }
}

/// One boundary condition: `find_condition_run`, then (deferred) the
/// triggered-conditions oracle on the witness.
fn boundary<P: Analyzable>(
    pass: &mut Pass,
    program: P,
    site: BranchId,
    config: &AnalysisConfig,
    check: impl FnOnce(BranchId, &[f64]) -> bool + 'static,
) {
    let analysis = BoundaryAnalysis::new(program);
    let Some((run, ms)) = pass.attempt(Layer::Boundary, 1, || {
        analysis.find_condition_run(site, config)
    }) else {
        return;
    };
    let found = run.outcome.is_found();
    pass.verdict(
        verdict(Layer::Boundary, ms, run.outcome.evals(), 1, found),
        u64::from(run.statically_pruned()),
    );
    if let Outcome::Found { input, .. } = run.outcome {
        let replay = input.clone();
        pass.witness(
            move || format!("boundary site {}", site.0),
            &input,
            move || check(site, &replay),
        );
    }
}

/// One overflow study: Algorithm 3 over every operation site, then
/// (deferred) a non-finite-result replay of every reported witness.
fn overflow<P: Analyzable, B: Analyzable + 'static>(
    pass: &mut Pass,
    program: P,
    config: &AnalysisConfig,
    bare: fn() -> B,
) {
    let detector = OverflowDetector::new(program);
    let targets = detector.program().op_sites().len() as u64;
    let Some((report, ms)) = pass.attempt(Layer::Overflow, targets, || detector.run(config)) else {
        return;
    };
    pass.verdict(
        Verdict {
            layer: Layer::Overflow,
            ms,
            evals: report.evals as u64,
            targets: report.num_ops() as u64,
            solved: report.num_overflows() as u64,
        },
        report.statically_pruned as u64,
    );
    for op in &report.operations {
        if let Some(input) = &op.witness {
            let site = op.site.id;
            let replay = input.clone();
            pass.witness(
                move || format!("overflow op {}", site.0),
                input,
                move || oracle::overflow(bare(), site, &replay),
            );
        }
    }
}
