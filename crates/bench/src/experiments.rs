//! The experiment implementations, one function per table/figure.

use crate::restricted::Restricted;
use fp_runtime::{Analyzable, Interval};
use mini_gsl::airy::{airy_outcome, AiryAi};
use mini_gsl::bessel::{bessel_outcome, BesselKnuScaled};
use mini_gsl::glibc_sin::{GlibcSin, K_THRESHOLDS, REFERENCE_BOUNDS};
use mini_gsl::hyperg::{hyperg_outcome, Hyperg2F0};
use mini_gsl::result::SfOutcome;
use serde::Serialize;
use std::time::Instant;
use wdm_core::boundary::{BoundaryAnalysis, BoundaryMode, BoundaryWeakDistance};
use wdm_core::driver::{minimize_weak_distance, AnalysisConfig, BackendKind, Outcome};
use wdm_core::inconsistency::{find_inconsistencies, Inconsistency, StatusOutcome};
use wdm_core::overflow::{OverflowDetector, OverflowReport};
use wdm_core::path::{PathAnalysis, PathWeakDistance};
use wdm_core::weak_distance::WeakDistance;
use wdm_xsat::{Atom, Clause, Cnf, Expr, Solver, Verdict};

/// One row of Table 1: a backend applied to one weak distance.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Backend name.
    pub backend: String,
    /// The analysis ("Boundary Value Analysis" or "Path Reachability").
    pub analysis: String,
    /// Best weak-distance value found.
    pub w_star: f64,
    /// Minimum point(s) found (boundary values, or a path witness).
    pub minima: Vec<f64>,
    /// Objective evaluations spent.
    pub evals: usize,
}

/// Table 1: three MO backends on the boundary-value and path-reachability
/// weak distances of the Fig. 2 program.
pub fn table1(seed: u64, max_evals: usize) -> Vec<Table1Row> {
    let backends = [
        BackendKind::BasinHopping,
        BackendKind::DifferentialEvolution,
        BackendKind::Powell,
    ];
    let mut rows = Vec::new();
    for backend in backends {
        // Boundary value analysis: collect the distinct boundary values found
        // over a handful of seeds (the paper reports every minimum point).
        let analysis = BoundaryAnalysis::new(mini_gsl::toy::Fig2Program::new());
        let mut minima = Vec::new();
        let mut best = f64::INFINITY;
        let mut evals = 0usize;
        for round in 0..6u64 {
            let config = AnalysisConfig::quick(seed + round)
                .with_backend(backend)
                .with_max_evals(max_evals)
                .with_rounds(2);
            match analysis.find_any(&config) {
                Outcome::Found { input, evals: e } => {
                    best = 0.0;
                    evals += e;
                    if !minima.iter().any(|m: &f64| m == &input[0]) {
                        minima.push(input[0]);
                    }
                }
                Outcome::NotFound {
                    best_value,
                    evals: e,
                    ..
                } => {
                    best = best.min(best_value);
                    evals += e;
                }
            }
        }
        minima.sort_by(|a, b| a.partial_cmp(b).unwrap());
        rows.push(Table1Row {
            backend: backend.name().to_string(),
            analysis: "Boundary Value Analysis".to_string(),
            w_star: if best.is_finite() {
                best
            } else {
                f64::INFINITY
            },
            minima,
            evals,
        });

        // Path reachability: both branches of Fig. 2 (solution space [-3, 1]).
        let path_analysis = PathAnalysis::new(mini_gsl::toy::Fig2Program::new());
        let path = vec![
            (fp_runtime::BranchId(0), true),
            (fp_runtime::BranchId(1), true),
        ];
        let config = AnalysisConfig::quick(seed)
            .with_backend(backend)
            .with_max_evals(max_evals)
            .with_rounds(3);
        let (w_star, minima, evals) = match path_analysis.reach(&path, &config) {
            Outcome::Found { input, evals } => (0.0, vec![input[0]], evals),
            Outcome::NotFound {
                best_value,
                best_input,
                evals,
            } => (best_value, vec![best_input[0]], evals),
        };
        rows.push(Table1Row {
            backend: backend.name().to_string(),
            analysis: "Path Reachability".to_string(),
            w_star,
            minima,
            evals,
        });
    }
    rows
}

/// A sampled curve: x positions and the weak-distance value at each.
#[derive(Debug, Clone, Serialize)]
pub struct Curve {
    /// Sampled x values.
    pub x: Vec<f64>,
    /// Weak-distance value at each x.
    pub w: Vec<f64>,
}

/// Figures 3(b), 4(b), 7(b): the weak-distance graphs over `[-6, 6]`, plus
/// the MO sampling sequences of Figures 3(c)/4(c).
#[derive(Debug, Clone, Serialize)]
pub struct FigureReport {
    /// Which figure this is ("fig3", "fig4", "fig7").
    pub figure: String,
    /// The weak-distance graph.
    pub graph: Curve,
    /// The sampled inputs of the minimization run, in order (the y-axis of
    /// Fig. 3(c)/4(c)).
    pub samples: Vec<f64>,
    /// The known solutions the samples should reach.
    pub expected_solutions: Vec<f64>,
    /// How many samples hit a solution exactly (weak distance 0).
    pub zero_hits: usize,
}

fn graph_of(wd: &dyn WeakDistance, lo: f64, hi: f64, n: usize) -> Curve {
    let mut x = Vec::with_capacity(n);
    let mut w = Vec::with_capacity(n);
    for i in 0..n {
        let xi = lo + (hi - lo) * i as f64 / (n - 1) as f64;
        x.push(xi);
        w.push(wd.eval(&[xi]));
    }
    Curve { x, w }
}

/// Figure 3: boundary value analysis of the Fig. 2 program.
pub fn fig3(seed: u64) -> FigureReport {
    let wd = BoundaryWeakDistance::new(mini_gsl::toy::Fig2Program::new());
    let graph = graph_of(&wd, -6.0, 6.0, 241);
    let run = minimize_weak_distance(
        &wd,
        &AnalysisConfig::quick(seed).with_rounds(4).recording(1),
    );
    let samples: Vec<f64> = run.trace.samples().iter().map(|s| s.x[0]).collect();
    let zero_hits = run.trace.below(0.0).len();
    FigureReport {
        figure: "fig3".to_string(),
        graph,
        samples,
        expected_solutions: vec![-3.0, 1.0, 2.0],
        zero_hits,
    }
}

/// Figure 4: path reachability (both branches) of the Fig. 2 program.
pub fn fig4(seed: u64) -> FigureReport {
    let path = vec![
        (fp_runtime::BranchId(0), true),
        (fp_runtime::BranchId(1), true),
    ];
    let wd = PathWeakDistance::new(mini_gsl::toy::Fig2Program::new(), path);
    let graph = graph_of(&wd, -6.0, 6.0, 241);
    let run = minimize_weak_distance(
        &wd,
        &AnalysisConfig::quick(seed).with_rounds(4).recording(1),
    );
    let samples: Vec<f64> = run.trace.samples().iter().map(|s| s.x[0]).collect();
    let zero_hits = run.trace.below(0.0).len();
    FigureReport {
        figure: "fig4".to_string(),
        graph,
        samples,
        expected_solutions: vec![-3.0, 1.0],
        zero_hits,
    }
}

/// Figure 7: the characteristic-function weak distance — flat almost
/// everywhere, so minimization degenerates to random testing.
pub fn fig7(seed: u64) -> FigureReport {
    let wd = BoundaryWeakDistance::new(mini_gsl::toy::Fig2Program::new())
        .with_mode(BoundaryMode::Characteristic);
    let graph = graph_of(&wd, -6.0, 6.0, 241);
    let run = minimize_weak_distance(
        &wd,
        &AnalysisConfig::quick(seed)
            .with_rounds(2)
            .with_max_evals(5_000)
            .recording(1),
    );
    let samples: Vec<f64> = run.trace.samples().iter().map(|s| s.x[0]).collect();
    let zero_hits = run.trace.below(0.0).len();
    FigureReport {
        figure: "fig7".to_string(),
        graph,
        samples,
        expected_solutions: vec![-3.0, 1.0, 2.0],
        zero_hits,
    }
}

/// One boundary condition of the GNU `sin` study (a row group of Table 2).
#[derive(Debug, Clone, Serialize)]
pub struct SinCondition {
    /// The branch label (`k < 0x…`).
    pub label: String,
    /// The sign of the inputs searched (`+` or `-`).
    pub sign: char,
    /// The developer-suggested |x| bound (Table 2's `ref` row).
    pub reference: f64,
    /// Smallest boundary value found (absolute value), if any.
    pub min_found: Option<f64>,
    /// Largest boundary value found (absolute value), if any.
    pub max_found: Option<f64>,
    /// Number of confirmed boundary hits for this condition.
    pub hits: u64,
    /// Whether the condition may be reachable: false when the program's
    /// static answer ([`Analyzable::branch_boundary_reachability`]) proves
    /// it is not, and the analysis then prunes it at zero evaluations.
    pub reachable: bool,
    /// Objective evaluations spent on the condition.
    pub evals: usize,
}

/// The GNU `sin` boundary value study (Table 2 and Fig. 9).
#[derive(Debug, Clone, Serialize)]
pub struct SinStudy {
    /// Per-condition results (5 thresholds × 2 signs).
    pub conditions: Vec<SinCondition>,
    /// Cumulative (samples, conditions triggered) checkpoints — the Fig. 9
    /// curve.
    pub progress: Vec<(usize, usize)>,
    /// Total objective evaluations.
    pub total_samples: usize,
    /// Number of reachable conditions triggered.
    pub triggered: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Table 2 / Fig. 9: boundary value analysis of the Glibc `sin` port.
pub fn table2_fig9(seed: u64, max_evals: usize) -> SinStudy {
    let start = Instant::now();
    let mut conditions = Vec::new();
    let mut progress = Vec::new();
    let mut total_samples = 0usize;
    let mut triggered = 0usize;

    for (i, &threshold) in K_THRESHOLDS.iter().enumerate() {
        for (sign, domain) in [
            ('+', Interval::new(0.0, f64::MAX)),
            ('-', Interval::new(-f64::MAX, 0.0)),
        ] {
            let program = Restricted::new(GlibcSin::new(), vec![domain]);
            let analysis = BoundaryAnalysis::new(program);
            let config = AnalysisConfig::quick(seed + i as u64 * 2 + (sign == '-') as u64)
                .with_max_evals(max_evals)
                .with_rounds(4);
            let site = fp_runtime::BranchId(i as u32);
            let outcome = analysis.find_condition(site, &config);
            total_samples += outcome.evals();
            let mut condition = SinCondition {
                label: format!("k < {threshold:#010x}"),
                sign,
                reference: REFERENCE_BOUNDS[i],
                min_found: None,
                max_found: None,
                hits: 0,
                reachable: !analysis
                    .program()
                    .branch_boundary_reachability(site)
                    .is_unreachable(),
                evals: outcome.evals(),
            };
            if let Outcome::Found { input, .. } = outcome {
                // Soundness: confirm the hit and count it.
                let hits = analysis.triggered_conditions(&input);
                if hits.contains(&fp_runtime::BranchId(i as u32)) {
                    triggered += 1;
                    condition.hits = 1;
                    condition.min_found = Some(input[0].abs());
                    condition.max_found = Some(input[0].abs());
                }
            }
            progress.push((total_samples, triggered));
            conditions.push(condition);
        }
    }
    SinStudy {
        conditions,
        progress,
        total_samples,
        triggered,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// A benchmark of the overflow study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GslBenchmark {
    /// `gsl_sf_bessel_Knu_scaled_asympx_e`.
    Bessel,
    /// `gsl_sf_hyperg_2F0_e`.
    Hyperg,
    /// `gsl_sf_airy_Ai_e`.
    Airy,
}

impl GslBenchmark {
    /// All three benchmarks of Table 3.
    pub fn all() -> [GslBenchmark; 3] {
        [
            GslBenchmark::Bessel,
            GslBenchmark::Hyperg,
            GslBenchmark::Airy,
        ]
    }

    /// The function name as reported in Table 3.
    pub fn function_name(self) -> &'static str {
        match self {
            GslBenchmark::Bessel => "bessel_Knu_scaled_asympx_e",
            GslBenchmark::Hyperg => "gsl_sf_hyperg_2F0_e",
            GslBenchmark::Airy => "gsl_sf_airy_Ai_e",
        }
    }

    fn status_outcome(self, input: &[f64]) -> StatusOutcome {
        let (r, status): SfOutcome = match self {
            GslBenchmark::Bessel => bessel_outcome(input),
            GslBenchmark::Hyperg => hyperg_outcome(input),
            GslBenchmark::Airy => airy_outcome(input),
        };
        StatusOutcome::new(
            status.is_success(),
            vec![("val".to_string(), r.val), ("err".to_string(), r.err)],
        )
    }
}

/// Result of running `fpod` (Algorithm 3) plus the inconsistency replay on
/// one benchmark — one row of Table 3, expanded.
#[derive(Debug, Clone)]
pub struct FpodResult {
    /// Which benchmark.
    pub benchmark: GslBenchmark,
    /// The overflow report (Table 4 for Bessel).
    pub overflow: OverflowReport,
    /// The detected inconsistencies (Table 5).
    pub inconsistencies: Vec<Inconsistency>,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Serializable summary row of Table 3.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Row {
    /// Function name.
    pub function: String,
    /// Number of floating-point operations `|Op|`.
    pub ops: usize,
    /// Number of operations with a triggered overflow `|O|`.
    pub overflows: usize,
    /// Number of inconsistencies `|I|`.
    pub inconsistencies: usize,
    /// Number of confirmed-bug-class root causes `|B|` (division by zero or
    /// inaccurate trigonometric kernel).
    pub bugs: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Runs Algorithm 3 plus the inconsistency replay on one benchmark.
pub fn run_fpod(benchmark: GslBenchmark, config: &AnalysisConfig) -> FpodResult {
    let start = Instant::now();
    let (overflow, inconsistencies) = match benchmark {
        GslBenchmark::Bessel => {
            let program = BesselKnuScaled::new();
            let report = OverflowDetector::new(program).run(config);
            let inputs = report.inputs.clone();
            let found = find_inconsistencies(&program, |x| benchmark.status_outcome(x), &inputs);
            (report, found)
        }
        GslBenchmark::Hyperg => {
            let program = Hyperg2F0::new();
            let report = OverflowDetector::new(program).run(config);
            let inputs = report.inputs.clone();
            let found = find_inconsistencies(&program, |x| benchmark.status_outcome(x), &inputs);
            (report, found)
        }
        GslBenchmark::Airy => {
            let program = AiryAi::new();
            let report = OverflowDetector::new(program).run(config);
            let inputs = report.inputs.clone();
            let found = find_inconsistencies(&program, |x| benchmark.status_outcome(x), &inputs);
            (report, found)
        }
    };
    FpodResult {
        benchmark,
        overflow,
        inconsistencies,
        seconds: start.elapsed().as_secs_f64(),
    }
}

impl FpodResult {
    /// Deduplicated inconsistencies (one representative per root cause).
    pub fn distinct_causes(&self) -> Vec<&Inconsistency> {
        let mut seen = Vec::new();
        let mut out = Vec::new();
        for inc in &self.inconsistencies {
            if !seen.contains(&inc.cause) {
                seen.push(inc.cause);
                out.push(inc);
            }
        }
        out
    }

    /// The Table 3 summary row of this result.
    pub fn table3_row(&self) -> Table3Row {
        use wdm_core::inconsistency::RootCause;
        let bugs = self
            .distinct_causes()
            .iter()
            .filter(|i| {
                matches!(
                    i.cause,
                    RootCause::DivisionByZero | RootCause::InaccurateTrig
                )
            })
            .count();
        Table3Row {
            function: self.benchmark.function_name().to_string(),
            ops: self.overflow.num_ops(),
            overflows: self.overflow.num_overflows(),
            inconsistencies: self.inconsistencies.len(),
            bugs,
            seconds: self.seconds,
        }
    }
}

/// One entry of the XSat sanity suite.
#[derive(Debug, Clone, Serialize)]
pub struct XsatCase {
    /// Description of the formula.
    pub formula: String,
    /// Whether the formula is expected to be satisfiable.
    pub expected_sat: bool,
    /// Whether a model was found.
    pub found_sat: bool,
    /// The model, if any.
    pub model: Option<Vec<f64>>,
}

/// A small QF-FP satisfiability suite exercising the XSat instance.
pub fn xsat_suite(seed: u64) -> Vec<XsatCase> {
    let x = Expr::var(0);
    let y = Expr::var(1);
    let cases: Vec<(String, Cnf, bool, Vec<Interval>)> = vec![
        (
            "x < 1 ∧ x + 1 >= 2 (round-to-nearest)".to_string(),
            Cnf::new(1)
                .and(Clause::from(Atom::lt(x.clone(), Expr::constant(1.0))))
                .and(Clause::from(Atom::ge(
                    x.clone() + Expr::constant(1.0),
                    Expr::constant(2.0),
                ))),
            true,
            vec![Interval::symmetric(10.0)],
        ),
        (
            "x*x == 4".to_string(),
            Cnf::new(1).and(Clause::from(Atom::eq(
                x.clone() * x.clone(),
                Expr::constant(4.0),
            ))),
            true,
            vec![Interval::symmetric(100.0)],
        ),
        (
            "x*x == 2 (unsat in binary64, sat over the reals)".to_string(),
            Cnf::new(1).and(Clause::from(Atom::eq(
                x.clone() * x.clone(),
                Expr::constant(2.0),
            ))),
            false,
            vec![Interval::symmetric(100.0)],
        ),
        (
            "x + y == 10 ∧ x - y == 4".to_string(),
            Cnf::new(2)
                .and(Clause::from(Atom::eq(
                    x.clone() + y.clone(),
                    Expr::constant(10.0),
                )))
                .and(Clause::from(Atom::eq(
                    x.clone() - y.clone(),
                    Expr::constant(4.0),
                ))),
            true,
            vec![Interval::symmetric(100.0); 2],
        ),
        (
            "x*x == -1 (unsat)".to_string(),
            Cnf::new(1).and(Clause::from(Atom::eq(
                x.clone() * x.clone(),
                Expr::constant(-1.0),
            ))),
            false,
            vec![Interval::symmetric(100.0)],
        ),
        (
            "sin(x) <= -0.99 ∧ x >= 3 (transcendental)".to_string(),
            Cnf::new(1)
                .and(Clause::from(Atom::le(
                    x.clone().sin(),
                    Expr::constant(-0.99),
                )))
                .and(Clause::from(Atom::ge(x.clone(), Expr::constant(3.0)))),
            true,
            vec![Interval::new(0.0, 100.0)],
        ),
    ];
    cases
        .into_iter()
        .map(|(formula, cnf, expected_sat, domain)| {
            let verdict = Solver::new(cnf)
                .with_domain(domain)
                .solve(&AnalysisConfig::quick(seed).with_rounds(6));
            let (found_sat, model) = match verdict {
                Verdict::Sat(m) => (true, Some(m)),
                Verdict::Unknown { .. } => (false, None),
            };
            XsatCase {
                formula,
                expected_sat,
                found_sat,
                model,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_six_rows_and_basinhopping_succeeds() {
        let rows = table1(3, 10_000);
        assert_eq!(rows.len(), 6);
        let bh_boundary = &rows[0];
        assert_eq!(bh_boundary.backend, "Basinhopping");
        assert_eq!(bh_boundary.w_star, 0.0);
        assert!(!bh_boundary.minima.is_empty());
        let bh_path = &rows[1];
        assert_eq!(bh_path.w_star, 0.0);
        assert!((-3.0..=1.0).contains(&bh_path.minima[0]));
    }

    #[test]
    fn fig3_graph_touches_zero_at_known_boundaries() {
        let fig = fig3(1);
        assert_eq!(fig.graph.x.len(), 241);
        // The grid contains -3, 1 and 2 exactly (step 0.05 over [-6, 6]).
        for target in [-3.0, 1.0, 2.0] {
            let idx = fig
                .graph
                .x
                .iter()
                .position(|&x| (x - target).abs() < 1e-9)
                .expect("grid point");
            assert_eq!(fig.graph.w[idx], 0.0, "W({target})");
        }
        assert!(fig.zero_hits > 0);
    }

    #[test]
    fn fig4_solution_interval_is_flat_zero() {
        let fig = fig4(2);
        for (x, w) in fig.graph.x.iter().zip(&fig.graph.w) {
            if (-3.0..=1.0).contains(x) {
                assert_eq!(*w, 0.0, "W({x})");
            } else if *x > 1.05 || *x < -3.05 {
                assert!(*w > 0.0, "W({x})");
            }
        }
    }

    #[test]
    fn xsat_suite_matches_expected_satisfiability() {
        for case in xsat_suite(5) {
            assert_eq!(
                case.found_sat, case.expected_sat,
                "formula {} expected sat={}",
                case.formula, case.expected_sat
            );
        }
    }

    #[test]
    fn fpod_on_hyperg_is_quick_and_finds_overflows() {
        let config = AnalysisConfig::quick(9)
            .with_rounds(2)
            .with_max_evals(8_000);
        let result = run_fpod(GslBenchmark::Hyperg, &config);
        assert_eq!(result.overflow.num_ops(), 8);
        assert!(result.overflow.num_overflows() >= 2);
        let row = result.table3_row();
        assert_eq!(row.function, "gsl_sf_hyperg_2F0_e");
        assert!(row.seconds >= 0.0);
    }
}
