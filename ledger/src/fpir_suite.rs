//! `fpir_suite`: `fpir` modules — `fig2`, `fig1a`, `fig1b`, `eq_zero`,
//! Horner chains of several degrees, and instrumented `W` drivers from
//! `fpir::instrument` — through boundary (every site), path, overflow and
//! coverage, one query at a time, under the default
//! `KernelPolicy::Auto`/`OptPolicy::Auto`. Here the cost sits in the
//! program layer (interpreter, lanewise kernel) and in per-target
//! specialization with translation validation.

use crate::oracle;
use crate::probe::{Meter, Probe};
use crate::run::{Pass, Suite, Verdict};
use crate::stats::mix;
use crate::trace::Layer;
use fp_runtime::{BranchId, Interval};
use fpir::instrument::{instrument_boundary, instrument_path, W_FUNCTION};
use fpir::{programs, Module, ModuleProgram};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use wdm_core::boundary::BoundaryAnalysis;
use wdm_core::coverage::CoverageAnalysis;
use wdm_core::driver::{AnalysisConfig, BackendKind, Outcome};
use wdm_core::overflow::OverflowDetector;
use wdm_core::path::{Path, PathAnalysis};

/// Per-round budget and rounds of boundary and path queries.
const SEARCH_EVALS: usize = 6_000;
const SEARCH_ROUNDS: usize = 2;
/// Per-round budget and rounds of each Algorithm 3 round and each
/// coverage round.
const CAMPAIGN_EVALS: usize = 1_500;
const CAMPAIGN_ROUNDS: usize = 1;

/// One program of the suite: a module, its entry, the search box, and the
/// queries asked of it.
struct Spec {
    name: &'static str,
    module: Module,
    entry: &'static str,
    domain: (f64, f64),
    /// Boundary targets; `None` means every declared branch site. A `W`
    /// driver declares only its own sites, so its targets are the sites
    /// of the instrumented program it calls.
    sites: Option<Vec<u32>>,
    paths: Vec<Path>,
    overflow: bool,
    coverage: bool,
}

fn path(steps: &[(u32, bool)]) -> Path {
    steps.iter().map(|&(s, d)| (BranchId(s), d)).collect()
}

fn w_driver(module: &Module) -> Module {
    let entry = module.function_by_name("prog").expect("entry exists");
    instrument_boundary(module, entry)
}

/// The suite's programs. Some domains make targets provably unreachable
/// (`fig2` right of 1.5, `eq_zero` on [1, 1e3]), so static pruning fires;
/// budgets keep any one program from dominating the replica's time.
fn specs() -> Vec<Spec> {
    let fig2 = programs::fig2_program();
    let fig1b = programs::fig1b_program();
    let horner8 = programs::horner_program(8);
    let fig2_entry = fig2.function_by_name("prog").expect("entry exists");
    let both = |a: u32, b: u32| vec![path(&[(0, a == 1), (1, b == 1)])];
    let program = |name, module, domain| Spec {
        name,
        module,
        entry: "prog",
        domain,
        sites: None,
        paths: Vec::new(),
        overflow: false,
        coverage: true,
    };
    let driver = |name, module, domain, sites: &[u32], paths| Spec {
        name,
        module,
        entry: W_FUNCTION,
        domain,
        sites: Some(sites.to_vec()),
        paths,
        overflow: false,
        coverage: false,
    };
    vec![
        Spec {
            paths: [both(1, 1), both(0, 0)].concat(),
            overflow: true,
            ..program("fig2", fig2.clone(), (-1e3, 1e3))
        },
        Spec {
            paths: both(1, 1),
            ..program("fig2_right", fig2.clone(), (1.5, 1e3))
        },
        Spec {
            paths: both(1, 0),
            overflow: true,
            ..program("fig1a", programs::fig1a_program(), (-1e3, 1e3))
        },
        Spec {
            paths: both(1, 0),
            overflow: true,
            ..program("fig1b", fig1b.clone(), (-1e3, 1e3))
        },
        Spec {
            paths: vec![path(&[(0, true)])],
            ..program("eq_zero", programs::eq_zero_program(), (-1e3, 1e3))
        },
        Spec {
            paths: vec![path(&[(0, true)])],
            ..program("eq_zero_pos", programs::eq_zero_program(), (1.0, 1e3))
        },
        Spec {
            paths: vec![path(&[(0, true)])],
            overflow: true,
            ..program("horner4", programs::horner_program(4), (-1e80, 1e80))
        },
        Spec {
            paths: vec![path(&[(0, false)])],
            ..program("horner8", horner8.clone(), (-2.0, 2.0))
        },
        Spec {
            sites: Some(Vec::new()),
            overflow: true,
            coverage: false,
            ..program("horner12", programs::horner_program(12), (-1e300, 1e300))
        },
        driver("W(fig2)", w_driver(&fig2), (-1e3, 1e3), &[0, 1], both(1, 0)),
        driver(
            "W(fig1b)",
            w_driver(&fig1b),
            (-1e3, 1e3),
            &[0, 1],
            both(1, 0),
        ),
        driver(
            "W(horner8)",
            w_driver(&horner8),
            (-2.0, 2.0),
            &[0],
            Vec::new(),
        ),
        driver(
            "Wpath(fig2)",
            instrument_path(&fig2, fig2_entry, &both(1, 1)[0]),
            (-1e3, 1e3),
            &[0, 1],
            both(0, 1),
        ),
    ]
}

/// A query: which program, which analysis.
#[derive(Debug, Clone)]
enum Query {
    Boundary { program: usize, site: BranchId },
    Path { program: usize, path: Path },
    Overflow { program: usize },
    Coverage { program: usize },
}

/// The suite's set-up product: analysed programs and the query list.
pub struct FpirState {
    seed: u64,
    names: Vec<&'static str>,
    programs: Vec<Arc<ModuleProgram>>,
    queries: Vec<Query>,
    static_info_ms: f64,
}

/// The `fpir_suite` workload.
pub struct FpirSuite;

impl FpirSuite {
    /// Time `ModuleProgram::static_info` took in the last set-up.
    pub fn static_info_ms(state: &FpirState) -> f64 {
        state.static_info_ms
    }
}

impl Suite for FpirSuite {
    type State = FpirState;
    const PREFIX: u64 = 256;

    fn setup(&self, seed: u64) -> FpirState {
        let mut names = Vec::new();
        let mut programs = Vec::new();
        let mut queries = Vec::new();
        let mut static_info_ms = 0.0;
        for (index, spec) in specs().into_iter().enumerate() {
            let program = ModuleProgram::new(spec.module, spec.entry)
                .expect("entry exists")
                .with_domain(vec![Interval::new(spec.domain.0, spec.domain.1)]);
            let start = Instant::now();
            let declared = program.static_info().branch_sites.clone();
            static_info_ms += start.elapsed().as_secs_f64() * 1e3;
            let sites = spec
                .sites
                .unwrap_or_else(|| declared.iter().map(|s| s.id.0).collect());
            for site in sites {
                queries.push(Query::Boundary {
                    program: index,
                    site: BranchId(site),
                });
            }
            for p in spec.paths {
                queries.push(Query::Path {
                    program: index,
                    path: p,
                });
            }
            if spec.overflow {
                queries.push(Query::Overflow { program: index });
            }
            if spec.coverage {
                queries.push(Query::Coverage { program: index });
            }
            names.push(spec.name);
            programs.push(Arc::new(program));
        }
        FpirState {
            seed,
            names,
            programs,
            queries,
            static_info_ms,
        }
    }

    fn replica(&self, state: &FpirState, replica: u64, meter: &Arc<Meter>, pass: &mut Pass) {
        for (i, query) in state.queries.iter().enumerate() {
            let seed = mix(state.seed, replica * state.queries.len() as u64 + i as u64);
            run_query(state, query, seed, meter, pass);
        }
    }
}

/// Boundary and overflow queries run the paper's default backend
/// (Basinhopping, one point at a time); path and coverage queries run
/// Differential Evolution, whose population batches reach
/// `BatchExecutor::execute_many` and the lanewise kernel.
fn search_config(seed: u64, backend: BackendKind) -> AnalysisConfig {
    AnalysisConfig::quick(seed)
        .with_max_evals(SEARCH_EVALS)
        .with_rounds(SEARCH_ROUNDS)
        .with_backend(backend)
}

fn campaign_config(seed: u64, backend: BackendKind) -> AnalysisConfig {
    AnalysisConfig::quick(seed)
        .with_max_evals(CAMPAIGN_EVALS)
        .with_rounds(CAMPAIGN_ROUNDS)
        .with_backend(backend)
}

fn run_query(state: &FpirState, query: &Query, seed: u64, meter: &Arc<Meter>, pass: &mut Pass) {
    match query {
        Query::Boundary { program, site } => {
            let module = &state.programs[*program];
            let name = state.names[*program];
            let analysis = BoundaryAnalysis::new(Probe::fpir(module, meter));
            let config = search_config(seed, BackendKind::BasinHopping);
            let site = *site;
            let Some((run, ms)) = pass.attempt(Layer::Boundary, 1, || {
                analysis.find_condition_run(site, &config)
            }) else {
                return;
            };
            pass.verdict(
                found_verdict(
                    Layer::Boundary,
                    ms,
                    run.outcome.evals(),
                    run.outcome.is_found(),
                ),
                u64::from(run.statically_pruned()),
            );
            if let Outcome::Found { input, .. } = run.outcome {
                let m = Arc::clone(module);
                let replay = input.clone();
                pass.witness(
                    move || format!("{name} boundary site {}", site.0),
                    &input,
                    move || oracle::boundary(&*m, site, &replay),
                );
            }
        }
        Query::Path { program, path } => {
            let module = &state.programs[*program];
            let name = state.names[*program];
            let analysis = PathAnalysis::new(Probe::fpir(module, meter));
            let config = search_config(seed, BackendKind::DifferentialEvolution);
            let Some((run, ms)) =
                pass.attempt(Layer::Path, 1, || analysis.reach_run(path, &config))
            else {
                return;
            };
            pass.verdict(
                found_verdict(Layer::Path, ms, run.outcome.evals(), run.outcome.is_found()),
                u64::from(run.statically_pruned()),
            );
            if let Outcome::Found { input, .. } = run.outcome {
                let m = Arc::clone(module);
                let replay = input.clone();
                let path = path.clone();
                let label = format!("{name} path {path:?}");
                pass.witness(
                    move || label,
                    &input,
                    move || oracle::path(&*m, &path, &replay),
                );
            }
        }
        Query::Overflow { program } => {
            let module = &state.programs[*program];
            let name = state.names[*program];
            let detector = OverflowDetector::new(Probe::fpir(module, meter));
            let targets = module.static_info().op_sites.len() as u64;
            let config = campaign_config(seed, BackendKind::BasinHopping);
            let Some((report, ms)) =
                pass.attempt(Layer::Overflow, targets, || detector.run(&config))
            else {
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
                    let m = Arc::clone(module);
                    let site = op.site.id;
                    let replay = input.clone();
                    pass.witness(
                        move || format!("{name} overflow op {}", site.0),
                        input,
                        move || oracle::overflow(&*m, site, &replay),
                    );
                }
            }
        }
        Query::Coverage { program } => {
            let module = &state.programs[*program];
            let name = state.names[*program];
            let analysis = CoverageAnalysis::new(Probe::fpir(module, meter));
            let targets = 2 * module.static_info().branch_sites.len() as u64;
            let config = campaign_config(seed, BackendKind::DifferentialEvolution);
            let before = meter.executions.load(Ordering::Relaxed);
            let Some((report, ms)) =
                pass.attempt(Layer::Coverage, targets, || analysis.run(&[], &config))
            else {
                return;
            };
            // The campaign reports no evaluation count: charge the program
            // executions it made, less the one replay per suite input.
            let executions = meter.executions.load(Ordering::Relaxed) - before;
            let evals = executions.saturating_sub(report.suite.len() as u64);
            pass.verdict(
                Verdict {
                    layer: Layer::Coverage,
                    ms,
                    evals,
                    targets: report.total_pairs as u64,
                    solved: report.covered.len() as u64,
                },
                report.statically_pruned as u64,
            );
            let m = Arc::clone(module);
            let mut flat: Vec<f64> = report.suite.iter().flatten().copied().collect();
            flat.extend(
                report
                    .covered
                    .iter()
                    .map(|&(b, d)| f64::from(b.0 * 2 + u32::from(d))),
            );
            pass.witness(
                move || format!("{name} coverage suite"),
                &flat,
                move || oracle::coverage(&*m, &report.suite, &report.covered),
            );
        }
    }
}

fn found_verdict(layer: Layer, ms: f64, evals: usize, found: bool) -> Verdict {
    Verdict {
        layer,
        ms,
        evals: evals as u64,
        targets: 1,
        solved: u64::from(found),
    }
}
