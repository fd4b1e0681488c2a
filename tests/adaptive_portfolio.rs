//! Properties of the adaptive portfolio stack:
//!
//! 1. **Sliced-vs-unsliced bit-equivalence** — every stepped backend
//!    (BasinHopping, Differential Evolution, Powell, MultiStart,
//!    RandomSearch), run in random eval-budget slices through the
//!    [`SteppedMinimizer`](wdm::mo::SteppedMinimizer) seam, produces
//!    exactly the unsliced run's result and sampling trace;
//! 2. **Single-backend portfolio ≡ direct run** — an adaptive portfolio
//!    of one backend is the direct driver run, bit for bit;
//! 3. **Scheduler determinism** — the adaptive portfolio outcome is
//!    bit-identical at every thread count (the CI matrix runs this suite
//!    under `WDM_TEST_THREADS=1` and `=8`);
//! 4. **Cancellation accounting** — the PR 5 regression: a cancelled run
//!    stops between restart rounds, so portfolio entries charge exactly
//!    the evaluations the objective observed.

mod common;

use common::{matrix_threads, shaped, thread_counts, trace_bits};
use proptest::prelude::*;
use wdm::core::adaptive::minimize_weak_distance_adaptive;
use wdm::core::driver::{
    minimize_weak_distance, minimize_weak_distance_cancellable, AnalysisConfig, BackendKind,
    EscalationConfig,
};
use wdm::core::{AdaptivePortfolio, PortfolioRun};
use wdm::core::boundary::BoundaryWeakDistance;
use wdm::core::weak_distance::FnWeakDistance;
use wdm::ir::{programs, ModuleProgram};
use wdm::mo::stepped::StepStatus;
use wdm::mo::{
    BasinHopping, Bounds, CancelToken, DifferentialEvolution, FnObjective, MultiStart, Powell,
    Problem, RandomSearch, SamplingTrace, SteppedMinimizer,
};
use wdm::runtime::Interval;

fn stepped_backend(pick: usize) -> (&'static str, Box<dyn SteppedMinimizer>) {
    match pick % 5 {
        0 => ("BasinHopping", Box::new(BasinHopping::default().with_hops(12))),
        1 => (
            "DifferentialEvolution",
            Box::new(DifferentialEvolution::default().with_max_generations(25)),
        ),
        2 => ("MultiStart", Box::new(MultiStart::default().with_starts(8))),
        3 => ("Powell", Box::new(Powell::default())),
        _ => ("RandomSearch", Box::new(RandomSearch::new())),
    }
}

proptest! {
    /// Tentpole property: for every stepped backend, random objectives,
    /// budgets, targets and slice schedules, a sliced run is bit-identical
    /// to the unsliced run — same result, same recorded trace.
    #[test]
    fn sliced_run_is_bit_identical_to_unsliced(
        seed in any::<u64>(),
        pick in 0usize..5,
        kind in any::<u8>(),
        max_evals in 300usize..2_000,
        slices in proptest::collection::vec(1usize..600, 1..6),
        with_target in any::<bool>(),
    ) {
        let (name, backend) = stepped_backend(pick);
        let f = FnObjective::new(1, move |x: &[f64]| shaped(kind, x[0]));
        let mut problem = Problem::new(&f, Bounds::symmetric(1, 1.0e3)).with_max_evals(max_evals);
        if with_target {
            problem = problem.with_target(0.0);
        }

        let mut direct_trace = SamplingTrace::new();
        let direct = backend.minimize(&problem, seed, &mut direct_trace);

        let mut sliced_trace = SamplingTrace::new();
        let mut run = backend.start(&problem, seed);
        let mut i = 0usize;
        while run.step(&problem, slices[i % slices.len()], &mut sliced_trace)
            == StepStatus::Paused
        {
            i += 1;
            prop_assert!(i < 1_000_000, "{name}: runaway slicing");
        }
        prop_assert!(run.is_finished());
        common::assert_results_identical(&run.result(), &direct, name);
        prop_assert_eq!(run.evals(), direct.evals);
        prop_assert_eq!(trace_bits(&sliced_trace), trace_bits(&direct_trace));
    }
}

/// An adaptive portfolio of a single backend is the direct driver run of
/// that backend — outcome, best result and sampling trace, bit for bit —
/// for all five backends (Powell included, now a true stepped backend).
#[test]
fn single_backend_adaptive_equals_direct_run_on_fig2() {
    for backend in BackendKind::all() {
        let wd = || {
            BoundaryWeakDistance::new(
                ModuleProgram::new(programs::fig2_program(), "prog").expect("fig2 entry"),
            )
        };
        let config = AnalysisConfig::quick(9)
            .with_backend(backend)
            .with_rounds(2)
            .with_max_evals(3_000)
            .recording(2);
        let direct = minimize_weak_distance(&wd(), &config);
        let adaptive = minimize_weak_distance_adaptive(&wd(), &config, &[backend]);
        assert_eq!(adaptive.winner, 0, "{backend:?}");
        common::assert_runs_identical(
            &adaptive.entries[0].run,
            &direct,
            &format!("{backend:?}"),
        );
    }
}

/// The adaptive scheduler over every backend solves the interpreted fig2
/// boundary problem, and reports every backend's entry.
#[test]
fn adaptive_portfolio_solves_fig2_boundary() {
    let wd = BoundaryWeakDistance::new(
        ModuleProgram::new(programs::fig2_program(), "prog").expect("fig2 entry"),
    );
    let run = minimize_weak_distance_adaptive(
        &wd,
        &AnalysisConfig::quick(7).with_rounds(2).with_max_evals(8_000),
        &BackendKind::all(),
    );
    assert_eq!(run.entries.len(), BackendKind::all().len());
    assert!(run.outcome().is_found());
    assert!(run.entries[run.winner].run.outcome.is_found());
}

fn assert_portfolios_identical(actual: &PortfolioRun, expected: &PortfolioRun, what: &str) {
    assert_eq!(actual.winner, expected.winner, "{what}: winner");
    assert_eq!(actual.entries.len(), expected.entries.len(), "{what}");
    for (a, b) in actual.entries.iter().zip(&expected.entries) {
        assert_eq!(a.backend, b.backend, "{what}");
        common::assert_runs_identical(&a.run, &b.run, &format!("{what}: {:?}", a.backend));
    }
}

/// The adaptive scheduler is bit-identical at every thread count, on both
/// a zero-free problem (the whole pool is spent) and a solvable one
/// (first-hit cancellation kicks in).
#[test]
fn adaptive_scheduler_is_deterministic_at_any_thread_count() {
    let zero_free = FnWeakDistance::new(1, vec![Interval::symmetric(100.0)], |x: &[f64]| {
        x[0].abs() + 0.5
    });
    let solvable = || {
        BoundaryWeakDistance::new(
            ModuleProgram::new(programs::fig2_program(), "prog").expect("fig2 entry"),
        )
    };
    let base = AnalysisConfig::quick(17)
        .with_rounds(2)
        .with_max_evals(3_000)
        .recording(4);

    let reference_free = minimize_weak_distance_adaptive(&zero_free, &base, &BackendKind::all());
    let reference_hit = minimize_weak_distance_adaptive(&solvable(), &base, &BackendKind::all());
    for threads in thread_counts() {
        let config = base.clone().with_parallelism(threads);
        let free = minimize_weak_distance_adaptive(&zero_free, &config, &BackendKind::all());
        assert_portfolios_identical(&free, &reference_free, &format!("zero-free, {threads} threads"));
        let hit = minimize_weak_distance_adaptive(&solvable(), &config, &BackendKind::all());
        assert_portfolios_identical(&hit, &reference_hit, &format!("solvable, {threads} threads"));
    }
}

proptest! {
    /// Mid-run escalation does not disturb slice invariance: a portfolio
    /// driven with a random worker count per scheduler round — so
    /// escalation arms join mid-slice at arbitrary points of the
    /// schedule — produces the plain adaptive run bit for bit. The
    /// saturating threshold makes the detector fire on every run, so
    /// every case genuinely exercises arms spawned after round zero.
    #[test]
    fn escalating_portfolio_is_worker_slice_invariant(
        seed in any::<u64>(),
        kind in any::<u8>(),
        offset in 0.25f64..64.0,
        workers in proptest::collection::vec(1usize..9, 1..8),
    ) {
        let wd = move || {
            FnWeakDistance::new(1, vec![Interval::symmetric(100.0)], move |x: &[f64]| {
                shaped(kind, x[0]).abs() + offset
            })
        };
        // Six rounds keep the shared pool above the worst-case probe
        // burn (an arm that cannot pause mid-step may spend its whole
        // per-round budget in one slice, as MultiStart does on the
        // all-overflow objective), so the detector always gets a fold
        // with budget left to escalate into.
        let config = AnalysisConfig::quick(seed)
            .with_rounds(6)
            .with_max_evals(1_000)
            .with_escalation(
                EscalationConfig::default().with_threshold(2.0).with_patience(1),
            );
        let backends = BackendKind::all();
        let reference = minimize_weak_distance_adaptive(&wd(), &config, &backends);
        prop_assert!(
            reference.entries.len() > backends.len(),
            "the saturating threshold escalated (seed {seed}, kind {kind}, offset {offset})"
        );

        let objective = wd();
        let cancel = CancelToken::new();
        let mut portfolio = AdaptivePortfolio::new(&objective, &config, &backends, &cancel);
        let mut i = 0usize;
        while portfolio.round(workers[i % workers.len()]) {
            i += 1;
            prop_assert!(i < 10_000, "runaway scheduling");
        }
        portfolio.finalize();
        let sliced = portfolio.into_run();

        prop_assert_eq!(sliced.winner, reference.winner);
        prop_assert_eq!(sliced.entries.len(), reference.entries.len());
        for (a, b) in sliced.entries.iter().zip(&reference.entries) {
            prop_assert_eq!(a.backend, b.backend);
            common::assert_runs_identical(&a.run, &b.run, &format!("{:?}", a.backend));
        }
    }
}

/// Plateau escalation rescues shelf instances the pure adaptive policy
/// misses and loses none it solves. The shelf is flat around an
/// off-center magnitude of a huge log-sampled domain and hides a narrow
/// zero basin, so the bandit's per-slice improvements go quiet. On the
/// zero-free control shelf neither policy reports a zero, and escalation
/// spends at most 5% more evaluations than the pure policy.
#[test]
fn escalation_rescues_shelf_instances_without_losses() {
    const CENTER: f64 = 8.765_432_1e6;
    const SHELF: f64 = 500.0;
    const BASIN: f64 = 1.0;
    let shelf = |with_basin: bool| {
        FnWeakDistance::new(1, vec![Interval::symmetric(1.0e8)], move |x: &[f64]| {
            let d = (x[0] - CENTER).abs();
            if with_basin && (x[0] - (CENTER + 0.8 * SHELF)).abs() <= BASIN {
                0.0
            } else if d <= SHELF {
                0.5
            } else {
                0.5 + (d - SHELF) / 1.0e8
            }
        })
    };
    // Whether each policy found a zero, and its evaluation spend.
    let compare = |seed: u64, with_basin: bool| {
        let wd = shelf(with_basin);
        let pure = AnalysisConfig::quick(seed)
            .with_rounds(2)
            .with_max_evals(6_000)
            .with_parallelism(matrix_threads());
        let escalated = pure.clone().with_escalation(
            EscalationConfig::default()
                .with_threshold(0.25)
                .with_patience(2)
                .with_tighten(1.5e-5),
        );
        [pure, escalated].map(|config| {
            let run = minimize_weak_distance_adaptive(&wd, &config, &BackendKind::all());
            (run.outcome().is_found(), run.outcome().evals())
        })
    };

    let (mut pure_found, mut escalated_found) = (0, 0);
    for seed in 40..=45 {
        let [(pure, _), (escalated, _)] = compare(seed, true);
        assert!(escalated || !pure, "seed {seed}: escalation lost a solved instance");
        pure_found += usize::from(pure);
        escalated_found += usize::from(escalated);
    }
    assert!(
        escalated_found > pure_found,
        "escalation solved {escalated_found} shelves, the pure policy {pure_found}"
    );

    let (mut pure_spend, mut escalated_spend) = (0, 0);
    for seed in 40..=42 {
        let [(pure, pure_evals), (escalated, escalated_evals)] = compare(seed, false);
        assert!(!pure && !escalated, "seed {seed}: a zero on the zero-free shelf");
        pure_spend += pure_evals;
        escalated_spend += escalated_evals;
    }
    assert!(
        escalated_spend as f64 <= 1.05 * pure_spend as f64,
        "control spend: escalated {escalated_spend}, pure {pure_spend}"
    );
}

/// Regression (PR 5): portfolio entries charge exactly the evaluations
/// the objective observed when a run is cancelled — a cancelled run used
/// to keep launching restart rounds, each burning objective evaluations
/// before noticing the token.
#[test]
fn cancelled_entry_eval_counts_match_the_objective() {
    use std::sync::atomic::{AtomicU64, Ordering};
    for backend in [BackendKind::BasinHopping, BackendKind::DifferentialEvolution] {
        let count = AtomicU64::new(0);
        let wd = FnWeakDistance::new(1, vec![Interval::symmetric(100.0)], |x: &[f64]| {
            count.fetch_add(1, Ordering::Relaxed);
            x[0].abs() + 1.0
        });
        let cancel = CancelToken::new();
        cancel.cancel();

        let one_round = minimize_weak_distance_cancellable(
            &wd,
            &AnalysisConfig::quick(3).with_rounds(1).with_backend(backend),
            &cancel,
        );
        let counted_one = count.swap(0, Ordering::Relaxed);
        assert_eq!(one_round.outcome.evals() as u64, counted_one, "{backend:?}");

        for threads in thread_counts() {
            let many_rounds = minimize_weak_distance_cancellable(
                &wd,
                &AnalysisConfig::quick(3)
                    .with_rounds(6)
                    .with_backend(backend)
                    .with_parallelism(threads),
                &cancel,
            );
            let counted = count.swap(0, Ordering::Relaxed);
            // Charged == objective-observed, and rounds 1..5 never started.
            assert_eq!(
                many_rounds.outcome.evals() as u64,
                counted,
                "{backend:?}, {threads} threads"
            );
            assert_eq!(
                many_rounds.outcome, one_round.outcome,
                "{backend:?}, {threads} threads"
            );
        }
    }
}

/// The engine's portfolio campaigns run the adaptive scheduler, so the
/// whole campaign report is deterministic across thread counts.
#[test]
fn portfolio_campaign_is_deterministic_at_any_thread_count() {
    let backends = [BackendKind::BasinHopping, BackendKind::RandomSearch];
    let campaign_config = AnalysisConfig::quick(5).with_rounds(1).with_max_evals(2_000);
    let reference = wdm::engine::gsl_portfolio_suite(&campaign_config, &backends)
        .run(1)
        .deterministic_results();
    for threads in thread_counts() {
        let results = wdm::engine::gsl_portfolio_suite(&campaign_config, &backends)
            .run(threads)
            .deterministic_results();
        assert_eq!(results, reference, "threads = {threads}");
    }
}
