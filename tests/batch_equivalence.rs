//! Property-based equivalence of the batched-evaluation stack with the
//! scalar path: for random objectives, bounds, budgets, batch sizes and
//! cancellation states, `eval_batch` must produce **bit-identical** values,
//! evaluation counts, incumbents and `SamplingTrace` contents as the
//! canonical scalar `eval` loop — including mid-batch budget exhaustion and
//! cancellation.
//!
//! The same invariant is asserted one layer up (weak distances and their
//! objective adapter, with the fpir interpreter's batch session underneath)
//! and one layer down (the default `Objective::eval_batch`).

mod common;

use common::{bits, points_in_radius, scalar_reference, shaped, trace_bits};
use proptest::prelude::*;
use wdm::core::boundary::BoundaryWeakDistance;
use wdm::core::weak_distance::{WeakDistance, WeakDistanceObjective};
use wdm::mo::evaluator::Evaluator;
use wdm::mo::{
    Bounds, CancelToken, FnObjective, GlobalMinimizer, Objective, Problem, RandomSearch,
    SamplingTrace,
};

fn batched(
    problem: &Problem<'_>,
    xs: &[Vec<f64>],
) -> (Vec<f64>, usize, (Vec<f64>, f64), SamplingTrace) {
    let mut trace = SamplingTrace::new();
    let mut ev = Evaluator::new(problem, &mut trace);
    let mut values = Vec::new();
    let processed = ev.eval_batch(xs, &mut values);
    assert_eq!(processed, values.len());
    let evals = ev.evals();
    let best = ev.best();
    (values, evals, best, trace)
}

proptest! {
    /// Evaluator-level equivalence over random objectives, bounds, batch
    /// sizes, budgets (often smaller than the batch — mid-batch
    /// exhaustion), targets and cancellation.
    #[test]
    fn evaluator_batch_matches_scalar_loop(
        kind in any::<u8>(),
        radius in 1.0..1.0e3f64,
        n in 0usize..200,
        max_evals in 1usize..150,
        target in proptest::option::of(0.0..2.0f64),
        cancelled in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let f = FnObjective::new(1, move |x: &[f64]| shaped(kind, x[0]));
        let mut problem = Problem::new(&f, Bounds::symmetric(1, radius))
            .with_max_evals(max_evals);
        if let Some(t) = target {
            problem = problem.with_target(t);
        }
        let token = CancelToken::new();
        if cancelled {
            token.cancel();
        }
        let problem = problem.with_cancel(token);

        // A deterministic pseudo-random point set (some out of bounds, so
        // clamping is exercised).
        let xs = points_in_radius(seed, n, radius);

        let (sv, se, sb, st) = scalar_reference(&problem, &xs);
        let (bv, be, bb, bt) = batched(&problem, &xs);
        prop_assert_eq!(bits(&bv), bits(&sv));
        prop_assert_eq!(be, se);
        prop_assert_eq!(bits(&bb.0), bits(&sb.0));
        prop_assert_eq!(bb.1.to_bits(), sb.1.to_bits());
        prop_assert_eq!(trace_bits(&bt), trace_bits(&st));
        prop_assert_eq!(bt.total_seen(), st.total_seen());
    }

    /// The default `Objective::eval_batch` is the scalar loop, bit for bit.
    #[test]
    fn objective_default_batch_matches_scalar(
        kind in any::<u8>(),
        points in proptest::collection::vec(-1.0e4..1.0e4f64, 0..64),
    ) {
        let f = FnObjective::new(1, move |x: &[f64]| shaped(kind, x[0]));
        let xs: Vec<Vec<f64>> = points.iter().map(|&p| vec![p]).collect();
        let mut out = Vec::new();
        f.eval_batch(&xs, &mut out);
        let scalar: Vec<f64> = xs.iter().map(|x| f.eval(x)).collect();
        prop_assert_eq!(bits(&out), bits(&scalar));
    }

    /// Weak-distance batching through the fpir interpreter session and the
    /// objective adapter matches scalar evaluation, bit for bit.
    #[test]
    fn interpreted_weak_distance_batch_matches_scalar(
        points in proptest::collection::vec(-200.0..200.0f64, 1..80),
    ) {
        let program = wdm::ir::interp::ModuleProgram::new(
            wdm::ir::programs::fig2_program(),
            "prog",
        ).expect("fig2 entry");
        let wd = BoundaryWeakDistance::new(program);
        let xs: Vec<Vec<f64>> = points.iter().map(|&p| vec![p]).collect();
        let mut out = Vec::new();
        wd.eval_batch(&xs, &mut out);
        let scalar: Vec<f64> = xs.iter().map(|x| wd.eval(x)).collect();
        prop_assert_eq!(bits(&out), bits(&scalar));

        let adapter = WeakDistanceObjective::new(&wd);
        let mut via_adapter = Vec::new();
        adapter.eval_batch(&xs, &mut via_adapter);
        prop_assert_eq!(bits(&via_adapter), bits(&scalar));
    }
}

/// Random search samples and evaluates in batches internally; a hand-rolled
/// scalar reference (same RNG-free check: same seed, same backend, but
/// evaluated through a counting wrapper) must observe exactly the budgeted
/// number of underlying evaluations and identical results across runs.
#[test]
fn random_search_batched_run_is_reproducible_and_budgeted() {
    let f = FnObjective::new(2, |x: &[f64]| x[0].abs() + x[1].abs() + 0.25);
    let p = Problem::new(&f, Bounds::symmetric(2, 100.0)).with_max_evals(777);
    let mut t1 = SamplingTrace::new();
    let r1 = RandomSearch::new().minimize(&p, 42, &mut t1);
    let mut t2 = SamplingTrace::new();
    let r2 = RandomSearch::new().minimize(&p, 42, &mut t2);
    assert_eq!(r1.x, r2.x);
    assert_eq!(r1.value.to_bits(), r2.value.to_bits());
    assert_eq!(r1.evals, 777);
    assert_eq!(t1.samples(), t2.samples());
    assert_eq!(t1.len(), 777);
}

/// Differential Evolution evaluates each generation as one batch; the full
/// driver stack over a batched weak distance must remain bit-identical
/// across restart-sharding thread counts (the PR 2 guarantee extended to
/// the batched stack).
#[test]
fn sharded_driver_over_batched_de_is_thread_count_invariant() {
    use wdm::core::driver::{minimize_weak_distance, AnalysisConfig, BackendKind};
    let program = wdm::ir::interp::ModuleProgram::new(wdm::ir::programs::fig2_program(), "prog")
        .expect("fig2 entry");
    let wd = BoundaryWeakDistance::new(program);
    let base = AnalysisConfig::quick(19)
        .with_backend(BackendKind::DifferentialEvolution)
        .with_rounds(4)
        .with_max_evals(3_000)
        .recording(3);
    let sequential = minimize_weak_distance(&wd, &base);
    for threads in [2, 8] {
        let parallel = minimize_weak_distance(&wd, &base.clone().with_parallelism(threads));
        assert_eq!(parallel.outcome, sequential.outcome, "threads = {threads}");
        assert_eq!(parallel.best, sequential.best, "threads = {threads}");
        assert_eq!(parallel.trace.samples(), sequential.trace.samples());
    }
}
