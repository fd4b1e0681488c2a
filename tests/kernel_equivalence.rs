//! Kernel-vs-interpreter bitwise equivalence: the lanewise SoA kernel
//! backend (`KernelPolicy::Always`) must produce exactly the values,
//! traces, incumbents and outcomes of the per-input batch interpreter
//! (`KernelPolicy::Never`) and of plain scalar evaluation — for every
//! weak-distance kind, on divergent and straight-line modules, through
//! truncated batches, and across the whole GSL suite campaign.
//!
//! Runs under the `WDM_TEST_THREADS` CI matrix: the suite-level checks
//! exercise the engine's restart sharding and worker pools on top of the
//! kernel, so each matrix leg re-verifies the guarantee under a different
//! scheduling.

mod common;

use common::{bits, module_suite, program, suite_points as points};
use proptest::prelude::*;
use std::collections::BTreeSet;
use wdm::core::boundary::{BoundaryMode, BoundaryWeakDistance};
use wdm::core::coverage::CoverageWeakDistance;
use wdm::core::driver::{minimize_weak_distance, AnalysisConfig, BackendKind};
use wdm::core::overflow::OverflowWeakDistance;
use wdm::core::path::PathWeakDistance;
use wdm::core::weak_distance::{WeakDistance, WeakDistanceObjective};
use wdm::ir::programs;
use wdm::mo::evaluator::Evaluator;
use wdm::mo::{Bounds, Problem, SamplingTrace};
use wdm::runtime::{BranchId, KernelPolicy, OpId};

/// Evaluates `wd_for(policy)` over `xs` in one batch.
fn batch_under<W: WeakDistance>(wd: &W, xs: &[Vec<f64>]) -> Vec<u64> {
    let mut out = Vec::new();
    wd.eval_batch(xs, &mut out);
    assert_eq!(out.len(), xs.len());
    bits(&out)
}

proptest! {
    /// Boundary weak distance, every folding mode, every suite module:
    /// kernel batches == interpreter batches == scalar evals, bit for bit.
    #[test]
    fn boundary_kernel_matches_interpreter_across_suite(
        seed in any::<u64>(),
        n in 1usize..160,
        mode_pick in 0usize..4,
    ) {
        let mode = [
            BoundaryMode::Product,
            BoundaryMode::Single(BranchId(0)),
            BoundaryMode::Characteristic,
            BoundaryMode::SquaredResidual,
        ][mode_pick];
        let xs = points(seed, n);
        for (name, module, entry) in module_suite() {
            let scalar_wd = BoundaryWeakDistance::new(program(&module, entry)).with_mode(mode);
            let scalar: Vec<u64> = xs.iter().map(|x| scalar_wd.eval(x).to_bits()).collect();
            for policy in [KernelPolicy::Never, KernelPolicy::Always, KernelPolicy::Auto] {
                let wd = BoundaryWeakDistance::new(program(&module, entry))
                    .with_mode(mode)
                    .with_kernel_policy(policy);
                prop_assert_eq!(
                    batch_under(&wd, &xs),
                    scalar.clone(),
                    "{} under {:?} ({:?})", name, policy, mode
                );
            }
        }
    }

    /// Path weak distance over the divergent fig2 module: required-branch
    /// penalties must fold identically whichever backend executes.
    #[test]
    fn path_kernel_matches_interpreter(
        seed in any::<u64>(),
        n in 1usize..120,
        dir0 in any::<bool>(),
        dir1 in any::<bool>(),
    ) {
        let path = vec![(BranchId(0), dir0), (BranchId(1), dir1)];
        let xs = points(seed, n);
        let module = programs::fig2_program();
        let scalar_wd = PathWeakDistance::new(program(&module, "prog"), path.clone());
        let scalar: Vec<u64> = xs.iter().map(|x| scalar_wd.eval(x).to_bits()).collect();
        for policy in [KernelPolicy::Never, KernelPolicy::Always] {
            let wd = PathWeakDistance::new(program(&module, "prog"), path.clone())
                .with_kernel_policy(policy);
            prop_assert_eq!(batch_under(&wd, &xs), scalar.clone(), "{:?}", policy);
        }
    }

    /// Overflow weak distance: the observer issues `ProbeControl::Stop` on
    /// the first overflowing site, exercising the kernel's stop-eviction
    /// (the lane leaves the wave and finishes on the scalar resume path).
    #[test]
    fn overflow_kernel_matches_interpreter(
        seed in any::<u64>(),
        n in 1usize..120,
        skip_site in proptest::option::of(0usize..3),
    ) {
        let skip: BTreeSet<OpId> = skip_site.map(|s| OpId(s as u32)).into_iter().collect();
        let xs = points(seed, n);
        for (name, module, entry) in module_suite() {
            let scalar_wd = OverflowWeakDistance::new(program(&module, entry), skip.clone());
            let scalar: Vec<u64> = xs.iter().map(|x| scalar_wd.eval(x).to_bits()).collect();
            for policy in [KernelPolicy::Never, KernelPolicy::Always] {
                let wd = OverflowWeakDistance::new(program(&module, entry), skip.clone())
                    .with_kernel_policy(policy);
                prop_assert_eq!(
                    batch_under(&wd, &xs),
                    scalar.clone(),
                    "{} under {:?}", name, policy
                );
            }
        }
    }

    /// Coverage weak distance: stops as soon as anything new is covered —
    /// with an empty covered set almost every lane stops at its first
    /// branch, the worst case for the wave.
    #[test]
    fn coverage_kernel_matches_interpreter(
        seed in any::<u64>(),
        n in 1usize..120,
        cover_first in any::<bool>(),
        cover_second in any::<bool>(),
    ) {
        let mut covered = BTreeSet::new();
        if cover_first {
            covered.insert((BranchId(0), true));
            covered.insert((BranchId(0), false));
        }
        if cover_second {
            covered.insert((BranchId(1), true));
            covered.insert((BranchId(1), false));
        }
        let xs = points(seed, n);
        let module = programs::fig2_program();
        let scalar_wd = CoverageWeakDistance::new(program(&module, "prog"), covered.clone());
        let scalar: Vec<u64> = xs.iter().map(|x| scalar_wd.eval(x).to_bits()).collect();
        for policy in [KernelPolicy::Never, KernelPolicy::Always] {
            let wd = CoverageWeakDistance::new(program(&module, "prog"), covered.clone())
                .with_kernel_policy(policy);
            prop_assert_eq!(batch_under(&wd, &xs), scalar.clone(), "{:?}", policy);
        }
    }

    /// Truncated batches: an `Evaluator` over a kernel-backed weak
    /// distance, with budgets and targets that stop mid-batch, must record
    /// exactly the scalar loop's trace, count and incumbent — the
    /// load-bearing invariant for discarded tail samples.
    #[test]
    fn truncated_kernel_batches_match_scalar_traces(
        seed in any::<u64>(),
        n in 1usize..150,
        max_evals in 1usize..100,
        with_target in any::<bool>(),
    ) {
        let xs = points(seed, n);
        let module = programs::fig2_program();
        let run = |policy: KernelPolicy| {
            let wd = BoundaryWeakDistance::new(program(&module, "prog"))
                .with_kernel_policy(policy);
            let objective = WeakDistanceObjective::new(&wd);
            let mut problem = Problem::new(&objective, Bounds::symmetric(1, 1.0e6))
                .with_max_evals(max_evals);
            if with_target {
                problem = problem.with_target(0.5);
            }
            let mut trace = SamplingTrace::new();
            let mut ev = Evaluator::new(&problem, &mut trace);
            let mut values = Vec::new();
            let processed = ev.eval_batch(&xs, &mut values);
            (bits(&values), processed, ev.evals(), ev.best().1.to_bits(),
             trace.samples().len(), trace.total_seen())
        };
        // Scalar reference: the canonical post-check loop, interpreter path.
        let scalar = {
            let wd = BoundaryWeakDistance::new(program(&module, "prog"))
                .with_kernel_policy(KernelPolicy::Never);
            let objective = WeakDistanceObjective::new(&wd);
            let mut problem = Problem::new(&objective, Bounds::symmetric(1, 1.0e6))
                .with_max_evals(max_evals);
            if with_target {
                problem = problem.with_target(0.5);
            }
            let mut trace = SamplingTrace::new();
            let mut ev = Evaluator::new(&problem, &mut trace);
            let mut values = Vec::new();
            for x in &xs {
                values.push(ev.eval(x));
                if ev.should_stop() {
                    break;
                }
            }
            (bits(&values), values.len(), ev.evals(), ev.best().1.to_bits(),
             trace.samples().len(), trace.total_seen())
        };
        prop_assert_eq!(run(KernelPolicy::Never), scalar.clone());
        prop_assert_eq!(run(KernelPolicy::Always), scalar);
    }
}

/// A full minimization through the driver: same seed, same backend, the
/// kernel policy must not change the outcome, the evaluation count or the
/// recorded sampling trace by a single bit.
#[test]
fn driver_outcome_is_kernel_policy_invariant() {
    for backend in [
        BackendKind::DifferentialEvolution,
        BackendKind::BasinHopping,
    ] {
        let run = |policy: KernelPolicy| {
            let module = programs::fig2_program();
            let wd = BoundaryWeakDistance::new(program(&module, "prog")).with_kernel_policy(policy);
            minimize_weak_distance(
                &wd,
                &AnalysisConfig::quick(23)
                    .with_backend(backend)
                    .with_rounds(2)
                    .with_max_evals(4_000)
                    .recording(2)
                    .with_kernel_policy(policy),
            )
        };
        let interp = run(KernelPolicy::Never);
        let kernel = run(KernelPolicy::Always);
        assert_eq!(kernel.outcome, interp.outcome, "{backend:?}");
        assert_eq!(kernel.best, interp.best, "{backend:?}");
        assert_eq!(
            kernel.trace.samples(),
            interp.trace.samples(),
            "{backend:?}"
        );
    }
}

/// The whole GSL suite campaign under both policies, on the CI matrix's
/// thread count: every job result identical. (The mini-gsl programs have
/// no kernel backend and must ignore the policy; the plumbing still flows
/// through every analysis family.)
#[test]
fn gsl_suite_campaign_is_kernel_policy_invariant() {
    let threads = common::matrix_threads();
    let run = |policy: KernelPolicy| {
        let config = AnalysisConfig::quick(7)
            .with_rounds(1)
            .with_max_evals(2_000)
            .with_kernel_policy(policy);
        let report = wdm::engine::gsl_suite(&config).run(threads);
        report
            .jobs
            .iter()
            .map(|j| format!("{:?}", j.result))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(KernelPolicy::Never), run(KernelPolicy::Always));
}
