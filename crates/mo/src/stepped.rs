//! Resumable minimization: backends that run in fixed eval-budget slices.
//!
//! The adaptive portfolio scheduler (`wdm_core::adaptive`)
//! reallocates an evaluation budget across several backends *while they
//! run*, which requires pausing a backend after a slice of its budget and
//! resuming it later with no observable difference. [`SteppedMinimizer`] is
//! that seam: [`SteppedMinimizer::start`] captures a run's full state — RNG
//! stream, population, incumbents, hop/generation counters, evaluator
//! bookkeeping — in a [`MinimizerStep`] state machine, and every
//! [`MinimizerStep::step`] call advances it by (at least) a slice of
//! evaluations.
//!
//! # Bit-identity contract
//!
//! A run sliced any way is **bit-identical** to the unsliced run: same best
//! point, value, evaluation count, termination and recorded sampling trace.
//! The stepped backends guarantee this by construction — their
//! [`GlobalMinimizer::minimize`] is implemented as [`drive`] (one slice
//! covering the whole budget), so sliced and unsliced runs execute the same
//! state machine and a pause/resume boundary changes no state at all.
//!
//! # Slice granularity
//!
//! `slice` is a *minimum progress quantum*, not an exact cap: a backend
//! pauses at its first safe checkpoint at or after `slice` evaluations into
//! the step — a sampling chunk for random search, a generation for
//! Differential Evolution, a local search for multi-start, a hop for basin
//! hopping. Pausing anywhere else would either change results (re-chunking
//! a batch changes what a stateful objective observes) or require
//! suspending a local search mid-simplex. Schedulers must therefore account
//! the *actual* evaluations consumed ([`MinimizerStep::evals`]), which may
//! overshoot the slice by one checkpoint.

use crate::checkpoint::StepCheckpoint;
use crate::result::MinimizeResult;
use crate::sampling::SampleSink;
use crate::{GlobalMinimizer, Problem};

/// What a [`MinimizerStep::step`] call left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// The slice budget was consumed; the run has more work to do.
    Paused,
    /// The run finished (target reached, budget exhausted, converged,
    /// iterations completed, cancelled, or invalid problem). Further `step`
    /// calls are no-ops returning `Finished` again.
    Finished,
}

/// A paused, resumable minimization run.
///
/// Callers must pass the *same* problem (same objective, bounds, target,
/// budget and cancel token) to every `step` call of one run; the problem is
/// a parameter only so the state machine never borrows it across slices.
pub trait MinimizerStep: Send {
    /// Advances the run by at least `slice` objective evaluations (clamped
    /// to 1), pausing at the first safe checkpoint past the slice, or
    /// finishes. A finished run is never advanced again.
    fn step(
        &mut self,
        problem: &Problem<'_>,
        slice: usize,
        sink: &mut dyn SampleSink,
    ) -> StepStatus;

    /// Whether the run has finished.
    fn is_finished(&self) -> bool;

    /// Objective evaluations consumed so far.
    fn evals(&self) -> usize;

    /// Best objective value seen so far (`f64::INFINITY` before the first
    /// evaluation).
    fn best_value(&self) -> f64;

    /// The run's result. After `Finished` this is the exact result the
    /// unsliced [`GlobalMinimizer::minimize`] returns; mid-run it is a
    /// snapshot of the incumbent with
    /// [`Termination::BudgetExhausted`](crate::Termination::BudgetExhausted)
    /// (the caller withdrew the budget).
    fn result(&self) -> MinimizeResult;

    /// Serializable snapshot of the paused run, restorable through
    /// [`SteppedMinimizer::restore`] on the same backend instance over the
    /// same problem. Stepping the restored run is bit-identical to stepping
    /// this one.
    fn checkpoint(&self) -> StepCheckpoint;
}

/// A backend whose runs can be sliced and resumed.
pub trait SteppedMinimizer: GlobalMinimizer {
    /// Captures the initial state of a run of `problem` from `seed`.
    /// No objective evaluation happens here — only RNG-driven set-up
    /// (start-point / population sampling), exactly the draws the unsliced
    /// run performs before its first evaluation.
    fn start(&self, problem: &Problem<'_>, seed: u64) -> Box<dyn MinimizerStep>;

    /// Rebuilds a paused run from a [`MinimizerStep::checkpoint`] snapshot
    /// taken by this backend over the same problem; the backend instance
    /// re-supplies the configuration the snapshot deliberately omits.
    /// `None` when the snapshot belongs to a different backend.
    fn restore(
        &self,
        problem: &Problem<'_>,
        checkpoint: &StepCheckpoint,
    ) -> Option<Box<dyn MinimizerStep>>;
}

/// Runs a stepped backend to completion in one slice covering the whole
/// budget. The five stepped backends implement `minimize` with this, which
/// is what makes sliced-vs-unsliced bit-identity hold by construction.
pub fn drive(
    minimizer: &dyn SteppedMinimizer,
    problem: &Problem<'_>,
    seed: u64,
    sink: &mut dyn SampleSink,
) -> MinimizeResult {
    let mut run = minimizer.start(problem, seed);
    while run.step(problem, usize::MAX, sink) == StepStatus::Paused {}
    run.result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bounds, FnObjective, NoTrace, Powell};

    #[test]
    fn sliced_runs_match_unsliced_for_every_stepped_backend() {
        use crate::{BasinHopping, DifferentialEvolution, MultiStart, RandomSearch, SamplingTrace};
        let backends: Vec<(&str, Box<dyn SteppedMinimizer>)> = vec![
            ("bh", Box::new(BasinHopping::default().with_hops(12))),
            (
                "de",
                Box::new(DifferentialEvolution::default().with_max_generations(25)),
            ),
            ("ms", Box::new(MultiStart::default().with_starts(6))),
            ("rs", Box::new(RandomSearch::new())),
            ("powell", Box::new(Powell::default())),
        ];
        let f = FnObjective::new(1, |x: &[f64]| {
            (x[0] - 3.0).abs() * (x[0] + 1.0).abs() + 0.25
        });
        for (name, backend) in &backends {
            for seed in [1u64, 99] {
                let p = Problem::new(&f, Bounds::symmetric(1, 100.0))
                    .with_target(0.0)
                    .with_max_evals(3_000);
                let mut direct_trace = SamplingTrace::new();
                let direct = backend.minimize(&p, seed, &mut direct_trace);
                for slice in [1usize, 17, 300] {
                    let mut sliced_trace = SamplingTrace::new();
                    let mut run = backend.start(&p, seed);
                    let mut slices = 0usize;
                    while run.step(&p, slice, &mut sliced_trace) == StepStatus::Paused {
                        slices += 1;
                        assert!(slices < 100_000, "{name}: runaway slicing");
                    }
                    let sliced = run.result();
                    assert_eq!(sliced, direct, "{name} seed {seed} slice {slice}");
                    assert_eq!(
                        sliced_trace.samples(),
                        direct_trace.samples(),
                        "{name} seed {seed} slice {slice}"
                    );
                    assert_eq!(run.evals(), direct.evals, "{name}");
                }
            }
        }
    }

    #[test]
    fn drive_equals_direct_minimize_for_powell() {
        let f = FnObjective::new(2, |x: &[f64]| x[0].abs() + (x[1] - 1.0).abs());
        let p = Problem::new(&f, Bounds::symmetric(2, 50.0)).with_max_evals(5_000);
        let direct = Powell::default().minimize(&p, 3, &mut NoTrace);
        let driven = drive(&Powell::default(), &p, 3, &mut NoTrace);
        assert_eq!(driven, direct);
    }
}
