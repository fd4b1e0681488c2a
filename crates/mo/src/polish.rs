//! Focused local polish around a known incumbent.
//!
//! The plateau-escalation path of the adaptive portfolio hands the incumbent
//! region to a *polish slice*: Powell's conjugate-direction method (with its
//! Brent line searches) started exactly at the incumbent point instead of a
//! seed-sampled one, over dimension-wise tightened bounds
//! ([`Bounds::tightened_around`](crate::Bounds::tightened_around)). Wrapping
//! it as a [`SteppedMinimizer`] keeps the whole escalation machinery inside
//! the existing resumable-slice contract: a polish arm is sliced, paused,
//! checkpointed and restored exactly like any other backend, and sliced
//! execution is bit-identical to unsliced execution because it drives the
//! same [`PowellStep`] state machine.

use crate::checkpoint::StepCheckpoint;
use crate::powell::{Powell, PowellStep};
use crate::result::MinimizeResult;
use crate::sampling::SampleSink;
use crate::stepped::{MinimizerStep, SteppedMinimizer};
use crate::{GlobalMinimizer, Problem};

/// A deterministic local-polish backend: Powell started from a fixed point.
///
/// Unlike [`Powell`] as a global backend, the seed is *ignored* — the start
/// point is part of the configuration, so two polish arms created from the
/// same incumbent behave identically regardless of scheduling. The start
/// point is clamped into the problem bounds at `start` time.
#[derive(Debug, Clone, PartialEq)]
pub struct Polish {
    /// The underlying Powell configuration.
    pub powell: Powell,
    /// The fixed starting point (the incumbent at escalation time).
    pub x0: Vec<f64>,
}

impl Polish {
    /// Creates a polish backend starting from `x0` with default Powell
    /// settings.
    pub fn from_incumbent(x0: Vec<f64>) -> Self {
        Polish {
            powell: Powell::default(),
            x0,
        }
    }
}

impl GlobalMinimizer for Polish {
    fn minimize(
        &self,
        problem: &Problem<'_>,
        seed: u64,
        sink: &mut dyn SampleSink,
    ) -> MinimizeResult {
        crate::stepped::drive(self, problem, seed, sink)
    }

    fn backend_name(&self) -> &'static str {
        "Polish"
    }
}

impl SteppedMinimizer for Polish {
    fn start(&self, problem: &Problem<'_>, _seed: u64) -> Box<dyn MinimizerStep> {
        let x0 = problem.bounds.clamped(&self.x0);
        Box::new(PowellStep::from_x0(self.powell.clone(), problem, x0, usize::MAX))
    }

    fn restore(
        &self,
        problem: &Problem<'_>,
        checkpoint: &StepCheckpoint,
    ) -> Option<Box<dyn MinimizerStep>> {
        // A polish run checkpoints as a plain Powell state (the fixed start
        // point only matters at `start`); delegate the re-materialization.
        self.powell.restore(problem, checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepped::StepStatus;
    use crate::test_functions::sphere;
    use crate::{Bounds, FnObjective, NoTrace};

    fn run(polish: &Polish, problem: &Problem<'_>, slice: usize) -> (Vec<u64>, f64) {
        let mut step = polish.start(problem, 123);
        while step.step(problem, slice, &mut NoTrace) == StepStatus::Paused {}
        let r = step.result();
        (r.x.iter().map(|v| v.to_bits()).collect(), r.value)
    }

    #[test]
    fn polishes_from_the_given_incumbent() {
        let f = FnObjective::new(2, sphere);
        let p = Problem::new(&f, Bounds::symmetric(2, 10.0)).with_max_evals(20_000);
        let polish = Polish::from_incumbent(vec![0.5, -0.25]);
        let (_, value) = run(&polish, &p, usize::MAX);
        assert!(value < 1e-8, "value = {value}");
    }

    #[test]
    fn seed_is_irrelevant_and_slicing_is_invisible() {
        let f = FnObjective::new(2, |x: &[f64]| (x[0] - 1.0).abs() + (x[1] + 2.0).abs());
        let p = Problem::new(&f, Bounds::symmetric(2, 50.0)).with_max_evals(5_000);
        let polish = Polish::from_incumbent(vec![20.0, -30.0]);
        let whole = run(&polish, &p, usize::MAX);
        let sliced = run(&polish, &p, 37);
        assert_eq!(whole, sliced, "sliced polish diverged from unsliced");
        // Different seeds, same machine.
        let mut a = polish.start(&p, 1);
        let mut b = polish.start(&p, 2);
        while a.step(&p, 64, &mut NoTrace) == StepStatus::Paused {}
        while b.step(&p, 64, &mut NoTrace) == StepStatus::Paused {}
        assert_eq!(a.result().value.to_bits(), b.result().value.to_bits());
    }

    #[test]
    fn out_of_bounds_incumbent_is_clamped() {
        // An incumbent outside the box starts from the clamped point: the
        // best value can never be worse than the objective at the boundary
        // (an unclamped start at 500 would report 499.5), and the reported
        // minimizer stays inside the box.
        let f = FnObjective::new(1, |x: &[f64]| (x[0] - 0.5).abs());
        let bounds = Bounds::symmetric(1, 1.0);
        let p = Problem::new(&f, bounds.clone()).with_max_evals(2_000);
        let polish = Polish::from_incumbent(vec![500.0]);
        let mut step = polish.start(&p, 0);
        while step.step(&p, usize::MAX, &mut NoTrace) == StepStatus::Paused {}
        let r = step.result();
        assert!(r.value <= 0.5, "value = {}", r.value);
        assert!(bounds.contains(&r.x), "minimizer {:?} escaped bounds", r.x);
    }

    #[test]
    fn checkpoint_restores_as_powell_state() {
        let f = FnObjective::new(2, sphere);
        let p = Problem::new(&f, Bounds::symmetric(2, 10.0)).with_max_evals(10_000);
        let polish = Polish::from_incumbent(vec![3.0, -4.0]);
        let mut step = polish.start(&p, 0);
        let status = step.step(&p, 50, &mut NoTrace);
        let ckpt = step.checkpoint().expect("powell state checkpoints");
        let mut restored = polish
            .restore(&p, &ckpt)
            .expect("polish restores its own checkpoint");
        if status == StepStatus::Paused {
            while step.step(&p, usize::MAX, &mut NoTrace) == StepStatus::Paused {}
            while restored.step(&p, usize::MAX, &mut NoTrace) == StepStatus::Paused {}
        }
        assert_eq!(
            step.result().value.to_bits(),
            restored.result().value.to_bits()
        );
    }
}
