//! Pure random search.
//!
//! The degenerate baseline the paper mentions when discussing the
//! characteristic-function weak distance (Fig. 7): when the weak distance
//! carries no gradient information, minimizing it "degenerates into pure
//! random testing". Having the baseline available lets the ablation bench
//! quantify exactly that degeneration.

use crate::checkpoint::{ResultCkpt, RngCkpt, RsCkpt, StepCheckpoint};
use crate::evaluator::{Evaluator, EvaluatorState};
use crate::result::{MinimizeResult, Termination};
use crate::sampling::SampleSink;
use crate::stepped::{MinimizerStep, StepStatus, SteppedMinimizer};
use crate::{GlobalMinimizer, Problem};
use rand_chacha::ChaCha8Rng;

/// Points sampled and evaluated per batch; also the stepped run's pause
/// granularity (pausing anywhere else would re-chunk what a stateful
/// objective observes).
const CHUNK: usize = 64;

/// Uniform random sampling over the bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RandomSearch {
    /// Maximum number of samples; 0 means "use the problem budget".
    pub max_samples: usize,
}

impl RandomSearch {
    /// Creates a random search limited only by the problem budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Limits the number of samples.
    pub fn with_max_samples(mut self, n: usize) -> Self {
        self.max_samples = n;
        self
    }
}

/// The resumable state of one random-search run: the RNG stream, the
/// sample counter and the evaluator bookkeeping.
struct RandomSearchStep {
    rng: ChaCha8Rng,
    ev: EvaluatorState,
    limit: usize,
    done: usize,
    finished: Option<MinimizeResult>,
}

impl RandomSearchStep {
    fn finish(&mut self, ev: Evaluator<'_, '_>) -> StepStatus {
        let termination = ev.termination(Termination::IterationsCompleted);
        let (x, value) = ev.best();
        self.finished = Some(MinimizeResult::new(x, value, ev.evals(), termination));
        self.ev = ev.suspend();
        StepStatus::Finished
    }
}

impl MinimizerStep for RandomSearchStep {
    fn step(
        &mut self,
        problem: &Problem<'_>,
        slice: usize,
        sink: &mut dyn SampleSink,
    ) -> StepStatus {
        if self.finished.is_some() {
            return StepStatus::Finished;
        }
        let slice = slice.max(1);
        // Hand the state to the evaluator by move; every exit path below
        // suspends it back.
        let state = std::mem::replace(&mut self.ev, EvaluatorState::fresh(0));
        let mut ev = Evaluator::resume(problem, sink, state);
        let slice_start = ev.evals();
        // Sample and evaluate in batches. The RNG stream only feeds the
        // sampler, so drawing a chunk of points up front consumes exactly
        // the draws the scalar loop would have made for those points, and
        // `eval_batch` stops at the same sample the scalar loop would —
        // results are bit-identical to sampling and evaluating one by one,
        // whether or not the run pauses between chunks. The chunk's rows
        // are refilled in place, so points cost no allocation.
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        loop {
            if self.done >= self.limit {
                return self.finish(ev);
            }
            if ev.evals() - slice_start >= slice {
                self.ev = ev.suspend();
                return StepStatus::Paused;
            }
            let k = CHUNK.min(self.limit - self.done);
            xs.resize_with(k, Vec::new);
            for x in &mut xs {
                problem.bounds.sample_into(&mut self.rng, x);
            }
            let processed = ev.eval_batch(&xs, &mut values);
            self.done += processed;
            if processed < k || ev.should_stop() {
                return self.finish(ev);
            }
        }
    }

    fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    fn evals(&self) -> usize {
        self.ev.evals()
    }

    fn best_value(&self) -> f64 {
        self.ev.best_value()
    }

    fn result(&self) -> MinimizeResult {
        if let Some(result) = &self.finished {
            return result.clone();
        }
        let (x, value) = self.ev.best();
        MinimizeResult::new(x, value, self.ev.evals(), Termination::BudgetExhausted)
    }

    fn checkpoint(&self) -> StepCheckpoint {
        StepCheckpoint::RandomSearch(RsCkpt {
            rng: RngCkpt::of(&self.rng),
            ev: self.ev.checkpoint(),
            limit: self.limit,
            done: self.done,
            finished: self.finished.as_ref().map(ResultCkpt::of),
        })
    }
}

impl SteppedMinimizer for RandomSearch {
    fn start(&self, problem: &Problem<'_>, seed: u64) -> Box<dyn MinimizerStep> {
        let finished = crate::reject_invalid(problem);
        let limit = if self.max_samples == 0 {
            problem.max_evals
        } else {
            self.max_samples.min(problem.max_evals)
        };
        Box::new(RandomSearchStep {
            rng: crate::rng_from_seed(seed),
            ev: EvaluatorState::fresh(problem.objective.dim()),
            limit,
            done: 0,
            finished,
        })
    }

    fn restore(
        &self,
        _problem: &Problem<'_>,
        checkpoint: &StepCheckpoint,
    ) -> Option<Box<dyn MinimizerStep>> {
        let StepCheckpoint::RandomSearch(c) = checkpoint else {
            return None;
        };
        Some(Box::new(RandomSearchStep {
            rng: c.rng.restore()?,
            ev: EvaluatorState::from_checkpoint(&c.ev),
            limit: c.limit,
            done: c.done,
            finished: c.finished.as_ref().map(ResultCkpt::restore),
        }))
    }
}

impl GlobalMinimizer for RandomSearch {
    fn minimize(
        &self,
        problem: &Problem<'_>,
        seed: u64,
        sink: &mut dyn SampleSink,
    ) -> MinimizeResult {
        crate::stepped::drive(self, problem, seed, sink)
    }

    fn backend_name(&self) -> &'static str {
        "RandomSearch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bounds, FnObjective, NoTrace, SamplingTrace};

    #[test]
    fn finds_easy_target() {
        // Half of the domain is a solution; random search should hit it fast.
        let f = FnObjective::new(1, |x: &[f64]| if x[0] > 0.0 { 0.0 } else { 1.0 });
        let p = Problem::new(&f, Bounds::symmetric(1, 10.0)).with_target(0.0);
        let r = RandomSearch::new().minimize(&p, 1, &mut NoTrace);
        assert_eq!(r.termination, Termination::TargetReached);
        assert!(r.evals < 100);
    }

    #[test]
    fn struggles_with_needle_target() {
        // A single-point solution set: random search essentially never finds it,
        // which is exactly the Fig. 7 degeneration.
        let f = FnObjective::new(1, |x: &[f64]| if x[0] == 3.25 { 0.0 } else { 1.0 });
        let p = Problem::new(&f, Bounds::symmetric(1, 1.0e6))
            .with_target(0.0)
            .with_max_evals(5_000);
        let r = RandomSearch::new().minimize(&p, 2, &mut NoTrace);
        assert_ne!(r.termination, Termination::TargetReached);
        assert_eq!(r.value, 1.0);
    }

    #[test]
    fn sample_cap_and_trace() {
        let f = FnObjective::new(2, |x: &[f64]| x[0] + x[1]);
        let p = Problem::new(&f, Bounds::symmetric(2, 1.0));
        let mut trace = SamplingTrace::new();
        let r = RandomSearch::new()
            .with_max_samples(50)
            .minimize(&p, 3, &mut trace);
        assert_eq!(r.evals, 50);
        assert_eq!(trace.len(), 50);
        assert_eq!(RandomSearch::new().backend_name(), "RandomSearch");
    }
}
