//! Multi-start local search: repeated local minimization from independent
//! random starting points.
//!
//! This is the "local MO applied over a set of starting points SP" view the
//! paper uses to describe global optimization (Section 4.1). It is also the
//! driver shape of Algorithm 3, which launches the backend from a fresh
//! random starting point in every round.

use crate::checkpoint::{bits_of, MsCkpt, ResultCkpt, StepCheckpoint};
use crate::nelder_mead::{self, NelderMead};
use crate::powell::Powell;
use crate::result::{MinimizeResult, Termination};
use crate::sampling::SampleSink;
use crate::stepped::{MinimizerStep, StepStatus, SteppedMinimizer};
use crate::{better, GlobalMinimizer, LocalMinimizer, Problem};

/// Which local search multi-start repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartLocal {
    /// Nelder–Mead simplex.
    NelderMead,
    /// Powell's method.
    Powell,
}

/// Configuration of the multi-start backend.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStart {
    /// Number of independent starting points.
    pub n_starts: usize,
    /// Evaluation budget of each local search.
    pub local_max_evals: usize,
    /// The local search to repeat.
    pub local: StartLocal,
}

impl Default for MultiStart {
    fn default() -> Self {
        MultiStart {
            n_starts: 40,
            local_max_evals: 2_000,
            local: StartLocal::NelderMead,
        }
    }
}

impl MultiStart {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of starting points.
    pub fn with_starts(mut self, n: usize) -> Self {
        self.n_starts = n;
        self
    }

    /// Sets the local search.
    pub fn with_local(mut self, local: StartLocal) -> Self {
        self.local = local;
        self
    }
}

/// The resumable state of one multi-start run: the pre-generated starting
/// points, the cursor into them, the incumbent and the charged total. The
/// RNG is fully consumed at [`SteppedMinimizer::start`] time (start-point
/// sampling is its only consumer), so it is not carried. Neither is the
/// Nelder–Mead workspace every start reuses (with the result point each
/// start discards), which is scratch.
struct MultiStartStep {
    cfg: MultiStart,
    dim: usize,
    /// The starting points one after another, `dim` coordinates each.
    starts: Vec<f64>,
    next: usize,
    best: Option<MinimizeResult>,
    total_evals: usize,
    finished: Option<MinimizeResult>,
    workspace: nelder_mead::Workspace,
}

impl MultiStartStep {
    fn finish(&mut self, termination: Termination) -> StepStatus {
        let mut result = self.best.clone().unwrap_or_else(|| {
            MinimizeResult::new(
                vec![f64::NAN; self.dim],
                f64::INFINITY,
                0,
                Termination::IterationsCompleted,
            )
        });
        result.evals = self.total_evals;
        result.termination = termination;
        self.finished = Some(result);
        StepStatus::Finished
    }
}

impl MinimizerStep for MultiStartStep {
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
        let slice_start = self.total_evals;
        loop {
            if self.next >= self.starts.len() / self.dim.max(1) {
                return self.finish(Termination::IterationsCompleted);
            }
            if self.total_evals - slice_start >= slice {
                return StepStatus::Paused;
            }
            if problem.is_cancelled() {
                return self.finish(Termination::Cancelled);
            }
            if self.total_evals >= problem.max_evals {
                return self.finish(Termination::BudgetExhausted);
            }
            let x0 = &self.starts[self.next * self.dim..][..self.dim];
            self.next += 1;
            let budget = self
                .cfg
                .local_max_evals
                .min(problem.max_evals.saturating_sub(self.total_evals));
            let r = match self.cfg.local {
                StartLocal::NelderMead => NelderMead::default().minimize_in(
                    problem,
                    x0,
                    budget,
                    sink,
                    &mut self.workspace,
                ),
                StartLocal::Powell => Powell::default().minimize_from(problem, x0, budget, sink),
            };
            self.total_evals += r.evals;
            let is_better = self
                .best
                .as_ref()
                .map(|b| better(r.value, b.value))
                .unwrap_or(true);
            // The next local search builds its incumbent in the point this
            // start discards.
            let discarded = if is_better {
                self.best.replace(r)
            } else {
                Some(r)
            };
            if let Some(discarded) = discarded {
                self.workspace.recycle(discarded.x);
            }
            if let Some(b) = &self.best {
                if problem.target_reached(b.value) {
                    return self.finish(Termination::TargetReached);
                }
            }
        }
    }

    fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    fn evals(&self) -> usize {
        self.total_evals
    }

    fn best_value(&self) -> f64 {
        self.best.as_ref().map(|b| b.value).unwrap_or(f64::INFINITY)
    }

    fn result(&self) -> MinimizeResult {
        if let Some(result) = &self.finished {
            return result.clone();
        }
        let mut result = self.best.clone().unwrap_or_else(|| {
            MinimizeResult::new(
                vec![f64::NAN; self.dim],
                f64::INFINITY,
                0,
                Termination::BudgetExhausted,
            )
        });
        result.evals = self.total_evals;
        result.termination = Termination::BudgetExhausted;
        result
    }

    fn checkpoint(&self) -> StepCheckpoint {
        StepCheckpoint::MultiStart(MsCkpt {
            starts: self
                .starts
                .chunks_exact(self.dim.max(1))
                .map(bits_of)
                .collect(),
            next: self.next,
            best: self.best.as_ref().map(ResultCkpt::of),
            total_evals: self.total_evals,
            finished: self.finished.as_ref().map(ResultCkpt::of),
        })
    }
}

impl SteppedMinimizer for MultiStart {
    fn start(&self, problem: &Problem<'_>, seed: u64) -> Box<dyn MinimizerStep> {
        let finished = crate::reject_invalid(problem);
        let mut rng = crate::rng_from_seed(seed);
        // Generate every starting point as one batch up front. The RNG
        // stream is exclusively consumed by start-point sampling, so the
        // points are identical to drawing them lazily inside the loop —
        // and having the whole batch available is the seam through which a
        // batched objective backend can pre-screen starting points.
        let dim = problem.objective.dim();
        let mut starts = Vec::new();
        if finished.is_none() {
            starts.reserve_exact(self.n_starts * dim);
            let mut point = Vec::with_capacity(dim);
            for _ in 0..self.n_starts {
                problem.bounds.sample_into(&mut rng, &mut point);
                starts.extend_from_slice(&point);
            }
        }
        Box::new(MultiStartStep {
            cfg: self.clone(),
            dim,
            starts,
            next: 0,
            best: None,
            total_evals: 0,
            finished,
            workspace: nelder_mead::Workspace::default(),
        })
    }

    fn restore(
        &self,
        problem: &Problem<'_>,
        checkpoint: &StepCheckpoint,
    ) -> Option<Box<dyn MinimizerStep>> {
        let StepCheckpoint::MultiStart(c) = checkpoint else {
            return None;
        };
        let dim = problem.objective.dim();
        if c.starts.iter().any(|s| s.len() != dim) {
            return None;
        }
        Some(Box::new(MultiStartStep {
            cfg: self.clone(),
            dim,
            starts: c
                .starts
                .iter()
                .flatten()
                .map(|&b| f64::from_bits(b))
                .collect(),
            next: c.next,
            best: c.best.as_ref().map(ResultCkpt::restore),
            total_evals: c.total_evals,
            finished: c.finished.as_ref().map(ResultCkpt::restore),
            workspace: nelder_mead::Workspace::default(),
        }))
    }
}

impl GlobalMinimizer for MultiStart {
    fn minimize(
        &self,
        problem: &Problem<'_>,
        seed: u64,
        sink: &mut dyn SampleSink,
    ) -> MinimizeResult {
        crate::stepped::drive(self, problem, seed, sink)
    }

    fn backend_name(&self) -> &'static str {
        "MultiStart"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_functions::rastrigin;
    use crate::{Bounds, FnObjective, NoTrace};

    #[test]
    fn escapes_local_minima_of_rastrigin() {
        let f = FnObjective::new(2, rastrigin);
        let p = Problem::new(&f, Bounds::symmetric(2, 5.12))
            .with_target(1e-6)
            .with_max_evals(400_000);
        let r = MultiStart::default()
            .with_starts(100)
            .minimize(&p, 13, &mut NoTrace);
        assert!(r.value < 0.1, "value = {}", r.value);
    }

    #[test]
    fn approaches_zero_of_product_weak_distance() {
        // Multi-start has no ULP polish, so it gets close to (but not
        // necessarily exactly on) the zero; exact zeros are the job of the
        // basin-hopping backend or the analysis driver.
        let f = FnObjective::new(1, |x: &[f64]| (x[0] - 2.0).abs() * (x[0] + 1.0).abs());
        let p = Problem::new(&f, Bounds::symmetric(1, 1.0e4)).with_target(0.0);
        let r = MultiStart::default().minimize(&p, 7, &mut NoTrace);
        assert!(r.value < 1e-6, "value = {}", r.value);
    }

    #[test]
    fn powell_variant_works() {
        let f = FnObjective::new(2, |x: &[f64]| (x[0] - 1.0).abs() + (x[1] - 2.0).abs());
        let p = Problem::new(&f, Bounds::symmetric(2, 100.0))
            .with_target(1e-8)
            .with_max_evals(100_000);
        let r = MultiStart::default()
            .with_local(StartLocal::Powell)
            .minimize(&p, 3, &mut NoTrace);
        assert!(r.value < 1e-4, "value = {}", r.value);
    }

    #[test]
    fn budget_respected() {
        let f = FnObjective::new(2, rastrigin);
        let p = Problem::new(&f, Bounds::symmetric(2, 5.0)).with_max_evals(1_000);
        let r = MultiStart::default().minimize(&p, 2, &mut NoTrace);
        assert!(r.evals <= 1_200, "evals = {}", r.evals);
    }
}
