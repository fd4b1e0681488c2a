//! Differential Evolution (Storn 1999), the second backend of Table 1.
//!
//! A population-based global strategy using the classic `rand/1/bin`
//! mutation and binomial crossover with a *generational* (synchronous)
//! update: every generation first builds all `NP` trial vectors from the
//! current population, then evaluates the whole generation as **one batch**
//! through [`Evaluator::eval_batch`], then applies selection. Batching the
//! generation is what lets a SIMD/GPU objective backend amortize
//! per-evaluation overhead; the per-sample bookkeeping (trace order,
//! incumbent updates, budget and cancellation) is bit-identical to
//! evaluating the same trials one by one.
//!
//! Population members are initialized by the same wide-range sampling as
//! every other backend so that very small and very large magnitudes are
//! represented. Non-finite mutant components are repaired before
//! evaluation: infinities clamp to the violated bound, while NaN (an
//! `inf - inf` difference term) is resampled from the bounds — `f64::clamp`
//! propagates NaN, so clamping alone would silently leave the component
//! broken.

use crate::checkpoint::{bits_of, floats_of, DeCkpt, ResultCkpt, RngCkpt, StepCheckpoint};
use crate::evaluator::{Evaluator, EvaluatorState};
use crate::result::{MinimizeResult, Termination};
use crate::sampling::SampleSink;
use crate::stepped::{MinimizerStep, StepStatus, SteppedMinimizer};
use crate::{Bounds, GlobalMinimizer, Problem};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Configuration of the Differential Evolution backend.
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialEvolution {
    /// Population size; if zero, `15 * dim` capped to `[20, 90]` is used.
    pub population: usize,
    /// Differential weight F in `[0, 2]`.
    pub weight: f64,
    /// Crossover probability CR in `[0, 1]`.
    pub crossover: f64,
    /// Maximum number of generations.
    pub max_generations: usize,
    /// Convergence tolerance on the spread of population values.
    pub f_tol: f64,
}

impl Default for DifferentialEvolution {
    fn default() -> Self {
        DifferentialEvolution {
            population: 0,
            weight: 0.8,
            crossover: 0.9,
            max_generations: 300,
            f_tol: 1.0e-12,
        }
    }
}

impl DifferentialEvolution {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the population size explicitly.
    pub fn with_population(mut self, population: usize) -> Self {
        self.population = population;
        self
    }

    /// Sets the maximum number of generations.
    pub fn with_max_generations(mut self, generations: usize) -> Self {
        self.max_generations = generations;
        self
    }

    fn effective_population(&self, dim: usize) -> usize {
        if self.population > 0 {
            self.population.max(4)
        } else {
            (15 * dim).clamp(20, 90)
        }
    }
}

/// Computes component `j` of a `rand/1` mutant and repairs it if the
/// floating-point arithmetic left the range of finite doubles: an infinite
/// mutant clamps to the violated bound, while a NaN mutant (`0 * inf` or
/// `inf - inf` in the difference term) is resampled from the bounds.
///
/// The NaN arm is the bugfix: `f64::clamp` propagates NaN, so the previous
/// `mutant.clamp(lo, hi)` repair was a no-op for NaN mutants, which then
/// fell through to the bounds-midpoint fallback inside the evaluator's
/// clamping instead of staying a meaningful search point.
fn mutate_component<R: Rng + ?Sized>(
    base: f64,
    diff_b: f64,
    diff_c: f64,
    weight: f64,
    bounds: &Bounds,
    j: usize,
    rng: &mut R,
) -> f64 {
    let mutant = base + weight * (diff_b - diff_c);
    if mutant.is_finite() {
        mutant
    } else if mutant.is_nan() {
        bounds.sample_component(rng, j)
    } else {
        let (lo, hi) = bounds.limit(j);
        mutant.clamp(lo, hi)
    }
}

/// The resumable state of one DE run: the RNG stream, the population and
/// its values, the generation counter and the evaluator bookkeeping.
struct DiffEvoStep {
    cfg: DifferentialEvolution,
    dim: usize,
    np: usize,
    rng: ChaCha8Rng,
    ev: EvaluatorState,
    pop: Vec<Vec<f64>>,
    values: Vec<f64>,
    generation: usize,
    initialized: bool,
    finished: Option<MinimizeResult>,
}

impl DiffEvoStep {
    fn finish(&mut self, ev: Evaluator<'_, '_>, mut termination: Termination) -> StepStatus {
        let (x, value) = ev.best();
        if ev.target_hit() {
            termination = Termination::TargetReached;
        }
        self.finished = Some(MinimizeResult::new(x, value, ev.evals(), termination));
        self.ev = ev.suspend();
        StepStatus::Finished
    }
}

impl MinimizerStep for DiffEvoStep {
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
        let (dim, np) = (self.dim, self.np);
        // Hand the state to the evaluator by move; every exit path below
        // suspends it back.
        let state = std::mem::replace(&mut self.ev, EvaluatorState::fresh(0));
        let mut ev = Evaluator::resume(problem, sink, state);
        let slice_start = ev.evals();

        if !self.initialized {
            // Initial population, evaluated as one batch.
            ev.eval_batch(&self.pop, &mut self.values);
            while self.values.len() < np {
                self.values.push(f64::INFINITY);
            }
            self.initialized = true;
        }

        // One trial row per member for the whole step: every generation
        // overwrites the rows in place, so trials cost no allocation.
        let mut trials: Vec<Vec<f64>> = vec![Vec::new(); np];
        let mut trial_values: Vec<f64> = Vec::with_capacity(np);
        loop {
            if self.generation >= self.cfg.max_generations {
                return self.finish(ev, Termination::IterationsCompleted);
            }
            if ev.evals() - slice_start >= slice {
                self.ev = ev.suspend();
                return StepStatus::Paused;
            }
            if ev.should_stop() {
                let termination = ev.termination(Termination::IterationsCompleted);
                return self.finish(ev, termination);
            }
            self.generation += 1;
            // Build every trial of this generation from the current
            // population (synchronous update), so the whole generation can
            // be evaluated in one batch below.
            for (i, trial) in trials.iter_mut().enumerate() {
                // Pick three distinct members different from i.
                let mut pick = || loop {
                    let k = self.rng.gen_range(0..np);
                    if k != i {
                        return k;
                    }
                };
                let (a, b, c) = (pick(), pick(), pick());
                let j_rand = self.rng.gen_range(0..dim);
                trial.clone_from(&self.pop[i]);
                for (j, slot) in trial.iter_mut().enumerate() {
                    if self.rng.gen::<f64>() < self.cfg.crossover || j == j_rand {
                        *slot = mutate_component(
                            self.pop[a][j],
                            self.pop[b][j],
                            self.pop[c][j],
                            self.cfg.weight,
                            &problem.bounds,
                            j,
                            &mut self.rng,
                        );
                    }
                }
            }

            // One batched evaluation per generation; a short count means a
            // stop condition fired mid-generation, exactly where a scalar
            // loop over the same trials would have stopped.
            let processed = ev.eval_batch(&trials, &mut trial_values);
            for i in 0..processed {
                if crate::better(trial_values[i], self.values[i])
                    || trial_values[i] == self.values[i]
                {
                    self.pop[i].clone_from(&trials[i]);
                    problem.bounds.clamp(&mut self.pop[i]);
                    self.values[i] = trial_values[i];
                }
            }
            if processed < np || ev.should_stop() {
                let termination = ev.termination(Termination::IterationsCompleted);
                return self.finish(ev, termination);
            }

            // Convergence: population values nearly equal. The min/max
            // folds run only when all `np` values are finite, so they fold
            // exactly the finite values.
            let values = &self.values;
            if values.iter().filter(|v| v.is_finite()).count() == np {
                let min = values.iter().copied().fold(f64::INFINITY, f64::min);
                let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                if (max - min).abs() <= self.cfg.f_tol * (1.0 + min.abs()) {
                    return self.finish(ev, Termination::Converged);
                }
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
        StepCheckpoint::DiffEvo(DeCkpt {
            rng: RngCkpt::of(&self.rng),
            ev: self.ev.checkpoint(),
            pop: self.pop.iter().map(|m| bits_of(m)).collect(),
            values: self.values.iter().map(|v| v.to_bits()).collect(),
            generation: self.generation,
            initialized: self.initialized,
            finished: self.finished.as_ref().map(ResultCkpt::of),
        })
    }
}

impl SteppedMinimizer for DifferentialEvolution {
    fn start(&self, problem: &Problem<'_>, seed: u64) -> Box<dyn MinimizerStep> {
        let finished = crate::reject_invalid(problem);
        let dim = problem.objective.dim();
        let np = self.effective_population(dim);
        let mut rng = crate::rng_from_seed(seed);
        // Sampling the initial population here consumes exactly the draws
        // the run performs before its first objective evaluation.
        let pop: Vec<Vec<f64>> = if finished.is_none() {
            (0..np).map(|_| problem.bounds.sample(&mut rng)).collect()
        } else {
            Vec::new()
        };
        Box::new(DiffEvoStep {
            cfg: self.clone(),
            dim,
            np,
            rng,
            ev: EvaluatorState::fresh(dim),
            pop,
            values: Vec::with_capacity(np),
            generation: 0,
            initialized: false,
            finished,
        })
    }

    fn restore(
        &self,
        problem: &Problem<'_>,
        checkpoint: &StepCheckpoint,
    ) -> Option<Box<dyn MinimizerStep>> {
        let StepCheckpoint::DiffEvo(c) = checkpoint else {
            return None;
        };
        let dim = problem.objective.dim();
        Some(Box::new(DiffEvoStep {
            cfg: self.clone(),
            dim,
            np: self.effective_population(dim),
            rng: c.rng.restore()?,
            ev: EvaluatorState::from_checkpoint(&c.ev),
            pop: c.pop.iter().map(|m| floats_of(m)).collect(),
            values: c.values.iter().map(|&v| f64::from_bits(v)).collect(),
            generation: c.generation,
            initialized: c.initialized,
            finished: c.finished.as_ref().map(ResultCkpt::restore),
        }))
    }
}

impl GlobalMinimizer for DifferentialEvolution {
    fn minimize(
        &self,
        problem: &Problem<'_>,
        seed: u64,
        sink: &mut dyn SampleSink,
    ) -> MinimizeResult {
        crate::stepped::drive(self, problem, seed, sink)
    }

    fn backend_name(&self) -> &'static str {
        "DifferentialEvolution"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_functions::{rastrigin, sphere};
    use crate::{Bounds, FnObjective, NoTrace};

    #[test]
    fn minimizes_sphere() {
        let f = FnObjective::new(2, sphere);
        let p = Problem::new(&f, Bounds::symmetric(2, 10.0))
            .with_target(1e-10)
            .with_max_evals(100_000);
        let r = DifferentialEvolution::default().minimize(&p, 21, &mut NoTrace);
        assert!(r.value < 1e-6, "value = {}", r.value);
    }

    #[test]
    fn minimizes_rastrigin() {
        let f = FnObjective::new(2, rastrigin);
        let p = Problem::new(&f, Bounds::symmetric(2, 5.12))
            .with_target(1e-8)
            .with_max_evals(200_000);
        let r = DifferentialEvolution::default()
            .with_max_generations(600)
            .minimize(&p, 17, &mut NoTrace);
        assert!(r.value < 1e-2, "value = {}", r.value);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let f = FnObjective::new(2, sphere);
        let p = Problem::new(&f, Bounds::symmetric(2, 5.0)).with_max_evals(3_000);
        let de = DifferentialEvolution::default().with_max_generations(20);
        let r1 = de.minimize(&p, 5, &mut NoTrace);
        let r2 = de.minimize(&p, 5, &mut NoTrace);
        assert_eq!(r1.value, r2.value);
        assert_eq!(r1.x, r2.x);
    }

    #[test]
    fn respects_budget() {
        let f = FnObjective::new(3, sphere);
        let p = Problem::new(&f, Bounds::symmetric(3, 5.0)).with_max_evals(200);
        let r = DifferentialEvolution::default().minimize(&p, 1, &mut NoTrace);
        assert!(r.evals <= 200);
        assert_eq!(r.termination, Termination::BudgetExhausted);
    }

    #[test]
    fn population_sizing_rule() {
        let de = DifferentialEvolution::default();
        assert_eq!(de.effective_population(1), 20);
        assert_eq!(de.effective_population(3), 45);
        assert_eq!(de.effective_population(100), 90);
        assert_eq!(
            DifferentialEvolution::default()
                .with_population(2)
                .effective_population(1),
            4
        );
    }

    #[test]
    fn stops_at_target() {
        let f = FnObjective::new(1, |x: &[f64]| (x[0] - 1.0).abs());
        let p = Problem::new(&f, Bounds::symmetric(1, 10.0))
            .with_target(1e-3)
            .with_max_evals(50_000);
        let r = DifferentialEvolution::default().minimize(&p, 9, &mut NoTrace);
        assert_eq!(r.termination, Termination::TargetReached);
    }

    #[test]
    fn nan_mutant_is_resampled_from_the_bounds() {
        // Regression for the NaN repair: with F = 0 the difference term
        // `0 * (b - c)` is NaN whenever `b - c` overflows — the old
        // `mutant.clamp(lo, hi)` repair propagated that NaN straight into
        // the trial vector.
        let bounds = Bounds::new(vec![(-1.0e4, 1.0e4)]);
        let mut rng = crate::rng_from_seed(7);
        for _ in 0..50 {
            let mutant =
                mutate_component(3.0, f64::MAX, -f64::MAX, 0.0, &bounds, 0, &mut rng);
            assert!(mutant.is_finite(), "mutant = {mutant}");
            assert!((-1.0e4..=1.0e4).contains(&mutant), "mutant = {mutant}");
        }
    }

    #[test]
    fn infinite_mutants_clamp_to_the_violated_bound() {
        let bounds = Bounds::new(vec![(-5.0, 7.0)]);
        let mut rng = crate::rng_from_seed(8);
        // base + F * (b - c) overflows to +inf / -inf.
        let up = mutate_component(1.0, f64::MAX, -f64::MAX, 2.0, &bounds, 0, &mut rng);
        assert_eq!(up, 7.0);
        let down = mutate_component(-1.0, -f64::MAX, f64::MAX, 2.0, &bounds, 0, &mut rng);
        assert_eq!(down, -5.0);
        // A finite mutant passes through unrepaired (even out of bounds —
        // the evaluator clamps at evaluation time, as for every backend).
        let plain = mutate_component(1.0, 5.0, 2.0, 0.5, &bounds, 0, &mut rng);
        assert_eq!(plain, 2.5);
    }

    #[test]
    fn whole_range_run_never_evaluates_a_midpoint_fallback() {
        // End-to-end guard: on the whole binary64 box with F = 0, every
        // trial component is either a (nonzero) population value or a
        // repaired resample — a 0.0 sample would mean a NaN slipped through
        // to the evaluator's midpoint fallback.
        struct AssertNonZero;
        impl crate::SampleSink for AssertNonZero {
            fn record(&mut self, _index: u64, x: &[f64], _value: f64) {
                assert!(x[0].is_finite());
                assert_ne!(x[0], 0.0, "midpoint fallback reached the objective");
            }
        }
        let f = FnObjective::new(1, |x: &[f64]| x[0].abs());
        let p = Problem::new(&f, Bounds::whole(1)).with_max_evals(4_000);
        let de = DifferentialEvolution {
            weight: 0.0,
            ..DifferentialEvolution::default()
        };
        let r = de.minimize(&p, 3, &mut AssertNonZero);
        assert!(r.value.is_finite());
    }
}
