//! Basin hopping: Markov-chain Monte-Carlo over local minimum points.
//!
//! This is the paper's default MO backend (Section 4.4, Algorithm 3 step 5).
//! Each iteration perturbs the current point, runs a local minimization from
//! the perturbed point and accepts or rejects the new local minimum with a
//! Metropolis criterion (Li & Scheraga 1987; Wales & Doye 1998).
//!
//! Because weak distances are defined over the whole binary64 range, the
//! step proposal mixes *relative/additive* moves (good near the current
//! basin) with *exponent jumps* that rescale a coordinate by a random power
//! of ten (needed to reach overflow-triggering inputs with magnitudes near
//! `1e308`). The proposal distribution is a backend implementation detail —
//! the paper treats the backend as a black box — and is documented here for
//! reproducibility.

use crate::checkpoint::{BhCkpt, ResultCkpt, RngCkpt, StepCheckpoint};
use crate::evaluator::Evaluator;
use crate::nelder_mead::NelderMead;
use crate::result::{MinimizeResult, Termination};
use crate::sampling::SampleSink;
use crate::stepped::{MinimizerStep, StepStatus, SteppedMinimizer};
use crate::{better, GlobalMinimizer, LocalMinimizer, Problem};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Which local search basin hopping uses between hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalSearch {
    /// Nelder–Mead downhill simplex (default).
    NelderMead,
    /// Powell's conjugate-direction method.
    Powell,
    /// No local search: pure Monte-Carlo hopping.
    None,
}

/// Configuration of the basin-hopping backend.
#[derive(Debug, Clone, PartialEq)]
pub struct BasinHopping {
    /// Number of hops (outer iterations).
    pub n_hops: usize,
    /// Metropolis temperature.
    pub temperature: f64,
    /// Additive step size (scaled by `1 + |x|`).
    pub step_size: f64,
    /// Probability of proposing an exponent jump instead of an additive move.
    pub exponent_jump_prob: f64,
    /// Largest power-of-ten change of an exponent jump.
    pub max_exponent_jump: f64,
    /// Evaluation budget of each local search.
    pub local_max_evals: usize,
    /// Local search algorithm.
    pub local_search: LocalSearch,
    /// Run a ULP-space polish ([`crate::UlpSearch`]) on new incumbents when a
    /// target value is set, so that exact zeros of weak distances are reached.
    pub polish: bool,
}

impl Default for BasinHopping {
    fn default() -> Self {
        BasinHopping {
            n_hops: 120,
            temperature: 1.0,
            step_size: 0.5,
            exponent_jump_prob: 0.4,
            max_exponent_jump: 60.0,
            local_max_evals: 600,
            local_search: LocalSearch::NelderMead,
            polish: true,
        }
    }
}

impl BasinHopping {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of hops.
    pub fn with_hops(mut self, n: usize) -> Self {
        self.n_hops = n;
        self
    }

    /// Sets the local search used between hops.
    pub fn with_local_search(mut self, local: LocalSearch) -> Self {
        self.local_search = local;
        self
    }

    /// Sets the per-local-search evaluation budget.
    pub fn with_local_max_evals(mut self, evals: usize) -> Self {
        self.local_max_evals = evals;
        self
    }

    /// Sets the Metropolis temperature.
    pub fn with_temperature(mut self, t: f64) -> Self {
        self.temperature = t;
        self
    }

    /// Enables or disables the ULP polish of new incumbents.
    pub fn with_polish(mut self, polish: bool) -> Self {
        self.polish = polish;
        self
    }

    /// Polishes a candidate with a ULP-space compass search so that exact
    /// zeros are reached when the candidate sits a few ULPs away.
    fn maybe_polish(
        &self,
        problem: &Problem<'_>,
        candidate: MinimizeResult,
        sink: &mut dyn SampleSink,
    ) -> MinimizeResult {
        if !self.polish || problem.target.is_none() {
            return candidate;
        }
        if problem.target_reached(candidate.value) || !candidate.value.is_finite() {
            return candidate;
        }
        let budget = self.local_max_evals.max(400);
        let polished =
            crate::UlpSearch::default().minimize_from(problem, &candidate.x, budget, sink);
        let evals = candidate.evals + polished.evals;
        let mut merged = if better(polished.value, candidate.value) {
            polished
        } else {
            candidate
        };
        merged.evals = evals;
        merged
    }

    fn propose<R: Rng + ?Sized>(&self, rng: &mut R, x: &[f64], bounds: &crate::Bounds) -> Vec<f64> {
        let mut y = x.to_vec();
        // Occasionally restart from a fresh random point to escape flat
        // plateaus (weak distances are often flat far from the solution set).
        if rng.gen::<f64>() < 0.1 {
            return bounds.sample(rng);
        }
        for yi in y.iter_mut() {
            if rng.gen::<f64>() < self.exponent_jump_prob {
                // Exponent jump: rescale by 10^U(-j, j), occasionally flip sign.
                let jump = rng.gen_range(-self.max_exponent_jump..=self.max_exponent_jump);
                let base = if *yi == 0.0 { 1.0 } else { yi.abs() };
                let mut mag = base * 10.0_f64.powf(jump);
                if !mag.is_finite() {
                    mag = f64::MAX;
                }
                let sign = if rng.gen::<f64>() < 0.1 {
                    -yi.signum()
                } else if *yi == 0.0 {
                    if rng.gen::<bool>() {
                        1.0
                    } else {
                        -1.0
                    }
                } else {
                    yi.signum()
                };
                *yi = sign * mag;
            } else {
                // Additive move scaled by the coordinate magnitude.
                let scale = self.step_size * (1.0 + yi.abs());
                let u: f64 = rng.gen_range(-1.0..1.0);
                *yi += u * scale;
            }
        }
        bounds.clamp(&mut y);
        y
    }

    fn local_refine(
        &self,
        problem: &Problem<'_>,
        x0: &[f64],
        budget: usize,
        sink: &mut dyn SampleSink,
    ) -> MinimizeResult {
        match self.local_search {
            LocalSearch::NelderMead => {
                NelderMead::default().minimize_from(problem, x0, budget, sink)
            }
            LocalSearch::Powell => crate::Powell::default()
                .with_max_iters(20)
                .minimize_from(problem, x0, budget, sink),
            LocalSearch::None => {
                // Single evaluation at the proposed point.
                let mut ev = Evaluator::new(problem, sink);
                let v = ev.eval(x0);
                MinimizeResult::new(x0.to_vec(), v, 1, Termination::IterationsCompleted)
            }
        }
    }
}

/// The resumable state of one basin-hopping run: the RNG stream, the
/// current and best local minima, the hop counter and the charged total.
struct BasinHoppingStep {
    cfg: BasinHopping,
    dim: usize,
    rng: ChaCha8Rng,
    started: bool,
    hop: usize,
    current: Option<MinimizeResult>,
    best: Option<MinimizeResult>,
    total_evals: usize,
    finished: Option<MinimizeResult>,
}

impl BasinHoppingStep {
    fn finish(&mut self, termination: Termination) -> StepStatus {
        let best = self.best.clone().expect("basin hopping ran its start phase");
        self.finished = Some(MinimizeResult::new(
            best.x,
            best.value,
            self.total_evals,
            termination,
        ));
        StepStatus::Finished
    }
}

impl MinimizerStep for BasinHoppingStep {
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

        if !self.started {
            // Starting point and its local refinement.
            let start = problem.bounds.sample(&mut self.rng);
            let budget0 = self.cfg.local_max_evals.min(problem.max_evals);
            let refined = self.cfg.local_refine(problem, &start, budget0, sink);
            let current = self.cfg.maybe_polish(problem, refined, sink);
            self.total_evals += current.evals;
            self.best = Some(current.clone());
            self.current = Some(current);
            self.started = true;
            if self.best.as_ref().expect("just set").value
                <= problem.target.unwrap_or(f64::NEG_INFINITY)
            {
                return self.finish(Termination::TargetReached);
            }
        }

        loop {
            if self.hop >= self.cfg.n_hops {
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
            self.hop += 1;
            let current = self.current.as_ref().expect("start phase ran");
            let best_value = self.best.as_ref().expect("start phase ran").value;
            let proposal = self.cfg.propose(&mut self.rng, &current.x, &problem.bounds);
            let budget = self
                .cfg
                .local_max_evals
                .min(problem.max_evals.saturating_sub(self.total_evals));
            if budget == 0 {
                return self.finish(Termination::BudgetExhausted);
            }
            let refined = self.cfg.local_refine(problem, &proposal, budget, sink);
            let trial = if better(refined.value, best_value) {
                self.cfg.maybe_polish(problem, refined, sink)
            } else {
                refined
            };
            self.total_evals += trial.evals;

            if better(trial.value, best_value) {
                self.best = Some(trial.clone());
            }
            if problem.target_reached(self.best.as_ref().expect("start phase ran").value) {
                return self.finish(Termination::TargetReached);
            }

            // Metropolis acceptance on the local minima.
            let current_value = self.current.as_ref().expect("start phase ran").value;
            let accept = if better(trial.value, current_value) {
                true
            } else if trial.value.is_nan() {
                false
            } else {
                let delta = trial.value - current_value;
                let prob = (-delta / self.cfg.temperature.max(f64::MIN_POSITIVE)).exp();
                self.rng.gen::<f64>() < prob
            };
            if accept {
                self.current = Some(trial);
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
        self.best
            .as_ref()
            .map(|b| b.value)
            .unwrap_or(f64::INFINITY)
    }

    fn result(&self) -> MinimizeResult {
        if let Some(result) = &self.finished {
            return result.clone();
        }
        match &self.best {
            Some(best) => MinimizeResult::new(
                best.x.clone(),
                best.value,
                self.total_evals,
                Termination::BudgetExhausted,
            ),
            None => MinimizeResult::new(
                vec![f64::NAN; self.dim],
                f64::INFINITY,
                0,
                Termination::BudgetExhausted,
            ),
        }
    }

    fn checkpoint(&self) -> StepCheckpoint {
        StepCheckpoint::BasinHopping(BhCkpt {
            rng: RngCkpt::of(&self.rng),
            started: self.started,
            hop: self.hop,
            current: self.current.as_ref().map(ResultCkpt::of),
            best: self.best.as_ref().map(ResultCkpt::of),
            total_evals: self.total_evals,
            finished: self.finished.as_ref().map(ResultCkpt::of),
        })
    }
}

impl SteppedMinimizer for BasinHopping {
    fn start(&self, problem: &Problem<'_>, seed: u64) -> Box<dyn MinimizerStep> {
        Box::new(BasinHoppingStep {
            cfg: self.clone(),
            dim: problem.objective.dim(),
            rng: crate::rng_from_seed(seed),
            started: false,
            hop: 0,
            current: None,
            best: None,
            total_evals: 0,
            finished: crate::reject_invalid(problem),
        })
    }

    fn restore(
        &self,
        problem: &Problem<'_>,
        checkpoint: &StepCheckpoint,
    ) -> Option<Box<dyn MinimizerStep>> {
        let StepCheckpoint::BasinHopping(c) = checkpoint else {
            return None;
        };
        Some(Box::new(BasinHoppingStep {
            cfg: self.clone(),
            dim: problem.objective.dim(),
            rng: c.rng.restore()?,
            started: c.started,
            hop: c.hop,
            current: c.current.as_ref().map(ResultCkpt::restore),
            best: c.best.as_ref().map(ResultCkpt::restore),
            total_evals: c.total_evals,
            finished: c.finished.as_ref().map(ResultCkpt::restore),
        }))
    }
}

impl GlobalMinimizer for BasinHopping {
    fn minimize(
        &self,
        problem: &Problem<'_>,
        seed: u64,
        sink: &mut dyn SampleSink,
    ) -> MinimizeResult {
        crate::stepped::drive(self, problem, seed, sink)
    }

    fn backend_name(&self) -> &'static str {
        "Basinhopping"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_functions::{rastrigin, sphere};
    use crate::{Bounds, FnObjective, NoTrace, SamplingTrace};

    #[test]
    fn minimizes_multimodal_rastrigin() {
        let f = FnObjective::new(2, rastrigin);
        let p = Problem::new(&f, Bounds::symmetric(2, 5.12))
            .with_target(1e-6)
            .with_max_evals(300_000);
        let r = BasinHopping::default().with_hops(300).minimize(&p, 11, &mut NoTrace);
        assert!(r.value < 1e-3, "value = {}", r.value);
    }

    #[test]
    fn finds_zero_of_weak_distance_shape() {
        // |x - 1| * |x + 3|: two zeros, flat growth — like a boundary weak distance.
        let f = FnObjective::new(1, |x: &[f64]| (x[0] - 1.0).abs() * (x[0] + 3.0).abs());
        let p = Problem::new(&f, Bounds::symmetric(1, 1.0e6)).with_target(0.0);
        let r = BasinHopping::default().minimize(&p, 3, &mut NoTrace);
        assert_eq!(r.termination, Termination::TargetReached);
        assert!(r.value == 0.0);
        let x = r.x[0];
        assert!((x - 1.0).abs() < 1e-9 || (x + 3.0).abs() < 1e-9, "x = {x}");
    }

    #[test]
    fn reaches_huge_magnitudes() {
        // Minimum requires |x| >= 1e300 — the overflow-detection shape
        // w = MAX - |x| clamped at 0.
        let f = FnObjective::new(1, |x: &[f64]| {
            let a = x[0].abs();
            if a >= 1.0e300 {
                0.0
            } else {
                1.0e300 - a
            }
        });
        let p = Problem::new(&f, Bounds::whole(1))
            .with_target(0.0)
            .with_max_evals(200_000);
        let r = BasinHopping::default().minimize(&p, 5, &mut NoTrace);
        assert_eq!(r.termination, Termination::TargetReached, "value = {:e}", r.value);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let f = FnObjective::new(2, sphere);
        let p = Problem::new(&f, Bounds::symmetric(2, 10.0)).with_max_evals(5_000);
        let bh = BasinHopping::default().with_hops(10);
        let r1 = bh.minimize(&p, 99, &mut NoTrace);
        let r2 = bh.minimize(&p, 99, &mut NoTrace);
        assert_eq!(r1.x, r2.x);
        assert_eq!(r1.value, r2.value);
        assert_eq!(r1.evals, r2.evals);
    }

    #[test]
    fn records_samples() {
        let f = FnObjective::new(1, |x: &[f64]| x[0].abs());
        let p = Problem::new(&f, Bounds::symmetric(1, 10.0)).with_max_evals(2_000);
        let mut trace = SamplingTrace::new();
        let r = BasinHopping::default().with_hops(5).minimize(&p, 1, &mut trace);
        assert!(!trace.is_empty());
        assert!(trace.len() as u64 == trace.total_seen());
        assert!(r.evals <= 2_000);
    }

    #[test]
    fn respects_budget() {
        let f = FnObjective::new(2, rastrigin);
        let p = Problem::new(&f, Bounds::symmetric(2, 5.0)).with_max_evals(500);
        let r = BasinHopping::default().minimize(&p, 2, &mut NoTrace);
        // Each local search may overshoot slightly but the hop loop stops.
        assert!(r.evals <= 1_200, "evals = {}", r.evals);
    }

    #[test]
    fn pure_hopping_without_local_search() {
        let f = FnObjective::new(1, |x: &[f64]| (x[0] - 2.0).abs());
        let p = Problem::new(&f, Bounds::symmetric(1, 10.0))
            .with_target(0.5)
            .with_max_evals(50_000);
        let bh = BasinHopping::default()
            .with_local_search(LocalSearch::None)
            .with_hops(5_000);
        let r = bh.minimize(&p, 4, &mut NoTrace);
        assert!(r.value <= 0.5, "value = {}", r.value);
    }

    #[test]
    fn powell_local_search_variant() {
        let f = FnObjective::new(2, sphere);
        let p = Problem::new(&f, Bounds::symmetric(2, 10.0))
            .with_target(1e-9)
            .with_max_evals(100_000);
        let bh = BasinHopping::default().with_local_search(LocalSearch::Powell);
        let r = bh.minimize(&p, 8, &mut NoTrace);
        assert!(r.value < 1e-6, "value = {}", r.value);
    }
}
