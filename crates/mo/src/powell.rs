//! Powell's conjugate-direction method.
//!
//! The third backend evaluated in Table 1 of the paper: a local,
//! derivative-free search that repeatedly performs one-dimensional
//! minimizations (here via [`brent`](crate::brent)) along an evolving set of
//! directions (Powell 1964).
//!
//! Powell is a *true stepped backend*: the run suspends between outer
//! conjugate-direction iterations (`PowellStep`; see
//! [`SteppedMinimizer`]), carrying the evolving direction set, the current
//! point and the evaluator bookkeeping across slices. Sliced execution is
//! bit-identical to the unsliced run — both the local
//! ([`LocalMinimizer::minimize_from`]) and global interfaces drive the same
//! state machine — which gives the fair-share scheduler real granularity on
//! Powell-heavy jobs.

use crate::brent::line_minimize;
use crate::checkpoint::{bits_of, floats_of, PwCkpt, ResultCkpt, StepCheckpoint};
use crate::evaluator::{Evaluator, EvaluatorState};
use crate::result::{MinimizeResult, Termination};
use crate::sampling::SampleSink;
use crate::stepped::{MinimizerStep, StepStatus, SteppedMinimizer};
use crate::{GlobalMinimizer, LocalMinimizer, Problem};

/// Configuration of Powell's method.
#[derive(Debug, Clone, PartialEq)]
pub struct Powell {
    /// Convergence tolerance on the relative decrease per outer iteration.
    pub f_tol: f64,
    /// Tolerance of each Brent line search.
    pub line_tol: f64,
    /// Maximum number of outer iterations.
    pub max_iters: usize,
    /// Evaluation budget of each line search.
    pub line_max_evals: usize,
    /// Initial step used to scale the search directions.
    pub initial_step: f64,
}

impl Default for Powell {
    fn default() -> Self {
        Powell {
            f_tol: 1.0e-12,
            line_tol: 1.0e-10,
            max_iters: 200,
            line_max_evals: 300,
            initial_step: 1.0,
        }
    }
}

impl Powell {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the maximum number of outer iterations.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    fn line_search(&self, ev: &mut Evaluator<'_, '_>, x: &[f64], dir: &[f64]) -> (Vec<f64>, f64) {
        let n = x.len();
        let budget = self.line_max_evals.min(ev.remaining());
        if budget < 4 {
            let fx = ev.eval(x);
            return (x.to_vec(), fx);
        }
        // One trial point per line search, rewritten for every step `t`
        // and finally returned as the line minimum.
        let mut pt = vec![0.0; n];
        let mut f = |t: f64| {
            for (i, p) in pt.iter_mut().enumerate() {
                *p = x[i] + t * dir[i];
            }
            ev.eval(&pt)
        };
        let m = line_minimize(0.0, self.initial_step, &mut f, self.line_tol, budget);
        for (i, p) in pt.iter_mut().enumerate() {
            *p = x[i] + m.t * dir[i];
        }
        (pt, m.value)
    }
}

/// The resumable state of one Powell run: the evolving direction set, the
/// current point/value, the outer-iteration counter and the evaluator
/// bookkeeping. The run pauses *between outer conjugate-direction
/// iterations* — an iteration's chain of line searches shares bracketing
/// state that cannot be split without changing the evaluation sequence, so
/// the iteration boundary is the finest safe checkpoint.
struct PowellStep {
    cfg: Powell,
    /// The per-call budget cap of the local interface (`usize::MAX` for
    /// stepped runs, which only ever stop at the problem budget).
    max_evals: usize,
    started: bool,
    dirs: Vec<Vec<f64>>,
    x: Vec<f64>,
    fx: f64,
    iter: usize,
    ev: EvaluatorState,
    finished: Option<MinimizeResult>,
}

impl PowellStep {
    /// Captures the initial state of a run from the explicit start point
    /// `x0` (the local interface; the global interface samples `x0` from
    /// the seed first), spending at most `max_evals` evaluations. No
    /// objective evaluation happens here.
    fn from_x0(cfg: Powell, problem: &Problem<'_>, x0: Vec<f64>, max_evals: usize) -> Self {
        let n = x0.len();
        // Initial directions: the coordinate axes, scaled to the magnitude of
        // the starting point so that huge-magnitude coordinates can move.
        let dirs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut d = vec![0.0; n];
                d[i] = if x0[i].abs() > 1.0 {
                    x0[i].abs() * 0.1
                } else {
                    1.0
                };
                d
            })
            .collect();
        PowellStep {
            cfg,
            max_evals,
            started: false,
            dirs,
            x: x0,
            fx: f64::NAN,
            iter: 0,
            ev: EvaluatorState::fresh(problem.objective.dim()),
            finished: crate::reject_invalid(problem),
        }
    }

    fn finish(&mut self, ev: Evaluator<'_, '_>) -> StepStatus {
        let termination = ev.termination(Termination::Converged);
        let (bx, bv) = ev.best();
        let (x, value) = if bv < self.fx {
            (bx, bv)
        } else {
            (self.x.clone(), self.fx)
        };
        self.finished = Some(MinimizeResult::new(x, value, ev.evals(), termination));
        self.ev = ev.suspend();
        StepStatus::Finished
    }
}

impl MinimizerStep for PowellStep {
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
        let mut ev = Evaluator::resume(problem, sink, state).capped(self.max_evals);
        let slice_start = ev.evals();

        if !self.started {
            self.fx = ev.eval(&self.x);
            self.started = true;
        }

        loop {
            if self.iter >= self.cfg.max_iters {
                return self.finish(ev);
            }
            if ev.should_stop() {
                return self.finish(ev);
            }
            if ev.evals() - slice_start >= slice {
                self.ev = ev.suspend();
                return StepStatus::Paused;
            }
            self.iter += 1;
            let f_start = self.fx;
            let x_start = self.x.clone();
            let mut biggest_drop = 0.0;
            let mut biggest_dir = 0;
            for i in 0..self.dirs.len() {
                let f_before = self.fx;
                let (nx, nf) = self.cfg.line_search(&mut ev, &self.x, &self.dirs[i]);
                if nf < self.fx {
                    self.x = nx;
                    self.fx = nf;
                }
                let drop = f_before - self.fx;
                if drop > biggest_drop {
                    biggest_drop = drop;
                    biggest_dir = i;
                }
                if ev.should_stop() {
                    break;
                }
            }
            if ev.should_stop() {
                return self.finish(ev);
            }
            let decrease = f_start - self.fx;
            if !decrease.is_finite()
                || decrease.abs() <= self.cfg.f_tol * (f_start.abs() + self.cfg.f_tol)
            {
                return self.finish(ev);
            }
            // Powell's update: replace the direction of largest decrease with
            // the overall displacement of this iteration.
            let displacement: Vec<f64> = self.x.iter().zip(&x_start).map(|(a, b)| a - b).collect();
            if displacement.iter().any(|d| *d != 0.0) {
                let (nx, nf) = self.cfg.line_search(&mut ev, &self.x, &displacement);
                if nf < self.fx {
                    self.x = nx;
                    self.fx = nf;
                }
                self.dirs.remove(biggest_dir);
                self.dirs.push(displacement);
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
        StepCheckpoint::Powell(PwCkpt {
            started: self.started,
            dirs: self.dirs.iter().map(|d| bits_of(d)).collect(),
            x: bits_of(&self.x),
            fx: self.fx.to_bits(),
            iter: self.iter,
            ev: self.ev.checkpoint(),
            finished: self.finished.as_ref().map(ResultCkpt::of),
        })
    }
}

impl LocalMinimizer for Powell {
    fn minimize_from(
        &self,
        problem: &Problem<'_>,
        x0: &[f64],
        max_evals: usize,
        sink: &mut dyn SampleSink,
    ) -> MinimizeResult {
        if let Some(invalid) = crate::reject_invalid(problem) {
            return invalid;
        }
        // One implementation for both interfaces: the local path drives the
        // same state machine the stepped path slices, in a single
        // whole-budget slice.
        let mut run = PowellStep::from_x0(self.clone(), problem, x0.to_vec(), max_evals);
        while run.step(problem, usize::MAX, sink) == StepStatus::Paused {}
        run.result()
    }
}

impl SteppedMinimizer for Powell {
    fn start(&self, problem: &Problem<'_>, seed: u64) -> Box<dyn MinimizerStep> {
        // Powell is a local method; as a "global" backend it starts from a
        // random point in the bounds (this mirrors how the paper applies the
        // SciPy Powell backend directly to the weak distance).
        let mut rng = crate::rng_from_seed(seed);
        let x0 = problem.bounds.sample(&mut rng);
        Box::new(PowellStep::from_x0(self.clone(), problem, x0, usize::MAX))
    }

    fn restore(
        &self,
        _problem: &Problem<'_>,
        checkpoint: &StepCheckpoint,
    ) -> Option<Box<dyn MinimizerStep>> {
        let StepCheckpoint::Powell(c) = checkpoint else {
            return None;
        };
        Some(Box::new(PowellStep {
            cfg: self.clone(),
            max_evals: usize::MAX,
            started: c.started,
            dirs: c.dirs.iter().map(|d| floats_of(d)).collect(),
            x: floats_of(&c.x),
            fx: f64::from_bits(c.fx),
            iter: c.iter,
            ev: EvaluatorState::from_checkpoint(&c.ev),
            finished: c.finished.as_ref().map(ResultCkpt::restore),
        }))
    }
}

impl GlobalMinimizer for Powell {
    fn minimize(
        &self,
        problem: &Problem<'_>,
        seed: u64,
        sink: &mut dyn SampleSink,
    ) -> MinimizeResult {
        crate::stepped::drive(self, problem, seed, sink)
    }

    fn backend_name(&self) -> &'static str {
        "Powell"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_functions::{rosenbrock, sphere};
    use crate::{Bounds, FnObjective, NoTrace};

    #[test]
    fn minimizes_sphere() {
        let f = FnObjective::new(4, sphere);
        let p = Problem::new(&f, Bounds::symmetric(4, 10.0));
        let r = Powell::default().minimize_from(&p, &[3.0, -2.0, 1.0, 5.0], 50_000, &mut NoTrace);
        assert!(r.value < 1e-8, "value = {}", r.value);
    }

    #[test]
    fn minimizes_rosenbrock() {
        let f = FnObjective::new(2, rosenbrock);
        let p = Problem::new(&f, Bounds::symmetric(2, 5.0)).with_max_evals(200_000);
        let r = Powell::default().with_max_iters(500).minimize_from(
            &p,
            &[-1.2, 1.0],
            200_000,
            &mut NoTrace,
        );
        assert!(r.value < 1e-5, "value = {}", r.value);
    }

    #[test]
    fn minimizes_kinked_objective() {
        // |x-1| + |y+2| has its minimum at a kink; Powell should still get close.
        let f = FnObjective::new(2, |x: &[f64]| (x[0] - 1.0).abs() + (x[1] + 2.0).abs());
        let p = Problem::new(&f, Bounds::symmetric(2, 50.0)).with_target(1e-9);
        let r = Powell::default().minimize_from(&p, &[20.0, -30.0], 50_000, &mut NoTrace);
        assert!(r.value < 1e-4, "value = {}", r.value);
    }

    #[test]
    fn stops_on_target() {
        let f = FnObjective::new(1, |x: &[f64]| (x[0] - 4.0).abs());
        let p = Problem::new(&f, Bounds::symmetric(1, 100.0)).with_target(0.0);
        let r = Powell::default().minimize_from(&p, &[50.0], 20_000, &mut NoTrace);
        assert!(r.value <= 1e-9);
    }

    #[test]
    fn global_interface_uses_random_start() {
        let f = FnObjective::new(2, sphere);
        let p = Problem::new(&f, Bounds::symmetric(2, 10.0)).with_max_evals(20_000);
        let r = Powell::default().minimize(&p, 7, &mut NoTrace);
        assert!(r.value < 1e-6, "value = {}", r.value);
        assert_eq!(Powell::default().backend_name(), "Powell");
    }

    #[test]
    fn respects_budget() {
        // The budget is soft: a line search in flight may overshoot by a few
        // evaluations, but the overall count stays close to the cap.
        let f = FnObjective::new(3, sphere);
        let p = Problem::new(&f, Bounds::symmetric(3, 10.0)).with_max_evals(100);
        let r = Powell::default().minimize_from(&p, &[1.0, 1.0, 1.0], 100, &mut NoTrace);
        assert!(r.evals <= 160, "evals = {}", r.evals);
    }
}
