//! Mathematical-optimization backends for weak-distance minimization.
//!
//! The paper treats mathematical optimization (MO) as an off-the-shelf
//! black-box: any algorithm that, given an objective function, produces a
//! sampling sequence and (hopefully) a global minimum point can be plugged
//! into the reduction (Section 4.1). The original implementation used three
//! SciPy backends; this crate provides pure-Rust equivalents:
//!
//! * [`BasinHopping`] — Monte-Carlo over local minimum points with a
//!   Metropolis acceptance rule (Li & Scheraga 1987, Wales & Doye 1998), the
//!   paper's default backend;
//! * [`DifferentialEvolution`] — Storn's rand/1/bin evolutionary strategy;
//! * [`Powell`] — Powell's derivative-free conjugate-direction method with a
//!   Brent line search;
//! * [`NelderMead`] — the downhill-simplex local search used inside
//!   basin hopping;
//! * [`MultiStart`] and [`RandomSearch`] — baselines.
//!
//! Every backend implements [`GlobalMinimizer`]; local searches additionally
//! implement [`LocalMinimizer`]. All of them record their sampling sequence
//! through a [`SampleSink`], which is how the paper's Figures 3(c), 4(c) and
//! 9 are regenerated.
//!
//! The global backends are additionally *resumable*: [`SteppedMinimizer`]
//! runs them in fixed eval-budget slices carrying their full
//! RNG/population/incumbent state across slices (see [`stepped`]), which is
//! the seam the adaptive portfolio scheduler reallocates budget through. A
//! run sliced any way is bit-identical to the unsliced run.
//!
//! # Example
//!
//! ```
//! use wdm_mo::{BasinHopping, Bounds, FnObjective, GlobalMinimizer, NoTrace, Problem};
//!
//! // Minimize |x - 3| over [-10, 10]; the weak distances of the paper have
//! // exactly this piecewise-smooth, nonnegative shape.
//! let f = FnObjective::new(1, |x: &[f64]| (x[0] - 3.0).abs());
//! let problem = Problem::new(&f, Bounds::symmetric(1, 10.0)).with_target(0.0);
//! let result = BasinHopping::default().minimize(&problem, 42, &mut NoTrace);
//! assert!(result.value < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basinhopping;
pub mod bounds;
pub mod brent;
pub mod checkpoint;
pub mod diffevo;
pub mod evaluator;
pub mod multistart;
pub mod nelder_mead;
pub mod objective;
pub mod parallel;
pub mod powell;
pub mod random_search;
pub mod result;
pub mod sampling;
pub mod stepped;
pub mod test_functions;
pub mod ulp;

pub use basinhopping::BasinHopping;
pub use bounds::Bounds;
pub use checkpoint::StepCheckpoint;
pub use diffevo::DifferentialEvolution;
pub use evaluator::Evaluator;
pub use fp_runtime::CancelToken;
pub use multistart::MultiStart;
pub use nelder_mead::NelderMead;
pub use objective::{CountingObjective, FnObjective, Objective};
pub use parallel::scoped_map;
pub use powell::Powell;
pub use random_search::RandomSearch;
pub use result::{MinimizeResult, Termination};
pub use sampling::{NoTrace, Sample, SampleSink, SamplingTrace};
pub use stepped::{MinimizerStep, StepStatus, SteppedMinimizer};
pub use ulp::UlpSearch;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A minimization problem handed to a backend: objective, bounds, and
/// stopping knobs.
pub struct Problem<'a> {
    /// The objective function to minimize.
    pub objective: &'a dyn Objective,
    /// Box constraints / sampling region.
    pub bounds: Bounds,
    /// Stop as soon as a value `<= target` is found (weak distances use 0).
    pub target: Option<f64>,
    /// Hard cap on objective evaluations.
    pub max_evals: usize,
    /// Cooperative cancellation, checked at every objective evaluation. The
    /// parallel engine uses it to stop losing shards/backends early.
    pub cancel: CancelToken,
}

impl<'a> Problem<'a> {
    /// Creates a problem with a default budget of 200 000 evaluations and no
    /// target value.
    ///
    /// # Panics
    ///
    /// Panics if the bounds dimension differs from the objective dimension.
    pub fn new(objective: &'a dyn Objective, bounds: Bounds) -> Self {
        assert_eq!(
            objective.dim(),
            bounds.dim(),
            "bounds dimension must match objective dimension"
        );
        Problem {
            objective,
            bounds,
            target: None,
            max_evals: 200_000,
            cancel: CancelToken::new(),
        }
    }

    /// Sets the target value at which the search stops early.
    pub fn with_target(mut self, target: f64) -> Self {
        self.target = Some(target);
        self
    }

    /// Sets the evaluation budget.
    pub fn with_max_evals(mut self, max_evals: usize) -> Self {
        self.max_evals = max_evals;
        self
    }

    /// Shares a cancellation token with this problem.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Returns `true` if `value` reaches the target.
    pub fn target_reached(&self, value: f64) -> bool {
        match self.target {
            Some(t) => value <= t,
            None => false,
        }
    }

    /// Returns `true` once the run has been cancelled externally.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }
}

impl std::fmt::Debug for Problem<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Problem")
            .field("dim", &self.objective.dim())
            .field("bounds", &self.bounds)
            .field("target", &self.target)
            .field("max_evals", &self.max_evals)
            .finish()
    }
}

/// A global minimization backend.
///
/// Backends are deterministic given the same `seed`, which the experiment
/// harness relies on for reproducibility. Backends are stateless between
/// runs (`Send + Sync`), so the parallel engine can share one instance
/// across worker threads.
pub trait GlobalMinimizer: Send + Sync {
    /// Minimizes the problem, recording every objective evaluation in `sink`.
    fn minimize(
        &self,
        problem: &Problem<'_>,
        seed: u64,
        sink: &mut dyn SampleSink,
    ) -> MinimizeResult;

    /// A short backend name for reports ("Basinhopping", "Powell", ...).
    fn backend_name(&self) -> &'static str;
}

/// A local minimization routine that refines a given starting point.
pub trait LocalMinimizer {
    /// Minimizes starting from `x0`, spending at most `max_evals`
    /// evaluations, recording samples in `sink`.
    fn minimize_from(
        &self,
        problem: &Problem<'_>,
        x0: &[f64],
        max_evals: usize,
        sink: &mut dyn SampleSink,
    ) -> MinimizeResult;
}

/// Creates the deterministic RNG used by every backend.
pub(crate) fn rng_from_seed(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Rejects degenerate problems a backend cannot run (zero-dimensional
/// objectives): sampling and simplex construction assume at least one
/// coordinate, and the incumbent bookkeeping would otherwise index an empty
/// point. Returns the clean `Termination::Invalid` result to report.
pub(crate) fn reject_invalid(problem: &Problem<'_>) -> Option<MinimizeResult> {
    if problem.objective.dim() == 0 {
        Some(MinimizeResult::new(
            Vec::new(),
            f64::INFINITY,
            0,
            Termination::Invalid,
        ))
    } else {
        None
    }
}

/// Total-order comparison where NaN is worse than everything.
pub(crate) fn better(a: f64, b: f64) -> bool {
    match (a.is_nan(), b.is_nan()) {
        (true, _) => false,
        (false, true) => true,
        (false, false) => a < b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn better_treats_nan_as_worst() {
        assert!(better(1.0, 2.0));
        assert!(!better(2.0, 1.0));
        assert!(better(1.0, f64::NAN));
        assert!(!better(f64::NAN, 1.0));
        assert!(!better(f64::NAN, f64::NAN));
    }

    #[test]
    fn problem_target_logic() {
        let f = FnObjective::new(1, |x: &[f64]| x[0]);
        let p = Problem::new(&f, Bounds::symmetric(1, 1.0)).with_target(0.0);
        assert!(p.target_reached(0.0));
        assert!(p.target_reached(-1.0));
        assert!(!p.target_reached(0.5));
        let q = Problem::new(&f, Bounds::symmetric(1, 1.0));
        assert!(!q.target_reached(0.0));
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn problem_rejects_mismatched_bounds() {
        let f = FnObjective::new(2, |x: &[f64]| x[0] + x[1]);
        let _ = Problem::new(&f, Bounds::symmetric(1, 1.0));
    }
}
