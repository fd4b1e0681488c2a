//! Results returned by minimization backends.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a minimization run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Termination {
    /// The target value (typically 0 for a weak distance) was reached.
    TargetReached,
    /// The evaluation budget was exhausted.
    BudgetExhausted,
    /// The algorithm converged by its own criterion (simplex collapse,
    /// no improving direction, population convergence, ...).
    Converged,
    /// The configured number of iterations completed.
    IterationsCompleted,
    /// The run was cancelled externally (another portfolio arm found a
    /// zero first, a job was cancelled); the reported best is whatever was
    /// seen before the stop.
    Cancelled,
    /// The problem was rejected before any evaluation (e.g. a
    /// zero-dimensional objective).
    Invalid,
    /// Static analysis proved the target unreachable over the search domain
    /// before any evaluation was spent: the weak distance can never hit 0,
    /// so the run was pruned.
    StaticallyUnreachable,
}

impl Termination {
    /// Returns `true` when the run stopped because the target was reached.
    pub fn reached_target(self) -> bool {
        matches!(self, Termination::TargetReached)
    }
}

impl fmt::Display for Termination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Termination::TargetReached => "target reached",
            Termination::BudgetExhausted => "budget exhausted",
            Termination::Converged => "converged",
            Termination::IterationsCompleted => "iterations completed",
            Termination::Cancelled => "cancelled",
            Termination::Invalid => "invalid problem",
            Termination::StaticallyUnreachable => "statically unreachable",
        };
        f.write_str(s)
    }
}

/// The outcome of a minimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct MinimizeResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at the best point.
    pub value: f64,
    /// Number of objective evaluations spent.
    pub evals: usize,
    /// Why the run stopped.
    pub termination: Termination,
}

impl MinimizeResult {
    /// Creates a result.
    pub fn new(x: Vec<f64>, value: f64, evals: usize, termination: Termination) -> Self {
        MinimizeResult {
            x,
            value,
            evals,
            termination,
        }
    }

    /// Returns the better (smaller value, NaN-aware) of `self` and `other`,
    /// summing their evaluation counts.
    pub fn merge_best(self, other: MinimizeResult) -> MinimizeResult {
        let evals = self.evals + other.evals;
        let take_other = match (self.value.is_nan(), other.value.is_nan()) {
            (true, false) => true,
            (false, true) => false,
            _ => other.value < self.value,
        };
        let mut best = if take_other { other } else { self };
        best.evals = evals;
        best
    }
}

impl fmt::Display for MinimizeResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "f* = {:e} at {:?} ({} evals, {})",
            self.value, self.x, self.evals, self.termination
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_best_prefers_smaller_value() {
        let a = MinimizeResult::new(vec![1.0], 2.0, 10, Termination::Converged);
        let b = MinimizeResult::new(vec![2.0], 1.0, 20, Termination::BudgetExhausted);
        let m = a.clone().merge_best(b.clone());
        assert_eq!(m.value, 1.0);
        assert_eq!(m.x, vec![2.0]);
        assert_eq!(m.evals, 30);
        let m2 = b.merge_best(a);
        assert_eq!(m2.value, 1.0);
    }

    #[test]
    fn merge_best_avoids_nan() {
        let a = MinimizeResult::new(vec![1.0], f64::NAN, 5, Termination::Converged);
        let b = MinimizeResult::new(vec![2.0], 7.0, 5, Termination::Converged);
        assert_eq!(a.clone().merge_best(b.clone()).value, 7.0);
        assert_eq!(b.merge_best(a).value, 7.0);
    }

    #[test]
    fn termination_display_and_predicate() {
        assert!(Termination::TargetReached.reached_target());
        assert!(!Termination::Converged.reached_target());
        assert_eq!(Termination::BudgetExhausted.to_string(), "budget exhausted");
    }
}
