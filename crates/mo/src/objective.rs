//! Objective-function abstraction.

use std::sync::atomic::{AtomicU64, Ordering};

/// An objective function over `R^dim` (executed, never analysed — the MO
/// backends are black boxes in the sense of Section 4.1 of the paper).
///
/// Objectives are evaluated concurrently by the parallel engine (restart
/// shards and portfolio backends share one objective), hence the
/// `Send + Sync` bound: `eval` must be safe to call from several threads at
/// once.
pub trait Objective: Send + Sync {
    /// Input dimension `N`.
    fn dim(&self) -> usize;

    /// Evaluates the function at `x`.
    ///
    /// Implementations may return non-finite values; backends treat NaN as
    /// "worse than everything".
    fn eval(&self, x: &[f64]) -> f64;

    /// Evaluates the function at every point of `xs`, replacing the
    /// contents of `out` with one value per point (in order).
    ///
    /// This is the batched-evaluation seam: population backends (DiffEvo),
    /// random search and the chunked [`Evaluator`](crate::Evaluator) hand
    /// whole candidate groups to the objective in one call, so an
    /// implementation can amortize per-evaluation setup — or dispatch the
    /// batch to a SIMD/GPU kernel — as long as it returns **bit-identical**
    /// values to calling [`Objective::eval`] once per point, which is what
    /// the default scalar-loop implementation does and what the batch
    /// equivalence tests assert.
    fn eval_batch(&self, xs: &[Vec<f64>], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(xs.len());
        for x in xs {
            out.push(self.eval(x));
        }
    }
}

/// An [`Objective`] built from a closure.
///
/// # Example
///
/// ```
/// use wdm_mo::{FnObjective, Objective};
/// let sphere = FnObjective::new(2, |x: &[f64]| x[0] * x[0] + x[1] * x[1]);
/// assert_eq!(sphere.dim(), 2);
/// assert_eq!(sphere.eval(&[3.0, 4.0]), 25.0);
/// ```
pub struct FnObjective<F> {
    dim: usize,
    f: F,
}

impl<F> FnObjective<F>
where
    F: Fn(&[f64]) -> f64 + Send + Sync,
{
    /// Wraps a closure of the given input dimension.
    pub fn new(dim: usize, f: F) -> Self {
        FnObjective { dim, f }
    }
}

impl<F> Objective for FnObjective<F>
where
    F: Fn(&[f64]) -> f64 + Send + Sync,
{
    fn dim(&self) -> usize {
        self.dim
    }

    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim);
        (self.f)(x)
    }
}

impl<F> std::fmt::Debug for FnObjective<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnObjective")
            .field("dim", &self.dim)
            .finish_non_exhaustive()
    }
}

/// Wraps another objective and counts evaluations.
///
/// The experiment harness uses this to report the sample counts of Section 6
/// (e.g. the 6 365 201 samples of the GNU `sin` study).
///
/// # Example
///
/// ```
/// use wdm_mo::{CountingObjective, FnObjective, Objective};
/// let f = FnObjective::new(1, |x: &[f64]| x[0].abs());
/// let counted = CountingObjective::new(&f);
/// counted.eval(&[1.0]);
/// counted.eval(&[2.0]);
/// assert_eq!(counted.count(), 2);
/// ```
pub struct CountingObjective<'a> {
    inner: &'a dyn Objective,
    count: AtomicU64,
}

impl<'a> CountingObjective<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn Objective) -> Self {
        CountingObjective {
            inner,
            count: AtomicU64::new(0),
        }
    }

    /// Number of evaluations performed through this wrapper.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Resets the evaluation counter.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
    }
}

impl Objective for CountingObjective<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.eval(x)
    }

    fn eval_batch(&self, xs: &[Vec<f64>], out: &mut Vec<f64>) {
        self.count.fetch_add(xs.len() as u64, Ordering::Relaxed);
        self.inner.eval_batch(xs, out);
    }
}

impl std::fmt::Debug for CountingObjective<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountingObjective")
            .field("dim", &self.inner.dim())
            .field("count", &self.count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_objective_evaluates_closure() {
        let f = FnObjective::new(3, |x: &[f64]| x.iter().sum());
        assert_eq!(f.dim(), 3);
        assert_eq!(f.eval(&[1.0, 2.0, 3.0]), 6.0);
    }

    #[test]
    fn default_eval_batch_matches_scalar_loop() {
        let f = FnObjective::new(2, |x: &[f64]| x[0] * 3.0 - x[1]);
        let xs: Vec<Vec<f64>> = (0..17).map(|i| vec![i as f64, 0.5 * i as f64]).collect();
        let mut out = vec![999.0]; // stale contents must be replaced
        f.eval_batch(&xs, &mut out);
        let scalar: Vec<f64> = xs.iter().map(|x| f.eval(x)).collect();
        assert_eq!(out, scalar);
    }

    #[test]
    fn counting_objective_counts_batches() {
        let f = FnObjective::new(1, |x: &[f64]| x[0]);
        let c = CountingObjective::new(&f);
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let mut out = Vec::new();
        c.eval_batch(&xs, &mut out);
        assert_eq!(c.count(), 5);
        assert_eq!(out, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn counting_objective_counts_and_resets() {
        let f = FnObjective::new(1, |x: &[f64]| -x[0]);
        let c = CountingObjective::new(&f);
        assert_eq!(c.count(), 0);
        assert_eq!(c.eval(&[2.0]), -2.0);
        assert_eq!(c.eval(&[5.0]), -5.0);
        assert_eq!(c.count(), 2);
        c.reset();
        assert_eq!(c.count(), 0);
        assert_eq!(c.dim(), 1);
    }
}
