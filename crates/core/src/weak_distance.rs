//! The weak-distance abstraction (Definition 3.1).

use fp_runtime::{Analyzable, BatchExecutor, Interval, ObservationSpec, Observer, OptPolicy};
use std::sync::OnceLock;
use wdm_mo::Objective;

/// How many inputs the analysis instances hand to
/// [`BatchExecutor::execute_many`] at once. One fpir kernel wave
/// (`fpir::kernel::WAVE_LANES`), so the lanewise backend always runs full
/// waves while the per-chunk observer storage stays small enough to be
/// cache-hot for cheap scalar-session programs.
const OBSERVER_CHUNK: usize = 256;

/// Runs every input of `xs` through `session` with a fresh observer each
/// (built by `make`), folding each finished observer into the weak-distance
/// value with `fold`. Inputs are fed in [`OBSERVER_CHUNK`]-sized groups;
/// per-input results and events are bit-identical to looping
/// [`BatchExecutor::execute_one`] whatever the chunking.
pub(crate) fn batch_observed<O: Observer>(
    session: &mut dyn BatchExecutor,
    xs: &[Vec<f64>],
    mut make: impl FnMut() -> O,
    mut fold: impl FnMut(O) -> f64,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.reserve(xs.len());
    let mut observers: Vec<O> = Vec::with_capacity(OBSERVER_CHUNK.min(xs.len()));
    let mut results = Vec::new();
    for chunk in xs.chunks(OBSERVER_CHUNK) {
        observers.clear();
        observers.extend(chunk.iter().map(|_| make()));
        let mut refs: Vec<&mut dyn Observer> = observers
            .iter_mut()
            .map(|o| o as &mut dyn Observer)
            .collect();
        session.execute_many(chunk, &mut refs, &mut results);
        out.extend(observers.drain(..).map(&mut fold));
    }
}

/// Lazily specializes a program against an analysis target's
/// [`ObservationSpec`] under an [`OptPolicy`], holding the resolved program
/// for the lifetime of the weak distance, so evaluations take no lock.
///
/// The first evaluation triggers [`Analyzable::specialize`]; every later
/// one reuses the outcome — either the translation-validated specialized
/// program or the original (when the policy forbids specialization, the
/// program has no optimizing backend, or validation rejected the rewrite).
/// Cloning a cache produces a fresh, unfilled one with the same policy, so
/// derived analyses re-specialize against their own target.
///
/// The work behind that first call is done once per (program, spec), not
/// once per cache: an `fpir` `ModuleProgram` memoizes its validated
/// specializations, so a cache filled for a spec the program has seen
/// before gets a program sharing the specialized module and its static
/// analysis, without re-running the pipeline or its validation.
pub struct SpecializationCache {
    policy: OptPolicy,
    cell: OnceLock<Option<Box<dyn Analyzable>>>,
}

impl SpecializationCache {
    /// An empty cache with the given policy.
    pub fn new(policy: OptPolicy) -> Self {
        SpecializationCache {
            policy,
            cell: OnceLock::new(),
        }
    }

    /// The policy this cache specializes under.
    pub fn policy(&self) -> OptPolicy {
        self.policy
    }

    /// The program evaluations should run: the specialized variant when one
    /// exists, `program` otherwise. `spec` builds the target's observation
    /// spec; it runs only on the first call, so later evaluations never
    /// rebuild (or allocate) it.
    pub fn specialized<'a>(
        &'a self,
        program: &'a dyn Analyzable,
        spec: impl FnOnce() -> ObservationSpec,
    ) -> &'a dyn Analyzable {
        match self
            .cell
            .get_or_init(|| program.specialize(&spec(), self.policy))
        {
            Some(p) => &**p,
            None => program,
        }
    }

    /// Whether the cache resolved to a specialized program (i.e. at least
    /// one evaluation happened and specialization succeeded).
    pub fn is_specialized(&self) -> bool {
        matches!(self.cell.get(), Some(Some(_)))
    }
}

impl Clone for SpecializationCache {
    fn clone(&self) -> Self {
        SpecializationCache::new(self.policy)
    }
}

impl Default for SpecializationCache {
    fn default() -> Self {
        SpecializationCache::new(OptPolicy::default())
    }
}

impl std::fmt::Debug for SpecializationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecializationCache")
            .field("policy", &self.policy)
            .field("specialized", &self.is_specialized())
            .finish()
    }
}

/// A weak distance of a floating-point analysis problem ⟨Prog; S⟩:
/// a program `W : dom(Prog) → F` such that
///
/// 1. `W(x) >= 0` for every input,
/// 2. `W(x) = 0` implies `x ∈ S`, and
/// 3. `x ∈ S` implies `W(x) = 0`.
///
/// By Theorem 3.3, minimizing any such `W` solves the analysis problem.
/// Implementations in this crate evaluate `W` by *executing* the program
/// under analysis with an observer that folds the runtime events into `w` —
/// never by reasoning about the program text.
///
/// Weak distances are shared across worker threads by the parallel driver
/// (restart shards and portfolio backends evaluate the same `W`
/// concurrently), hence the `Send + Sync` bound: `eval` must tolerate
/// concurrent calls. The standard construction — build a fresh observer,
/// run the program, fold events — is naturally safe.
pub trait WeakDistance: Send + Sync {
    /// Number of program inputs `N`.
    fn dim(&self) -> usize;

    /// Search box used to sample optimization starting points.
    fn domain(&self) -> Vec<Interval>;

    /// Evaluates the weak distance at `x`.
    fn eval(&self, x: &[f64]) -> f64;

    /// Evaluates the weak distance at every point of `xs`, replacing the
    /// contents of `out` with one value per point (in order).
    ///
    /// The default is a scalar loop over [`WeakDistance::eval`]; the
    /// analysis instances override it to run the whole batch through one
    /// [`fp_runtime::BatchExecutor`] of the program under analysis, which
    /// amortizes per-execution setup (the `fpir` interpreter reuses its
    /// register frames and globals buffer across the batch). Overrides must
    /// return **bit-identical** values to the scalar loop — each input
    /// still gets its own fresh observer.
    fn eval_batch(&self, xs: &[Vec<f64>], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(xs.len());
        for x in xs {
            out.push(self.eval(x));
        }
    }

    /// A short description for reports.
    fn description(&self) -> String {
        "weak distance".to_string()
    }

    /// Checks the nonnegativity axiom (Definition 3.1(a)) on a set of sample
    /// points; returns the first violating input, if any. Used by tests and
    /// by the analysis designer as a cheap sanity check.
    fn check_nonnegative<'a, I>(&self, samples: I) -> Option<Vec<f64>>
    where
        Self: Sized,
        I: IntoIterator<Item = &'a [f64]>,
    {
        for x in samples {
            let v = self.eval(x);
            if v < 0.0 {
                return Some(x.to_vec());
            }
        }
        None
    }
}

/// Adapts a [`WeakDistance`] to the [`wdm_mo::Objective`] interface expected
/// by the optimization backends.
pub struct WeakDistanceObjective<'a> {
    inner: &'a dyn WeakDistance,
}

impl<'a> WeakDistanceObjective<'a> {
    /// Wraps a weak distance.
    pub fn new(inner: &'a dyn WeakDistance) -> Self {
        WeakDistanceObjective { inner }
    }

    /// The bounds corresponding to the weak distance's domain.
    pub fn bounds(&self) -> wdm_mo::Bounds {
        wdm_mo::Bounds::new(
            self.inner
                .domain()
                .iter()
                .map(|iv| (iv.lo(), iv.hi()))
                .collect(),
        )
    }
}

impl Objective for WeakDistanceObjective<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        self.inner.eval(x)
    }

    fn eval_batch(&self, xs: &[Vec<f64>], out: &mut Vec<f64>) {
        self.inner.eval_batch(xs, out);
    }
}

impl std::fmt::Debug for WeakDistanceObjective<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeakDistanceObjective")
            .field("description", &self.inner.description())
            .finish()
    }
}

/// A weak distance defined by a closure, useful for tests and for the
/// "Analysis Designer" layer when prototyping new instances.
pub struct FnWeakDistance<F> {
    dim: usize,
    domain: Vec<Interval>,
    f: F,
    description: String,
}

impl<F> FnWeakDistance<F>
where
    F: Fn(&[f64]) -> f64 + Send + Sync,
{
    /// Creates a closure-backed weak distance.
    pub fn new(dim: usize, domain: Vec<Interval>, f: F) -> Self {
        assert_eq!(domain.len(), dim, "domain arity mismatch");
        FnWeakDistance {
            dim,
            domain,
            f,
            description: "closure weak distance".to_string(),
        }
    }

    /// Sets the description.
    pub fn with_description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }
}

impl<F> WeakDistance for FnWeakDistance<F>
where
    F: Fn(&[f64]) -> f64 + Send + Sync,
{
    fn dim(&self) -> usize {
        self.dim
    }

    fn domain(&self) -> Vec<Interval> {
        self.domain.clone()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        (self.f)(x)
    }

    fn description(&self) -> String {
        self.description.clone()
    }
}

impl<F> std::fmt::Debug for FnWeakDistance<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnWeakDistance")
            .field("dim", &self.dim)
            .field("description", &self.description)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abs_wd() -> impl WeakDistance {
        FnWeakDistance::new(1, vec![Interval::symmetric(10.0)], |x: &[f64]| {
            (x[0] - 2.0).abs()
        })
        .with_description("|x - 2|")
    }

    #[test]
    fn closure_weak_distance_basics() {
        let wd = abs_wd();
        assert_eq!(wd.dim(), 1);
        assert_eq!(wd.eval(&[2.0]), 0.0);
        assert_eq!(wd.eval(&[5.0]), 3.0);
        assert_eq!(wd.description(), "|x - 2|");
        assert_eq!(wd.domain().len(), 1);
    }

    #[test]
    fn nonnegativity_check_finds_violations() {
        let wd = abs_wd();
        let a = [0.0_f64];
        let b = [7.0_f64];
        assert_eq!(wd.check_nonnegative([&a[..], &b[..]]), None);

        let bad = FnWeakDistance::new(1, vec![Interval::symmetric(1.0)], |x: &[f64]| x[0]);
        let neg = [-0.5_f64];
        assert_eq!(bad.check_nonnegative([&neg[..]]), Some(vec![-0.5]));
    }

    #[test]
    fn objective_adapter_exposes_bounds() {
        let wd = abs_wd();
        let obj = WeakDistanceObjective::new(&wd);
        assert_eq!(Objective::dim(&obj), 1);
        assert_eq!(Objective::eval(&obj, &[2.0]), 0.0);
        assert_eq!(obj.bounds().limit(0), (-10.0, 10.0));
    }

    #[test]
    fn default_eval_batch_and_adapter_forwarding_match_scalar() {
        let wd = abs_wd();
        let xs: Vec<Vec<f64>> = (0..33).map(|i| vec![i as f64 * 0.3 - 5.0]).collect();
        let mut direct = Vec::new();
        wd.eval_batch(&xs, &mut direct);
        let obj = WeakDistanceObjective::new(&wd);
        let mut via_adapter = vec![f64::NAN]; // stale contents must be replaced
        Objective::eval_batch(&obj, &xs, &mut via_adapter);
        let scalar: Vec<f64> = xs.iter().map(|x| wd.eval(x)).collect();
        assert_eq!(direct, scalar);
        assert_eq!(via_adapter, scalar);
    }
}
