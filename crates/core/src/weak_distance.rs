//! The weak-distance abstraction (Definition 3.1), and
//! [`ObservedWeakDistance`], the construction the analysis instances share.

use crate::driver::AnalysisConfig;
use fp_runtime::{Analyzable, Interval, KernelPolicy, Observer, OptPolicy};
use std::sync::OnceLock;
use wdm_mo::Objective;

pub(crate) use target::Target;

/// How many inputs an [`ObservedWeakDistance`] batch hands to
/// [`fp_runtime::BatchExecutor::execute_many`] at once. One fpir kernel
/// wave (`fpir::kernel::WAVE_LANES`), so the lanewise backend always runs
/// full waves while the per-chunk observer storage stays small enough to
/// be cache-hot for cheap scalar-session programs.
const OBSERVER_CHUNK: usize = 256;

mod target {
    use fp_runtime::{ObservationSpec, Observer};

    /// What one analysis instance observes and how it folds the
    /// observations into `w` — the only part of an `ObservedWeakDistance`
    /// that differs between boundary, path, overflow and coverage.
    pub trait Target: Send + Sync {
        /// The per-execution observer folding runtime events into `w`.
        type Observer<'t>: Observer
        where
            Self: 't;

        /// The events the observer reads: the spec the program is
        /// specialized against.
        fn spec(&self) -> ObservationSpec;

        /// A fresh observer for one execution.
        fn observer(&self) -> Self::Observer<'_>;

        /// The weak-distance value of one finished execution.
        fn value(&self, observer: Self::Observer<'_>) -> f64;

        /// The report description of this target's weak distance of the
        /// program named `program`.
        fn describe(&self, program: &str) -> String;
    }
}

/// A weak distance evaluated by *executing* the program under analysis with
/// an observer that folds its runtime events into `w`: the construction
/// shared by boundary (Fig. 3), path (Fig. 4), overflow (Algorithm 3) and
/// coverage analysis. Only the target `T` differs between them — what is
/// observed, a fresh observer, the value of a finished one, and the
/// description; see [`BoundaryWeakDistance`], [`PathWeakDistance`],
/// [`OverflowWeakDistance`] and [`CoverageWeakDistance`].
///
/// The program is resolved lazily: the first evaluation asks
/// [`Analyzable::specialize`] for a variant specialized against what the
/// target observes, under the [`OptPolicy`], and every later evaluation
/// runs that outcome without taking a lock — the translation-validated
/// specialized program, or the original when the policy forbids one, the
/// program has no optimizing backend, or validation rejected the rewrite.
/// An `fpir` `ModuleProgram` memoizes its validated specializations, so
/// resolving against a spec the program has seen before re-runs neither
/// the pipeline nor its validation. A clone starts unresolved, and so does
/// a weak distance whose target or opt policy changed.
///
/// [`BoundaryWeakDistance`]: crate::boundary::BoundaryWeakDistance
/// [`PathWeakDistance`]: crate::path::PathWeakDistance
/// [`OverflowWeakDistance`]: crate::overflow::OverflowWeakDistance
/// [`CoverageWeakDistance`]: crate::coverage::CoverageWeakDistance
pub struct ObservedWeakDistance<P, T> {
    program: P,
    target: T,
    kernel_policy: KernelPolicy,
    opt_policy: OptPolicy,
    resolved: OnceLock<Option<Box<dyn Analyzable>>>,
}

impl<P, T> ObservedWeakDistance<P, T> {
    /// The weak distance of `program` for `target`, under the default
    /// kernel and opt policies.
    pub(crate) fn observing(program: P, target: T) -> Self {
        ObservedWeakDistance {
            program,
            target,
            kernel_policy: KernelPolicy::Auto,
            opt_policy: OptPolicy::default(),
            resolved: OnceLock::new(),
        }
    }

    /// The weak distance an analysis minimizes under `config`: its kernel
    /// and opt policies.
    pub(crate) fn configured(program: P, target: T, config: &AnalysisConfig) -> Self {
        Self::observing(program, target)
            .with_kernel_policy(config.kernel_policy)
            .with_opt_policy(config.opt_policy)
    }

    /// Replaces the target; the program is resolved again for it.
    pub(crate) fn with_target(mut self, target: T) -> Self {
        self.target = target;
        self.resolved = OnceLock::new();
        self
    }

    /// Selects the batch backend ([`KernelPolicy::Auto`] by default).
    /// Never changes values — only which bit-identical backend computes
    /// them.
    pub fn with_kernel_policy(mut self, kernel_policy: KernelPolicy) -> Self {
        self.kernel_policy = kernel_policy;
        self
    }

    /// Selects whether evaluations may run a target-specialized
    /// (translation-validated) variant of the program
    /// ([`OptPolicy::Auto`] by default). Never changes values — the
    /// observer sees a bit-identical event stream either way.
    pub fn with_opt_policy(mut self, opt_policy: OptPolicy) -> Self {
        self.opt_policy = opt_policy;
        self.resolved = OnceLock::new();
        self
    }

    /// The program under analysis.
    pub fn program(&self) -> &P {
        &self.program
    }
}

impl<P: Analyzable, T: Target> ObservedWeakDistance<P, T> {
    /// The program evaluations run, resolved on the first call.
    fn resolved(&self) -> &dyn Analyzable {
        let specialize = || {
            self.program
                .specialize(&self.target.spec(), self.opt_policy)
        };
        match self.resolved.get_or_init(specialize) {
            Some(p) => &**p,
            None => &self.program,
        }
    }

    /// Runs the program on `x` under a fresh observer and returns the
    /// finished observer.
    pub(crate) fn observe(&self, x: &[f64]) -> T::Observer<'_> {
        let mut observer = self.target.observer();
        self.resolved().run(x, &mut observer);
        observer
    }
}

impl<P: Analyzable, T: Target> WeakDistance for ObservedWeakDistance<P, T> {
    fn dim(&self) -> usize {
        self.program.num_inputs()
    }

    fn domain(&self) -> Vec<Interval> {
        self.program.search_domain()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        self.target.value(self.observe(x))
    }

    /// Runs the whole batch through one [`fp_runtime::BatchExecutor`] of
    /// the resolved program, 256 inputs (one fpir kernel wave) at a time,
    /// with a fresh observer per input: per-input results and events are
    /// bit-identical to looping [`fp_runtime::BatchExecutor::execute_one`]
    /// whatever the chunking.
    fn eval_batch(&self, xs: &[Vec<f64>], out: &mut Vec<f64>) {
        let mut session = self.resolved().batch_executor(self.kernel_policy);
        out.clear();
        out.reserve(xs.len());
        let mut observers = Vec::with_capacity(OBSERVER_CHUNK.min(xs.len()));
        let mut results = Vec::new();
        for chunk in xs.chunks(OBSERVER_CHUNK) {
            observers.clear();
            observers.extend(chunk.iter().map(|_| self.target.observer()));
            let mut refs: Vec<&mut dyn Observer> = observers
                .iter_mut()
                .map(|o| o as &mut dyn Observer)
                .collect();
            session.execute_many(chunk, &mut refs, &mut results);
            out.extend(observers.drain(..).map(|o| self.target.value(o)));
        }
    }

    fn description(&self) -> String {
        self.target.describe(self.program.name())
    }
}

impl<P: Clone, T: Clone> Clone for ObservedWeakDistance<P, T> {
    fn clone(&self) -> Self {
        ObservedWeakDistance {
            program: self.program.clone(),
            target: self.target.clone(),
            kernel_policy: self.kernel_policy,
            opt_policy: self.opt_policy,
            resolved: OnceLock::new(),
        }
    }
}

impl<P: std::fmt::Debug, T: std::fmt::Debug> std::fmt::Debug for ObservedWeakDistance<P, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObservedWeakDistance")
            .field("program", &self.program)
            .field("target", &self.target)
            .field("kernel_policy", &self.kernel_policy)
            .field("opt_policy", &self.opt_policy)
            .finish_non_exhaustive()
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
    /// amortizes per-execution work (the `fpir` kernel runs the batch in
    /// lockstep). Overrides must
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
