//! The [`Analyzable`] trait: the interface every program under analysis
//! exposes to the weak-distance analyses.
//!
//! This is the "Client layer" contract of the paper's implementation
//! architecture (Section 5.1): the client provides a program whose input
//! domain is `F^N` together with the static lists of its floating-point
//! operation sites and branch sites, and a way to execute it while reporting
//! runtime events.

use crate::event::{BranchId, BranchSite, OpId, OpSite};
use crate::interval::Interval;
use crate::probe::Ctx;
use crate::recorder::Observer;
use std::collections::BTreeSet;

/// What a static analysis can prove about whether a runtime target (a
/// branch direction, a branch boundary, an operation site) can occur.
///
/// The contract is asymmetric, matching what sound over-approximation can
/// deliver: [`Reachability::Unreachable`] is a **proof** that no execution
/// over the program's search domain produces the target, and analyses may
/// short-circuit work on its strength; [`Reachability::Reachable`] is a
/// proof that some execution does; [`Reachability::Unknown`] (the default
/// for every program without a static analysis) commits to nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reachability {
    /// Some in-domain execution provably produces the target.
    Reachable,
    /// No in-domain execution can produce the target; weak distances may
    /// prune minimization of this target without evaluating anything.
    Unreachable,
    /// The analysis cannot decide (or no analysis ran). Treat as possibly
    /// reachable.
    #[default]
    Unknown,
}

impl Reachability {
    /// True exactly for [`Reachability::Unreachable`].
    pub fn is_unreachable(self) -> bool {
        matches!(self, Reachability::Unreachable)
    }
}

/// Selects the execution backend a program's [`Analyzable::batch_executor`]
/// hands out for batched evaluation.
///
/// Programs that have a vectorized (lanewise SIMD-style) kernel backend —
/// today the `fpir` interpreter's structure-of-arrays kernel — use the
/// policy to decide between it and the plain per-input session. Programs
/// without one (hand-instrumented Rust ports, closures) ignore the policy.
/// Every backend is required to produce **bit-identical** results and
/// events, so the policy only ever changes throughput, never outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// Use the kernel backend when the program supports lanewise
    /// specialization, the per-input session otherwise. The default.
    #[default]
    Auto,
    /// Always hand out the kernel backend; programs it cannot specialize
    /// run their scalar fallback inside the kernel session.
    Always,
    /// Never use the kernel backend, even when available. Useful as the
    /// reference side of equivalence tests and benchmarks.
    Never,
}

/// Selects whether a program may hand out a target-specialized (optimized)
/// variant of itself through [`Analyzable::specialize`].
///
/// Programs with an optimizing backend — today the `fpir` interpreter's
/// `opt` pass pipeline — use the policy to decide whether a
/// translation-validated, observation-preserving rewrite of the module
/// replaces the original for evaluation. Programs without one (hand
/// instrumented Rust ports, closures) ignore the policy. Every specialized
/// variant is required to produce **bit-identical** observed semantics
/// (retained events, results), so the policy only ever changes per-eval
/// cost, never outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptPolicy {
    /// Specialize when the program supports it, translation validation
    /// passes, and the rewrite actually removed work. The default.
    #[default]
    Auto,
    /// Keep the specialized variant whenever validation passes, even when
    /// the rewrite removed nothing (useful for exercising the seam).
    Always,
    /// Never specialize. Useful as the reference side of equivalence tests
    /// and benchmarks.
    Never,
}

/// A set of static site identifiers, in a form that can also describe the
/// open-ended "everything except these" sets observers use.
///
/// Raw `u32` indices are used so one set type serves both
/// [`OpId`] and [`BranchId`] sites.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SiteSet {
    /// Every site.
    All,
    /// Exactly these sites.
    Only(BTreeSet<u32>),
    /// Every site except these (e.g. overflow detection observes every
    /// operation site not yet handled, module-wide).
    Except(BTreeSet<u32>),
}

impl SiteSet {
    /// The empty set.
    pub fn none() -> Self {
        SiteSet::Only(BTreeSet::new())
    }

    /// True if `id` is a member of the set.
    pub fn contains(&self, id: u32) -> bool {
        match self {
            SiteSet::All => true,
            SiteSet::Only(set) => set.contains(&id),
            SiteSet::Except(set) => !set.contains(&id),
        }
    }
}

/// What a weak-distance target actually observes about executions of a
/// program: which event sites it folds over, and whether it reads the
/// program's global cells after a run.
///
/// [`Analyzable::specialize`] receives this spec and may drop any event or
/// computation **outside** the observation set, as long as everything inside
/// it — the retained events (payloads and order) and the stop behavior they
/// induce, plus the returned value and final globals when observed — stays
/// bit-identical.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObservationSpec {
    /// The branch sites whose events are observed.
    pub branches: SiteSet,
    /// The operation sites whose events are observed.
    pub ops: SiteSet,
    /// Whether the entry function's returned value is observed. The
    /// event-folding weak distances never read it — their value lives
    /// entirely in the observer — which is what lets specialization slice
    /// away the return-value computation.
    pub return_value: bool,
    /// Whether final global-cell values are observed after a run.
    pub globals: bool,
}

impl ObservationSpec {
    /// Observes every event, the returned value and the globals: the
    /// identity spec, under which specialization may only remove provably
    /// dead computation.
    pub fn everything() -> Self {
        ObservationSpec {
            branches: SiteSet::All,
            ops: SiteSet::All,
            return_value: true,
            globals: true,
        }
    }

    /// Observes only the given branch sites (no operation events, no return
    /// value, no globals) — the shape of boundary, path and coverage
    /// targets.
    pub fn branches(branches: SiteSet) -> Self {
        ObservationSpec {
            branches,
            ops: SiteSet::none(),
            return_value: false,
            globals: false,
        }
    }

    /// Observes only the given operation sites (no branch events, no return
    /// value, no globals) — the shape of overflow targets.
    pub fn ops(ops: SiteSet) -> Self {
        ObservationSpec {
            branches: SiteSet::none(),
            ops,
            return_value: false,
            globals: false,
        }
    }
}

/// A floating-point program with input domain `F^N` that can be executed
/// under observation.
///
/// Implementations exist for hand-instrumented Rust ports (`mini-gsl`) and
/// for interpreted IR programs (`fpir`). Analyses never look at the program
/// text; they only run it and observe events — exactly the black-box
/// treatment the paper relies on.
///
/// Programs are executed concurrently by the parallel engine (restart
/// shards, backend portfolios and campaign workers all run the same program
/// at once), so `execute` must be callable from several threads — hence the
/// `Send + Sync` bound. Per-execution state belongs in the [`Observer`],
/// which each evaluation creates afresh.
pub trait Analyzable: Send + Sync {
    /// A short human-readable name (used in reports).
    fn name(&self) -> &str;

    /// Number of floating-point inputs `N`.
    fn num_inputs(&self) -> usize;

    /// Search box for each input, used to sample optimization starting
    /// points. The default is the whole finite binary64 range.
    fn search_domain(&self) -> Vec<Interval> {
        vec![Interval::whole(); self.num_inputs()]
    }

    /// Static list of instrumented floating-point operation sites
    /// (the set `L̄` of Algorithm 3).
    fn op_sites(&self) -> Vec<OpSite>;

    /// Static list of instrumented conditional-branch sites.
    fn branch_sites(&self) -> Vec<BranchSite>;

    /// Executes the program on `input`, reporting events through `ctx`, and
    /// returns the program result if it produces one.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `input.len() != self.num_inputs()`.
    fn execute(&self, input: &[f64], ctx: &mut Ctx<'_>) -> Option<f64>;

    /// Convenience wrapper: executes the program with a fresh probe context
    /// over `observer`.
    fn run(&self, input: &[f64], observer: &mut dyn Observer) -> Option<f64> {
        let mut ctx = Ctx::new(observer);
        self.execute(input, &mut ctx)
    }

    /// Returns a reusable [`BatchExecutor`] amortizing per-execution setup
    /// over many runs of this program.
    ///
    /// Each execution still gets its own observer (weak distances fold
    /// per-run state in the observer), but an implementation can hoist
    /// everything input-independent out of the per-run path: the default
    /// executor simply loops [`Analyzable::run`], while the `fpir`
    /// interpreter reuses its register frames and global-variable buffers
    /// across the whole batch — and, under [`KernelPolicy::Auto`] or
    /// [`KernelPolicy::Always`], specializes eligible modules into a
    /// lane-parallel SoA kernel. Results are bit-identical to calling
    /// [`Analyzable::run`] once per input regardless of the policy.
    fn batch_executor(&self, policy: KernelPolicy) -> Box<dyn BatchExecutor + '_> {
        let _ = policy; // only programs with a kernel backend consult it
        Box::new(ScalarBatchExecutor(self))
    }

    /// What a static analysis knows about taking branch `site` in direction
    /// `taken` (over the program's search domain).
    ///
    /// The default — no analysis — is [`Reachability::Unknown`]. A result of
    /// [`Reachability::Unreachable`] must be a proof: analyses use it to
    /// skip minimization entirely, charging zero evaluations.
    fn branch_side_reachability(&self, site: BranchId, taken: bool) -> Reachability {
        let _ = (site, taken);
        Reachability::Unknown
    }

    /// What a static analysis knows about the *boundary* of branch `site`
    /// (an execution where the two comparison operands are exactly equal,
    /// the target of boundary value analysis).
    fn branch_boundary_reachability(&self, site: BranchId) -> Reachability {
        let _ = site;
        Reachability::Unknown
    }

    /// What a static analysis knows about operation site `site` executing
    /// at all (over the program's search domain).
    fn op_site_reachability(&self, site: OpId) -> Reachability {
        let _ = site;
        Reachability::Unknown
    }

    /// Returns a target-specialized variant of this program that preserves
    /// exactly the observations in `spec`, or `None` when the program has no
    /// optimizing backend, the policy forbids it, or the rewrite could not
    /// be translation-validated.
    ///
    /// The contract is strict: for every input **inside the search domain**,
    /// the specialized program must produce a bit-identical stream of events
    /// at the sites `spec` retains (payloads and order) — so any observer
    /// folding over those events, including one that requests an early stop,
    /// sees identical behavior — plus a bit-identical returned value and
    /// final globals when `spec` observes them. Out-of-domain inputs carry
    /// no guarantee; the analyses' evaluation pipeline clamps every
    /// candidate into the domain before evaluating. Callers fall back to
    /// the original program on `None`; the default implementation (no
    /// optimizing backend) always returns `None`.
    fn specialize(
        &self,
        spec: &ObservationSpec,
        policy: OptPolicy,
    ) -> Option<Box<dyn Analyzable>> {
        let _ = (spec, policy);
        None
    }
}

/// A reusable execution session over one [`Analyzable`] program: the
/// batched-evaluation seam of the runtime layer.
///
/// Obtained from [`Analyzable::batch_executor`]; callers evaluate many
/// inputs through one executor so the program can amortize per-execution
/// setup (buffer allocation, program decoding) across the batch.
pub trait BatchExecutor {
    /// Executes the program on `input`, reporting events through a fresh
    /// probe context over `observer`, exactly like [`Analyzable::run`].
    fn execute_one(&mut self, input: &[f64], observer: &mut dyn Observer) -> Option<f64>;

    /// Executes every input of the batch, handing input `i` the observer
    /// `observers[i]`, and replaces the contents of `results` with one
    /// entry per input (in order).
    ///
    /// This is the lane-parallel entry point: the default implementation
    /// loops [`BatchExecutor::execute_one`], but a vectorized kernel
    /// executes all inputs lanewise in one sweep. Either way the per-input
    /// results and the event stream each observer sees are bit-identical
    /// to the scalar loop.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != observers.len()`.
    fn execute_many(
        &mut self,
        inputs: &[Vec<f64>],
        observers: &mut [&mut dyn Observer],
        results: &mut Vec<Option<f64>>,
    ) {
        assert_eq!(
            inputs.len(),
            observers.len(),
            "one observer is required per batch input"
        );
        results.clear();
        results.reserve(inputs.len());
        for (input, observer) in inputs.iter().zip(observers.iter_mut()) {
            results.push(self.execute_one(input, &mut **observer));
        }
    }
}

/// The default [`BatchExecutor`]: a plain loop over [`Analyzable::run`]
/// with no batch-level amortization.
struct ScalarBatchExecutor<'a, P: ?Sized>(&'a P);

impl<P: Analyzable + ?Sized> BatchExecutor for ScalarBatchExecutor<'_, P> {
    fn execute_one(&mut self, input: &[f64], observer: &mut dyn Observer) -> Option<f64> {
        self.0.run(input, observer)
    }
}

impl<P: Analyzable + ?Sized> Analyzable for &P {
    fn batch_executor(&self, policy: KernelPolicy) -> Box<dyn BatchExecutor + '_> {
        (**self).batch_executor(policy)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn num_inputs(&self) -> usize {
        (**self).num_inputs()
    }

    fn search_domain(&self) -> Vec<Interval> {
        (**self).search_domain()
    }

    fn op_sites(&self) -> Vec<OpSite> {
        (**self).op_sites()
    }

    fn branch_sites(&self) -> Vec<BranchSite> {
        (**self).branch_sites()
    }

    fn execute(&self, input: &[f64], ctx: &mut Ctx<'_>) -> Option<f64> {
        (**self).execute(input, ctx)
    }

    fn branch_side_reachability(&self, site: BranchId, taken: bool) -> Reachability {
        (**self).branch_side_reachability(site, taken)
    }

    fn branch_boundary_reachability(&self, site: BranchId) -> Reachability {
        (**self).branch_boundary_reachability(site)
    }

    fn op_site_reachability(&self, site: OpId) -> Reachability {
        (**self).op_site_reachability(site)
    }

    fn specialize(
        &self,
        spec: &ObservationSpec,
        policy: OptPolicy,
    ) -> Option<Box<dyn Analyzable>> {
        (**self).specialize(spec, policy)
    }
}

/// An [`Analyzable`] built from a closure, convenient for small examples and
/// tests.
///
/// # Example
///
/// ```
/// use fp_runtime::{Analyzable, BranchSite, Cmp, ClosureProgram, Interval, NullObserver};
///
/// let prog = ClosureProgram::new("square-gate", 1, |x, ctx| {
///     let y = x[0] * x[0];
///     if ctx.branch(0, y, Cmp::Le, 4.0) {
///         Some(y)
///     } else {
///         Some(0.0)
///     }
/// })
/// .with_branch_sites(vec![BranchSite::new(0, Cmp::Le, "y <= 4")])
/// .with_domain(vec![Interval::symmetric(10.0)]);
///
/// assert_eq!(prog.run(&[1.0], &mut NullObserver), Some(1.0));
/// ```
pub struct ClosureProgram<F> {
    name: String,
    num_inputs: usize,
    domain: Vec<Interval>,
    op_sites: Vec<OpSite>,
    branch_sites: Vec<BranchSite>,
    body: F,
}

impl<F> ClosureProgram<F>
where
    F: Fn(&[f64], &mut Ctx<'_>) -> Option<f64> + Send + Sync,
{
    /// Creates a closure-backed program with the whole binary64 range as its
    /// default search domain and no declared sites.
    pub fn new(name: impl Into<String>, num_inputs: usize, body: F) -> Self {
        ClosureProgram {
            name: name.into(),
            num_inputs,
            domain: vec![Interval::whole(); num_inputs],
            op_sites: Vec::new(),
            branch_sites: Vec::new(),
            body,
        }
    }

    /// Sets the search domain.
    ///
    /// # Panics
    ///
    /// Panics if the number of intervals differs from the number of inputs.
    pub fn with_domain(mut self, domain: Vec<Interval>) -> Self {
        assert_eq!(
            domain.len(),
            self.num_inputs,
            "domain arity must match the number of inputs"
        );
        self.domain = domain;
        self
    }

    /// Declares the operation sites the closure reports.
    pub fn with_op_sites(mut self, sites: Vec<OpSite>) -> Self {
        self.op_sites = sites;
        self
    }

    /// Declares the branch sites the closure reports.
    pub fn with_branch_sites(mut self, sites: Vec<BranchSite>) -> Self {
        self.branch_sites = sites;
        self
    }
}

impl<F> Analyzable for ClosureProgram<F>
where
    F: Fn(&[f64], &mut Ctx<'_>) -> Option<f64> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    fn search_domain(&self) -> Vec<Interval> {
        self.domain.clone()
    }

    fn op_sites(&self) -> Vec<OpSite> {
        self.op_sites.clone()
    }

    fn branch_sites(&self) -> Vec<BranchSite> {
        self.branch_sites.clone()
    }

    fn execute(&self, input: &[f64], ctx: &mut Ctx<'_>) -> Option<f64> {
        assert_eq!(
            input.len(),
            self.num_inputs,
            "input arity mismatch for {}",
            self.name
        );
        (self.body)(input, ctx)
    }
}

impl<F> std::fmt::Debug for ClosureProgram<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosureProgram")
            .field("name", &self.name)
            .field("num_inputs", &self.num_inputs)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Cmp, FpOp};
    use crate::recorder::{NullObserver, TraceRecorder};

    fn toy() -> impl Analyzable {
        ClosureProgram::new("toy", 1, |x, ctx| {
            let y = ctx.op(0, FpOp::Mul, x[0] * x[0]);
            let _ = ctx.branch(0, y, Cmp::Le, 4.0);
            Some(y)
        })
        .with_op_sites(vec![OpSite::new(0, FpOp::Mul, "y = x*x")])
        .with_branch_sites(vec![BranchSite::new(0, Cmp::Le, "y <= 4")])
        .with_domain(vec![Interval::symmetric(100.0)])
    }

    #[test]
    fn closure_program_reports_metadata() {
        let p = toy();
        assert_eq!(p.name(), "toy");
        assert_eq!(p.num_inputs(), 1);
        assert_eq!(p.search_domain().len(), 1);
        assert_eq!(p.op_sites().len(), 1);
        assert_eq!(p.branch_sites().len(), 1);
    }

    #[test]
    fn closure_program_executes_and_emits_events() {
        let p = toy();
        let mut rec = TraceRecorder::new();
        assert_eq!(p.run(&[3.0], &mut rec), Some(9.0));
        assert_eq!(rec.ops().count(), 1);
        assert_eq!(rec.branches().count(), 1);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        let p = toy();
        let _ = p.run(&[1.0, 2.0], &mut NullObserver);
    }

    #[test]
    fn default_batch_executor_ignores_policy_and_matches_run() {
        let p = toy();
        let xs: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64 - 3.0]).collect();
        for policy in [KernelPolicy::Auto, KernelPolicy::Always, KernelPolicy::Never] {
            let mut session = p.batch_executor(policy);
            let mut observers: Vec<TraceRecorder> =
                xs.iter().map(|_| TraceRecorder::new()).collect();
            let mut refs: Vec<&mut dyn crate::recorder::Observer> = observers
                .iter_mut()
                .map(|o| o as &mut dyn crate::recorder::Observer)
                .collect();
            let mut results = Vec::new();
            session.execute_many(&xs, &mut refs, &mut results);
            assert_eq!(results.len(), xs.len());
            for ((x, result), obs) in xs.iter().zip(&results).zip(&observers) {
                let mut scalar_rec = TraceRecorder::new();
                assert_eq!(*result, p.run(x, &mut scalar_rec), "{policy:?} at {x:?}");
                assert_eq!(obs.ops().count(), scalar_rec.ops().count());
                assert_eq!(obs.branches().count(), scalar_rec.branches().count());
            }
        }
    }

    #[test]
    #[should_panic(expected = "one observer is required per batch input")]
    fn execute_many_rejects_mismatched_observers() {
        let p = toy();
        let mut session = p.batch_executor(KernelPolicy::default());
        let mut results = Vec::new();
        session.execute_many(&[vec![1.0]], &mut [], &mut results);
    }

    #[test]
    fn site_set_membership() {
        assert!(SiteSet::All.contains(7));
        assert!(!SiteSet::none().contains(0));
        let only = SiteSet::Only([1u32, 3].into_iter().collect());
        assert!(only.contains(1));
        assert!(!only.contains(2));
        let except = SiteSet::Except([1u32].into_iter().collect());
        assert!(!except.contains(1));
        assert!(except.contains(2));
    }

    #[test]
    fn observation_spec_constructors() {
        let all = ObservationSpec::everything();
        assert!(all.branches.contains(0) && all.ops.contains(9) && all.globals);
        assert!(all.return_value);
        let b = ObservationSpec::branches(SiteSet::Only([2u32].into_iter().collect()));
        assert!(b.branches.contains(2) && !b.ops.contains(0) && !b.globals);
        assert!(!b.return_value);
        let o = ObservationSpec::ops(SiteSet::Except([4u32].into_iter().collect()));
        assert!(!o.branches.contains(0) && o.ops.contains(5) && !o.ops.contains(4));
    }

    #[test]
    fn default_specialize_is_none() {
        let p = toy();
        for policy in [OptPolicy::Auto, OptPolicy::Always, OptPolicy::Never] {
            assert!(p.specialize(&ObservationSpec::everything(), policy).is_none());
            // The &P blanket impl forwards the default too.
            let by_ref = &p;
            assert!(by_ref
                .specialize(&ObservationSpec::everything(), policy)
                .is_none());
        }
    }

    #[test]
    fn default_domain_is_whole_range() {
        let p = ClosureProgram::new("free", 2, |_x, _ctx| Some(0.0));
        let dom = p.search_domain();
        assert_eq!(dom.len(), 2);
        assert_eq!(dom[0].lo(), -f64::MAX);
        assert_eq!(dom[1].hi(), f64::MAX);
    }
}
