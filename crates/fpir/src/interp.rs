//! The IR interpreter and its [`Analyzable`] adapter.
//!
//! # Execution core
//!
//! Every scalar execution runs a *lowered* copy of its module: flat
//! per-function arrays of ops with `u32` operands, one dispatch per op,
//! site-less `add`/`sub`/`mul`/`div` as ops of their own, and each block's
//! op range and terminator (see `lower.rs`). A [`ModuleProgram`] builds
//! its lowering on its first execution and shares it, like its
//! [`StaticInfo`], with its clones and with every hand-out of one
//! specialization; [`Interpreter::execute`] and its two siblings lower the
//! module they are given. The kernel's lane resume and translation
//! validation run the same core.
//!
//! *Fuel is charged a block at a time.* With `k` ops of a block left, the
//! block needs `t = k + 1` ticks, its terminator's included. When the
//! observer has not stopped the execution, more than `t` fuel is left and
//! none of the fuel values `fuel - t ..= fuel - 1` is a multiple of
//! [`CANCEL_POLL_INTERVAL`], the ops run with no tick or stop check of
//! their own and the block is charged in one step. A stop is checked after
//! each sited op; on a stop, the ops run so far are charged. At a call, the
//! ops before it are charged and the call itself is charged one op at a
//! time. After the call or the stop, the rest of the block goes through the
//! same check again. Whenever the check fails, the next op pays what every
//! op once paid: a tick, a stop check, the op; a terminator reached that
//! way takes a tick of its own, and a branch, sited or not, ends the run if
//! it has been stopped. So out-of-fuel, cancellation and stops fall on the
//! same instruction as an instruction-at-a-time loop, with the same fuel
//! left, and [`Interpreter::execute_counting`] counts the same
//! instructions.
//!
//! *Frames live on the stack.* A call's register frame is a zero-filled
//! array of the smallest of 8, 16, 32 or 64 registers that holds the
//! function, its arguments (up to 8) and the module's globals (up to 8) are
//! arrays too, and the globals are re-initialized for every execution, so
//! no value carries from one execution to the next. Only wider frames,
//! argument lists and global sets borrow buffers from a per-thread pool,
//! which a nested execution shares by taking other buffers. So once a
//! program's lowering is built, a scalar execution of any of the shipped
//! programs allocates nothing, even the first one on a thread, and a call
//! level takes a bounded amount of stack (at most one 64-register frame
//! plus the core loop's own), which the default `max_call_depth` keeps
//! within a 256 KiB thread stack. The [`BatchExecutor`] of a program the
//! lanewise kernel does not run is a plain loop over [`Analyzable::run`].
//!
//! # Cancellation
//!
//! The interpreter polls a [`CancelToken`] every
//! [`CANCEL_POLL_INTERVAL`] executed instructions, so a long-running
//! interpreted program stops promptly when the parallel engine cancels a
//! losing portfolio backend — instead of ignoring the token until the next
//! evaluation boundary. A cancelled execution returns
//! [`ExecError::Cancelled`].

use crate::analysis::StaticInfo;
use crate::ir::{FuncId, Module};
use crate::lower::Lowered;
use crate::opt::{OptStats, SpecializeError};
use fp_runtime::{
    Analyzable, BatchExecutor, BranchId, BranchSite, CancelToken, Ctx, Interval, KernelPolicy,
    ObservationSpec, Observer, OpId, OpSite, OptPolicy, Reachability,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// How often (in executed instructions) the interpreter polls its
/// [`CancelToken`]. Polling is a relaxed atomic load; every 256
/// instructions keeps the overhead unmeasurable while bounding the
/// response latency to cancellation.
pub const CANCEL_POLL_INTERVAL: u64 = 256;

/// Errors raised while interpreting a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The per-execution instruction budget was exhausted (runaway loop).
    OutOfFuel,
    /// The call stack exceeded its depth limit (runaway recursion).
    CallDepthExceeded,
    /// The named entry function does not exist.
    NoSuchFunction(String),
    /// The number of arguments did not match the entry function's arity.
    ArityMismatch {
        /// Expected number of parameters.
        expected: usize,
        /// Provided number of arguments.
        got: usize,
    },
    /// The execution's [`CancelToken`] was cancelled mid-interpretation.
    Cancelled,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfFuel => write!(f, "execution exceeded its instruction budget"),
            ExecError::CallDepthExceeded => write!(f, "call depth limit exceeded"),
            ExecError::NoSuchFunction(name) => write!(f, "no function named `{name}`"),
            ExecError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} arguments, got {got}")
            }
            ExecError::Cancelled => write!(f, "execution was cancelled"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Interprets IR modules, reporting instrumented operations and branches as
/// [`fp_runtime`] events.
#[derive(Debug, Clone)]
pub struct Interpreter {
    /// Maximum number of instructions executed per call to
    /// [`Interpreter::execute`] (guards against non-terminating loops).
    pub fuel: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
    /// Cooperative cancellation, polled every [`CANCEL_POLL_INTERVAL`]
    /// instructions. The default token is never cancelled.
    pub cancel: CancelToken,
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter {
            fuel: 2_000_000,
            max_call_depth: 64,
            cancel: CancelToken::new(),
        }
    }
}

impl Interpreter {
    /// Creates an interpreter with the default fuel and call-depth limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Shares a cancellation token with this interpreter: once the token
    /// (or an ancestor) is cancelled, in-flight executions stop within
    /// [`CANCEL_POLL_INTERVAL`] instructions and report
    /// [`ExecError::Cancelled`].
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Executes `func` of `module` on `args`.
    ///
    /// Returns the function's return value (`None` for a `ret` without
    /// value, or when an observer requested early termination).
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on arity mismatch, fuel exhaustion, call
    /// stack overflow or cancellation.
    pub fn execute(
        &self,
        module: &Module,
        func: FuncId,
        args: &[f64],
        ctx: &mut Ctx<'_>,
    ) -> Result<Option<f64>, ExecError> {
        Lowered::new(module).execute(self, func.0, args, ctx, |ret, _, _| ret)
    }

    /// Executes and also returns the final values of the module's globals
    /// (used by weak-distance wrappers that read `w` after the call).
    ///
    /// # Errors
    ///
    /// Same as [`Interpreter::execute`].
    pub fn execute_with_globals(
        &self,
        module: &Module,
        func: FuncId,
        args: &[f64],
        ctx: &mut Ctx<'_>,
    ) -> Result<(Option<f64>, Vec<f64>), ExecError> {
        Lowered::new(module).execute(self, func.0, args, ctx, |ret, globals, _| {
            (ret, globals.to_vec())
        })
    }

    /// Executes and also reports how many instructions ran (the fuel
    /// consumed), the measurement behind the ledger's
    /// `fpir.insts_per_eval`.
    ///
    /// # Errors
    ///
    /// Same as [`Interpreter::execute`].
    pub fn execute_counting(
        &self,
        module: &Module,
        func: FuncId,
        args: &[f64],
        ctx: &mut Ctx<'_>,
    ) -> Result<(Option<f64>, u64), ExecError> {
        Lowered::new(module).execute(self, func.0, args, ctx, |ret, _, used| (ret, used))
    }
}

/// How many observation specs one program memoizes specializations for.
/// Callers choose the specs (paths, skip sets), so the key set is
/// open-ended; past this many, a request specializes and validates without
/// storing the result.
const MAX_MEMOIZED_SPECS: usize = 64;

/// What a program's module, entry and domain alone determine, shared by the
/// program's clones and by every hand-out of one specialization (see
/// [`ModuleProgram::specialized_with_stats`]).
#[derive(Debug, Default)]
struct Derived {
    /// The static analysis (CFGs, liveness layouts, wave safety, interval
    /// reachability), computed on first need.
    statics: OnceLock<StaticInfo>,
    /// The lowered module every execution runs, built on the first one.
    lowered: OnceLock<Lowered>,
    /// What [`crate::opt::specialize`] returned for each spec.
    specializations: Mutex<HashMap<ObservationSpec, Arc<Specialization>>>,
}

/// The outcome of specializing one program against one spec.
type Specialization = Result<Specialized, SpecializeError>;

/// A translation-validated specialization, ready to hand out.
#[derive(Debug)]
struct Specialized {
    module: Arc<Module>,
    stats: OptStats,
    derived: Arc<Derived>,
}

impl Derived {
    /// The memoized specialization for `spec`, or what `specialize` returns
    /// for it. `specialize` runs under the memo's lock, so each spec is
    /// specialized and validated once; its result is stored while the memo
    /// holds fewer than [`MAX_MEMOIZED_SPECS`] specs.
    fn specialization(
        &self,
        spec: &ObservationSpec,
        specialize: impl FnOnce() -> Specialization,
    ) -> Arc<Specialization> {
        let mut memo = self
            .specializations
            .lock()
            .expect("specialization memo lock");
        if let Some(specialization) = memo.get(spec) {
            return Arc::clone(specialization);
        }
        let specialization = Arc::new(specialize());
        if memo.len() < MAX_MEMOIZED_SPECS {
            memo.insert(spec.clone(), Arc::clone(&specialization));
        }
        specialization
    }
}

/// An IR program exposed to the analyses: a module, an entry function and a
/// search domain.
///
/// Sites are reported with labels derived from the IR text, which is what an
/// automatic instrumentation pipeline can reasonably produce.
///
/// Clones share the module, the lazily computed static analysis and the
/// memo of validated specializations. [`ModuleProgram::with_domain`] drops
/// the last two, since both depend on the domain.
#[derive(Debug, Clone)]
pub struct ModuleProgram {
    module: Arc<Module>,
    entry: FuncId,
    name: String,
    domain: Vec<Interval>,
    interpreter: Interpreter,
    derived: Arc<Derived>,
}

impl ModuleProgram {
    /// Wraps `module` with the function named `entry` as the program under
    /// analysis. Returns `None` if the function does not exist.
    pub fn new(module: Module, entry: &str) -> Option<Self> {
        let id = module.function_by_name(entry)?;
        let num_params = module.function(id).num_params;
        Some(ModuleProgram {
            name: format!("{entry} (fpir)"),
            entry: id,
            module: Arc::new(module),
            domain: vec![Interval::whole(); num_params],
            interpreter: Interpreter::default(),
            derived: Arc::default(),
        })
    }

    /// Sets the search domain, dropping the static analysis and the
    /// specializations computed for the old one.
    ///
    /// # Panics
    ///
    /// Panics if the arity does not match the entry function.
    pub fn with_domain(mut self, domain: Vec<Interval>) -> Self {
        assert_eq!(
            domain.len(),
            self.module.function(self.entry).num_params,
            "domain arity mismatch"
        );
        self.domain = domain;
        self.derived = Arc::default();
        self
    }

    /// Sets the interpreter configuration.
    pub fn with_interpreter(mut self, interpreter: Interpreter) -> Self {
        self.interpreter = interpreter;
        self
    }

    /// Shares a cancellation token with the program's interpreter (see
    /// [`Interpreter::with_cancel`]); a cancelled execution reports no
    /// result, exactly like an observer-initiated stop.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.interpreter.cancel = cancel;
        self
    }

    /// The underlying module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The entry function.
    pub fn entry(&self) -> FuncId {
        self.entry
    }

    /// The interpreter configuration (fuel, call depth, cancellation),
    /// shared with the lanewise kernel so both backends stop at exactly
    /// the same points.
    pub(crate) fn interpreter(&self) -> &Interpreter {
        &self.interpreter
    }

    /// The cached static analysis of this program: CFGs, dominators,
    /// liveness frame layouts, wave safety and interval reachability
    /// (computed on first use, seeded from the search domain, and shared
    /// with clones and with other hand-outs of the same specialization).
    pub fn static_info(&self) -> &StaticInfo {
        self.derived
            .statics
            .get_or_init(|| StaticInfo::compute(&self.module, self.entry, &self.domain))
    }

    /// The lowered module, built on the first execution and shared like
    /// [`ModuleProgram::static_info`].
    pub(crate) fn lowered(&self) -> &Lowered {
        self.derived
            .lowered
            .get_or_init(|| Lowered::new(&self.module))
    }

    /// Whether [`Analyzable::batch_executor`] hands out the lanewise kernel
    /// under [`KernelPolicy::Auto`]: the entry function must be *wave-safe*
    /// per [`crate::analysis::eligibility`] — non-recursive, with every
    /// reachable call naming an existing function of matching arity whose
    /// callee is itself wave-safe, so the whole call tree runs as lockstep
    /// frames. (The old heuristic demanded a call-free entry, which forced
    /// every instrumented `W` module onto the scalar interpreter.)
    pub fn kernel_eligible(&self) -> bool {
        self.static_info().eligible
    }

    /// Executes the entry function and also returns the final global values.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors ([`ExecError`]).
    pub fn run_with_globals(
        &self,
        input: &[f64],
        observer: &mut dyn fp_runtime::Observer,
    ) -> Result<(Option<f64>, Vec<f64>), ExecError> {
        let mut ctx = Ctx::new(observer);
        self.lowered().execute(
            &self.interpreter,
            self.entry.0,
            input,
            &mut ctx,
            |ret, globals, _| (ret, globals.to_vec()),
        )
    }

    /// Executes the entry function on `input` under a silent observer and
    /// returns how many instructions ran, or `None` if the execution
    /// errored. Used by benchmarks to measure specialization wins.
    pub fn instructions_executed(&self, input: &[f64]) -> Option<u64> {
        let mut observer = fp_runtime::NullObserver;
        let mut ctx = Ctx::new(&mut observer);
        self.lowered()
            .execute(
                &self.interpreter,
                self.entry.0,
                input,
                &mut ctx,
                |_, _, used| used,
            )
            .ok()
    }

    /// Runs the optimizing pass pipeline ([`crate::opt::specialize`])
    /// against `spec` and returns the specialized program together with the
    /// pipeline's statistics, or `None` when the policy forbids it, the
    /// rewrite failed translation validation, or (`Auto`) nothing was
    /// removed.
    ///
    /// The pipeline and its translation validation run once per spec: the
    /// program memoizes the outcome (the validated module with its
    /// statistics, or the refusal) for up to 64 specs, shared with its
    /// clones, so one entry serves every policy. The memo specializes under
    /// its lock, so concurrent requests wait for one another. All hand-outs
    /// of one spec share the specialized module and its static analysis,
    /// recomputed from the optimized module on first need (so
    /// liveness-compacted frame layouts shrink along with the code). A
    /// hand-out keeps this program's domain and its current interpreter
    /// configuration (fuel, cancellation).
    pub fn specialized_with_stats(
        &self,
        spec: &ObservationSpec,
        policy: OptPolicy,
    ) -> Option<(ModuleProgram, OptStats)> {
        if matches!(policy, OptPolicy::Never) {
            return None;
        }
        let specialization = self.derived.specialization(spec, || {
            let (module, stats) =
                crate::opt::specialize(&self.module, self.entry, &self.domain, spec)?;
            Ok(Specialized {
                module: Arc::new(module),
                stats,
                derived: Arc::default(),
            })
        });
        let specialized = specialization.as_ref().as_ref().ok()?;
        if matches!(policy, OptPolicy::Auto) && !specialized.stats.removed_anything() {
            return None;
        }
        let program = ModuleProgram {
            module: Arc::clone(&specialized.module),
            entry: self.entry,
            name: format!("{} [opt]", self.name),
            domain: self.domain.clone(),
            interpreter: self.interpreter.clone(),
            derived: Arc::clone(&specialized.derived),
        };
        Some((program, specialized.stats))
    }

    /// [`ModuleProgram::specialized_with_stats`] without the statistics.
    pub fn specialized(&self, spec: &ObservationSpec, policy: OptPolicy) -> Option<ModuleProgram> {
        self.specialized_with_stats(spec, policy).map(|(p, _)| p)
    }
}

/// The [`BatchExecutor`] of a program the lanewise kernel does not run:
/// one [`Analyzable::run`] per input.
struct InterpSession<'a>(&'a ModuleProgram);

impl BatchExecutor for InterpSession<'_> {
    fn execute_one(&mut self, input: &[f64], observer: &mut dyn Observer) -> Option<f64> {
        self.0.run(input, observer)
    }
}

impl Analyzable for ModuleProgram {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_inputs(&self) -> usize {
        self.module.function(self.entry).num_params
    }

    fn search_domain(&self) -> Vec<Interval> {
        self.domain.clone()
    }

    fn op_sites(&self) -> Vec<OpSite> {
        self.static_info().op_sites.clone()
    }

    fn branch_sites(&self) -> Vec<BranchSite> {
        self.static_info().branch_sites.clone()
    }

    fn branch_side_reachability(&self, site: BranchId, taken: bool) -> Reachability {
        match self.static_info().reach.branches.get(&site.0) {
            Some(b) if taken => b.then_reach,
            Some(b) => b.else_reach,
            None => Reachability::Unknown,
        }
    }

    fn branch_boundary_reachability(&self, site: BranchId) -> Reachability {
        match self.static_info().reach.branches.get(&site.0) {
            Some(b) => b.boundary_reach,
            None => Reachability::Unknown,
        }
    }

    fn op_site_reachability(&self, site: OpId) -> Reachability {
        match self.static_info().reach.ops.get(&site.0) {
            Some(o) => o.reach,
            None => Reachability::Unknown,
        }
    }

    fn execute(&self, input: &[f64], ctx: &mut Ctx<'_>) -> Option<f64> {
        self.lowered()
            .execute(&self.interpreter, self.entry.0, input, ctx, |ret, _, _| ret)
            .ok()
            .flatten()
    }

    /// Selects the batch backend: the lanewise SoA kernel
    /// ([`crate::kernel::KernelExecutor`]) when the policy and the module
    /// allow it, one [`Analyzable::run`] per input otherwise. Both are
    /// bit-identical to [`Interpreter::execute`] per input.
    fn batch_executor(&self, policy: KernelPolicy) -> Box<dyn BatchExecutor + '_> {
        let use_kernel = match policy {
            KernelPolicy::Never => false,
            KernelPolicy::Always => true,
            KernelPolicy::Auto => self.kernel_eligible(),
        };
        if use_kernel {
            Box::new(crate::kernel::KernelExecutor::new(self))
        } else {
            Box::new(InterpSession(self))
        }
    }

    /// Runs the optimizing pipeline and hands the result back as a boxed
    /// [`Analyzable`] (see [`ModuleProgram::specialized_with_stats`]).
    fn specialize(&self, spec: &ObservationSpec, policy: OptPolicy) -> Option<Box<dyn Analyzable>> {
        self.specialized(spec, policy)
            .map(|p| Box::new(p) as Box<dyn Analyzable>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::ir::{BinOp, UnOp};
    use fp_runtime::{BranchEvent, Cmp, NullObserver, OpEvent, ProbeControl, TraceRecorder};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// `double f(double x) { if (x <= 1) x = x + 1; return x * x; }`
    fn square_gate() -> Module {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("f", 1);
        let x = f.param(0);
        let one = f.constant(1.0);
        let xvar = f.copy(x);
        let then_bb = f.new_block();
        let join = f.new_block();
        f.cond_br(Some(0), xvar, Cmp::Le, one, then_bb, join);
        f.switch_to(then_bb);
        let inc = f.bin(BinOp::Add, xvar, one, Some(0));
        f.assign(xvar, inc);
        f.jump(join);
        f.switch_to(join);
        let sq = f.bin(BinOp::Mul, xvar, xvar, Some(1));
        f.ret(Some(sq));
        f.finish();
        mb.build()
    }

    /// `while (x > 0) x = x + 1;` — never terminates for positive inputs.
    fn spin_module() -> Module {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("spin", 1);
        let x = f.param(0);
        let zero = f.constant(0.0);
        let one = f.constant(1.0);
        let xvar = f.copy(x);
        let header = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(header);
        f.switch_to(header);
        f.cond_br(None, xvar, Cmp::Gt, zero, body, exit);
        f.switch_to(body);
        let next = f.bin(BinOp::Add, xvar, one, None);
        f.assign(xvar, next);
        f.jump(header);
        f.switch_to(exit);
        f.ret(Some(xvar));
        f.finish();
        mb.build()
    }

    #[test]
    fn interprets_branches_and_arithmetic() {
        let m = square_gate();
        let p = ModuleProgram::new(m, "f").unwrap();
        assert_eq!(p.run(&[0.0], &mut NullObserver), Some(1.0));
        assert_eq!(p.run(&[3.0], &mut NullObserver), Some(9.0));
        assert_eq!(p.run(&[1.0], &mut NullObserver), Some(4.0));
    }

    #[test]
    fn emits_events_for_labelled_sites() {
        let m = square_gate();
        let p = ModuleProgram::new(m, "f").unwrap();
        let mut rec = TraceRecorder::new();
        p.run(&[0.5], &mut rec);
        assert_eq!(rec.branches().count(), 1);
        assert_eq!(rec.ops().count(), 2);
        let br = rec.branches().next().unwrap();
        assert_eq!(br.lhs, 0.5);
        assert_eq!(br.rhs, 1.0);
        assert!(br.taken);
    }

    #[test]
    fn site_metadata_is_reported() {
        let p = ModuleProgram::new(square_gate(), "f").unwrap();
        assert_eq!(p.num_inputs(), 1);
        assert_eq!(p.op_sites().len(), 2);
        assert_eq!(p.branch_sites().len(), 1);
        assert!(p.branch_sites()[0].label.contains("<="));
    }

    #[test]
    fn loops_terminate_via_fuel() {
        let m = spin_module();
        let interp = Interpreter::default().with_fuel(10_000);
        let id = m.function_by_name("spin").unwrap();
        let mut obs = NullObserver;
        let mut ctx = Ctx::new(&mut obs);
        let err = interp.execute(&m, id, &[1.0], &mut ctx).unwrap_err();
        assert_eq!(err, ExecError::OutOfFuel);
        // Negative input exits immediately.
        let mut ctx = Ctx::new(&mut obs);
        assert_eq!(interp.execute(&m, id, &[-1.0], &mut ctx), Ok(Some(-1.0)));
    }

    #[test]
    fn loops_compute_iteratively() {
        // sum = 0; i = x; while (i > 0) { sum = sum + i; i = i - 1; } return sum
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("tri", 1);
        let x = f.param(0);
        let zero = f.constant(0.0);
        let one = f.constant(1.0);
        let sum = f.copy(zero);
        let i = f.copy(x);
        let header = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(header);
        f.switch_to(header);
        f.cond_br(None, i, Cmp::Gt, zero, body, exit);
        f.switch_to(body);
        let ns = f.bin(BinOp::Add, sum, i, None);
        f.assign(sum, ns);
        let ni = f.bin(BinOp::Sub, i, one, None);
        f.assign(i, ni);
        f.jump(header);
        f.switch_to(exit);
        f.ret(Some(sum));
        f.finish();
        let m = mb.build();
        let p = ModuleProgram::new(m, "tri").unwrap();
        assert_eq!(p.run(&[5.0], &mut NullObserver), Some(15.0));
        assert_eq!(p.run(&[0.0], &mut NullObserver), Some(0.0));
    }

    #[test]
    fn calls_and_globals_work() {
        let mut mb = ModuleBuilder::new();
        let w = mb.global("w", 1.0);
        // callee(x): w = w * |x|; return x
        let mut callee = mb.function("callee", 1);
        let x = callee.param(0);
        let a = callee.un(UnOp::Abs, x, None);
        let wv = callee.load_global(w);
        let prod = callee.bin(BinOp::Mul, wv, a, None);
        callee.store_global(w, prod);
        callee.ret(Some(x));
        let callee_id = callee.finish();
        // main(x): callee(x); callee(x+1); return w
        let mut main = mb.function("main", 1);
        let x = main.param(0);
        let one = main.constant(1.0);
        let _ = main.call(callee_id, vec![x]);
        let xp1 = main.bin(BinOp::Add, x, one, None);
        let _ = main.call(callee_id, vec![xp1]);
        let back = main.load_global(w);
        main.ret(Some(back));
        main.finish();
        let m = mb.build();
        let p = ModuleProgram::new(m, "main").unwrap();
        assert_eq!(p.run(&[-3.0], &mut NullObserver), Some(6.0));
        // run_with_globals exposes the final w.
        let mut obs = NullObserver;
        let (ret, globals) = p.run_with_globals(&[2.0], &mut obs).unwrap();
        assert_eq!(ret, Some(6.0));
        assert_eq!(globals, vec![6.0]);
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let m = square_gate();
        let id = m.function_by_name("f").unwrap();
        let mut obs = NullObserver;
        let mut ctx = Ctx::new(&mut obs);
        let err = Interpreter::default()
            .execute(&m, id, &[1.0, 2.0], &mut ctx)
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::ArityMismatch {
                expected: 1,
                got: 2
            }
        );
        assert!(err.to_string().contains("expected 1"));
    }

    #[test]
    fn precancelled_token_stops_a_high_iteration_program_immediately() {
        // The regression this pins down: the interpreter used to ignore
        // CancelToken entirely, so this program would grind through its
        // whole 100M-instruction budget before anyone could stop it.
        let m = spin_module();
        let id = m.function_by_name("spin").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let interp = Interpreter::default()
            .with_fuel(100_000_000)
            .with_cancel(token);
        let mut obs = NullObserver;
        let mut ctx = Ctx::new(&mut obs);
        let started = std::time::Instant::now();
        let err = interp.execute(&m, id, &[1.0], &mut ctx).unwrap_err();
        assert_eq!(err, ExecError::Cancelled);
        // A poll fires within CANCEL_POLL_INTERVAL instructions; even a
        // slow CI machine interprets a few hundred instructions instantly.
        assert!(started.elapsed().as_secs() < 5);
    }

    #[test]
    fn concurrent_cancellation_interrupts_a_running_loop() {
        let m = spin_module();
        let id = m.function_by_name("spin").unwrap();
        let token = CancelToken::new();
        // Effectively unbounded fuel: only cancellation can stop the loop.
        let interp = Interpreter::default()
            .with_fuel(u64::MAX / 2)
            .with_cancel(token.clone());
        let err = std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let mut obs = NullObserver;
                let mut ctx = Ctx::new(&mut obs);
                interp.execute(&m, id, &[1.0], &mut ctx).unwrap_err()
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            token.cancel();
            handle.join().expect("interpreter thread panicked")
        });
        assert_eq!(err, ExecError::Cancelled);
    }

    #[test]
    fn module_program_with_cancel_reports_no_result() {
        let token = CancelToken::new();
        token.cancel();
        let p = ModuleProgram::new(spin_module(), "spin")
            .unwrap()
            .with_interpreter(Interpreter::default().with_fuel(100_000_000))
            .with_cancel(token);
        assert_eq!(p.run(&[1.0], &mut NullObserver), None);
    }

    #[test]
    fn batch_executor_reuses_state_without_changing_results_or_events() {
        // Globals must reset between batch inputs, frames must be reused,
        // and the event stream must be identical to scalar runs.
        let mut mb = ModuleBuilder::new();
        let w = mb.global("w", 1.0);
        let mut callee = mb.function("callee", 1);
        let x = callee.param(0);
        let a = callee.un(UnOp::Abs, x, Some(0));
        let wv = callee.load_global(w);
        let prod = callee.bin(BinOp::Mul, wv, a, Some(1));
        callee.store_global(w, prod);
        callee.ret(Some(x));
        let callee_id = callee.finish();
        let mut main = mb.function("main", 1);
        let x = main.param(0);
        let _ = main.call(callee_id, vec![x]);
        let back = main.load_global(w);
        main.ret(Some(back));
        main.finish();
        let p = ModuleProgram::new(mb.build(), "main").unwrap();

        let inputs: Vec<Vec<f64>> = vec![vec![-3.0], vec![2.0], vec![-0.5]];
        // The helper call is non-recursive with matching arity, so the
        // eligibility pass keeps the module on the lanewise kernel under
        // `Auto`; results and events must stay identical to scalar runs.
        assert!(p.kernel_eligible());
        let mut session = p.batch_executor(KernelPolicy::Auto);
        for input in &inputs {
            let mut batch_rec = TraceRecorder::new();
            let batched = session.execute_one(input, &mut batch_rec);
            let mut scalar_rec = TraceRecorder::new();
            let scalar = p.run(input, &mut scalar_rec);
            // w resets to 1.0 for every input, so main returns |x|.
            assert_eq!(batched, Some(input[0].abs()));
            assert_eq!(batched, scalar);
            assert_eq!(
                batch_rec.ops().collect::<Vec<_>>(),
                scalar_rec.ops().collect::<Vec<_>>()
            );
        }
        // Bad arity through the session reports "no result", like execute.
        assert_eq!(session.execute_one(&[1.0, 2.0], &mut NullObserver), None);
    }

    #[test]
    fn the_specialization_memo_is_bounded_and_serves_what_a_fresh_program_would() {
        use fp_runtime::SiteSet;
        let p = ModuleProgram::new(square_gate(), "f").unwrap();
        let specs: Vec<ObservationSpec> = (0..2 * MAX_MEMOIZED_SPECS as u32)
            .map(|i| ObservationSpec {
                branches: SiteSet::Only([i].into()),
                ops: SiteSet::Only([i % 2].into()),
                return_value: i % 3 == 0,
                globals: false,
            })
            .collect();
        for pass in 0..2 {
            for spec in &specs {
                let (handout, stats) = p
                    .specialized_with_stats(spec, OptPolicy::Always)
                    .expect("square_gate specializes under every spec");
                let (fresh, fresh_stats) = ModuleProgram::new(square_gate(), "f")
                    .unwrap()
                    .specialized_with_stats(spec, OptPolicy::Always)
                    .expect("square_gate specializes under every spec");
                assert_eq!(handout.module(), fresh.module(), "pass {pass}: {spec:?}");
                assert_eq!(stats, fresh_stats, "pass {pass}: {spec:?}");
            }
            let memo = p.derived.specializations.lock().expect("memo lock");
            assert_eq!(memo.len(), MAX_MEMOIZED_SPECS, "pass {pass}");
            assert!(specs[..MAX_MEMOIZED_SPECS]
                .iter()
                .all(|s| memo.contains_key(s)));
        }
    }

    /// `main(x) { callee(x); return w; }` with
    /// `callee(x) { if (x < 0) x = 0 - x; w = w * x; return x; }`: a call,
    /// a divergent branch, sited ops and a global `w` that starts at 1, so
    /// a value an earlier run left in the thread's scratch would show.
    fn scaled_global() -> ModuleProgram {
        let mut mb = ModuleBuilder::new();
        let w = mb.global("w", 1.0);
        let mut callee = mb.function("callee", 1);
        let x = callee.param(0);
        let zero = callee.constant(0.0);
        let xvar = callee.copy(x);
        let negative = callee.new_block();
        let join = callee.new_block();
        callee.cond_br(Some(0), xvar, Cmp::Lt, zero, negative, join);
        callee.switch_to(negative);
        let flipped = callee.bin(BinOp::Sub, zero, xvar, Some(0));
        callee.assign(xvar, flipped);
        callee.jump(join);
        callee.switch_to(join);
        let wv = callee.load_global(w);
        let prod = callee.bin(BinOp::Mul, wv, xvar, Some(1));
        callee.store_global(w, prod);
        callee.ret(Some(xvar));
        let callee_id = callee.finish();
        let mut main = mb.function("main", 1);
        let x = main.param(0);
        let _ = main.call(callee_id, vec![x]);
        let back = main.load_global(w);
        main.ret(Some(back));
        main.finish();
        ModuleProgram::new(mb.build(), "main").unwrap()
    }

    /// What one run reports: the bits of its result and its events.
    type Run = (Option<u64>, String);

    fn recorded(program: &ModuleProgram, x: f64) -> Run {
        let mut rec = TraceRecorder::new();
        let result = program.run(&[x], &mut rec);
        (result.map(f64::to_bits), format!("{:?}", rec.events()))
    }

    fn batch_recorded(program: &ModuleProgram, inputs: &[Vec<f64>]) -> Vec<Run> {
        let mut recs: Vec<TraceRecorder> = inputs.iter().map(|_| TraceRecorder::new()).collect();
        let mut refs: Vec<&mut dyn Observer> =
            recs.iter_mut().map(|r| r as &mut dyn Observer).collect();
        let mut results = Vec::new();
        program
            .batch_executor(KernelPolicy::Auto)
            .execute_many(inputs, &mut refs, &mut results);
        results
            .iter()
            .zip(&recs)
            .map(|(r, rec)| (r.map(f64::to_bits), format!("{:?}", rec.events())))
            .collect()
    }

    /// `f` on a thread that has run nothing, so its scratch is empty.
    fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(f).join().expect("fresh thread"))
    }

    /// Records its events and, at each one, runs `inner` on the event's
    /// value: an execution nested in the middle of another.
    struct Nesting<'p> {
        inner: &'p ModuleProgram,
        events: TraceRecorder,
        inner_runs: Vec<(f64, Run)>,
    }

    impl<'p> Nesting<'p> {
        fn new(inner: &'p ModuleProgram) -> Self {
            Nesting {
                inner,
                events: TraceRecorder::new(),
                inner_runs: Vec::new(),
            }
        }

        /// Checks the outer run of `x` (its `result` and the events this
        /// observer saw) and every nested run against fresh threads.
        fn assert_matches_fresh_threads(&self, outer: &ModuleProgram, x: f64, result: Option<f64>) {
            let outer_run = (
                result.map(f64::to_bits),
                format!("{:?}", self.events.events()),
            );
            assert_eq!(
                outer_run,
                on_fresh_thread(|| recorded(outer, x)),
                "outer run of {x}"
            );
            assert!(!self.inner_runs.is_empty());
            for (input, run) in &self.inner_runs {
                let fresh = on_fresh_thread(|| recorded(self.inner, *input));
                assert_eq!(*run, fresh, "run of {input} nested in the run of {x}");
            }
        }
    }

    impl Observer for Nesting<'_> {
        fn on_op(&mut self, ev: &OpEvent) -> ProbeControl {
            self.events.on_op(ev);
            self.inner_runs
                .push((ev.value, recorded(self.inner, ev.value)));
            ProbeControl::Continue
        }

        fn on_branch(&mut self, ev: &BranchEvent) -> ProbeControl {
            self.events.on_branch(ev);
            self.inner_runs.push((ev.lhs, recorded(self.inner, ev.lhs)));
            ProbeControl::Continue
        }
    }

    #[test]
    fn an_execution_nested_in_an_observer_matches_fresh_threads() {
        let outer = scaled_global();
        let square = ModuleProgram::new(square_gate(), "f").unwrap();
        // Warm this thread's scratch with both programs first.
        for x in [-5.0, 2.5] {
            outer.run(&[x], &mut NullObserver);
            square.run(&[x], &mut NullObserver);
        }
        for inner in [&square, &outer] {
            for x in [-3.0, 0.5, 4.0] {
                let mut observer = Nesting::new(inner);
                let result = outer.run(&[x], &mut observer);
                observer.assert_matches_fresh_threads(&outer, x, result);
            }
        }
    }

    #[test]
    fn a_kernel_batch_whose_observers_execute_matches_fresh_threads() {
        let outer = scaled_global();
        assert!(outer.kernel_eligible());
        let square = ModuleProgram::new(square_gate(), "f").unwrap();
        // Mixed signs diverge inside the callee, so some lanes resume on the
        // scalar interpreter while their observers run executions.
        let inputs: Vec<Vec<f64>> = (0..24).map(|i| vec![i as f64 * 0.75 - 9.0]).collect();
        for inner in [&square, &outer] {
            let mut observers: Vec<Nesting> = inputs.iter().map(|_| Nesting::new(inner)).collect();
            let mut refs: Vec<&mut dyn Observer> = observers
                .iter_mut()
                .map(|o| o as &mut dyn Observer)
                .collect();
            let mut results = Vec::new();
            outer
                .batch_executor(KernelPolicy::Auto)
                .execute_many(&inputs, &mut refs, &mut results);
            for ((input, result), observer) in inputs.iter().zip(&results).zip(&observers) {
                observer.assert_matches_fresh_threads(&outer, input[0], *result);
            }
        }
    }

    #[test]
    fn an_observer_panic_leaves_later_executions_unchanged() {
        /// Panics at its second operation event, inside the callee.
        struct PanicAtSecondOp(bool);
        impl Observer for PanicAtSecondOp {
            fn on_op(&mut self, _ev: &OpEvent) -> ProbeControl {
                assert!(!std::mem::replace(&mut self.0, true), "observer panic");
                ProbeControl::Continue
            }
        }
        let program = scaled_global();
        let inputs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 * 1.5 - 7.0]).collect();
        let scalar = catch_unwind(AssertUnwindSafe(|| {
            program.run(&[-2.0], &mut PanicAtSecondOp(false))
        }));
        assert!(scalar.is_err());
        let batch = catch_unwind(AssertUnwindSafe(|| {
            let mut observers: Vec<PanicAtSecondOp> =
                inputs.iter().map(|_| PanicAtSecondOp(false)).collect();
            let mut refs: Vec<&mut dyn Observer> = observers
                .iter_mut()
                .map(|o| o as &mut dyn Observer)
                .collect();
            program.batch_executor(KernelPolicy::Auto).execute_many(
                &inputs,
                &mut refs,
                &mut Vec::new(),
            );
        }));
        assert!(batch.is_err());
        for input in &inputs {
            let fresh = on_fresh_thread(|| recorded(&program, input[0]));
            assert_eq!(recorded(&program, input[0]), fresh, "run of {input:?}");
        }
        let fresh = on_fresh_thread(|| batch_recorded(&program, &inputs));
        assert_eq!(batch_recorded(&program, &inputs), fresh);
    }
}
