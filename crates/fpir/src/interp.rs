//! The IR interpreter and its [`Analyzable`] adapter.
//!
//! # Execution scratch
//!
//! An execution needs a globals buffer and one register frame per active
//! call, plus an argument buffer per call in flight. These come from a
//! per-thread scratch: each execution takes the calling thread's globals
//! buffer and frame pool when it starts and gives them back when it ends,
//! so once a thread has run a program, further executions allocate
//! nothing. Every frame is cleared and zero-filled when taken and the
//! globals are re-initialized, so no value carries from one execution to
//! the next: results and events are bit-identical to running on fresh
//! buffers. An execution nested on the same thread (an observer that runs
//! another program, a lane the kernel resumes while an observer runs)
//! finds the slot empty and starts from empty buffers; whichever execution
//! ends last leaves its buffers in the slot. A thread keeps at most two
//! buffers per level of the deepest call chain it ran (a register frame and
//! the argument buffer of the call below it), each as wide as the widest
//! function it ran.
//!
//! The scratch is per thread rather than per program because one program
//! runs on several threads at once ([`Analyzable::execute`] takes
//! `&self`): a thread's buffers serve every module it runs, with no lock.
//! The [`BatchExecutor`] of a program the lanewise kernel does not run is
//! therefore a plain loop over [`Analyzable::run`].
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
use crate::ir::{BlockId, FuncId, Inst, Module, Terminator};
use crate::opt::{OptStats, SpecializeError};
use fp_runtime::{
    Analyzable, BatchExecutor, BranchId, BranchSite, CancelToken, Ctx, Interval, KernelPolicy,
    ObservationSpec, Observer, OpId, OpSite, OptPolicy, Reachability,
};
use std::cell::Cell;
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

/// One thread's execution buffers: the globals buffer and the pool of
/// retired register frames and call argument buffers.
#[derive(Default)]
struct ExecScratch {
    globals: Vec<f64>,
    frames: Vec<Vec<f64>>,
}

thread_local! {
    /// The calling thread's [`ExecScratch`]: taken by [`ExecState`] when an
    /// execution starts and put back when it ends (see the module docs).
    static EXEC_SCRATCH: Cell<Option<ExecScratch>> = const { Cell::new(None) };
}

pub(crate) struct ExecState<'a> {
    globals: Vec<f64>,
    fuel: u64,
    max_depth: usize,
    module: &'a Module,
    cancel: &'a CancelToken,
    /// Retired register frames and call argument buffers, reused by later
    /// calls instead of allocating a fresh `Vec` per frame.
    frames: Vec<Vec<f64>>,
}

impl<'a> ExecState<'a> {
    pub(crate) fn new(interpreter: &'a Interpreter, module: &'a Module) -> Self {
        let globals = module.globals.iter().map(|g| g.init);
        Self::for_resume(interpreter, module, interpreter.fuel, globals)
    }

    /// A state with `fuel` left and the global values `globals`: for a
    /// fresh execution, or for resuming one lane of the lanewise kernel on
    /// the scalar interpreter exactly as a from-scratch scalar execution
    /// would hold it at the same point. Takes the thread's buffers.
    pub(crate) fn for_resume(
        interpreter: &'a Interpreter,
        module: &'a Module,
        fuel: u64,
        globals: impl IntoIterator<Item = f64>,
    ) -> Self {
        let ExecScratch {
            globals: mut buffer,
            frames,
        } = EXEC_SCRATCH
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_default();
        buffer.clear();
        buffer.extend(globals);
        ExecState {
            globals: buffer,
            fuel,
            max_depth: interpreter.max_call_depth,
            module,
            cancel: &interpreter.cancel,
            frames,
        }
    }

    /// Charges one instruction: fuel accounting plus the periodic
    /// cancellation poll.
    fn tick(&mut self) -> Result<(), ExecError> {
        if self.fuel == 0 {
            return Err(ExecError::OutOfFuel);
        }
        self.fuel -= 1;
        if self.fuel.is_multiple_of(CANCEL_POLL_INTERVAL) && self.cancel.is_cancelled() {
            return Err(ExecError::Cancelled);
        }
        Ok(())
    }

    fn take_frame(&mut self, num_regs: usize) -> Vec<f64> {
        let mut frame = self.frames.pop().unwrap_or_default();
        frame.clear();
        frame.resize(num_regs, 0.0);
        frame
    }

    fn put_frame(&mut self, frame: Vec<f64>) {
        self.frames.push(frame);
    }
}

impl Drop for ExecState<'_> {
    /// Gives the buffers back to the thread, replacing whatever a nested
    /// execution left there.
    fn drop(&mut self) {
        let scratch = ExecScratch {
            globals: std::mem::take(&mut self.globals),
            frames: std::mem::take(&mut self.frames),
        };
        // Fails only while the thread is being torn down; the buffers are
        // then simply freed.
        let _ = EXEC_SCRATCH.try_with(|slot| slot.set(Some(scratch)));
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
        let function = module.function(func);
        if args.len() != function.num_params {
            return Err(ExecError::ArityMismatch {
                expected: function.num_params,
                got: args.len(),
            });
        }
        let mut state = ExecState::new(self, module);
        Self::exec_function(&mut state, func, args, ctx, 0)
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
        let function = module.function(func);
        if args.len() != function.num_params {
            return Err(ExecError::ArityMismatch {
                expected: function.num_params,
                got: args.len(),
            });
        }
        let mut state = ExecState::new(self, module);
        let ret = Self::exec_function(&mut state, func, args, ctx, 0)?;
        Ok((ret, state.globals.clone()))
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
        let function = module.function(func);
        if args.len() != function.num_params {
            return Err(ExecError::ArityMismatch {
                expected: function.num_params,
                got: args.len(),
            });
        }
        let mut state = ExecState::new(self, module);
        let ret = Self::exec_function(&mut state, func, args, ctx, 0)?;
        Ok((ret, self.fuel - state.fuel))
    }

    pub(crate) fn exec_function(
        state: &mut ExecState<'_>,
        func: FuncId,
        args: &[f64],
        ctx: &mut Ctx<'_>,
        depth: usize,
    ) -> Result<Option<f64>, ExecError> {
        if depth > state.max_depth {
            return Err(ExecError::CallDepthExceeded);
        }
        let function = state.module.function(func);
        let mut regs = state.take_frame(function.num_regs);
        let result = Self::exec_in_frame(
            state,
            func,
            &mut regs,
            args,
            ctx,
            depth,
            function.entry(),
            0,
        );
        state.put_frame(regs);
        result
    }

    /// The interpreter core loop, entered at `(start_block, start_inst)`.
    ///
    /// Fresh executions enter at `(entry, 0)`; the lanewise kernel enters
    /// mid-function to finish a lane that left the lockstep wave (a
    /// divergent branch, an observer stop, an unsupported instruction) with
    /// the lane's registers, globals and remaining fuel carried over — so
    /// the continuation is bit-identical to having interpreted the lane
    /// from scratch.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec_in_frame(
        state: &mut ExecState<'_>,
        func: FuncId,
        regs: &mut [f64],
        args: &[f64],
        ctx: &mut Ctx<'_>,
        depth: usize,
        start_block: BlockId,
        start_inst: usize,
    ) -> Result<Option<f64>, ExecError> {
        let function = state.module.function(func);
        let mut block = start_block;
        let mut first = start_inst;
        loop {
            let b = function.block(block);
            for inst in &b.insts[first.min(b.insts.len())..] {
                state.tick()?;
                if ctx.stopped() {
                    return Ok(None);
                }
                match inst {
                    Inst::Const { dst, value } => regs[dst.0] = *value,
                    Inst::Copy { dst, src } => regs[dst.0] = regs[src.0],
                    Inst::Param { dst, index } => regs[dst.0] = args[*index],
                    Inst::Bin {
                        dst,
                        op,
                        lhs,
                        rhs,
                        site,
                    } => {
                        let v = op.apply(regs[lhs.0], regs[rhs.0]);
                        if let Some(s) = site {
                            ctx.op(s.0, op.event_kind(), v);
                        }
                        regs[dst.0] = v;
                    }
                    Inst::Un { dst, op, arg, site } => {
                        let v = op.apply(regs[arg.0]);
                        if let Some(s) = site {
                            ctx.op(s.0, op.event_kind(), v);
                        }
                        regs[dst.0] = v;
                    }
                    Inst::Cmp { dst, cmp, lhs, rhs } => {
                        regs[dst.0] = if cmp.eval(regs[lhs.0], regs[rhs.0]) {
                            1.0
                        } else {
                            0.0
                        };
                    }
                    Inst::Select {
                        dst,
                        cond,
                        if_true,
                        if_false,
                    } => {
                        regs[dst.0] = if regs[cond.0] != 0.0 {
                            regs[if_true.0]
                        } else {
                            regs[if_false.0]
                        };
                    }
                    Inst::Call {
                        dst,
                        func,
                        args: call_args,
                    } => {
                        let mut vals = state.take_frame(0);
                        vals.extend(call_args.iter().map(|r| regs[r.0]));
                        let ret = Self::exec_function(state, *func, &vals, ctx, depth + 1);
                        state.put_frame(vals);
                        regs[dst.0] = ret?.unwrap_or(f64::NAN);
                        if ctx.stopped() {
                            return Ok(None);
                        }
                    }
                    Inst::LoadGlobal { dst, global } => regs[dst.0] = state.globals[global.0],
                    Inst::StoreGlobal { global, src } => state.globals[global.0] = regs[src.0],
                }
            }
            first = 0;
            state.tick()?;
            match &b.term {
                Terminator::Jump(next) => block = *next,
                Terminator::CondBr {
                    site,
                    lhs,
                    cmp,
                    rhs,
                    then_bb,
                    else_bb,
                } => {
                    let taken = if let Some(s) = site {
                        ctx.branch(s.0, regs[lhs.0], *cmp, regs[rhs.0])
                    } else {
                        cmp.eval(regs[lhs.0], regs[rhs.0])
                    };
                    if ctx.stopped() {
                        return Ok(None);
                    }
                    block = if taken { *then_bb } else { *else_bb };
                }
                Terminator::Return(val) => return Ok(val.map(|r| regs[r.0])),
            }
        }
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
        self.interpreter
            .execute_with_globals(&self.module, self.entry, input, &mut ctx)
    }

    /// Executes the entry function on `input` under a silent observer and
    /// returns how many instructions ran, or `None` if the execution
    /// errored. Used by benchmarks to measure specialization wins.
    pub fn instructions_executed(&self, input: &[f64]) -> Option<u64> {
        let mut observer = fp_runtime::NullObserver;
        let mut ctx = Ctx::new(&mut observer);
        self.interpreter
            .execute_counting(&self.module, self.entry, input, &mut ctx)
            .ok()
            .map(|(_, n)| n)
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
/// one [`Analyzable::run`] per input, on the thread's execution scratch.
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
        self.interpreter
            .execute(&self.module, self.entry, input, ctx)
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
