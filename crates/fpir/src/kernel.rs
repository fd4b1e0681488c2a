//! The lanewise structure-of-arrays kernel backend.
//!
//! The batch seam introduced by the batched-evaluation stack
//! ([`fp_runtime::BatchExecutor`]) lets a program amortize per-execution
//! setup over a whole batch. This module goes one step further and
//! amortizes the *interpretation* itself: [`KernelExecutor`] specializes a
//! module into a lane-parallel kernel that executes one instruction for
//! **all** inputs of a wave before moving to the next instruction, instead
//! of interpreting the whole program once per input.
//!
//! # Layout and execution model
//!
//! The register file is operand-major (structure of arrays): one
//! contiguous run of `lanes` binary64 values per register *slot*, so the
//! per-opcode dispatch (`match inst`) runs once per instruction and the
//! inner loop over lanes is a tight stride-1 sweep — the compute-engine
//! layering of SIMT runtimes (cf. kubecl), scaled down to a CPU
//! interpreter. Registers are mapped to slots by the liveness-compacted
//! [`FrameLayout`] of [`crate::analysis`]: registers that are never
//! simultaneously live share a slot, shrinking the wave's footprint from
//! `num_regs * lanes` to `num_slots * lanes` cells without changing a
//! single bit (compaction is disabled for functions where a register may
//! be read before it is written, preserving the zero-fill semantics).
//! Global cells use the same SoA layout. All lanes of a wave run in
//! lockstep and therefore share a single fuel counter and cancellation
//! poll schedule, which keeps the kernel's out-of-fuel and cancellation
//! behavior bit-identical to interpreting each input on its own.
//!
//! # Calls
//!
//! A call to a *wave-safe* callee (see [`crate::analysis::eligibility`]:
//! non-recursive, existing target, matching arity, transitively wave-safe)
//! stays in lockstep: the wave pushes the caller's SoA frame onto an
//! explicit frame stack, marshals the arguments column-wise and continues
//! at the callee's entry — mirroring the scalar interpreter's call
//! protocol (charge the call instruction, then check the depth limit)
//! tick for tick. A `ret` pops the stack, writes the return column into
//! the caller's destination slot (`NaN` for a bare `ret`, like the scalar
//! `unwrap_or(NAN)`) and resumes after the call. Calls to non-wave-safe
//! callees evict the whole wave to the scalar resume path *at* the call
//! instruction, which charges and executes it exactly as a from-scratch
//! interpretation would.
//!
//! # Divergence and the scalar fallback
//!
//! Lanes leave the lockstep wave in three ways, all handled by resuming
//! the lane from its exact machine state on the program's lowered core,
//! the one every scalar execution runs (see [`crate::interp`]) — including
//! the whole stack of suspended wave frames, which the resume unwinds frame
//! by frame (registers, globals, remaining fuel, probe context all carried
//! over). The lane's registers, arguments and globals are copied out of
//! the SoA files into three buffers of the session's scratch, and one
//! execution state carries the lane's fuel and globals across every
//! unwound frame; a call the resumed code makes gets a frame of its own on
//! the stack, as in any scalar execution:
//!
//! * a **divergent branch** — the wave follows the better-populated side
//!   of a conditional branch; the other side's lanes finish scalar;
//! * an **observer stop** — a probe returned [`ProbeControl::Stop`]
//!   (e.g. the overflow weak distance found its overflow); the scalar
//!   resume reproduces the interpreter's stop-at-next-instruction (and
//!   run-the-terminator) behavior exactly;
//! * a **non-wave-safe call** — recursion or an ill-formed call target
//!   executes per lane on the scalar interpreter (reachable only under
//!   [`KernelPolicy::Always`]; [`KernelPolicy::Auto`] never selects the
//!   kernel for such modules).
//!
//! Because each input owns its observer and IEEE lane operations are
//! deterministic, lockstep specialization preserves every bit: the
//! values, the per-input event streams and the stop/cancellation behavior
//! are all identical to [`Interpreter::execute`] — the workspace-level
//! `kernel_equivalence` proptests pin this down across every weak-distance
//! kind.
//!
//! [`ProbeControl::Stop`]: fp_runtime::ProbeControl::Stop
//! [`KernelPolicy::Always`]: fp_runtime::KernelPolicy::Always
//! [`KernelPolicy::Auto`]: fp_runtime::KernelPolicy::Auto
//! [`Interpreter::execute`]: crate::Interpreter::execute

use crate::analysis::FrameLayout;
use crate::interp::{ModuleProgram, CANCEL_POLL_INTERVAL};
use crate::ir::{BlockId, FuncId, Inst, Reg, Terminator};
use crate::lower::Machine;
use fp_runtime::{Analyzable, BatchExecutor, CancelToken, Ctx, Observer};
use std::cell::Cell;

/// Maximum number of lanes executed in one lockstep wave. Bounds the SoA
/// register file to `num_slots * WAVE_LANES` values while amortizing the
/// per-instruction dispatch over enough lanes to make it disappear.
pub const WAVE_LANES: usize = 256;

/// A suspended caller frame of the lockstep wave: everything needed to
/// resume the caller when the callee returns (or to unwind the lane on the
/// scalar interpreter after an eviction).
struct WaveFrame {
    /// The suspended function.
    func: FuncId,
    /// Destination register of the call (in `func`'s numbering).
    ret_dst: Reg,
    /// Block containing the call instruction.
    block: BlockId,
    /// Index of the call instruction in that block.
    inst: usize,
    /// The caller's SoA register file (laid out by `func`'s
    /// [`FrameLayout`]).
    regs: Vec<f64>,
    /// The caller's SoA argument file (`num_params * lanes`).
    args: Vec<f64>,
}

/// The buffers a wave runs in, owned by a kernel session and kept per
/// thread between sessions (see [`KernelExecutor`]).
#[derive(Default)]
struct KernelScratch {
    /// SoA register file of the current frame: `regs[slot * lanes + lane]`.
    regs: Vec<f64>,
    /// SoA argument file of the current frame: `args[i * lanes + lane]`.
    args: Vec<f64>,
    /// SoA global cells: `globals[g * lanes + lane]`.
    globals: Vec<f64>,
    /// Suspended caller frames (lockstep calls in flight).
    frames: Vec<WaveFrame>,
    /// Register and argument files of returned callees, reused by later
    /// lockstep calls.
    spare: Vec<Vec<f64>>,
    /// Lanes still executing in lockstep.
    active: Vec<usize>,
    then_lanes: Vec<usize>,
    else_lanes: Vec<usize>,
    evicted: Vec<usize>,
    /// One lane's registers, arguments and globals, rebuilt for each
    /// scalar resume.
    lane_regs: Vec<f64>,
    lane_args: Vec<f64>,
    lane_globals: Vec<f64>,
}

thread_local! {
    /// The calling thread's [`KernelScratch`], taken by
    /// [`KernelExecutor::new`] and put back when the session drops.
    static KERNEL_SCRATCH: Cell<Option<KernelScratch>> = const { Cell::new(None) };
}

/// The lanewise SoA kernel session handed out by
/// [`ModuleProgram`]'s [`fp_runtime::Analyzable::batch_executor`] under a
/// kernel-selecting policy.
///
/// The session's scratch (register, argument and global files, lane lists,
/// the wave frame stack and the lane-resume buffers) is reused across its
/// waves and kept per thread between sessions: [`KernelExecutor::new`]
/// takes the calling thread's scratch and dropping the session gives it
/// back, so once a thread has run a batch, later sessions on no wider
/// batches allocate no wave buffers. A session nested on the same thread (an
/// observer that runs a batch) starts from empty buffers, and whichever
/// session drops last leaves its scratch behind. Lockstep calls reuse the
/// files of returned callees. A thread keeps one such scratch, sized for at
/// most [`WAVE_LANES`] lanes. [`BatchExecutor::execute_one`] is one
/// scalar execution (see [`crate::interp`]).
pub struct KernelExecutor<'a> {
    program: &'a ModuleProgram,
    /// Whether the entry function is wave-safe
    /// ([`ModuleProgram::kernel_eligible`]): when it is not, waves evict
    /// all lanes at the first non-wave-safe `call`, so batches effectively
    /// run on the scalar resume path.
    lanewise: bool,
    scratch: KernelScratch,
}

impl<'a> KernelExecutor<'a> {
    /// Creates a kernel session over `program`.
    pub fn new(program: &'a ModuleProgram) -> Self {
        KernelExecutor {
            lanewise: program.kernel_eligible(),
            program,
            scratch: KERNEL_SCRATCH
                .try_with(Cell::take)
                .ok()
                .flatten()
                .unwrap_or_default(),
        }
    }

    /// Whether batches stay lanewise to the end (`false` means the entry
    /// function is not wave-safe — recursion or an ill-formed call — so
    /// every wave hands its lanes to the scalar resume path at the first
    /// such call; [`fp_runtime::KernelPolicy::Auto`] runs such modules one
    /// scalar execution per input instead).
    pub fn is_lanewise(&self) -> bool {
        self.lanewise
    }
}

impl Drop for KernelExecutor<'_> {
    fn drop(&mut self) {
        let scratch = std::mem::take(&mut self.scratch);
        // Fails only while the thread is being torn down; the buffers are
        // then simply freed.
        let _ = KERNEL_SCRATCH.try_with(|slot| slot.set(Some(scratch)));
    }
}

impl BatchExecutor for KernelExecutor<'_> {
    fn execute_one(&mut self, input: &[f64], observer: &mut dyn Observer) -> Option<f64> {
        self.program.run(input, observer)
    }

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
        results.resize(inputs.len(), None);
        let mut offset = 0;
        while offset < inputs.len() {
            let width = WAVE_LANES.min(inputs.len() - offset);
            let end = offset + width;
            run_wave(
                self.program,
                &mut self.scratch,
                &inputs[offset..end],
                &mut observers[offset..end],
                &mut results[offset..end],
            );
            offset = end;
        }
    }
}

impl std::fmt::Debug for KernelExecutor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelExecutor")
            .field("lanewise", &self.lanewise)
            .finish_non_exhaustive()
    }
}

/// One shared fuel/cancellation tick for the whole lockstep wave; returns
/// `true` when the wave must abort (out of fuel, or cancellation observed
/// at the same poll points as a scalar execution's tick). All lockstep
/// lanes have consumed exactly the same fuel, so one counter stands in for
/// all of them.
fn wave_tick(fuel: &mut u64, cancel: &CancelToken) -> bool {
    if *fuel == 0 {
        return true;
    }
    *fuel -= 1;
    fuel.is_multiple_of(CANCEL_POLL_INTERVAL) && cancel.is_cancelled()
}

/// Finishes one lane on the program's lowered core from its exact wave
/// state, unwinding the whole stack of suspended wave frames: the innermost
/// frame resumes at `(block, inst)`, and each suspended caller receives the
/// callee's return value in its destination register before resuming after
/// its call — bit-identical to having executed the lane from scratch (same
/// registers, globals, fuel and probe context). One [`Machine`] carries the
/// remaining fuel and the lane's globals across every unwound frame.
#[allow(clippy::too_many_arguments)]
fn resume_lane_stack(
    program: &ModuleProgram,
    layouts: &[FrameLayout],
    frames: &[WaveFrame],
    cur_func: FuncId,
    regs: &[f64],
    args: &[f64],
    globals: &[f64],
    lanes: usize,
    lane: usize,
    fuel: u64,
    ctx: &mut Ctx<'_>,
    block: BlockId,
    inst: usize,
    lane_regs: &mut Vec<f64>,
    lane_args: &mut Vec<f64>,
    lane_globals: &mut Vec<f64>,
) -> Option<f64> {
    let module = program.module();
    lane_globals.clear();
    lane_globals.extend((0..module.globals.len()).map(|g| globals[g * lanes + lane]));
    let mut machine = Machine::new(program.lowered(), program.interpreter(), lane_globals, fuel);

    // Materialize one lane of an SoA frame as the full scalar register
    // file: slot-sharing is invisible here because a dead register's stale
    // cell is never read before the scalar code rewrites it (the layout is
    // only compacted under that proof).
    fn extract(
        layout: &FrameLayout,
        soa: &[f64],
        num_regs: usize,
        lanes: usize,
        lane: usize,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend((0..num_regs).map(|r| soa[layout.slot[r] * lanes + lane]));
    }
    fn extract_args(soa: &[f64], num_params: usize, lanes: usize, lane: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..num_params).map(|i| soa[i * lanes + lane]));
    }

    let function = module.function(cur_func);
    extract(
        &layouts[cur_func.0],
        regs,
        function.num_regs,
        lanes,
        lane,
        lane_regs,
    );
    extract_args(args, function.num_params, lanes, lane, lane_args);
    let mut val = machine.resume(
        cur_func.0,
        lane_regs,
        lane_args,
        ctx,
        frames.len(),
        block.0,
        inst,
    );
    for (depth, frame) in frames.iter().enumerate().rev() {
        let ret = match &val {
            Err(_) => break,
            Ok(v) => v.unwrap_or(f64::NAN),
        };
        let function = module.function(frame.func);
        extract(
            &layouts[frame.func.0],
            &frame.regs,
            function.num_regs,
            lanes,
            lane,
            lane_regs,
        );
        lane_regs[frame.ret_dst.0] = ret;
        if ctx.stopped() {
            // A scalar execution returns `None` from every suspended caller
            // once the observer has stopped; nothing further is observable.
            val = Ok(None);
            break;
        }
        extract_args(&frame.args, function.num_params, lanes, lane, lane_args);
        val = machine.resume(
            frame.func.0,
            lane_regs,
            lane_args,
            ctx,
            depth,
            frame.block.0,
            frame.inst + 1,
        );
    }
    val.ok().flatten()
}

/// Executes up to [`WAVE_LANES`] inputs in lockstep over the entry
/// function (and, via the wave frame stack, its wave-safe callees),
/// writing one result per lane.
fn run_wave(
    program: &ModuleProgram,
    scratch: &mut KernelScratch,
    inputs: &[Vec<f64>],
    observers: &mut [&mut dyn Observer],
    results: &mut [Option<f64>],
) {
    let module = program.module();
    let interpreter = program.interpreter();
    let info = program.static_info();
    let layouts = &info.analysis.layouts;
    let wave_safe = &info.analysis.wave_safe;
    let lanes = inputs.len();
    let KernelScratch {
        regs,
        args,
        globals,
        frames,
        spare,
        active,
        then_lanes,
        else_lanes,
        evicted,
        lane_regs,
        lane_args,
        lane_globals,
    } = scratch;

    let mut cur_func = program.entry();
    let mut function = module.function(cur_func);
    let mut layout = &layouts[cur_func.0];

    // Each input gets its own probe context over its own observer, exactly
    // like one scalar execution per input.
    let mut ctxs: Vec<Ctx<'_>> = observers.iter_mut().map(|o| Ctx::new(&mut **o)).collect();

    active.clear();
    for (lane, input) in inputs.iter().enumerate() {
        if input.len() == function.num_params {
            active.push(lane);
        }
        // Arity mismatches keep their `None` result without reporting any
        // event, matching the scalar session's pre-execution check.
    }

    regs.clear();
    regs.resize(layout.num_slots * lanes, 0.0);
    args.clear();
    args.resize(function.num_params * lanes, 0.0);
    for &lane in active.iter() {
        for (i, &v) in inputs[lane].iter().enumerate() {
            args[i * lanes + lane] = v;
        }
    }
    // Frames an earlier wave left suspended (it stopped inside a callee)
    // hand their files to later lockstep calls.
    for frame in frames.drain(..) {
        spare.push(frame.regs);
        spare.push(frame.args);
    }
    globals.clear();
    globals.reserve(module.globals.len() * lanes);
    for g in &module.globals {
        for _ in 0..lanes {
            globals.push(g.init);
        }
    }

    let mut fuel = interpreter.fuel;
    let cancel = &interpreter.cancel;
    let mut block = function.entry();
    let mut first = 0usize;

    /// One lane leaves the wave: resume it on the scalar interpreter from
    /// `(resume_block, resume_inst)` of the current frame, unwinding every
    /// suspended wave frame behind it.
    macro_rules! leave_wave {
        ($lane:expr, $resume_block:expr, $resume_inst:expr) => {{
            let lane = $lane;
            results[lane] = resume_lane_stack(
                program,
                layouts,
                frames,
                cur_func,
                regs,
                args,
                globals,
                lanes,
                lane,
                fuel,
                &mut ctxs[lane],
                $resume_block,
                $resume_inst,
                lane_regs,
                lane_args,
                lane_globals,
            );
        }};
    }

    /// The sited-op protocol shared by the `Bin` and `Un` arms: apply the
    /// op per lane (`$apply` maps a lane index to its value), report the
    /// event, store the result, and evict lanes whose observer requested a
    /// stop to the scalar resume path at the *next* instruction — the
    /// scalar interpreter's stop-at-next-instruction (and
    /// run-the-terminator) behavior.
    macro_rules! sited_op {
        ($site:expr, $event:expr, $dst:expr, $idx:expr, $apply:expr) => {{
            let dcol = layout.slot[$dst.0] * lanes;
            evicted.clear();
            for &lane in active.iter() {
                let v = ($apply)(lane);
                ctxs[lane].op($site.0, $event, v);
                regs[dcol + lane] = v;
                if ctxs[lane].stopped() {
                    evicted.push(lane);
                }
            }
            if !evicted.is_empty() {
                for i in 0..evicted.len() {
                    leave_wave!(evicted[i], block, $idx + 1);
                }
                active.retain(|l| !evicted.contains(l));
            }
        }};
    }

    'blocks: loop {
        let b = function.block(block);
        let start = first.min(b.insts.len());
        first = 0;
        for idx in start..b.insts.len() {
            let inst = &b.insts[idx];
            if active.is_empty() {
                return;
            }
            if let Inst::Call { func: callee, .. } = inst {
                if !wave_safe.get(callee.0).copied().unwrap_or(false) {
                    // Non-wave-safe callee (recursion, ill-formed call):
                    // hand every remaining lane to the resume path *before*
                    // charging the instruction — the scalar loop charges it
                    // itself.
                    for &lane in active.iter() {
                        leave_wave!(lane, block, idx);
                    }
                    active.clear();
                    return;
                }
            }
            if wave_tick(&mut fuel, cancel) {
                // Out of fuel or cancelled: every lockstep lane fails at
                // the same instruction, like the scalar interpreter would.
                for &lane in active.iter() {
                    results[lane] = None;
                }
                active.clear();
                return;
            }
            match inst {
                Inst::Const { dst, value } => {
                    let dcol = layout.slot[dst.0] * lanes;
                    for &lane in active.iter() {
                        regs[dcol + lane] = *value;
                    }
                }
                Inst::Copy { dst, src } => {
                    let (dcol, scol) = (layout.slot[dst.0] * lanes, layout.slot[src.0] * lanes);
                    for &lane in active.iter() {
                        regs[dcol + lane] = regs[scol + lane];
                    }
                }
                Inst::Param { dst, index } => {
                    let (dcol, icol) = (layout.slot[dst.0] * lanes, *index * lanes);
                    for &lane in active.iter() {
                        regs[dcol + lane] = args[icol + lane];
                    }
                }
                Inst::Bin {
                    dst,
                    op,
                    lhs,
                    rhs,
                    site,
                } => {
                    let (lcol, rcol) = (layout.slot[lhs.0] * lanes, layout.slot[rhs.0] * lanes);
                    match site {
                        None => {
                            let dcol = layout.slot[dst.0] * lanes;
                            for &lane in active.iter() {
                                regs[dcol + lane] = op.apply(regs[lcol + lane], regs[rcol + lane]);
                            }
                        }
                        Some(s) => sited_op!(s, op.event_kind(), dst, idx, |lane: usize| op
                            .apply(regs[lcol + lane], regs[rcol + lane])),
                    }
                }
                Inst::Un { dst, op, arg, site } => {
                    let acol = layout.slot[arg.0] * lanes;
                    match site {
                        None => {
                            let dcol = layout.slot[dst.0] * lanes;
                            for &lane in active.iter() {
                                regs[dcol + lane] = op.apply(regs[acol + lane]);
                            }
                        }
                        Some(s) => sited_op!(s, op.event_kind(), dst, idx, |lane: usize| op
                            .apply(regs[acol + lane])),
                    }
                }
                Inst::Cmp { dst, cmp, lhs, rhs } => {
                    let dcol = layout.slot[dst.0] * lanes;
                    let (lcol, rcol) = (layout.slot[lhs.0] * lanes, layout.slot[rhs.0] * lanes);
                    for &lane in active.iter() {
                        regs[dcol + lane] = if cmp.eval(regs[lcol + lane], regs[rcol + lane]) {
                            1.0
                        } else {
                            0.0
                        };
                    }
                }
                Inst::Select {
                    dst,
                    cond,
                    if_true,
                    if_false,
                } => {
                    let dcol = layout.slot[dst.0] * lanes;
                    let ccol = layout.slot[cond.0] * lanes;
                    let (tcol, fcol) = (
                        layout.slot[if_true.0] * lanes,
                        layout.slot[if_false.0] * lanes,
                    );
                    for &lane in active.iter() {
                        regs[dcol + lane] = if regs[ccol + lane] != 0.0 {
                            regs[tcol + lane]
                        } else {
                            regs[fcol + lane]
                        };
                    }
                }
                Inst::Call {
                    dst,
                    func: callee,
                    args: call_args,
                } => {
                    // Lockstep call: a scalar execution rejects depth
                    // `frames.len() + 1` past the limit — all lanes fail
                    // identically, with the call already charged.
                    if frames.len() + 1 > interpreter.max_call_depth {
                        for &lane in active.iter() {
                            results[lane] = None;
                        }
                        active.clear();
                        return;
                    }
                    let callee_fn = module.function(*callee);
                    let callee_layout = &layouts[callee.0];
                    let mut new_args = spare.pop().unwrap_or_default();
                    new_args.clear();
                    new_args.resize(callee_fn.num_params * lanes, 0.0);
                    for (i, r) in call_args.iter().enumerate() {
                        let scol = layout.slot[r.0] * lanes;
                        for &lane in active.iter() {
                            new_args[i * lanes + lane] = regs[scol + lane];
                        }
                    }
                    // The callee's frame zero-fills like a scalar frame
                    // (observable only under an identity layout, where a
                    // register may be read before any write).
                    let mut new_regs = spare.pop().unwrap_or_default();
                    new_regs.clear();
                    new_regs.resize(callee_layout.num_slots * lanes, 0.0);
                    frames.push(WaveFrame {
                        func: cur_func,
                        ret_dst: *dst,
                        block,
                        inst: idx,
                        regs: std::mem::replace(regs, new_regs),
                        args: std::mem::replace(args, new_args),
                    });
                    cur_func = *callee;
                    function = callee_fn;
                    layout = callee_layout;
                    block = function.entry();
                    first = 0;
                    continue 'blocks;
                }
                Inst::LoadGlobal { dst, global } => {
                    let (dcol, gcol) = (layout.slot[dst.0] * lanes, global.0 * lanes);
                    for &lane in active.iter() {
                        regs[dcol + lane] = globals[gcol + lane];
                    }
                }
                Inst::StoreGlobal { global, src } => {
                    let (gcol, scol) = (global.0 * lanes, layout.slot[src.0] * lanes);
                    for &lane in active.iter() {
                        globals[gcol + lane] = regs[scol + lane];
                    }
                }
            }
        }
        if active.is_empty() {
            return;
        }
        if wave_tick(&mut fuel, cancel) {
            for &lane in active.iter() {
                results[lane] = None;
            }
            active.clear();
            return;
        }
        match &b.term {
            Terminator::Jump(next) => block = *next,
            Terminator::Return(val) => {
                if let Some(mut frame) = frames.pop() {
                    // Lockstep return: write the return column into the
                    // caller's destination slot (`NaN` for a bare `ret`)
                    // and resume the caller after its call instruction.
                    let parent_layout = &layouts[frame.func.0];
                    let dcol = parent_layout.slot[frame.ret_dst.0] * lanes;
                    match val {
                        Some(r) => {
                            let rcol = layout.slot[r.0] * lanes;
                            for &lane in active.iter() {
                                frame.regs[dcol + lane] = regs[rcol + lane];
                            }
                        }
                        None => {
                            for &lane in active.iter() {
                                frame.regs[dcol + lane] = f64::NAN;
                            }
                        }
                    }
                    spare.push(std::mem::replace(regs, frame.regs));
                    spare.push(std::mem::replace(args, frame.args));
                    cur_func = frame.func;
                    function = module.function(cur_func);
                    layout = parent_layout;
                    block = frame.block;
                    first = frame.inst + 1;
                } else {
                    for &lane in active.iter() {
                        results[lane] = val.map(|r| regs[layout.slot[r.0] * lanes + lane]);
                    }
                    active.clear();
                    return;
                }
            }
            Terminator::CondBr {
                site,
                lhs,
                cmp,
                rhs,
                then_bb,
                else_bb,
            } => {
                let (lcol, rcol) = (layout.slot[lhs.0] * lanes, layout.slot[rhs.0] * lanes);
                then_lanes.clear();
                else_lanes.clear();
                for &lane in active.iter() {
                    let l = regs[lcol + lane];
                    let r = regs[rcol + lane];
                    let taken = if let Some(s) = site {
                        ctxs[lane].branch(s.0, l, *cmp, r)
                    } else {
                        cmp.eval(l, r)
                    };
                    if ctxs[lane].stopped() {
                        // The scalar interpreter returns no result right
                        // after a stop-requesting branch event (suspended
                        // callers cascade the `None` without another
                        // observable step).
                        results[lane] = None;
                    } else if taken {
                        then_lanes.push(lane);
                    } else {
                        else_lanes.push(lane);
                    }
                }
                // The wave follows the better-populated side (ties go to
                // the then-side); the other side's lanes finish scalar.
                let (next, stay, leave_bb, leave) = if then_lanes.len() >= else_lanes.len() {
                    (*then_bb, &mut *then_lanes, *else_bb, &mut *else_lanes)
                } else {
                    (*else_bb, &mut *else_lanes, *then_bb, &mut *then_lanes)
                };
                for &lane in leave.iter() {
                    leave_wave!(lane, leave_bb, 0);
                }
                std::mem::swap(active, stay);
                block = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::interp::Interpreter;
    use crate::ir::{BinOp, UnOp};
    use fp_runtime::{
        Analyzable, BranchEvent, Cmp, KernelPolicy, NullObserver, OpEvent, ProbeControl,
        TraceRecorder,
    };

    /// `f(x) { if (x <= 1) x = x + 1; return x * x; }` — one divergent
    /// branch, sited ops and branch.
    fn square_gate() -> ModuleProgram {
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
        ModuleProgram::new(mb.build(), "f").expect("entry exists")
    }

    /// A straight-line module mixing every lanewise opcode except `call`.
    fn straightline() -> ModuleProgram {
        let mut mb = ModuleBuilder::new();
        let w = mb.global("w", 1.0);
        let mut f = mb.function("f", 2);
        let x = f.param(0);
        let y = f.param(1);
        let s = f.bin(BinOp::Add, x, y, Some(0));
        let d = f.bin(BinOp::Sub, x, y, None);
        let p = f.bin(BinOp::Mul, s, d, Some(1));
        let a = f.un(UnOp::Abs, p, Some(2));
        let r = f.un(UnOp::Sqrt, a, None);
        let cmp = f.cmp(Cmp::Lt, r, s);
        let sel = f.select(cmp, r, a);
        let wv = f.load_global(w);
        let prod = f.bin(BinOp::Mul, wv, sel, None);
        f.store_global(w, prod);
        let out = f.load_global(w);
        f.ret(Some(out));
        f.finish();
        ModuleProgram::new(mb.build(), "f").expect("entry exists")
    }

    fn lane_inputs(n: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| (i as f64 * 0.37 - 3.0) * (d as f64 + 1.0))
                    .collect()
            })
            .collect()
    }

    fn assert_kernel_matches_scalar(program: &ModuleProgram, inputs: &[Vec<f64>]) {
        let mut session = program.batch_executor(KernelPolicy::Always);
        let mut kernel_recs: Vec<TraceRecorder> =
            inputs.iter().map(|_| TraceRecorder::new()).collect();
        let mut refs: Vec<&mut dyn Observer> = kernel_recs
            .iter_mut()
            .map(|o| o as &mut dyn Observer)
            .collect();
        let mut results = Vec::new();
        session.execute_many(inputs, &mut refs, &mut results);
        for (lane, input) in inputs.iter().enumerate() {
            let mut scalar_rec = TraceRecorder::new();
            let scalar = program.run(input, &mut scalar_rec);
            assert_eq!(
                results[lane].map(f64::to_bits),
                scalar.map(f64::to_bits),
                "lane {lane} ({input:?})"
            );
            assert_eq!(
                kernel_recs[lane].ops().collect::<Vec<_>>(),
                scalar_rec.ops().collect::<Vec<_>>(),
                "op events of lane {lane}"
            );
            assert_eq!(
                kernel_recs[lane].branches().collect::<Vec<_>>(),
                scalar_rec.branches().collect::<Vec<_>>(),
                "branch events of lane {lane}"
            );
        }
    }

    #[test]
    fn straightline_wave_is_bit_identical_to_scalar() {
        let p = straightline();
        assert!(p.kernel_eligible());
        assert_kernel_matches_scalar(&p, &lane_inputs(333, 2));
    }

    #[test]
    fn straightline_wave_compacts_its_register_file() {
        let p = straightline();
        let info = p.static_info();
        let layout = &info.analysis.layouts[p.entry().0];
        assert!(layout.compacted, "chain values share slots");
        assert!(layout.num_slots < p.module().function(p.entry()).num_regs);
    }

    #[test]
    fn divergent_wave_is_bit_identical_to_scalar() {
        let p = square_gate();
        assert_kernel_matches_scalar(&p, &lane_inputs(100, 1));
    }

    #[test]
    fn wave_handles_arity_mismatch_lanes() {
        let p = square_gate();
        let mut session = p.batch_executor(KernelPolicy::Always);
        let inputs = vec![vec![0.0], vec![1.0, 2.0], vec![3.0]];
        let mut obs: Vec<NullObserver> = inputs.iter().map(|_| NullObserver).collect();
        let mut refs: Vec<&mut dyn Observer> =
            obs.iter_mut().map(|o| o as &mut dyn Observer).collect();
        let mut results = Vec::new();
        session.execute_many(&inputs, &mut refs, &mut results);
        assert_eq!(results, vec![Some(1.0), None, Some(9.0)]);
    }

    #[test]
    fn observer_stop_mid_wave_matches_scalar() {
        // Stop as soon as a sited op produces a value above a threshold:
        // exercises the stop-eviction path (the lane must still traverse
        // the terminator exactly like the scalar interpreter does).
        struct StopAbove(f64);
        impl Observer for StopAbove {
            fn on_op(&mut self, ev: &OpEvent) -> ProbeControl {
                if ev.value > self.0 {
                    ProbeControl::Stop
                } else {
                    ProbeControl::Continue
                }
            }
        }
        let p = square_gate();
        let inputs = lane_inputs(64, 1);
        let mut session = p.batch_executor(KernelPolicy::Always);
        let mut obs: Vec<StopAbove> = inputs.iter().map(|_| StopAbove(4.0)).collect();
        let mut refs: Vec<&mut dyn Observer> =
            obs.iter_mut().map(|o| o as &mut dyn Observer).collect();
        let mut results = Vec::new();
        session.execute_many(&inputs, &mut refs, &mut results);
        for (lane, input) in inputs.iter().enumerate() {
            let mut scalar_obs = StopAbove(4.0);
            let scalar = p.run(input, &mut scalar_obs);
            assert_eq!(results[lane], scalar, "lane {lane} ({input:?})");
        }
    }

    #[test]
    fn branch_observer_stop_matches_scalar() {
        struct StopAtBranch;
        impl Observer for StopAtBranch {
            fn on_branch(&mut self, _ev: &BranchEvent) -> ProbeControl {
                ProbeControl::Stop
            }
        }
        let p = square_gate();
        let inputs = lane_inputs(16, 1);
        let mut session = p.batch_executor(KernelPolicy::Always);
        let mut obs: Vec<StopAtBranch> = inputs.iter().map(|_| StopAtBranch).collect();
        let mut refs: Vec<&mut dyn Observer> =
            obs.iter_mut().map(|o| o as &mut dyn Observer).collect();
        let mut results = Vec::new();
        session.execute_many(&inputs, &mut refs, &mut results);
        for (lane, input) in inputs.iter().enumerate() {
            assert_eq!(
                results[lane],
                p.run(input, &mut StopAtBranch),
                "lane {lane}"
            );
        }
    }

    /// main(x) calls callee(x·1) which scales a global through sited ops.
    fn call_module() -> ModuleProgram {
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
        let one = main.constant(1.0);
        let scaled = main.bin(BinOp::Mul, x, one, None);
        let _ = main.call(callee_id, vec![scaled]);
        let back = main.load_global(w);
        main.ret(Some(back));
        main.finish();
        ModuleProgram::new(mb.build(), "main").expect("entry exists")
    }

    #[test]
    fn lockstep_calls_stay_in_the_wave_and_match_scalar() {
        // The call is non-recursive with matching arity, so the wave pushes
        // a frame and runs the callee in lockstep; results and events match
        // the scalar interpreter bit for bit.
        let p = call_module();
        assert!(p.kernel_eligible(), "wave-safe calls are kernel-eligible");
        assert_kernel_matches_scalar(&p, &lane_inputs(40, 1));
    }

    #[test]
    fn divergence_inside_a_callee_unwinds_the_frame_stack() {
        // callee(x) = |x| via a branch (divergent across lanes); evicted
        // lanes must unwind through the suspended caller frame.
        let mut mb = ModuleBuilder::new();
        let mut callee = mb.function("my_abs", 1);
        let x = callee.param(0);
        let z = callee.constant(0.0);
        let neg_bb = callee.new_block();
        let pos_bb = callee.new_block();
        callee.cond_br(Some(0), x, Cmp::Lt, z, neg_bb, pos_bb);
        callee.switch_to(neg_bb);
        let n = callee.bin(BinOp::Sub, z, x, Some(0));
        callee.ret(Some(n));
        callee.switch_to(pos_bb);
        callee.ret(Some(x));
        let callee_id = callee.finish();
        let mut main = mb.function("main", 1);
        let x = main.param(0);
        let a = main.call(callee_id, vec![x]);
        let one = main.constant(1.0);
        let out = main.bin(BinOp::Add, a, one, Some(1));
        main.ret(Some(out));
        main.finish();
        let p = ModuleProgram::new(mb.build(), "main").expect("entry exists");
        assert!(p.kernel_eligible());
        // Mixed signs force divergence inside the callee.
        assert_kernel_matches_scalar(&p, &lane_inputs(64, 1));
    }

    #[test]
    fn nested_calls_run_lockstep_and_match_scalar() {
        // main -> outer -> inner: two suspended frames on the wave stack.
        let mut mb = ModuleBuilder::new();
        let mut inner = mb.function("inner", 2);
        let a = inner.param(0);
        let b = inner.param(1);
        let s = inner.bin(BinOp::Add, a, b, Some(0));
        inner.ret(Some(s));
        let inner_id = inner.finish();
        let mut outer = mb.function("outer", 1);
        let x = outer.param(0);
        let two = outer.constant(2.0);
        let d = outer.call(inner_id, vec![x, two]);
        let m = outer.bin(BinOp::Mul, d, d, Some(1));
        outer.ret(Some(m));
        let outer_id = outer.finish();
        let mut main = mb.function("main", 1);
        let x = main.param(0);
        let r = main.call(outer_id, vec![x]);
        let half = main.constant(0.5);
        let out = main.bin(BinOp::Mul, r, half, None);
        main.ret(Some(out));
        main.finish();
        let p = ModuleProgram::new(mb.build(), "main").expect("entry exists");
        assert!(p.kernel_eligible());
        assert_kernel_matches_scalar(&p, &lane_inputs(96, 1));
    }

    #[test]
    fn bare_ret_in_a_callee_yields_nan_like_scalar() {
        let mut mb = ModuleBuilder::new();
        let mut callee = mb.function("void_fn", 1);
        let _ = callee.param(0);
        callee.ret(None);
        let callee_id = callee.finish();
        let mut main = mb.function("main", 1);
        let x = main.param(0);
        let r = main.call(callee_id, vec![x]);
        let out = main.bin(BinOp::Add, r, x, None);
        main.ret(Some(out));
        main.finish();
        let p = ModuleProgram::new(mb.build(), "main").expect("entry exists");
        assert!(p.kernel_eligible());
        assert_kernel_matches_scalar(&p, &lane_inputs(8, 1));
    }

    #[test]
    fn recursive_modules_fall_back_per_lane_and_match_scalar() {
        // fact(n): n <= 0 ? 1 : n * fact(n - 1) — recursion is never
        // wave-safe, so under `Always` the kernel evicts every lane at the
        // call; results still match the scalar interpreter bit for bit.
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("fact", 1);
        let n = f.param(0);
        let zero = f.constant(0.0);
        let one = f.constant(1.0);
        let base_bb = f.new_block();
        let rec_bb = f.new_block();
        f.cond_br(Some(0), n, Cmp::Le, zero, base_bb, rec_bb);
        f.switch_to(base_bb);
        f.ret(Some(one));
        f.switch_to(rec_bb);
        let nm1 = f.bin(BinOp::Sub, n, one, None);
        let sub = f.call(FuncId(0), vec![nm1]);
        let prod = f.bin(BinOp::Mul, n, sub, Some(1));
        f.ret(Some(prod));
        f.finish();
        let p = ModuleProgram::new(mb.build(), "fact").expect("entry exists");
        assert!(!p.kernel_eligible(), "recursion is not wave-safe");
        let inputs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64]).collect();
        assert_kernel_matches_scalar(&p, &inputs);
    }

    #[test]
    fn observer_stop_inside_a_callee_matches_scalar() {
        struct StopAbove(f64);
        impl Observer for StopAbove {
            fn on_op(&mut self, ev: &OpEvent) -> ProbeControl {
                if ev.value > self.0 {
                    ProbeControl::Stop
                } else {
                    ProbeControl::Continue
                }
            }
        }
        let p = call_module();
        let inputs = lane_inputs(48, 1);
        let mut session = p.batch_executor(KernelPolicy::Always);
        let mut obs: Vec<StopAbove> = inputs.iter().map(|_| StopAbove(2.0)).collect();
        let mut refs: Vec<&mut dyn Observer> =
            obs.iter_mut().map(|o| o as &mut dyn Observer).collect();
        let mut results = Vec::new();
        session.execute_many(&inputs, &mut refs, &mut results);
        for (lane, input) in inputs.iter().enumerate() {
            let mut scalar_obs = StopAbove(2.0);
            assert_eq!(
                results[lane],
                p.run(input, &mut scalar_obs),
                "lane {lane} ({input:?})"
            );
        }
    }

    #[test]
    fn fuel_exhaustion_inside_a_callee_matches_scalar() {
        // A tight budget that runs out mid-callee for later lanes: the
        // shared wave fuel counter must fail the same lanes the per-input
        // scalar budget fails.
        let p = call_module().with_interpreter(Interpreter::default().with_fuel(9));
        assert_kernel_matches_scalar(&p, &lane_inputs(16, 1));
    }

    #[test]
    fn precancelled_token_stops_every_lane() {
        // A countdown loop long enough to reach a cancellation poll (the
        // wave polls at the same fuel points as the scalar interpreter).
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("count", 1);
        let x = f.param(0);
        let zero = f.constant(0.0);
        let one = f.constant(1.0);
        let i = f.copy(x);
        let header = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(header);
        f.switch_to(header);
        f.cond_br(None, i, Cmp::Gt, zero, body, exit);
        f.switch_to(body);
        let ni = f.bin(BinOp::Sub, i, one, None);
        f.assign(i, ni);
        f.jump(header);
        f.switch_to(exit);
        f.ret(Some(i));
        f.finish();
        let token = CancelToken::new();
        token.cancel();
        let p = ModuleProgram::new(mb.build(), "count")
            .expect("entry exists")
            .with_cancel(token);
        let mut session = p.batch_executor(KernelPolicy::Always);
        let inputs: Vec<Vec<f64>> = (0..8).map(|_| vec![100_000.0]).collect();
        let mut obs: Vec<NullObserver> = inputs.iter().map(|_| NullObserver).collect();
        let mut refs: Vec<&mut dyn Observer> =
            obs.iter_mut().map(|o| o as &mut dyn Observer).collect();
        let mut results = Vec::new();
        session.execute_many(&inputs, &mut refs, &mut results);
        assert!(results.iter().all(Option::is_none));
        // Scalar agrees: a cancelled execution reports no result.
        assert_eq!(p.run(&[100_000.0], &mut NullObserver), None);
    }

    #[test]
    fn fuel_exhaustion_matches_scalar_per_lane() {
        // A loop whose iteration count depends on the input: lanes with
        // big inputs burn more fuel. Divergent lanes carry their exact
        // remaining fuel into the scalar resume, so out-of-fuel lanes are
        // the same set under both backends.
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("count", 1);
        let x = f.param(0);
        let zero = f.constant(0.0);
        let one = f.constant(1.0);
        let i = f.copy(x);
        let header = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(header);
        f.switch_to(header);
        f.cond_br(None, i, Cmp::Gt, zero, body, exit);
        f.switch_to(body);
        let ni = f.bin(BinOp::Sub, i, one, None);
        f.assign(i, ni);
        f.jump(header);
        f.switch_to(exit);
        f.ret(Some(i));
        f.finish();
        let p = ModuleProgram::new(mb.build(), "count")
            .expect("entry exists")
            .with_interpreter(Interpreter::default().with_fuel(300));
        let inputs: Vec<Vec<f64>> = (0..24).map(|i| vec![(i * 7) as f64]).collect();
        let mut session = p.batch_executor(KernelPolicy::Always);
        let mut obs: Vec<NullObserver> = inputs.iter().map(|_| NullObserver).collect();
        let mut refs: Vec<&mut dyn Observer> =
            obs.iter_mut().map(|o| o as &mut dyn Observer).collect();
        let mut results = Vec::new();
        session.execute_many(&inputs, &mut refs, &mut results);
        for (lane, input) in inputs.iter().enumerate() {
            assert_eq!(
                results[lane],
                p.run(input, &mut NullObserver),
                "lane {lane} ({input:?})"
            );
        }
    }

    #[test]
    fn execute_one_matches_the_interpreter() {
        let p = square_gate();
        let mut session = KernelExecutor::new(&p);
        assert_eq!(session.execute_one(&[3.0], &mut NullObserver), Some(9.0));
        assert_eq!(session.execute_one(&[0.0], &mut NullObserver), Some(1.0));
        assert_eq!(session.execute_one(&[1.0, 2.0], &mut NullObserver), None);
        assert!(format!("{session:?}").contains("lanewise"));
    }

    #[test]
    fn waves_chunk_batches_larger_than_wave_lanes() {
        let p = straightline();
        assert_kernel_matches_scalar(&p, &lane_inputs(WAVE_LANES * 2 + 17, 2));
    }
}
