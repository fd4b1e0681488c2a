//! The lowered execution core behind every scalar `fpir` execution.
//!
//! [`Lowered::new`] translates a module once into flat per-function op
//! arrays: one [`Op`] per [`Inst`], in block order, so instruction `i` of
//! block `b` is op `b.start + i`. Operands are `u32` indices, site-less
//! `add`/`sub`/`mul`/`div` have ops of their own, and a call's argument
//! registers sit in a side table. Each block keeps its op range and its
//! terminator. See the module docs of [`crate::interp`] for how the core
//! charges fuel and where its frames live.

use crate::interp::{ExecError, Interpreter, CANCEL_POLL_INTERVAL};
use crate::ir::{BinOp, Function, Inst, Module, Terminator, UnOp};
use fp_runtime::{CancelToken, Cmp, Ctx, FpOp};
use std::cell::Cell;

/// Call arguments up to this many are gathered on the stack; wider calls
/// borrow a buffer from the thread's spare buffers.
const STACK_ARGS: usize = 8;

/// Globals up to this many live on the stack during an execution.
const STACK_GLOBALS: usize = 8;

/// One lowered instruction.
#[derive(Debug, Clone, Copy)]
enum Op {
    Const {
        dst: u32,
        value: f64,
    },
    Copy {
        dst: u32,
        src: u32,
    },
    Param {
        dst: u32,
        index: u32,
    },
    Add {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    Sub {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    Mul {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    Div {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// A site-less `pow`, `min` or `max`.
    Bin {
        dst: u32,
        op: BinOp,
        lhs: u32,
        rhs: u32,
    },
    SitedBin {
        dst: u32,
        op: BinOp,
        kind: FpOp,
        lhs: u32,
        rhs: u32,
        site: u32,
    },
    Un {
        dst: u32,
        op: UnOp,
        arg: u32,
    },
    SitedUn {
        dst: u32,
        op: UnOp,
        kind: FpOp,
        arg: u32,
        site: u32,
    },
    Cmp {
        dst: u32,
        cmp: Cmp,
        lhs: u32,
        rhs: u32,
    },
    Select {
        dst: u32,
        cond: u32,
        if_true: u32,
        if_false: u32,
    },
    /// `args..args + nargs` indexes the function's call-argument table.
    Call {
        dst: u32,
        func: u32,
        args: u32,
        nargs: u32,
    },
    LoadGlobal {
        dst: u32,
        global: u32,
    },
    StoreGlobal {
        global: u32,
        src: u32,
    },
}

/// A lowered block terminator.
#[derive(Debug, Clone, Copy)]
enum Term {
    Jump(u32),
    Br {
        site: Option<u32>,
        lhs: u32,
        cmp: Cmp,
        rhs: u32,
        then_bb: u32,
        else_bb: u32,
    },
    Ret(u32),
    RetVoid,
}

/// A block: its ops are `start..end` of the function's op array.
#[derive(Debug, Clone, Copy)]
struct LBlock {
    start: u32,
    end: u32,
    term: Term,
}

#[derive(Debug)]
struct LFunc {
    num_params: usize,
    num_regs: usize,
    ops: Box<[Op]>,
    blocks: Box<[LBlock]>,
    call_args: Box<[u32]>,
}

/// A module lowered for execution: built once per module and shared by
/// every execution of it.
#[derive(Debug)]
pub(crate) struct Lowered {
    funcs: Box<[LFunc]>,
    globals: Box<[f64]>,
}

/// An index as a `u32` operand. An index past `u32::MAX` cannot address
/// anything a module holds, so it saturates to one that fails the same
/// bounds check at run time.
fn index(i: usize) -> u32 {
    u32::try_from(i).unwrap_or(u32::MAX)
}

impl Lowered {
    /// Lowers every function and the globals' initial values of `module`.
    pub(crate) fn new(module: &Module) -> Self {
        Lowered {
            funcs: module.functions.iter().map(LFunc::new).collect(),
            globals: module.globals.iter().map(|g| g.init).collect(),
        }
    }

    /// Executes `func` on `args` under `interpreter`'s limits and hands the
    /// return value, the final globals and the fuel consumed to `finish`.
    pub(crate) fn execute<R>(
        &self,
        interpreter: &Interpreter,
        func: usize,
        args: &[f64],
        ctx: &mut Ctx<'_>,
        finish: impl FnOnce(Option<f64>, &[f64], u64) -> R,
    ) -> Result<R, ExecError> {
        let expected = self.funcs[func].num_params;
        if args.len() != expected {
            return Err(ExecError::ArityMismatch {
                expected,
                got: args.len(),
            });
        }
        let run = |globals: &mut [f64]| {
            let mut machine = Machine::new(self, interpreter, globals, interpreter.fuel);
            let ret = machine.enter(func, args, ctx, 0)?;
            let used = interpreter.fuel - machine.fuel;
            Ok(finish(ret, machine.globals, used))
        };
        let n = self.globals.len();
        if n <= STACK_GLOBALS {
            let mut globals = [0.0; STACK_GLOBALS];
            globals[..n].copy_from_slice(&self.globals);
            run(&mut globals[..n])
        } else {
            let mut globals = take_spare();
            globals.extend_from_slice(&self.globals);
            let result = run(&mut globals);
            give_back(globals);
            result
        }
    }
}

impl LFunc {
    fn new(function: &Function) -> Self {
        let mut ops = Vec::with_capacity(function.blocks.iter().map(|b| b.insts.len()).sum());
        let mut call_args = Vec::new();
        let blocks = function
            .blocks
            .iter()
            .map(|block| {
                let start = index(ops.len());
                ops.extend(block.insts.iter().map(|inst| lower(inst, &mut call_args)));
                LBlock {
                    start,
                    end: index(ops.len()),
                    term: lower_term(&block.term),
                }
            })
            .collect();
        LFunc {
            num_params: function.num_params,
            num_regs: function.num_regs,
            ops: ops.into(),
            blocks,
            call_args: call_args.into(),
        }
    }
}

fn lower(inst: &Inst, call_args: &mut Vec<u32>) -> Op {
    match inst {
        Inst::Const { dst, value } => Op::Const {
            dst: index(dst.0),
            value: *value,
        },
        Inst::Copy { dst, src } => Op::Copy {
            dst: index(dst.0),
            src: index(src.0),
        },
        Inst::Param { dst, index: i } => Op::Param {
            dst: index(dst.0),
            index: index(*i),
        },
        Inst::Bin {
            dst,
            op,
            lhs,
            rhs,
            site,
        } => {
            let (dst, lhs, rhs) = (index(dst.0), index(lhs.0), index(rhs.0));
            match (site, op) {
                (Some(site), _) => Op::SitedBin {
                    dst,
                    op: *op,
                    kind: op.event_kind(),
                    lhs,
                    rhs,
                    site: site.0,
                },
                (None, BinOp::Add) => Op::Add { dst, lhs, rhs },
                (None, BinOp::Sub) => Op::Sub { dst, lhs, rhs },
                (None, BinOp::Mul) => Op::Mul { dst, lhs, rhs },
                (None, BinOp::Div) => Op::Div { dst, lhs, rhs },
                (None, _) => Op::Bin {
                    dst,
                    op: *op,
                    lhs,
                    rhs,
                },
            }
        }
        Inst::Un { dst, op, arg, site } => {
            let (dst, arg) = (index(dst.0), index(arg.0));
            match site {
                Some(site) => Op::SitedUn {
                    dst,
                    op: *op,
                    kind: op.event_kind(),
                    arg,
                    site: site.0,
                },
                None => Op::Un { dst, op: *op, arg },
            }
        }
        Inst::Cmp { dst, cmp, lhs, rhs } => Op::Cmp {
            dst: index(dst.0),
            cmp: *cmp,
            lhs: index(lhs.0),
            rhs: index(rhs.0),
        },
        Inst::Select {
            dst,
            cond,
            if_true,
            if_false,
        } => Op::Select {
            dst: index(dst.0),
            cond: index(cond.0),
            if_true: index(if_true.0),
            if_false: index(if_false.0),
        },
        Inst::Call { dst, func, args } => {
            let start = index(call_args.len());
            call_args.extend(args.iter().map(|r| index(r.0)));
            Op::Call {
                dst: index(dst.0),
                func: index(func.0),
                args: start,
                nargs: index(args.len()),
            }
        }
        Inst::LoadGlobal { dst, global } => Op::LoadGlobal {
            dst: index(dst.0),
            global: index(global.0),
        },
        Inst::StoreGlobal { global, src } => Op::StoreGlobal {
            global: index(global.0),
            src: index(src.0),
        },
    }
}

fn lower_term(term: &Terminator) -> Term {
    match term {
        Terminator::Jump(next) => Term::Jump(index(next.0)),
        Terminator::CondBr {
            site,
            lhs,
            cmp,
            rhs,
            then_bb,
            else_bb,
        } => Term::Br {
            site: site.map(|s| s.0),
            lhs: index(lhs.0),
            cmp: *cmp,
            rhs: index(rhs.0),
            then_bb: index(then_bb.0),
            else_bb: index(else_bb.0),
        },
        Terminator::Return(Some(r)) => Term::Ret(index(r.0)),
        Terminator::Return(None) => Term::RetVoid,
    }
}

thread_local! {
    /// Register frames wider than the widest stack frame, call-argument
    /// buffers wider than [`STACK_ARGS`] and globals beyond
    /// [`STACK_GLOBALS`]: taken one at a time and given back after use, so
    /// a nested execution on the same thread simply takes others.
    static SPARE: Cell<Vec<Vec<f64>>> = const { Cell::new(Vec::new()) };
}

/// An empty buffer from the thread's spare buffers, or a new one.
fn take_spare() -> Vec<f64> {
    let mut buffer = SPARE
        .try_with(|slot| {
            let mut spare = slot.take();
            let buffer = spare.pop();
            slot.set(spare);
            buffer
        })
        .ok()
        .flatten()
        .unwrap_or_default();
    buffer.clear();
    buffer
}

/// Returns `buffer` to the thread's spare buffers.
fn give_back(buffer: Vec<f64>) {
    // Fails only while the thread is being torn down; the buffer is then
    // simply freed.
    let _ = SPARE.try_with(|slot| {
        let mut spare = slot.take();
        spare.push(buffer);
        slot.set(spare);
    });
}

/// What executing one op asks of the loop around it.
enum Flow {
    Next,
    /// A sited op's observer requested a stop.
    Stop,
    /// The op is a call, which the loop runs itself.
    Call,
}

/// Runs `ops[*pos..]` with no tick or stop check of their own, up to a
/// call or a sited op whose observer stops (which it counts as run), and
/// says which ended the run. Inlined where optimized; a frame of its own
/// otherwise, so an unoptimized core loop stays small on the call path.
#[inline]
fn run_ops(
    ops: &[Op],
    pos: &mut usize,
    regs: &mut [f64],
    args: &[f64],
    globals: &mut [f64],
    ctx: &mut Ctx<'_>,
) -> Flow {
    while let Some(op) = ops.get(*pos) {
        match step(op, regs, args, globals, ctx) {
            Flow::Next => *pos += 1,
            Flow::Stop => {
                *pos += 1;
                return Flow::Stop;
            }
            Flow::Call => return Flow::Call,
        }
    }
    Flow::Next
}

/// [`step`] for the one-op-at-a-time path, kept out of line so the core
/// loop's frame holds no copy of it.
#[inline(never)]
fn step_one(op: &Op, regs: &mut [f64], args: &[f64], globals: &mut [f64], ctx: &mut Ctx<'_>) {
    step(op, regs, args, globals, ctx);
}

/// Executes `op` unless it is a call.
#[inline(always)]
fn step(op: &Op, regs: &mut [f64], args: &[f64], globals: &mut [f64], ctx: &mut Ctx<'_>) -> Flow {
    match *op {
        Op::Const { dst, value } => regs[dst as usize] = value,
        Op::Copy { dst, src } => regs[dst as usize] = regs[src as usize],
        Op::Param { dst, index } => regs[dst as usize] = args[index as usize],
        Op::Add { dst, lhs, rhs } => regs[dst as usize] = regs[lhs as usize] + regs[rhs as usize],
        Op::Sub { dst, lhs, rhs } => regs[dst as usize] = regs[lhs as usize] - regs[rhs as usize],
        Op::Mul { dst, lhs, rhs } => regs[dst as usize] = regs[lhs as usize] * regs[rhs as usize],
        Op::Div { dst, lhs, rhs } => regs[dst as usize] = regs[lhs as usize] / regs[rhs as usize],
        Op::Bin { dst, op, lhs, rhs } => {
            regs[dst as usize] = op.apply(regs[lhs as usize], regs[rhs as usize]);
        }
        Op::SitedBin {
            dst,
            op,
            kind,
            lhs,
            rhs,
            site,
        } => {
            let v = op.apply(regs[lhs as usize], regs[rhs as usize]);
            ctx.op(site, kind, v);
            regs[dst as usize] = v;
            if ctx.stopped() {
                return Flow::Stop;
            }
        }
        Op::Un { dst, op, arg } => regs[dst as usize] = op.apply(regs[arg as usize]),
        Op::SitedUn {
            dst,
            op,
            kind,
            arg,
            site,
        } => {
            let v = op.apply(regs[arg as usize]);
            ctx.op(site, kind, v);
            regs[dst as usize] = v;
            if ctx.stopped() {
                return Flow::Stop;
            }
        }
        Op::Cmp { dst, cmp, lhs, rhs } => {
            regs[dst as usize] = if cmp.eval(regs[lhs as usize], regs[rhs as usize]) {
                1.0
            } else {
                0.0
            };
        }
        Op::Select {
            dst,
            cond,
            if_true,
            if_false,
        } => {
            regs[dst as usize] = if regs[cond as usize] != 0.0 {
                regs[if_true as usize]
            } else {
                regs[if_false as usize]
            };
        }
        Op::Call { .. } => return Flow::Call,
        Op::LoadGlobal { dst, global } => regs[dst as usize] = globals[global as usize],
        Op::StoreGlobal { global, src } => globals[global as usize] = regs[src as usize],
    }
    Flow::Next
}

/// One execution in flight: the lowered module, its globals, the fuel left
/// and the limits it runs under. A kernel lane resumed mid-function gets
/// one with the lane's globals and remaining fuel.
pub(crate) struct Machine<'a> {
    prog: &'a Lowered,
    globals: &'a mut [f64],
    fuel: u64,
    max_depth: usize,
    cancel: &'a CancelToken,
}

impl<'a> Machine<'a> {
    pub(crate) fn new(
        prog: &'a Lowered,
        interpreter: &'a Interpreter,
        globals: &'a mut [f64],
        fuel: u64,
    ) -> Self {
        Machine {
            prog,
            globals,
            fuel,
            max_depth: interpreter.max_call_depth,
            cancel: &interpreter.cancel,
        }
    }

    /// Charges one instruction: fuel accounting plus the periodic
    /// cancellation poll.
    #[inline]
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

    /// Whether `t` ticks can be charged at once: none of them runs out of
    /// fuel, and none leaves a fuel value (`fuel - t ..= fuel - 1`) at
    /// which [`Machine::tick`] would poll the cancellation token.
    #[inline]
    fn can_charge(&self, t: u64) -> bool {
        self.fuel > t && (self.fuel - 1) % CANCEL_POLL_INTERVAL >= t
    }

    /// Calls `func` at `depth` with `args`: the depth check, then a
    /// zero-filled register frame on the stack (on a spare buffer past 64
    /// registers), then the function from its entry.
    fn enter(
        &mut self,
        func: usize,
        args: &[f64],
        ctx: &mut Ctx<'_>,
        depth: usize,
    ) -> Result<Option<f64>, ExecError> {
        if depth > self.max_depth {
            return Err(ExecError::CallDepthExceeded);
        }
        let prog = self.prog;
        let f = &prog.funcs[func];
        match f.num_regs {
            0..=8 => self.framed::<8>(f, args, ctx, depth),
            9..=16 => self.framed::<16>(f, args, ctx, depth),
            17..=32 => self.framed::<32>(f, args, ctx, depth),
            33..=64 => self.framed::<64>(f, args, ctx, depth),
            _ => self.spilled(f, args, ctx, depth),
        }
    }

    /// Runs `f` from its entry in a register frame from the thread's spare
    /// buffers.
    #[inline(never)]
    fn spilled(
        &mut self,
        f: &LFunc,
        args: &[f64],
        ctx: &mut Ctx<'_>,
        depth: usize,
    ) -> Result<Option<f64>, ExecError> {
        let mut regs = take_spare();
        regs.resize(f.num_regs, 0.0);
        let result = self.run(f, &mut regs, args, ctx, depth, 0, 0);
        give_back(regs);
        result
    }

    /// Runs `f` from its entry in an `N`-register stack frame. Not inlined,
    /// so a call level holds only the frame it needs.
    #[inline(never)]
    fn framed<const N: usize>(
        &mut self,
        f: &LFunc,
        args: &[f64],
        ctx: &mut Ctx<'_>,
        depth: usize,
    ) -> Result<Option<f64>, ExecError> {
        let mut regs = [0.0; N];
        self.run(f, &mut regs[..f.num_regs], args, ctx, depth, 0, 0)
    }

    /// Gathers a call's arguments from `regs` and enters `func`.
    fn call(
        &mut self,
        func: usize,
        arg_regs: &[u32],
        regs: &[f64],
        ctx: &mut Ctx<'_>,
        depth: usize,
    ) -> Result<Option<f64>, ExecError> {
        if arg_regs.len() > STACK_ARGS {
            return self.call_spilled(func, arg_regs, regs, ctx, depth);
        }
        let mut args = [0.0; STACK_ARGS];
        for (arg, &r) in args.iter_mut().zip(arg_regs) {
            *arg = regs[r as usize];
        }
        self.enter(func, &args[..arg_regs.len()], ctx, depth)
    }

    /// [`Machine::call`] with the arguments in a spare buffer.
    #[inline(never)]
    fn call_spilled(
        &mut self,
        func: usize,
        arg_regs: &[u32],
        regs: &[f64],
        ctx: &mut Ctx<'_>,
        depth: usize,
    ) -> Result<Option<f64>, ExecError> {
        let mut args = take_spare();
        args.extend(arg_regs.iter().map(|&r| regs[r as usize]));
        let result = self.enter(func, &args, ctx, depth);
        give_back(args);
        result
    }

    /// Resumes `func` at instruction `inst` of `block` with the frame
    /// `regs`: how the kernel finishes a lane that left its wave.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn resume(
        &mut self,
        func: usize,
        regs: &mut [f64],
        args: &[f64],
        ctx: &mut Ctx<'_>,
        depth: usize,
        block: usize,
        inst: usize,
    ) -> Result<Option<f64>, ExecError> {
        let prog = self.prog;
        self.run(&prog.funcs[func], regs, args, ctx, depth, block, inst)
    }

    /// The core loop, entered at instruction `inst` of `block`. It charges
    /// a block's `t` ticks (its ops left plus the terminator) in one step
    /// when [`Machine::can_charge`] allows, and otherwise goes one op at a
    /// time (see the module docs of [`crate::interp`]).
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn run(
        &mut self,
        f: &LFunc,
        regs: &mut [f64],
        args: &[f64],
        ctx: &mut Ctx<'_>,
        depth: usize,
        mut block: usize,
        inst: usize,
    ) -> Result<Option<f64>, ExecError> {
        let mut b = f.blocks[block];
        let mut pos = b.start as usize + inst.min((b.end - b.start) as usize);
        loop {
            let end = b.end as usize;
            let mut charged = false;
            while pos < end {
                let t = (end - pos) as u64 + 1;
                if !ctx.stopped() && self.can_charge(t) {
                    let start = pos;
                    match run_ops(&f.ops[..end], &mut pos, regs, args, self.globals, ctx) {
                        Flow::Next => {
                            self.fuel -= t;
                            charged = true;
                            break;
                        }
                        Flow::Stop => {
                            self.fuel -= (pos - start) as u64;
                            continue;
                        }
                        // The call itself runs below, one op at a time.
                        Flow::Call => self.fuel -= (pos - start) as u64,
                    }
                }
                self.tick()?;
                if ctx.stopped() {
                    return Ok(None);
                }
                let op = f.ops[pos];
                if let Op::Call {
                    dst,
                    func,
                    args: first,
                    nargs,
                } = op
                {
                    let arg_regs = &f.call_args[first as usize..][..nargs as usize];
                    let ret = self.call(func as usize, arg_regs, regs, ctx, depth + 1)?;
                    regs[dst as usize] = ret.unwrap_or(f64::NAN);
                    if ctx.stopped() {
                        return Ok(None);
                    }
                } else {
                    step_one(&op, regs, args, self.globals, ctx);
                }
                pos += 1;
            }
            if !charged {
                self.tick()?;
            }
            block = match b.term {
                Term::Jump(next) => next as usize,
                Term::Br {
                    site,
                    lhs,
                    cmp,
                    rhs,
                    then_bb,
                    else_bb,
                } => {
                    let (lhs, rhs) = (regs[lhs as usize], regs[rhs as usize]);
                    let taken = match site {
                        Some(site) => ctx.branch(site, lhs, cmp, rhs),
                        None => cmp.eval(lhs, rhs),
                    };
                    // Also after a site-less branch: a sited op at the end
                    // of the block may have stopped the run.
                    if ctx.stopped() {
                        return Ok(None);
                    }
                    if taken {
                        then_bb as usize
                    } else {
                        else_bb as usize
                    }
                }
                Term::Ret(r) => return Ok(Some(regs[r as usize])),
                Term::RetVoid => return Ok(None),
            };
            b = f.blocks[block];
            pos = b.start as usize;
        }
    }
}
