//! The lowered `fpir` execution core, checked against a reference: a
//! verbatim copy of the IR-walking interpreter loop it replaced, with fresh
//! `Vec` frames in place of that loop's per-thread scratch.
//!
//! Every entry point runs the lowered core: `Interpreter::execute_counting`
//! and `execute_with_globals` (which lower the module they are given),
//! `ModuleProgram::run_with_globals`, `Analyzable::run` and
//! `instructions_executed` (which share the program's cached lowering),
//! and the kernel's lane resume under `KernelPolicy::Always`. Each must
//! match the reference in its result bits or `ExecError`, its event stream,
//! the fuel it consumed and the final globals, on:
//!
//! * the paper's programs (`fig2`, `fig1a`, `fig1b`, `eq_zero`, Horner 4, 8
//!   and 12), their boundary, path and overflow drivers `W`, their
//!   specializations for an overflow target (which strip the branches'
//!   sites), a module whose block ends in a sited op before a site-less
//!   branch, a module with calls and ten globals (a 9-argument callee with
//!   more than 64 registers), a loop and a recursive module;
//! * seeded doubles, ±0, ±∞, NaN, subnormals and ±`f64::MAX`;
//! * fuel budgets that run out on every op and every terminator, and
//!   budgets that put the first cancellation poll of a pre-cancelled token
//!   on each of them;
//! * `max_call_depth` 0–3 on the recursive module;
//! * observers that stop at the i-th op or branch event, for every i.
//!
//! Keep the reference loop as it is.

use std::collections::BTreeSet;
use wdm::ir::interp::CANCEL_POLL_INTERVAL;
use wdm::ir::{
    instrument, programs, specialize, BinOp, BlockId, ExecError, FuncId, Inst, Interpreter, Module,
    ModuleBuilder, ModuleProgram, Terminator, UnOp,
};
use wdm::runtime::{
    Analyzable, BranchEvent, CancelToken, Cmp, Ctx, FpOp, Interval, KernelPolicy, ObservationSpec,
    Observer, OpEvent, ProbeControl, SiteSet,
};

/// The interpreter loop as it was before the lowered core, line for line,
/// except that every register frame and argument buffer is a fresh `Vec`.
mod reference {
    use super::*;

    pub struct ExecState<'a> {
        pub globals: Vec<f64>,
        pub fuel: u64,
        max_depth: usize,
        module: &'a Module,
        cancel: &'a CancelToken,
    }

    impl<'a> ExecState<'a> {
        pub fn new(interpreter: &'a Interpreter, module: &'a Module) -> Self {
            ExecState {
                globals: module.globals.iter().map(|g| g.init).collect(),
                fuel: interpreter.fuel,
                max_depth: interpreter.max_call_depth,
                module,
                cancel: &interpreter.cancel,
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
    }

    pub fn execute(
        interpreter: &Interpreter,
        module: &Module,
        func: FuncId,
        args: &[f64],
        ctx: &mut Ctx<'_>,
    ) -> Result<(Option<f64>, Vec<f64>, u64), ExecError> {
        let function = module.function(func);
        if args.len() != function.num_params {
            return Err(ExecError::ArityMismatch {
                expected: function.num_params,
                got: args.len(),
            });
        }
        let mut state = ExecState::new(interpreter, module);
        let ret = exec_function(&mut state, func, args, ctx, 0)?;
        Ok((ret, state.globals.clone(), interpreter.fuel - state.fuel))
    }

    fn exec_function(
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
        let mut regs = vec![0.0; function.num_regs];
        exec_in_frame(
            state,
            func,
            &mut regs,
            args,
            ctx,
            depth,
            function.entry(),
            0,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_in_frame(
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
                        let vals: Vec<f64> = call_args.iter().map(|r| regs[r.0]).collect();
                        let ret = exec_function(state, *func, &vals, ctx, depth + 1);
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

/// One event, with every float as its bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Op {
        id: u32,
        op: FpOp,
        value: u64,
    },
    Branch {
        id: u32,
        lhs: u64,
        cmp: Cmp,
        rhs: u64,
        taken: bool,
    },
}

/// Where a [`Recorder`] requests a stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StopAt {
    Never,
    /// At the op event with this index (counting op events only).
    Op(usize),
    /// At the branch event with this index (counting branch events only).
    Branch(usize),
}

/// Records every event and stops where told to.
struct Recorder {
    events: Vec<Event>,
    stop: StopAt,
    ops: usize,
    branches: usize,
}

impl Recorder {
    fn new(stop: StopAt) -> Self {
        Recorder {
            events: Vec::new(),
            stop,
            ops: 0,
            branches: 0,
        }
    }
}

impl Observer for Recorder {
    fn on_op(&mut self, ev: &OpEvent) -> ProbeControl {
        self.events.push(Event::Op {
            id: ev.id.0,
            op: ev.op,
            value: ev.value.to_bits(),
        });
        self.ops += 1;
        if self.stop == StopAt::Op(self.ops - 1) {
            ProbeControl::Stop
        } else {
            ProbeControl::Continue
        }
    }

    fn on_branch(&mut self, ev: &BranchEvent) -> ProbeControl {
        self.events.push(Event::Branch {
            id: ev.id.0,
            lhs: ev.lhs.to_bits(),
            cmp: ev.cmp,
            rhs: ev.rhs.to_bits(),
            taken: ev.taken,
        });
        self.branches += 1;
        if self.stop == StopAt::Branch(self.branches - 1) {
            ProbeControl::Stop
        } else {
            ProbeControl::Continue
        }
    }
}

/// What one execution showed: its result bits, final globals and fuel
/// consumed (or its error), and its events.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Run {
    result: Result<(Option<u64>, Vec<u64>, u64), ExecError>,
    events: Vec<Event>,
}

impl Run {
    /// The result as a batch or `Analyzable::run` reports it.
    fn reported(&self) -> Option<u64> {
        self.result.as_ref().ok().and_then(|(ret, _, _)| *ret)
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn reference_run(
    interpreter: &Interpreter,
    module: &Module,
    entry: FuncId,
    x: f64,
    stop: StopAt,
) -> Run {
    let mut rec = Recorder::new(stop);
    let mut ctx = Ctx::new(&mut rec);
    let result = reference::execute(interpreter, module, entry, &[x], &mut ctx)
        .map(|(ret, globals, used)| (ret.map(f64::to_bits), bits(&globals), used));
    Run {
        result,
        events: rec.events,
    }
}

/// One module under test, with its programs sharing one cached lowering.
struct Case {
    name: String,
    module: Module,
    entry: FuncId,
    program: ModuleProgram,
}

impl Case {
    fn new(name: impl Into<String>, module: Module, entry: &str) -> Self {
        let id = module.function_by_name(entry).expect("entry exists");
        Case {
            name: name.into(),
            program: ModuleProgram::new(module.clone(), entry).expect("entry exists"),
            module,
            entry: id,
        }
    }

    /// Runs `x` under `interpreter` through every scalar entry point and
    /// checks each against the reference; returns the reference run.
    fn check(&self, interpreter: &Interpreter, x: f64, stop: StopAt) -> Run {
        let what = format!("{} at {x:e} ({stop:?})", self.name);
        let expected = reference_run(interpreter, &self.module, self.entry, x, stop);

        // The interpreter entry points, on a lowering of their own.
        let mut rec = Recorder::new(stop);
        let mut ctx = Ctx::new(&mut rec);
        let counting = interpreter.execute_counting(&self.module, self.entry, &[x], &mut ctx);
        let counted_events = rec.events;
        let mut rec = Recorder::new(stop);
        let mut ctx = Ctx::new(&mut rec);
        let with_globals =
            interpreter.execute_with_globals(&self.module, self.entry, &[x], &mut ctx);
        let result = match (counting, with_globals) {
            (Ok((ret, used)), Ok((ret2, globals))) => {
                assert_eq!(
                    ret.map(f64::to_bits),
                    ret2.map(f64::to_bits),
                    "{what}: returns"
                );
                Ok((ret.map(f64::to_bits), bits(&globals), used))
            }
            (Err(e), Err(e2)) => {
                assert_eq!(e, e2, "{what}: errors");
                Err(e)
            }
            (a, b) => panic!("{what}: execute_counting {a:?} vs execute_with_globals {b:?}"),
        };
        assert_eq!(counted_events, rec.events, "{what}: events");
        let actual = Run {
            result,
            events: rec.events,
        };
        assert_eq!(actual, expected, "{what}: Interpreter");

        // The program entry points, on the program's cached lowering.
        let program = self.program.clone().with_interpreter(interpreter.clone());
        let mut rec = Recorder::new(stop);
        let run = program.run_with_globals(&[x], &mut rec);
        let ret = expected
            .result
            .clone()
            .map(|(ret, globals, _)| (ret, globals));
        assert_eq!(
            run.map(|(r, g)| (r.map(f64::to_bits), bits(&g))),
            ret,
            "{what}: run_with_globals"
        );
        assert_eq!(
            rec.events, expected.events,
            "{what}: run_with_globals events"
        );
        let mut rec = Recorder::new(stop);
        assert_eq!(
            program.run(&[x], &mut rec).map(f64::to_bits),
            expected.reported(),
            "{what}: run"
        );
        assert_eq!(rec.events, expected.events, "{what}: run events");
        if stop == StopAt::Never {
            assert_eq!(
                program.instructions_executed(&[x]),
                expected.result.as_ref().ok().map(|(_, _, used)| *used),
                "{what}: instructions_executed"
            );
        }
        expected
    }

    /// Runs `inputs` as one kernel batch under `interpreter`, every lane
    /// stopping at `stop`, and checks every lane against the reference.
    fn check_batch(&self, interpreter: &Interpreter, inputs: &[f64], stop: StopAt) {
        let program = self.program.clone().with_interpreter(interpreter.clone());
        let rows: Vec<Vec<f64>> = inputs.iter().map(|&x| vec![x]).collect();
        let mut recs: Vec<Recorder> = inputs.iter().map(|_| Recorder::new(stop)).collect();
        let mut refs: Vec<&mut dyn Observer> =
            recs.iter_mut().map(|r| r as &mut dyn Observer).collect();
        let mut results = Vec::new();
        program
            .batch_executor(KernelPolicy::Always)
            .execute_many(&rows, &mut refs, &mut results);
        for ((&x, result), rec) in inputs.iter().zip(&results).zip(&recs) {
            let expected = reference_run(interpreter, &self.module, self.entry, x, stop);
            let what = format!("{} kernel lane at {x:e} ({stop:?})", self.name);
            assert_eq!(result.map(f64::to_bits), expected.reported(), "{what}");
            assert_eq!(rec.events, expected.events, "{what}: events");
        }
    }
}

/// `main(x)` calls `narrow` twice and the 9-argument `wide` once; both
/// update globals through sited ops, `narrow` branches, and `wide` has more
/// than 64 registers. Ten globals, so they outgrow a small fixed buffer.
fn calls_and_globals() -> Module {
    let mut mb = ModuleBuilder::new();
    let w = mb.global("w", 1.0);
    let others: Vec<_> = (0..9)
        .map(|i| mb.global(format!("g{i}"), i as f64 * 0.5 - 1.0))
        .collect();

    let mut narrow = mb.function("narrow", 1);
    let x = narrow.param(0);
    let zero = narrow.constant(0.0);
    let xvar = narrow.copy(x);
    let negative = narrow.new_block();
    let join = narrow.new_block();
    narrow.cond_br(Some(0), xvar, Cmp::Lt, zero, negative, join);
    narrow.switch_to(negative);
    let flipped = narrow.bin(BinOp::Sub, zero, xvar, Some(0));
    narrow.assign(xvar, flipped);
    narrow.jump(join);
    narrow.switch_to(join);
    let wv = narrow.load_global(w);
    let prod = narrow.bin(BinOp::Mul, wv, xvar, Some(1));
    narrow.store_global(w, prod);
    narrow.ret(Some(xvar));
    let narrow_id = narrow.finish();

    let mut wide = mb.function("wide", 9);
    let params: Vec<_> = (0..9).map(|i| wide.param(i)).collect();
    let mut acc = wide.constant(0.0);
    for (i, &p) in params.iter().enumerate() {
        let g = wide.load_global(others[i]);
        let s = wide.bin(BinOp::Add, p, g, None);
        let m = wide.bin(BinOp::Max, s, acc, None);
        let site = if i % 3 == 0 { Some(2 + i as u32) } else { None };
        acc = wide.bin(BinOp::Add, acc, m, site);
        let t = wide.un(UnOp::Abs, acc, None);
        let q = wide.bin(BinOp::Div, t, s, None);
        let c = wide.cmp(Cmp::Le, q, acc);
        let sel = wide.select(c, q, t);
        wide.store_global(others[i], sel);
    }
    let big = wide.constant(1.0e300);
    let scaled = wide.bin(BinOp::Mul, acc, big, Some(20));
    let root = wide.un(UnOp::Sqrt, scaled, Some(21));
    wide.ret(Some(root));
    let wide_id = wide.finish();

    let mut main = mb.function("main", 1);
    let x = main.param(0);
    let one = main.constant(1.0);
    let a = main.call(narrow_id, vec![x]);
    let xp1 = main.bin(BinOp::Add, x, one, Some(30));
    let b = main.call(narrow_id, vec![xp1]);
    let args = vec![x, a, b, xp1, one, x, a, b, xp1];
    let c = main.call(wide_id, args);
    let back = main.load_global(w);
    let g0 = main.load_global(others[0]);
    let s = main.bin(BinOp::Add, back, g0, Some(31));
    let out = main.bin(BinOp::Min, s, c, None);
    main.ret(Some(out));
    main.finish();
    mb.build()
}

/// `y = x * x; if (y <= 4) return 4; return y` with only the multiply
/// sited: the entry block ends in a sited op and a site-less branch, the
/// layout `opt::specialize` leaves when it strips a branch's site. An
/// observer that stops at the multiply ends the run at the branch.
fn sited_op_before_plain_branch() -> Module {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.function("f", 1);
    let x = f.param(0);
    let four = f.constant(4.0);
    let y = f.bin(BinOp::Mul, x, x, Some(0));
    let small = f.new_block();
    let large = f.new_block();
    f.cond_br(None, y, Cmp::Le, four, small, large);
    f.switch_to(small);
    f.ret(Some(four));
    f.switch_to(large);
    f.ret(Some(y));
    f.finish();
    mb.build()
}

/// `i = min(|x|, 12); s = 0; while (i > 0) { s = s + i; i = i - 1 } return s`
/// with the loop's branch, add and subtract sited.
fn counting_loop() -> Module {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.function("count", 1);
    let x = f.param(0);
    let zero = f.constant(0.0);
    let one = f.constant(1.0);
    let cap = f.constant(12.0);
    let a = f.un(UnOp::Abs, x, None);
    let start = f.bin(BinOp::Min, a, cap, None);
    let i = f.copy(start);
    let s = f.copy(zero);
    let header = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();
    f.jump(header);
    f.switch_to(header);
    f.cond_br(Some(0), i, Cmp::Gt, zero, body, exit);
    f.switch_to(body);
    let ns = f.bin(BinOp::Add, s, i, Some(0));
    f.assign(s, ns);
    let ni = f.bin(BinOp::Sub, i, one, Some(1));
    f.assign(i, ni);
    f.jump(header);
    f.switch_to(exit);
    f.ret(Some(s));
    f.finish();
    mb.build()
}

/// `main(x) = rec(min(|x|, 6))` with
/// `rec(n) = n <= 0 ? n : rec(n - 1) + n`: a call chain as deep as the
/// input, with a sited branch and sited ops on both sides of the call.
fn recursive() -> Module {
    let mut mb = ModuleBuilder::new();
    let mut rec = mb.function("rec", 1);
    let n = rec.param(0);
    let zero = rec.constant(0.0);
    let one = rec.constant(1.0);
    let base = rec.new_block();
    let step = rec.new_block();
    rec.cond_br(Some(0), n, Cmp::Le, zero, base, step);
    rec.switch_to(base);
    rec.ret(Some(n));
    rec.switch_to(step);
    let m = rec.bin(BinOp::Sub, n, one, Some(0));
    let r = rec.call(FuncId(0), vec![m]);
    let sum = rec.bin(BinOp::Add, r, n, Some(1));
    rec.ret(Some(sum));
    let rec_id = rec.finish();
    let mut main = mb.function("main", 1);
    let x = main.param(0);
    let six = main.constant(6.0);
    let a = main.un(UnOp::Abs, x, Some(2));
    let n = main.bin(BinOp::Min, a, six, None);
    let out = main.call(rec_id, vec![n]);
    main.ret(Some(out));
    main.finish();
    mb.build()
}

/// The paper's programs, their boundary, path and overflow drivers, their
/// specializations for an overflow target, and the hand-built modules.
fn cases() -> Vec<Case> {
    let bases = [
        ("fig2", programs::fig2_program()),
        ("fig1a", programs::fig1a_program()),
        ("fig1b", programs::fig1b_program()),
        ("eq_zero", programs::eq_zero_program()),
        ("horner4", programs::horner_program(4)),
        ("horner8", programs::horner_program(8)),
        ("horner12", programs::horner_program(12)),
    ];
    let mut cases = Vec::new();
    for (name, module) in bases {
        let entry = module.function_by_name("prog").expect("entry exists");
        let path: Vec<_> = module
            .branch_sites_of(entry)
            .into_iter()
            .enumerate()
            .map(|(i, site)| (site, i % 2 == 0))
            .collect();
        let drivers = [
            (
                "W_boundary",
                instrument::instrument_boundary(&module, entry),
            ),
            ("W_path", instrument::instrument_path(&module, entry, &path)),
            (
                "W_overflow",
                instrument::instrument_overflow(&module, entry, &BTreeSet::new()),
            ),
        ];
        for (kind, driver) in drivers {
            cases.push(Case::new(
                format!("{kind}({name})"),
                driver,
                instrument::W_FUNCTION,
            ));
        }
        // Observing only ops strips every branch's site.
        let domain = vec![Interval::whole(); module.function(entry).num_params];
        let (ops_only, _) =
            specialize(&module, entry, &domain, &ObservationSpec::ops(SiteSet::All))
                .expect("the paper's programs specialize");
        cases.push(Case::new(format!("ops_only({name})"), ops_only, "prog"));
        cases.push(Case::new(name, module, "prog"));
    }
    cases.push(Case::new(
        "sited_op_before_plain_branch",
        sited_op_before_plain_branch(),
        "f",
    ));
    cases.push(Case::new("calls_and_globals", calls_and_globals(), "main"));
    cases.push(Case::new("counting_loop", counting_loop(), "count"));
    cases.push(Case::new("recursive", recursive(), "main"));
    cases
}

/// SplitMix64, for the seeded inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The special doubles, then `seeded` pseudo-random ones: half on a small
/// range, half arbitrary bit patterns.
fn inputs(seeded: usize) -> Vec<f64> {
    let mut xs = vec![
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE / 4.0,
        -5.0e-324,
        f64::MAX,
        -f64::MAX,
        0.5,
        1.0,
        -1.0,
        3.0,
    ];
    let mut state = 0x5EED_0FF1_u64;
    for i in 0..seeded {
        let r = splitmix(&mut state);
        xs.push(if i % 2 == 0 {
            (r >> 11) as f64 / (1u64 << 53) as f64 * 16.0 - 8.0
        } else {
            f64::from_bits(r)
        });
    }
    xs
}

#[test]
fn the_lowered_core_matches_the_reference_loop() {
    let interpreter = Interpreter::default();
    for case in cases() {
        for x in inputs(40) {
            case.check(&interpreter, x, StopAt::Never);
        }
    }
}

#[test]
fn out_of_fuel_falls_on_the_same_instruction() {
    for case in cases() {
        for x in inputs(6) {
            let full = case.check(&Interpreter::default(), x, StopAt::Never);
            let used = full.result.as_ref().map_or(0, |(_, _, used)| *used);
            // Every budget short of the full run stops at a different op or
            // terminator.
            for fuel in 0..=used + 1 {
                let run = case.check(&Interpreter::default().with_fuel(fuel), x, StopAt::Never);
                assert_eq!(
                    run.result.is_err(),
                    fuel < used,
                    "{} at {x:e} with fuel {fuel}",
                    case.name
                );
            }
        }
    }
}

#[test]
fn cancellation_falls_on_the_same_instruction() {
    let cancelled = CancelToken::new();
    cancelled.cancel();
    for case in cases() {
        for x in inputs(4) {
            let full = case.check(&Interpreter::default(), x, StopAt::Never);
            let used = full.result.as_ref().map_or(0, |(_, _, used)| *used);
            // Budgets that put the first poll on the k-th tick, for every k,
            // with and without a cancelled token.
            for k in 1..=used + 1 {
                for rounds in [1, 3] {
                    let fuel = rounds * CANCEL_POLL_INTERVAL + k;
                    for token in [&cancelled, &CancelToken::new()] {
                        let interpreter = Interpreter::default()
                            .with_fuel(fuel)
                            .with_cancel(token.clone());
                        let run = case.check(&interpreter, x, StopAt::Never);
                        let cancelled_early = token.is_cancelled() && k <= used;
                        assert_eq!(
                            run.result == Err(ExecError::Cancelled),
                            cancelled_early,
                            "{} at {x:e} with fuel {fuel}",
                            case.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn call_depth_limits_fail_the_same_calls() {
    let case = Case::new("recursive", recursive(), "main");
    for max_call_depth in 0..=3 {
        let interpreter = Interpreter {
            max_call_depth,
            ..Interpreter::default()
        };
        for x in inputs(8) {
            case.check(&interpreter, x, StopAt::Never);
        }
        case.check_batch(&interpreter, &inputs(8), StopAt::Never);
    }
}

#[test]
fn observer_stops_fall_on_the_same_instruction() {
    let interpreter = Interpreter::default();
    for case in cases() {
        for x in inputs(6) {
            let full = case.check(&interpreter, x, StopAt::Never);
            let ops = full
                .events
                .iter()
                .filter(|e| matches!(e, Event::Op { .. }))
                .count();
            let branches = full.events.len() - ops;
            for i in 0..=ops {
                case.check(&interpreter, x, StopAt::Op(i));
            }
            for i in 0..=branches {
                case.check(&interpreter, x, StopAt::Branch(i));
            }
        }
    }
}

#[test]
fn kernel_lane_resumes_match_the_reference_loop() {
    let xs = inputs(24);
    let few = inputs(6);
    let cancelled = CancelToken::new();
    cancelled.cancel();
    for case in cases() {
        let interpreter = Interpreter::default();
        case.check_batch(&interpreter, &xs, StopAt::Never);
        let most = xs
            .iter()
            .map(|&x| reference_run(&interpreter, &case.module, case.entry, x, StopAt::Never))
            .fold((0, 0, 0), |(fuel, ops, branches), run| {
                let op_events = run
                    .events
                    .iter()
                    .filter(|e| matches!(e, Event::Op { .. }))
                    .count();
                (
                    fuel.max(run.result.map_or(0, |(_, _, used)| used)),
                    ops.max(op_events),
                    branches.max(run.events.len() - op_events),
                )
            });
        let (used, ops, branches) = most;
        for i in 0..=ops {
            case.check_batch(&interpreter, &xs, StopAt::Op(i));
        }
        for i in 0..=branches {
            case.check_batch(&interpreter, &xs, StopAt::Branch(i));
        }
        // Budgets that run out, or reach their first poll under a
        // cancelled token, at every op and terminator of the longest run.
        for fuel in 0..=used + 1 {
            case.check_batch(&Interpreter::default().with_fuel(fuel), &few, StopAt::Never);
            let polled = Interpreter::default()
                .with_fuel(CANCEL_POLL_INTERVAL + fuel)
                .with_cancel(cancelled.clone());
            case.check_batch(&polled, &few, StopAt::Never);
        }
    }
}
