//! Forward interval abstract interpretation over `f64` with NaN and ±inf
//! tracking.
//!
//! Abstract values are `(numeric range, may-be-NaN)` pairs where the range
//! endpoints may be infinite — `fp_runtime::Interval` is finite-only and
//! cannot represent the overflow/NaN states this analysis exists to reason
//! about. Soundness leans on two facts:
//!
//! * IEEE-754 basic operations (`+ - * /`, `sqrt`, `abs`, `neg`, `floor`,
//!   `min`, `max`) are correctly rounded, and rounding is monotone, so
//!   endpoint/corner evaluation in the *same* arithmetic bounds every
//!   interior result;
//! * libm transcendentals (`exp`, `log`) are *not* correctly rounded, so
//!   their endpoints are padded outward by a few ulps; `sin`/`cos`/`tan`/
//!   `pow` fall back to trivially sound ranges.
//!
//! The interpreter runs a per-function fixpoint with widening, descends
//! into non-recursive calls (memoized, with a global step budget), and
//! classifies every instrumentation site as `Reachable`/`Unreachable`/
//! `Unknown`. `Unreachable` verdicts are **proofs** relative to the seeded
//! input domain — they are what lets `wdm_core` short-circuit minimization
//! of dead targets — so every imprecise case must degrade to `Unknown`,
//! never to a false proof.

use std::collections::{BTreeMap, HashMap};

use super::cfg::{CallGraph, Cfg};
use crate::ir::{BinOp, BlockId, FuncId, Inst, Module, Terminator, UnOp};
use fp_runtime::Cmp;
use fp_runtime::{Interval, Reachability};

/// An abstract `f64`: a closed numeric range (endpoints may be ±inf) plus a
/// may-be-NaN flag. `lo > hi` encodes an empty numeric range (the value is
/// then necessarily NaN, or the state unreachable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsVal {
    /// Lower numeric bound (may be `-inf`).
    pub lo: f64,
    /// Upper numeric bound (may be `+inf`).
    pub hi: f64,
    /// True if the value may be NaN.
    pub nan: bool,
}

impl AbsVal {
    /// The top element: any double, including NaN.
    pub fn top() -> Self {
        AbsVal {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            nan: true,
        }
    }

    /// The abstraction of one concrete value.
    pub fn exact(v: f64) -> Self {
        if v.is_nan() {
            AbsVal::empty_num(true)
        } else {
            AbsVal {
                lo: v,
                hi: v,
                nan: false,
            }
        }
    }

    /// A non-NaN numeric range.
    pub fn num(lo: f64, hi: f64) -> Self {
        debug_assert!(!lo.is_nan() && !hi.is_nan());
        AbsVal { lo, hi, nan: false }
    }

    /// An empty numeric range (value is NaN if `nan`, otherwise bottom).
    fn empty_num(nan: bool) -> Self {
        AbsVal {
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            nan,
        }
    }

    /// True if the numeric range is non-empty.
    pub(crate) fn has_num(&self) -> bool {
        self.lo <= self.hi
    }

    /// True if this abstraction admits exactly one bit pattern — the value
    /// the optimizer's constant propagation may fold. Bit-level equality of
    /// the endpoints (not `==`) keeps `-0.0`/`0.0` distinct, and a NaN
    /// possibility disqualifies the value outright (NaN payloads are not
    /// tracked, so "the" NaN is not a single bit pattern).
    pub(crate) fn singleton(&self) -> Option<f64> {
        if !self.nan && self.has_num() && self.lo.to_bits() == self.hi.to_bits() {
            Some(self.lo)
        } else {
            None
        }
    }

    /// True if the numeric range may contain `v` (exact comparison; `-0.0`
    /// and `0.0` compare equal, which is what IEEE comparisons need).
    pub(crate) fn may_be(&self, v: f64) -> bool {
        self.has_num() && self.lo <= v && v <= self.hi
    }

    /// True if an infinite value is possible.
    fn may_be_inf(&self) -> bool {
        self.has_num() && (self.lo == f64::NEG_INFINITY || self.hi == f64::INFINITY)
    }

    /// True if the concrete value `v` is covered by this abstraction.
    pub fn contains(&self, v: f64) -> bool {
        if v.is_nan() {
            self.nan
        } else {
            self.may_be(v)
        }
    }

    /// Least upper bound.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        let mut r = AbsVal {
            lo: self.lo,
            hi: self.hi,
            nan: self.nan || other.nan,
        };
        if !self.has_num() {
            r.lo = other.lo;
            r.hi = other.hi;
        } else if other.has_num() {
            r.lo = r.lo.min(other.lo);
            r.hi = r.hi.max(other.hi);
        }
        r
    }

    /// Join only the numeric part of `other` (used by min/max transfer).
    fn join_num(&self, other: &AbsVal) -> AbsVal {
        let mut o = *other;
        o.nan = false;
        self.join(&o)
    }

    /// Widening: any endpoint that moved since `older` goes straight to its
    /// infinity, guaranteeing termination of the block fixpoint.
    pub(crate) fn widen_from(&self, older: &AbsVal) -> AbsVal {
        let mut r = *self;
        if older.has_num() && self.has_num() {
            if self.lo < older.lo {
                r.lo = f64::NEG_INFINITY;
            }
            if self.hi > older.hi {
                r.hi = f64::INFINITY;
            }
        } else if self.has_num() != older.has_num() && self.has_num() {
            // Range newly became non-empty: jump straight to top range.
            r.lo = f64::NEG_INFINITY;
            r.hi = f64::INFINITY;
        }
        r
    }
}

/// `x` moved a few ulps toward -inf: a sound lower-bound pad for libm calls
/// that are accurate but not correctly rounded.
fn pad_down(x: f64) -> f64 {
    let mut v = x;
    for _ in 0..4 {
        v = next_down(v);
    }
    v
}

/// `x` moved a few ulps toward +inf.
fn pad_up(x: f64) -> f64 {
    -pad_down(-x)
}

fn next_down(x: f64) -> f64 {
    if x.is_nan() || x == f64::NEG_INFINITY {
        return x;
    }
    if x == f64::INFINITY {
        return f64::MAX;
    }
    let b = x.to_bits();
    f64::from_bits(if x == 0.0 {
        0x8000_0000_0000_0001 // smallest-magnitude negative subnormal
    } else if x > 0.0 {
        b - 1
    } else {
        b + 1
    })
}

/// Builds an abstract value from candidate extrema computed in f64 itself;
/// NaN candidates are skipped but recorded in the NaN flag.
fn from_corners(corners: &[f64], mut nan: bool) -> AbsVal {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &c in corners {
        if c.is_nan() {
            nan = true;
        } else {
            lo = lo.min(c);
            hi = hi.max(c);
        }
    }
    AbsVal { lo, hi, nan }
}

/// Abstract transfer of a binary operation.
pub fn abs_bin(op: BinOp, a: AbsVal, b: AbsVal) -> AbsVal {
    // NaN operands propagate through arithmetic; min/max absorb them, and
    // pow does not propagate unconditionally (`powf(NaN, 0) == 1.0` and
    // `powf(1.0, NaN) == 1.0`), so both skip the short-circuit.
    let prop_nan = a.nan || b.nan;
    if !matches!(op, BinOp::Min | BinOp::Max | BinOp::Pow) && (!a.has_num() || !b.has_num()) {
        return AbsVal::empty_num(prop_nan || !a.has_num() || !b.has_num());
    }
    match op {
        BinOp::Add => from_corners(&[a.lo + b.lo, a.hi + b.hi], prop_nan),
        BinOp::Sub => from_corners(&[a.lo - b.hi, a.hi - b.lo], prop_nan),
        BinOp::Mul => {
            // 0 × ±inf can produce NaN away from the corners.
            let zero_inf = (a.may_be(0.0) && b.may_be_inf()) || (b.may_be(0.0) && a.may_be_inf());
            from_corners(
                &[a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi],
                prop_nan || zero_inf,
            )
        }
        BinOp::Div => {
            if b.may_be(0.0) {
                // x/0 = ±inf and 0/0 = NaN: give up on precision, stay sound.
                return AbsVal::top();
            }
            let inf_inf = a.may_be_inf() && b.may_be_inf();
            from_corners(
                &[a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi],
                prop_nan || inf_inf,
            )
        }
        BinOp::Pow => AbsVal::top(),
        BinOp::Min | BinOp::Max => {
            // Rust f64::min/max return the *other* operand when one is NaN,
            // so a NaN side substitutes the full other range.
            let (an, bn) = (a.has_num(), b.has_num());
            let mut r = if an && bn {
                if matches!(op, BinOp::Min) {
                    AbsVal::num(a.lo.min(b.lo), a.hi.min(b.hi))
                } else {
                    AbsVal::num(a.lo.max(b.lo), a.hi.max(b.hi))
                }
            } else {
                AbsVal::empty_num(false)
            };
            if a.nan {
                r = r.join_num(&b);
            }
            if b.nan {
                r = r.join_num(&a);
            }
            r.nan = a.nan && b.nan;
            r
        }
    }
}

/// Abstract transfer of a unary operation.
pub fn abs_un(op: UnOp, a: AbsVal) -> AbsVal {
    if !a.has_num() {
        return AbsVal::empty_num(a.nan);
    }
    match op {
        UnOp::Neg => AbsVal {
            lo: -a.hi,
            hi: -a.lo,
            nan: a.nan,
        },
        UnOp::Abs => {
            if a.lo >= 0.0 {
                a
            } else if a.hi <= 0.0 {
                AbsVal {
                    lo: -a.hi,
                    hi: -a.lo,
                    nan: a.nan,
                }
            } else {
                AbsVal {
                    lo: 0.0,
                    hi: (-a.lo).max(a.hi),
                    nan: a.nan,
                }
            }
        }
        UnOp::Sqrt => {
            let nan = a.nan || a.lo < 0.0;
            if a.hi < 0.0 {
                AbsVal::empty_num(nan)
            } else {
                AbsVal {
                    lo: a.lo.max(0.0).sqrt(),
                    hi: a.hi.sqrt(),
                    nan,
                }
            }
        }
        UnOp::Sin | UnOp::Cos => AbsVal {
            lo: -1.0,
            hi: 1.0,
            nan: a.nan || a.may_be_inf(),
        },
        UnOp::Tan => AbsVal {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            nan: true,
        },
        UnOp::Exp => AbsVal {
            lo: pad_down(a.lo.exp()).max(0.0),
            hi: pad_up(a.hi.exp()),
            nan: a.nan,
        },
        UnOp::Log => {
            let nan = a.nan || a.lo < 0.0;
            if a.hi < 0.0 {
                AbsVal::empty_num(nan)
            } else {
                AbsVal {
                    lo: pad_down(a.lo.max(0.0).ln()),
                    hi: pad_up(a.hi.ln()),
                    nan,
                }
            }
        }
        UnOp::Floor => AbsVal {
            lo: a.lo.floor(),
            hi: a.hi.floor(),
            nan: a.nan,
        },
    }
}

/// Three-valued comparison: `Some(b)` if `lhs cmp rhs` is `b` for **every**
/// pair of concrete values covered by the operands, `None` otherwise.
pub fn abs_cmp(cmp: Cmp, a: AbsVal, b: AbsVal) -> Option<bool> {
    let (t, f) = cmp_possibilities(cmp, a, b);
    match (t, f) {
        (true, false) => Some(true),
        (false, true) => Some(false),
        // Neither possible only in unreachable states; stay undecided.
        _ => None,
    }
}

/// `(may_be_true, may_be_false)` of `lhs cmp rhs` over the operand ranges,
/// with IEEE NaN semantics (every comparison involving NaN is false, except
/// `!=` which is true). Shared with the optimizer's sparse conditional
/// constant propagation, which folds a branch only when one side is
/// impossible.
pub(crate) fn cmp_possibilities(cmp: Cmp, a: AbsVal, b: AbsVal) -> (bool, bool) {
    let mut may_true = false;
    let mut may_false = false;
    if a.nan || b.nan {
        match cmp {
            Cmp::Ne => may_true = true,
            _ => may_false = true,
        }
    }
    if a.has_num() && b.has_num() {
        let overlap = a.lo <= b.hi && b.lo <= a.hi;
        let both_singleton_eq = overlap && a.lo == a.hi && b.lo == b.hi && a.lo == b.lo;
        match cmp {
            Cmp::Lt => {
                may_true |= a.lo < b.hi;
                may_false |= a.hi >= b.lo;
            }
            Cmp::Le => {
                may_true |= a.lo <= b.hi;
                may_false |= a.hi > b.lo;
            }
            Cmp::Gt => {
                may_true |= a.hi > b.lo;
                may_false |= a.lo <= b.hi;
            }
            Cmp::Ge => {
                may_true |= a.hi >= b.lo;
                may_false |= a.lo < b.hi;
            }
            Cmp::Eq => {
                may_true |= overlap;
                may_false |= !both_singleton_eq;
            }
            Cmp::Ne => {
                may_true |= !both_singleton_eq;
                may_false |= overlap;
            }
        }
    }
    (may_true, may_false)
}

/// Joined operand/observation facts about one branch site.
#[derive(Debug, Clone)]
pub struct BranchInfo {
    /// Can the branch be taken (comparison true)?
    pub then_reach: Reachability,
    /// Can the branch fall through (comparison false)?
    pub else_reach: Reachability,
    /// Can an execution put the two operands exactly on the boundary
    /// (`lhs == rhs`, the target of boundary value analysis)?
    pub boundary_reach: Reachability,
}

/// Facts about one operation site.
#[derive(Debug, Clone)]
pub struct OpInfo {
    /// Can the site execute at all?
    pub reach: Reachability,
    /// Abstraction of every value the site can compute (top when unknown).
    pub value: AbsVal,
}

/// Result of the whole-module reachability analysis from one entry.
#[derive(Debug, Clone, Default)]
pub struct ReachSummary {
    /// Per operation-site facts, keyed by raw `OpId`.
    pub ops: BTreeMap<u32, OpInfo>,
    /// Per branch-site facts, keyed by raw `BranchId`.
    pub branches: BTreeMap<u32, BranchInfo>,
}

impl ReachSummary {
    /// The trivial summary: every site `Unknown` (used when the module does
    /// not pass strict validation, so no proof is ever built on it).
    pub fn unknown_for(module: &Module) -> Self {
        let mut s = ReachSummary::default();
        for function in &module.functions {
            for id in super::op_site_ids(function) {
                s.ops.insert(
                    id.0,
                    OpInfo {
                        reach: Reachability::Unknown,
                        value: AbsVal::top(),
                    },
                );
            }
            for id in super::branch_site_ids(function) {
                s.branches.insert(
                    id.0,
                    BranchInfo {
                        then_reach: Reachability::Unknown,
                        else_reach: Reachability::Unknown,
                        boundary_reach: Reachability::Unknown,
                    },
                );
            }
        }
        s
    }
}

/// Per-site observations accumulated while interpreting abstractly.
#[derive(Default, Clone)]
struct BranchObs {
    then_possible: bool,
    else_possible: bool,
    eq_possible: bool,
    tainted: bool,
}

#[derive(Clone)]
struct OpObs {
    seen: bool,
    tainted: bool,
    value: AbsVal,
}

impl Default for OpObs {
    fn default() -> Self {
        OpObs {
            seen: false,
            tainted: false,
            value: AbsVal::empty_num(false),
        }
    }
}

/// Abstract machine state at a block boundary.
#[derive(Clone, PartialEq)]
struct Env {
    regs: Vec<AbsVal>,
    globals: Vec<AbsVal>,
}

impl Env {
    fn join_widen(&mut self, other: &Env, widen: bool) -> bool {
        let mut changed = false;
        for (a, b) in self
            .regs
            .iter_mut()
            .chain(self.globals.iter_mut())
            .zip(other.regs.iter().chain(other.globals.iter()))
        {
            let mut j = a.join(b);
            if widen {
                j = j.widen_from(a);
            }
            if j != *a {
                *a = j;
                changed = true;
            }
        }
        changed
    }
}

/// Number of joins into one block before widening kicks in.
const WIDEN_AFTER: u32 = 8;
/// Analysis call-depth cap; deeper calls are tainted conservatively.
const MAX_ANALYSIS_DEPTH: usize = 16;
/// Global budget of abstract block transfers; exhausted analyses taint the
/// remaining work (everything degrades to `Unknown`, never to a bad proof).
const STEP_BUDGET: usize = 50_000;

/// Memo key of one abstract call: callee index plus the bit patterns of
/// every argument and global abstraction at the call.
type CallKey = (usize, Vec<(u64, u64, bool)>);
/// Memoized abstract call result: the return abstraction and the global
/// state after the call (`None` while a cycle is being unrolled).
type CallResult = Option<(AbsVal, Vec<AbsVal>)>;

struct Analyzer<'m> {
    module: &'m Module,
    cfgs: &'m [Cfg],
    call_graph: &'m CallGraph,
    ops: BTreeMap<u32, OpObs>,
    branches: BTreeMap<u32, BranchObs>,
    /// Memoized call results keyed by (callee, arg/global bit patterns).
    call_memo: HashMap<CallKey, CallResult>,
    steps: usize,
}

impl<'m> Analyzer<'m> {
    /// Marks every site in `f` and its transitive callees as tainted
    /// (classification `Unknown`) — used when the analyzer cannot or will
    /// not descend into a call.
    fn taint_function(&mut self, f: FuncId) {
        let mut stack = vec![f];
        let mut visited = vec![false; self.module.functions.len()];
        while let Some(g) = stack.pop() {
            if g.0 >= self.module.functions.len() || visited[g.0] {
                continue;
            }
            visited[g.0] = true;
            let function = self.module.function(g);
            for id in super::op_site_ids(function) {
                let o = self.ops.entry(id.0).or_default();
                o.tainted = true;
            }
            for id in super::branch_site_ids(function) {
                let b = self.branches.entry(id.0).or_default();
                b.tainted = true;
            }
            for &c in &self.call_graph.callees[g.0] {
                stack.push(c);
            }
        }
    }

    /// Abstractly interprets `f` on `args`/`globals_in`. Returns the joined
    /// return value and global state over all reachable `Return`s, or `None`
    /// if no return is reachable (the caller's continuation is then dead on
    /// this path) or the analysis gave up (caller must taint).
    fn analyze_function(
        &mut self,
        f: FuncId,
        args: &[AbsVal],
        globals_in: &[AbsVal],
        depth: usize,
    ) -> Result<Option<(AbsVal, Vec<AbsVal>)>, ()> {
        if depth >= MAX_ANALYSIS_DEPTH || self.call_graph.recursive[f.0] {
            return Err(());
        }
        let key = (
            f.0,
            args.iter()
                .chain(globals_in.iter())
                .map(|v| (v.lo.to_bits(), v.hi.to_bits(), v.nan))
                .collect::<Vec<_>>(),
        );
        if let Some(cached) = self.call_memo.get(&key) {
            return Ok(cached.clone());
        }

        let function = self.module.function(f);
        let cfg = &self.cfgs[f.0];
        let nb = function.blocks.len();
        let mut states: Vec<Option<Env>> = vec![None; nb];
        let mut visits: Vec<u32> = vec![0; nb];
        states[0] = Some(Env {
            // Scalar frames are zero-filled, so unwritten registers read 0.0.
            regs: vec![AbsVal::exact(0.0); function.num_regs],
            globals: globals_in.to_vec(),
        });
        let mut ret: Option<(AbsVal, Vec<AbsVal>)> = None;

        let mut changed = true;
        while changed {
            changed = false;
            for &b in &cfg.rpo {
                let Some(env) = states[b.0].clone() else {
                    continue;
                };
                if self.steps >= STEP_BUDGET {
                    return Err(());
                }
                self.steps += 1;
                let (outs, block_ret) = self.transfer_block(f, b, env, args, depth)?;
                if let Some((rv, rg)) = block_ret {
                    let joined = match &ret {
                        None => (rv, rg),
                        Some((pv, pg)) => (
                            pv.join(&rv),
                            pg.iter().zip(&rg).map(|(a, b)| a.join(b)).collect(),
                        ),
                    };
                    if ret.as_ref() != Some(&joined) {
                        ret = Some(joined);
                        changed = true;
                    }
                }
                for (succ, out_env) in outs {
                    match &mut states[succ.0] {
                        None => {
                            states[succ.0] = Some(out_env);
                            visits[succ.0] += 1;
                            changed = true;
                        }
                        Some(cur) => {
                            visits[succ.0] += 1;
                            let widen = visits[succ.0] > WIDEN_AFTER;
                            if cur.join_widen(&out_env, widen) {
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        self.call_memo.insert(key, ret.clone());
        Ok(ret)
    }

    /// Transfers one block: returns the successor environments and, if the
    /// terminator is a reachable `Return`, the returned value and globals.
    #[allow(clippy::type_complexity)]
    fn transfer_block(
        &mut self,
        f: FuncId,
        b: BlockId,
        mut env: Env,
        args: &[AbsVal],
        depth: usize,
    ) -> Result<(Vec<(BlockId, Env)>, Option<(AbsVal, Vec<AbsVal>)>), ()> {
        let function = self.module.function(f);
        for inst in &function.blocks[b.0].insts {
            match inst {
                Inst::Const { dst, value } => env.regs[dst.0] = AbsVal::exact(*value),
                Inst::Copy { dst, src } => env.regs[dst.0] = env.regs[src.0],
                Inst::Param { dst, index } => {
                    env.regs[dst.0] = args.get(*index).copied().unwrap_or_else(AbsVal::top);
                }
                Inst::Bin {
                    dst,
                    op,
                    lhs,
                    rhs,
                    site,
                } => {
                    let v = abs_bin(*op, env.regs[lhs.0], env.regs[rhs.0]);
                    if let Some(s) = site {
                        let o = self.ops.entry(s.0).or_default();
                        o.seen = true;
                        o.value = o.value.join(&v);
                    }
                    env.regs[dst.0] = v;
                }
                Inst::Un { dst, op, arg, site } => {
                    let v = abs_un(*op, env.regs[arg.0]);
                    if let Some(s) = site {
                        let o = self.ops.entry(s.0).or_default();
                        o.seen = true;
                        o.value = o.value.join(&v);
                    }
                    env.regs[dst.0] = v;
                }
                Inst::Cmp { dst, cmp, lhs, rhs } => {
                    let (t, fl) = cmp_possibilities(*cmp, env.regs[lhs.0], env.regs[rhs.0]);
                    env.regs[dst.0] = match (t, fl) {
                        (true, false) => AbsVal::exact(1.0),
                        (false, true) => AbsVal::exact(0.0),
                        _ => AbsVal::num(0.0, 1.0),
                    };
                }
                Inst::Select {
                    dst,
                    cond,
                    if_true,
                    if_false,
                } => {
                    // Select tests `cond != 0.0`; NaN counts as true.
                    let c = env.regs[cond.0];
                    let true_possible = c.nan || (c.has_num() && !(c.lo == 0.0 && c.hi == 0.0));
                    let false_possible = c.may_be(0.0);
                    env.regs[dst.0] = match (true_possible, false_possible) {
                        (true, false) => env.regs[if_true.0],
                        (false, true) => env.regs[if_false.0],
                        _ => env.regs[if_true.0].join(&env.regs[if_false.0]),
                    };
                }
                Inst::Call {
                    dst,
                    func,
                    args: call_args,
                } => {
                    if func.0 >= self.module.functions.len()
                        || call_args.len() != self.module.function(*func).num_params
                    {
                        // The interpreter raises an ExecError here on every
                        // input: nothing after this point executes.
                        return Ok((Vec::new(), None));
                    }
                    let vals: Vec<AbsVal> = call_args.iter().map(|r| env.regs[r.0]).collect();
                    match self.analyze_function(*func, &vals, &env.globals, depth + 1) {
                        Ok(Some((rv, rg))) => {
                            env.regs[dst.0] = rv;
                            env.globals = rg;
                        }
                        Ok(None) => {
                            // No return is reachable in the callee: the rest
                            // of this block never executes.
                            return Ok((Vec::new(), None));
                        }
                        Err(()) => {
                            // Couldn't analyze the callee: taint its sites
                            // and assume it may return anything / write any
                            // global.
                            self.taint_function(*func);
                            env.regs[dst.0] = AbsVal::top();
                            for g in &mut env.globals {
                                *g = AbsVal::top();
                            }
                        }
                    }
                }
                Inst::LoadGlobal { dst, global } => env.regs[dst.0] = env.globals[global.0],
                Inst::StoreGlobal { global, src } => env.globals[global.0] = env.regs[src.0],
            }
        }
        match &function.blocks[b.0].term {
            Terminator::Jump(t) => Ok((vec![(*t, env)], None)),
            Terminator::CondBr {
                site,
                lhs,
                cmp,
                rhs,
                then_bb,
                else_bb,
            } => {
                let (a, bb) = (env.regs[lhs.0], env.regs[rhs.0]);
                let (may_true, may_false) = cmp_possibilities(*cmp, a, bb);
                if let Some(s) = site {
                    let o = self.branches.entry(s.0).or_default();
                    o.then_possible |= may_true;
                    o.else_possible |= may_false;
                    o.eq_possible |= equality_possible(a, bb);
                }
                let mut outs = Vec::new();
                if may_true {
                    outs.push((*then_bb, env.clone()));
                }
                if may_false {
                    outs.push((*else_bb, env));
                }
                Ok((outs, None))
            }
            Terminator::Return(r) => {
                let rv = match r {
                    Some(reg) => env.regs[reg.0],
                    // `Call` writes `ret.unwrap_or(NAN)` into its dst.
                    None => AbsVal::exact(f64::NAN),
                };
                Ok((Vec::new(), Some((rv, env.globals))))
            }
        }
    }
}

/// Can `lhs == rhs` hold with both operands on the numeric boundary?
fn equality_possible(a: AbsVal, b: AbsVal) -> bool {
    a.has_num() && b.has_num() && a.lo <= b.hi && b.lo <= a.hi
}

/// Runs the interval analysis of `module` from `entry`, seeding parameters
/// from `domain` (one interval per entry parameter; missing entries default
/// to the whole finite range).
///
/// The module must already have passed strict validation — callers are
/// expected to fall back to [`ReachSummary::unknown_for`] otherwise.
pub fn analyze(
    module: &Module,
    entry: FuncId,
    domain: &[Interval],
    cfgs: &[Cfg],
    call_graph: &CallGraph,
) -> ReachSummary {
    let entry_fn = module.function(entry);
    let args: Vec<AbsVal> = (0..entry_fn.num_params)
        .map(|i| match domain.get(i) {
            Some(iv) => AbsVal::num(iv.lo(), iv.hi()),
            None => AbsVal::num(-f64::MAX, f64::MAX),
        })
        .collect();
    let globals: Vec<AbsVal> = module
        .globals
        .iter()
        .map(|g| AbsVal::exact(g.init))
        .collect();

    let mut az = Analyzer {
        module,
        cfgs,
        call_graph,
        ops: BTreeMap::new(),
        branches: BTreeMap::new(),
        call_memo: HashMap::new(),
        steps: 0,
    };
    // The entry itself may be recursive or over budget; taint everything in
    // that case so all sites classify as Unknown.
    match az.analyze_function(entry, &args, &globals, 0) {
        Ok(_) => {}
        Err(()) => az.taint_function(entry),
    }

    // Blocks that execute on *every* (sufficiently fueled, unstopped) run:
    // walk the entry function from bb0 through unconditional jumps and
    // definite branch directions, stopping at calls, cycles and undecided
    // branches. Sites on this spine upgrade to `Reachable`.
    let mut proven_ops: Vec<u32> = Vec::new();
    let mut proven_branches: Vec<u32> = Vec::new();
    let mut cur = entry_fn.entry();
    let mut visited = vec![false; entry_fn.blocks.len()];
    'walk: while !visited[cur.0] {
        visited[cur.0] = true;
        for inst in &entry_fn.blocks[cur.0].insts {
            if matches!(inst, Inst::Call { .. }) {
                break 'walk;
            }
            if let Some(s) = inst.site() {
                proven_ops.push(s.0);
            }
        }
        match &entry_fn.blocks[cur.0].term {
            Terminator::Jump(t) => cur = *t,
            Terminator::CondBr {
                site,
                then_bb,
                else_bb,
                ..
            } => {
                let Some(s) = site else { break };
                proven_branches.push(s.0);
                let obs = az.branches.get(&s.0).cloned().unwrap_or_default();
                if obs.tainted {
                    break;
                }
                match (obs.then_possible, obs.else_possible) {
                    (true, false) => cur = *then_bb,
                    (false, true) => cur = *else_bb,
                    _ => break,
                }
            }
            Terminator::Return(_) => break,
        }
    }

    // Fold observations into the final classification. Sites never observed
    // (and not tainted) are proven unreachable from the entry.
    let mut summary = ReachSummary::unknown_for(module);
    for (id, info) in summary.ops.iter_mut() {
        let obs = az.ops.get(id).cloned().unwrap_or_default();
        if obs.tainted {
            info.reach = Reachability::Unknown;
            info.value = AbsVal::top();
        } else if !obs.seen {
            info.reach = Reachability::Unreachable;
            info.value = AbsVal::empty_num(false);
        } else {
            info.reach = if proven_ops.contains(id) {
                Reachability::Reachable
            } else {
                Reachability::Unknown
            };
            info.value = obs.value;
        }
    }
    for (id, info) in summary.branches.iter_mut() {
        let obs = az.branches.get(id).cloned().unwrap_or_default();
        if obs.tainted {
            continue; // stays Unknown on every axis
        }
        let executes_always = proven_branches.contains(id);
        let side = |possible: bool, other_possible: bool| -> Reachability {
            if !possible {
                Reachability::Unreachable
            } else if executes_always && !other_possible {
                Reachability::Reachable
            } else {
                Reachability::Unknown
            }
        };
        info.then_reach = side(obs.then_possible, obs.else_possible);
        info.else_reach = side(obs.else_possible, obs.then_possible);
        info.boundary_reach = if obs.eq_possible {
            Reachability::Unknown
        } else {
            Reachability::Unreachable
        };
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(lo: f64, hi: f64) -> AbsVal {
        AbsVal::num(lo, hi)
    }

    #[test]
    fn arithmetic_transfer_is_sound_on_spot_checks() {
        let r = abs_bin(BinOp::Add, v(1.0, 2.0), v(10.0, 20.0));
        assert!(r.contains(11.0) && r.contains(22.0) && !r.nan);
        let r = abs_bin(BinOp::Mul, v(-1.0, 1.0), v(f64::INFINITY, f64::INFINITY));
        assert!(r.nan, "0 * inf possible away from corners");
        assert!(r.contains(f64::NEG_INFINITY) && r.contains(f64::INFINITY));
        let r = abs_bin(BinOp::Div, v(1.0, 1.0), v(-1.0, 1.0));
        assert_eq!(r, AbsVal::top());
        let r = abs_bin(BinOp::Min, AbsVal::exact(f64::NAN), v(3.0, 4.0));
        assert!(r.contains(3.5) && !r.nan, "min(NaN, x) = x");
    }

    #[test]
    fn exp_log_endpoints_are_padded_outward() {
        let r = abs_un(UnOp::Exp, v(0.0, 1.0));
        assert!(r.lo < 1.0 && r.hi > std::f64::consts::E - 1e-10);
        assert!(r.lo > 0.9999999);
        let r = abs_un(UnOp::Log, v(0.0, 1.0));
        assert_eq!(r.lo, f64::NEG_INFINITY, "ln(0) = -inf");
        assert!(r.hi >= 0.0 && !r.nan);
        let r = abs_un(UnOp::Log, v(-1.0, 1.0));
        assert!(r.nan, "ln of a negative is NaN");
    }

    #[test]
    fn sqrt_of_possibly_negative_sets_nan() {
        let r = abs_un(UnOp::Sqrt, v(-4.0, 9.0));
        assert!(r.nan);
        assert!(r.contains(3.0) && r.contains(0.0));
        assert!(!r.contains(-1.0));
    }

    /// The concrete values whose interactions make `min`/`max`/`powf`
    /// NaN-interesting: signed zeros, infinities, NaN, ordinary numbers.
    fn specials() -> Vec<f64> {
        vec![
            f64::NAN,
            f64::NEG_INFINITY,
            f64::INFINITY,
            -0.0,
            0.0,
            -1.0,
            1.0,
            0.5,
            -2.5,
            f64::MAX,
            f64::MIN_POSITIVE,
        ]
    }

    #[test]
    fn min_max_transfer_covers_every_special_pair() {
        // SCCP folds `min`/`max` results out of singleton operands, so the
        // abstract transfer must cover the *exact* `f64::min`/`f64::max`
        // result — including the NaN-absorbing cases where Rust returns the
        // non-NaN operand, not NaN.
        for op in [BinOp::Min, BinOp::Max] {
            for &a in &specials() {
                for &b in &specials() {
                    let concrete = op.apply(a, b);
                    let abs = abs_bin(op, AbsVal::exact(a), AbsVal::exact(b));
                    assert!(
                        abs.contains(concrete),
                        "{op:?}({a}, {b}) = {concrete} escapes {abs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn min_max_nan_flag_requires_both_operands_nan() {
        // min(NaN, x) = x and max(x, NaN) = x in Rust: the result is NaN
        // only when *both* operands are NaN. A spurious NaN flag would be
        // sound but would block folding; a missing one would be a bug.
        let num = v(3.0, 4.0);
        let nan = AbsVal::exact(f64::NAN);
        for op in [BinOp::Min, BinOp::Max] {
            assert!(!abs_bin(op, nan, num).nan, "{op:?}(NaN, num) is numeric");
            assert!(!abs_bin(op, num, nan).nan, "{op:?}(num, NaN) is numeric");
            assert!(abs_bin(op, nan, nan).nan, "{op:?}(NaN, NaN) is NaN");
            let maybe = AbsVal {
                lo: 1.0,
                hi: 2.0,
                nan: true,
            };
            let r = abs_bin(op, maybe, num);
            assert!(!r.nan, "a may-NaN side still yields the other range");
            assert!(r.contains(3.5), "NaN side substitutes the other range");
        }
    }

    #[test]
    fn min_max_singletons_fold_to_apply_bits() {
        // The folding rule: singleton operands fold to BinOp::apply's exact
        // bit pattern. min(-0.0, 0.0) is whichever operand Rust's
        // `f64::min` picks — assert the abstract transfer admits it and
        // that the fold source (`apply`) is what the interpreter runs.
        let cases = [(-0.0, 0.0), (0.0, -0.0), (1.0, 1.0), (-1.0, 2.0)];
        for op in [BinOp::Min, BinOp::Max] {
            for (a, b) in cases {
                let folded = op.apply(a, b);
                let abs = abs_bin(op, AbsVal::exact(a), AbsVal::exact(b));
                assert!(abs.contains(folded), "{op:?}({a:?}, {b:?})");
            }
        }
        // Signed-zero singletons stay distinguishable at the bit level:
        // an abstraction spanning [-0.0, 0.0] must not report a singleton.
        assert_eq!(
            AbsVal::exact(-0.0).singleton().map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(AbsVal::num(-0.0, 0.0).singleton(), None);
        assert_eq!(AbsVal::exact(f64::NAN).singleton(), None);
    }

    #[test]
    fn pow_transfer_covers_every_special_pair() {
        // Pow's abstract transfer is `top`; folding relies on the singleton
        // path computing `powf` itself. Pin both: top covers every special
        // pair (including the NaN results of e.g. (-1.5).powf(0.5)), and
        // NaN results are flagged so SCCP refuses to fold them.
        for &a in &specials() {
            for &b in &specials() {
                let concrete = BinOp::Pow.apply(a, b);
                let abs = abs_bin(BinOp::Pow, AbsVal::exact(a), AbsVal::exact(b));
                assert!(
                    abs.contains(concrete),
                    "powf({a}, {b}) = {concrete} escapes {abs:?}"
                );
            }
        }
        assert!(
            BinOp::Pow.apply(-1.5, 0.5).is_nan(),
            "negative base, fractional exponent is the NaN case folding must skip"
        );
    }

    #[test]
    fn comparison_tri_state() {
        assert_eq!(abs_cmp(Cmp::Lt, v(0.0, 1.0), v(2.0, 3.0)), Some(true));
        assert_eq!(abs_cmp(Cmp::Lt, v(2.0, 3.0), v(0.0, 1.0)), Some(false));
        assert_eq!(abs_cmp(Cmp::Lt, v(0.0, 2.5), v(2.0, 3.0)), None);
        // NaN forces "may be false" on everything but Ne.
        let mut nanny = v(0.0, 1.0);
        nanny.nan = true;
        assert_eq!(abs_cmp(Cmp::Lt, nanny, v(2.0, 3.0)), None);
    }
}
