//! Sparse conditional constant propagation over the interval domain.
//!
//! A forward abstract interpretation with [`AbsVal`] computes, for every
//! reachable block, a sound abstraction of each register at block entry —
//! propagating only along branch sides the comparison-feasibility check
//! (`cmp_possibilities`) cannot rule out, the "sparse conditional" part. The rewrite phase then replays each block
//! under its fixed entry environment and:
//!
//! * folds an **unobserved** `Bin`/`Un` whose operands are both single bit
//!   patterns into a `Const`, computing the value with the *same*
//!   `apply` the interpreter runs — and only when the result is non-NaN
//!   (NaN payloads are platform-shaped, never baked into constants);
//! * folds a `Cmp` the abstraction decides into its 1.0/0.0 constant;
//! * rewrites a `Select` whose condition is decided into a `Copy`;
//! * folds an **unobserved** `CondBr` with a provably impossible side into
//!   a `Jump` (observed branches always keep emitting their event, so they
//!   are never folded);
//! * empties blocks that folding made unreachable.
//!
//! Live floating-point operations are never reassociated, reordered or
//! strength-reduced — an instruction either survives verbatim or becomes a
//! bit-exact constant/copy.
//!
//! Entry-function parameters are seeded from the search domain (the same
//! assumption the zero-eval static pruning makes); every other function's
//! parameters, every `Call` result and every `LoadGlobal` are `top`.

use super::OptStats;
use crate::analysis::cfg::Cfg;
use crate::analysis::interval::{abs_bin, abs_cmp, abs_un, cmp_possibilities, AbsVal};
use crate::ir::{Block, BlockId, FuncId, Inst, Module, Terminator};
use fp_runtime::Interval;

/// Joins per block before endpoints widen to infinity.
const WIDEN_AFTER: usize = 8;

/// Cap on fixpoint sweeps (widening guarantees far earlier convergence).
const MAX_SWEEPS: usize = 64;

/// Runs the pass over every function of `module`. Returns the number of
/// rewrites performed (0 = fixpoint reached).
pub(crate) fn run(
    module: &mut Module,
    entry: FuncId,
    domain: &[Interval],
    stats: &mut OptStats,
) -> usize {
    let mut changed = 0usize;
    for f in 0..module.functions.len() {
        let params: Vec<AbsVal> = (0..module.functions[f].num_params)
            .map(|i| {
                if f == entry.0 {
                    match domain.get(i) {
                        Some(iv) if !iv.lo().is_nan() && !iv.hi().is_nan() => {
                            AbsVal::num(iv.lo(), iv.hi())
                        }
                        _ => AbsVal::top(),
                    }
                } else {
                    AbsVal::top()
                }
            })
            .collect();
        changed += run_function(module, f, &params, stats);
    }
    changed
}

/// Abstract-transfers `inst` over `env`, writing the destination register.
fn transfer(inst: &Inst, env: &mut [AbsVal], params: &[AbsVal]) {
    match inst {
        Inst::Const { dst, value } => env[dst.0] = AbsVal::exact(*value),
        Inst::Copy { dst, src } => env[dst.0] = env[src.0],
        Inst::Param { dst, index } => {
            env[dst.0] = params.get(*index).copied().unwrap_or_else(AbsVal::top)
        }
        Inst::Bin { dst, op, lhs, rhs, .. } => env[dst.0] = abs_bin(*op, env[lhs.0], env[rhs.0]),
        Inst::Un { dst, op, arg, .. } => env[dst.0] = abs_un(*op, env[arg.0]),
        Inst::Cmp { dst, cmp, lhs, rhs } => {
            env[dst.0] = match abs_cmp(*cmp, env[lhs.0], env[rhs.0]) {
                Some(true) => AbsVal::exact(1.0),
                Some(false) => AbsVal::exact(0.0),
                None => AbsVal::num(0.0, 1.0),
            }
        }
        Inst::Select {
            dst,
            cond,
            if_true,
            if_false,
        } => {
            let (may_true, may_false) = select_sides(env[cond.0]);
            env[dst.0] = match (may_true, may_false) {
                (true, false) => env[if_true.0],
                (false, true) => env[if_false.0],
                _ => env[if_true.0].join(&env[if_false.0]),
            };
        }
        // Interprocedural and global flow stay unknown by design.
        Inst::Call { dst, .. } => env[dst.0] = AbsVal::top(),
        Inst::LoadGlobal { dst, .. } => env[dst.0] = AbsVal::top(),
        Inst::StoreGlobal { .. } => {}
    }
}

/// `(may_be_nonzero, may_be_zero)` of a `Select` condition. The
/// interpreter's condition test is `c != 0.0`: NaN is truthy (`NaN != 0.0`
/// holds) and `-0.0` is falsy (`-0.0 != 0.0` does not).
fn select_sides(c: AbsVal) -> (bool, bool) {
    let may_true = c.nan || cmp_possibilities(fp_runtime::Cmp::Ne, c, AbsVal::exact(0.0)).0;
    let may_false = c.may_be(0.0);
    (may_true, may_false)
}

/// The feasible successors of a terminator under `env`.
fn feasible_successors(term: &Terminator, env: &[AbsVal]) -> Vec<BlockId> {
    match term {
        Terminator::Jump(b) => vec![*b],
        Terminator::Return(_) => Vec::new(),
        Terminator::CondBr {
            lhs,
            cmp,
            rhs,
            then_bb,
            else_bb,
            ..
        } => {
            let (may_true, may_false) = cmp_possibilities(*cmp, env[lhs.0], env[rhs.0]);
            let mut out = Vec::new();
            if may_true {
                out.push(*then_bb);
            }
            if may_false {
                out.push(*else_bb);
            }
            if out.is_empty() {
                // Unreachable state (empty operand ranges): stay sound by
                // keeping both edges rather than proving anything from ⊥.
                out.push(*then_bb);
                out.push(*else_bb);
            }
            out
        }
    }
}

fn join_env(into: &mut [AbsVal], from: &[AbsVal]) -> bool {
    let mut changed = false;
    for (a, b) in into.iter_mut().zip(from) {
        let j = a.join(b);
        if j != *a {
            *a = j;
            changed = true;
        }
    }
    changed
}

fn run_function(module: &mut Module, f: usize, params: &[AbsVal], stats: &mut OptStats) -> usize {
    let function = &module.functions[f];
    let nb = function.blocks.len();
    let nr = function.num_regs;
    let cfg = Cfg::new(function);

    // Block-entry environments; `None` = not proved reachable yet. The
    // entry block starts with every register zero (frames are
    // zero-initialized).
    let mut in_env: Vec<Option<Vec<AbsVal>>> = vec![None; nb];
    in_env[0] = Some(vec![AbsVal::exact(0.0); nr]);
    let mut joins: Vec<usize> = vec![0; nb];

    let mut sweeps = 0usize;
    loop {
        sweeps += 1;
        let mut changed = false;
        for &b in &cfg.rpo {
            let Some(mut env) = in_env[b.0].clone() else {
                continue;
            };
            for inst in &function.blocks[b.0].insts {
                transfer(inst, &mut env, params);
            }
            for succ in feasible_successors(&function.blocks[b.0].term, &env) {
                match &mut in_env[succ.0] {
                    Some(old) => {
                        let before = old.clone();
                        if join_env(old, &env) {
                            joins[succ.0] += 1;
                            if joins[succ.0] > WIDEN_AFTER {
                                for (n, o) in old.iter_mut().zip(&before) {
                                    *n = n.widen_from(o);
                                }
                            }
                            changed = true;
                        }
                    }
                    slot @ None => {
                        *slot = Some(env.clone());
                        changed = true;
                    }
                }
            }
        }
        if !changed || sweeps >= MAX_SWEEPS {
            break;
        }
    }

    // Rewrite phase: replay each reachable block under its fixed entry
    // environment.
    let mut changes = 0usize;
    let function = &mut module.functions[f];
    for (b, entry_env) in in_env.iter().enumerate() {
        let Some(env0) = entry_env else {
            continue;
        };
        let mut env = env0.clone();
        let block = &mut function.blocks[b];
        for inst in &mut block.insts {
            let rewritten = fold_inst(inst, &env);
            if let Some(new_inst) = rewritten {
                *inst = new_inst;
                changes += 1;
                stats.constants_folded += 1;
            }
            transfer(inst, &mut env, params);
        }
        if let Terminator::CondBr {
            site: None,
            lhs,
            cmp,
            rhs,
            then_bb,
            else_bb,
        } = block.term
        {
            let (may_true, may_false) = cmp_possibilities(cmp, env[lhs.0], env[rhs.0]);
            match (may_true, may_false) {
                (true, false) => {
                    block.term = Terminator::Jump(then_bb);
                    stats.branches_folded += 1;
                    changes += 1;
                }
                (false, true) => {
                    block.term = Terminator::Jump(else_bb);
                    stats.branches_folded += 1;
                    changes += 1;
                }
                _ => {}
            }
        }
    }

    // Empty every block the rewritten terminators no longer reach.
    let empty = Block::new();
    let mut reachable = vec![false; nb];
    let mut stack = vec![BlockId(0)];
    while let Some(b) = stack.pop() {
        if std::mem::replace(&mut reachable[b.0], true) {
            continue;
        }
        for s in function.blocks[b.0].term.successors_iter() {
            stack.push(s);
        }
    }
    for (b, block) in function.blocks.iter_mut().enumerate() {
        if !reachable[b] && *block != empty {
            *block = empty.clone();
            changes += 1;
        }
    }
    changes
}

/// The constant/copy `inst` folds to under `env`, if any. Instrumented
/// operations (site label present) always survive: their event is the
/// observation.
fn fold_inst(inst: &Inst, env: &[AbsVal]) -> Option<Inst> {
    match inst {
        Inst::Bin {
            dst,
            op,
            lhs,
            rhs,
            site: None,
        } => {
            let (a, b) = (env[lhs.0].singleton()?, env[rhs.0].singleton()?);
            let v = op.apply(a, b);
            if v.is_nan() {
                return None;
            }
            Some(Inst::Const { dst: *dst, value: v })
        }
        Inst::Un {
            dst,
            op,
            arg,
            site: None,
        } => {
            let a = env[arg.0].singleton()?;
            let v = op.apply(a);
            if v.is_nan() {
                return None;
            }
            Some(Inst::Const { dst: *dst, value: v })
        }
        Inst::Cmp { dst, cmp, lhs, rhs } => {
            abs_cmp(*cmp, env[lhs.0], env[rhs.0]).map(|t| Inst::Const {
                dst: *dst,
                value: if t { 1.0 } else { 0.0 },
            })
        }
        Inst::Select {
            dst,
            cond,
            if_true,
            if_false,
        } => match select_sides(env[cond.0]) {
            (true, false) => Some(Inst::Copy {
                dst: *dst,
                src: *if_true,
            }),
            (false, true) => Some(Inst::Copy {
                dst: *dst,
                src: *if_false,
            }),
            _ => None,
        },
        _ => None,
    }
}
