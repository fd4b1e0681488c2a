//! Transformation-based weak-distance construction (the Reduction Kernel of
//! Section 5.3).
//!
//! Each pass takes a module and an entry function `Prog` and produces a new
//! module containing an instrumented copy `Prog_w` plus a driver function
//! `W` that initializes the global `w`, invokes `Prog_w` and returns `w` —
//! exactly the construction of Figures 3(a), 4(a) and Algorithm 3 steps
//! (1)–(3). The resulting module's `W` function *is* the weak distance; it
//! can be handed to any MO backend through
//! [`ModuleProgram`](crate::ModuleProgram).

use crate::ir::{
    BinOp, Block, BlockId, FuncId, Function, GlobalId, Inst, Module, Reg, Terminator, UnOp,
};
use fp_runtime::{BranchId, Cmp, OpId};
use std::collections::BTreeSet;

/// Name of the injected global weak-distance variable.
pub const W_GLOBAL: &str = "w";
/// Name of the generated driver function.
pub const W_FUNCTION: &str = "W";

/// Builds the driver `double W(x1, ..., xN) { w = w_init; Prog_w(...); return w; }`.
fn add_driver(module: &mut Module, entry: FuncId, w: GlobalId, w_init: f64) -> FuncId {
    let num_params = module.function(entry).num_params;
    let mut func = Function {
        name: W_FUNCTION.to_string(),
        num_params,
        num_regs: 0,
        blocks: vec![Block::new()],
    };
    let mut insts = Vec::new();
    let init_reg = func.fresh_reg();
    insts.push(Inst::Const {
        dst: init_reg,
        value: w_init,
    });
    insts.push(Inst::StoreGlobal {
        global: w,
        src: init_reg,
    });
    let mut args = Vec::with_capacity(num_params);
    for i in 0..num_params {
        let r = func.fresh_reg();
        insts.push(Inst::Param { dst: r, index: i });
        args.push(r);
    }
    let call_dst = func.fresh_reg();
    insts.push(Inst::Call {
        dst: call_dst,
        func: entry,
        args,
    });
    let w_reg = func.fresh_reg();
    insts.push(Inst::LoadGlobal {
        dst: w_reg,
        global: w,
    });
    func.blocks[0].insts = insts;
    func.blocks[0].term = Terminator::Return(Some(w_reg));
    module.functions.push(func);
    FuncId(module.functions.len() - 1)
}

fn get_or_add_w(module: &mut Module, init: f64) -> GlobalId {
    match module.global_by_name(W_GLOBAL) {
        Some(g) => {
            module.globals[g.0].init = init;
            g
        }
        None => module.add_global(W_GLOBAL, init),
    }
}

/// Boundary value analysis instrumentation (Fig. 3(a)).
///
/// Before every labelled conditional branch `lhs cmp rhs` in every function
/// of the module, injects `w = w * |lhs - rhs|`; adds the driver `W` with
/// `w` initialized to 1. The zeros of `W` are exactly the inputs that
/// trigger some boundary condition.
pub fn instrument_boundary(module: &Module, entry: FuncId) -> Module {
    let mut out = module.clone();
    let w = get_or_add_w(&mut out, 1.0);
    for func in &mut out.functions {
        for bi in 0..func.blocks.len() {
            let Terminator::CondBr {
                site: Some(_),
                lhs,
                rhs,
                ..
            } = func.blocks[bi].term
            else {
                continue;
            };
            let diff = func.fresh_reg();
            let absval = func.fresh_reg();
            let wreg = func.fresh_reg();
            let prod = func.fresh_reg();
            let block = &mut func.blocks[bi];
            block.insts.push(Inst::Bin {
                dst: diff,
                op: BinOp::Sub,
                lhs,
                rhs,
                site: None,
            });
            block.insts.push(Inst::Un {
                dst: absval,
                op: UnOp::Abs,
                arg: diff,
                site: None,
            });
            block.insts.push(Inst::LoadGlobal {
                dst: wreg,
                global: w,
            });
            block.insts.push(Inst::Bin {
                dst: prod,
                op: BinOp::Mul,
                lhs: wreg,
                rhs: absval,
                site: None,
            });
            block.insts.push(Inst::StoreGlobal {
                global: w,
                src: prod,
            });
        }
    }
    add_driver(&mut out, entry, w, 1.0);
    out
}

/// Path reachability instrumentation (Fig. 4(a)).
///
/// `path` lists the branch sites that must be taken in the given direction.
/// Before each such branch the pass injects
/// `w = w + (branch satisfied in the required direction ? 0 : gap)`, where
/// `gap` is the Korel branch distance; the driver initializes `w` to 0.
/// A program input minimizes `W` to 0 iff it drives every listed branch in
/// the required direction.
pub fn instrument_path(module: &Module, entry: FuncId, path: &[(BranchId, bool)]) -> Module {
    let mut out = module.clone();
    let w = get_or_add_w(&mut out, 0.0);
    for func in &mut out.functions {
        for bi in 0..func.blocks.len() {
            let Terminator::CondBr {
                site: Some(site),
                lhs,
                cmp,
                rhs,
                ..
            } = func.blocks[bi].term
            else {
                continue;
            };
            let Some(&(_, dir)) = path.iter().find(|(s, _)| *s == site) else {
                continue;
            };
            let required = if dir { cmp } else { cmp.negate() };
            let dist = emit_branch_distance(func, bi, lhs, required, rhs);
            let wreg = func.fresh_reg();
            let sum = func.fresh_reg();
            let block = &mut func.blocks[bi];
            block.insts.push(Inst::LoadGlobal {
                dst: wreg,
                global: w,
            });
            block.insts.push(Inst::Bin {
                dst: sum,
                op: BinOp::Add,
                lhs: wreg,
                rhs: dist,
                site: None,
            });
            block.insts.push(Inst::StoreGlobal {
                global: w,
                src: sum,
            });
        }
    }
    add_driver(&mut out, entry, w, 0.0);
    out
}

/// Emits instructions computing the Korel branch distance of
/// `lhs required rhs` into block `bi` of `func` and returns the register
/// holding it.
fn emit_branch_distance(func: &mut Function, bi: usize, lhs: Reg, required: Cmp, rhs: Reg) -> Reg {
    let cond = func.fresh_reg();
    let gap = func.fresh_reg();
    let diff = func.fresh_reg();
    let zero = func.fresh_reg();
    let dist = func.fresh_reg();
    let block = &mut func.blocks[bi];
    block.insts.push(Inst::Cmp {
        dst: cond,
        cmp: required,
        lhs,
        rhs,
    });
    match required {
        Cmp::Lt | Cmp::Le => block.insts.push(Inst::Bin {
            dst: gap,
            op: BinOp::Sub,
            lhs,
            rhs,
            site: None,
        }),
        Cmp::Gt | Cmp::Ge => block.insts.push(Inst::Bin {
            dst: gap,
            op: BinOp::Sub,
            lhs: rhs,
            rhs: lhs,
            site: None,
        }),
        Cmp::Eq => {
            block.insts.push(Inst::Bin {
                dst: diff,
                op: BinOp::Sub,
                lhs,
                rhs,
                site: None,
            });
            block.insts.push(Inst::Un {
                dst: gap,
                op: UnOp::Abs,
                arg: diff,
                site: None,
            });
        }
        Cmp::Ne => block.insts.push(Inst::Const {
            dst: gap,
            value: 1.0,
        }),
    }
    block.insts.push(Inst::Const {
        dst: zero,
        value: 0.0,
    });
    block.insts.push(Inst::Select {
        dst: dist,
        cond,
        if_true: zero,
        if_false: gap,
    });
    dist
}

/// Overflow detection instrumentation (Algorithm 3 steps (1)–(3)).
///
/// After every labelled floating-point operation whose site is *not* in
/// `already_overflowed` (the set `L`), injects
///
/// ```text
/// w = (|a| < MAX) ? MAX - |a| : 0;
/// if (w == 0) return;
/// ```
///
/// where `a` is the operation's assignee, and adds the driver `W` with `w`
/// initialized to 1. Because later assignments overwrite `w`, minimizing `W`
/// targets the *last executed* not-yet-overflowed operation, which is the
/// heuristic step (7) of Algorithm 3 exploits.
pub fn instrument_overflow(
    module: &Module,
    entry: FuncId,
    already_overflowed: &BTreeSet<OpId>,
) -> Module {
    let mut out = module.clone();
    let w = get_or_add_w(&mut out, 1.0);
    for func in &mut out.functions {
        let mut new_blocks: Vec<Block> = Vec::with_capacity(func.blocks.len());
        // First pass: we rebuild blocks one by one; because splitting appends
        // continuation blocks at the end, original block indices stay valid.
        let original_len = func.blocks.len();
        let old_blocks = std::mem::take(&mut func.blocks);
        let mut pending: Vec<Block> = Vec::new();
        for block in old_blocks.into_iter().take(original_len) {
            let mut current = Block {
                insts: Vec::new(),
                term: block.term.clone(),
            };
            let mut chain: Vec<Block> = Vec::new();
            for inst in block.insts {
                let site = inst.site();
                let dst = inst.dst();
                current.insts.push(inst);
                let (Some(site), Some(dst)) = (site, dst) else {
                    continue;
                };
                if already_overflowed.contains(&site) {
                    continue;
                }
                // w = (|a| < MAX) ? MAX - |a| : 0
                let absval = func_fresh(func);
                current.insts.push(Inst::Un {
                    dst: absval,
                    op: UnOp::Abs,
                    arg: dst,
                    site: None,
                });
                let maxreg = func_fresh(func);
                current.insts.push(Inst::Const {
                    dst: maxreg,
                    value: f64::MAX,
                });
                let cond = func_fresh(func);
                current.insts.push(Inst::Cmp {
                    dst: cond,
                    cmp: Cmp::Lt,
                    lhs: absval,
                    rhs: maxreg,
                });
                let gap = func_fresh(func);
                current.insts.push(Inst::Bin {
                    dst: gap,
                    op: BinOp::Sub,
                    lhs: maxreg,
                    rhs: absval,
                    site: None,
                });
                let zero = func_fresh(func);
                current.insts.push(Inst::Const {
                    dst: zero,
                    value: 0.0,
                });
                let new_w = func_fresh(func);
                current.insts.push(Inst::Select {
                    dst: new_w,
                    cond,
                    if_true: gap,
                    if_false: zero,
                });
                current.insts.push(Inst::StoreGlobal {
                    global: w,
                    src: new_w,
                });
                // if (w == 0) return; -- split the block here.
                let bail_index = original_len + pending.len() + chain.len();
                let cont_index = bail_index + 1;
                let finished = Block {
                    insts: std::mem::take(&mut current.insts),
                    term: Terminator::CondBr {
                        site: None,
                        lhs: new_w,
                        cmp: Cmp::Eq,
                        rhs: zero,
                        then_bb: BlockId(bail_index),
                        else_bb: BlockId(cont_index),
                    },
                };
                chain.push(finished);
                chain.push(Block {
                    insts: Vec::new(),
                    term: Terminator::Return(None),
                });
                // `current` continues with the original terminator.
            }
            if chain.is_empty() {
                new_blocks.push(current);
            } else {
                // The head of the chain replaces the original block; the rest
                // (bail blocks and the final continuation) are appended after
                // all original blocks, in order.
                let mut iter = chain.into_iter();
                new_blocks.push(iter.next().expect("chain is nonempty"));
                let mut rest: Vec<Block> = iter.collect();
                // The final continuation (holding the original terminator and
                // trailing instructions) goes at the end of this block's chain.
                rest.push(current);
                pending.extend(rest);
            }
        }
        new_blocks.extend(pending);
        func.blocks = new_blocks;
    }
    add_driver(&mut out, entry, w, 1.0);
    out
}

fn func_fresh(func: &mut Function) -> Reg {
    func.fresh_reg()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::ModuleProgram;
    use crate::programs::fig2_program;
    use crate::validate::validate;
    use fp_runtime::{Analyzable, NullObserver};

    fn weak_distance(module: Module) -> ModuleProgram {
        ModuleProgram::new(module, W_FUNCTION).expect("driver W exists")
    }

    #[test]
    fn boundary_instrumentation_matches_fig3() {
        let m = fig2_program();
        let entry = m.function_by_name("prog").unwrap();
        let inst = instrument_boundary(&m, entry);
        assert_eq!(validate(&inst), Ok(()));
        let wd = weak_distance(inst);
        // Known boundary values of Fig. 3: -3, 1 and 2 give W = 0.
        for x in [-3.0, 1.0, 2.0] {
            assert_eq!(wd.run(&[x], &mut NullObserver), Some(0.0), "x = {x}");
        }
        // A non-boundary input gives a strictly positive W.
        let v = wd.run(&[0.5], &mut NullObserver).unwrap();
        assert!(v > 0.0);
        // Fig. 3(b): W(0.5) = |0.5-1| * |(1.5)^2 - 4| = 0.5 * 1.75.
        assert!((v - 0.875).abs() < 1e-12, "W(0.5) = {v}");
    }

    #[test]
    fn boundary_weak_distance_is_nonnegative_everywhere() {
        let m = fig2_program();
        let entry = m.function_by_name("prog").unwrap();
        let wd = weak_distance(instrument_boundary(&m, entry));
        for i in -40..40 {
            let x = i as f64 * 0.37;
            let v = wd.run(&[x], &mut NullObserver).unwrap();
            assert!(v >= 0.0, "W({x}) = {v}");
        }
    }

    #[test]
    fn path_instrumentation_matches_fig4() {
        let m = fig2_program();
        let entry = m.function_by_name("prog").unwrap();
        // Target path: both branches taken (Fig. 4).
        let path = [(BranchId(0), true), (BranchId(1), true)];
        let inst = instrument_path(&m, entry, &path);
        assert_eq!(validate(&inst), Ok(()));
        let wd = weak_distance(inst);
        // Solution space is [-3, 1]: W = 0 inside.
        for x in [-3.0, -1.0, 0.0, 1.0] {
            assert_eq!(wd.run(&[x], &mut NullObserver), Some(0.0), "x = {x}");
        }
        // Outside the solution space W is positive.
        for x in [1.5, 2.0, 5.0, -3.5] {
            let v = wd.run(&[x], &mut NullObserver).unwrap();
            assert!(v > 0.0, "W({x}) = {v}");
        }
        // Fig. 4(b): for x = 2 (first branch violated by 1, y = 4 satisfies
        // the second), W = 1.
        assert_eq!(wd.run(&[2.0], &mut NullObserver), Some(1.0));
    }

    #[test]
    fn path_instrumentation_other_direction() {
        let m = fig2_program();
        let entry = m.function_by_name("prog").unwrap();
        // Path: first branch NOT taken, second taken → x in (1, 2].
        let path = [(BranchId(0), false), (BranchId(1), true)];
        let wd = weak_distance(instrument_path(&m, entry, &path));
        assert_eq!(wd.run(&[1.5], &mut NullObserver), Some(0.0));
        assert_eq!(wd.run(&[2.0], &mut NullObserver), Some(0.0));
        assert!(wd.run(&[0.5], &mut NullObserver).unwrap() > 0.0);
        assert!(wd.run(&[3.0], &mut NullObserver).unwrap() > 0.0);
    }

    #[test]
    fn overflow_instrumentation_tracks_last_unoverflowed_op() {
        // prog(x): a = x * x (site 0); b = a + 1 (site 1); return b.
        let mut mb = crate::builder::ModuleBuilder::new();
        let mut f = mb.function("prog", 1);
        let x = f.param(0);
        let one = f.constant(1.0);
        let a = f.bin(BinOp::Mul, x, x, Some(0));
        let b = f.bin(BinOp::Add, a, one, Some(1));
        f.ret(Some(b));
        let entry = f.finish();
        let m = mb.build();

        let inst = instrument_overflow(&m, entry, &BTreeSet::new());
        assert_eq!(validate(&inst), Ok(()));
        let wd = weak_distance(inst);
        // Small input: neither op overflows; w is MAX - |b| (huge but positive).
        let v = wd.run(&[2.0], &mut NullObserver).unwrap();
        assert!(v > 0.0 && v.is_finite());
        // Input that overflows the multiplication: w becomes 0 at site 0 and
        // the injected early return fires.
        let v = wd.run(&[1.0e200], &mut NullObserver).unwrap();
        assert_eq!(v, 0.0);

        // With site 0 already in L, the instrumentation at site 0 disappears:
        // overflowing the multiplication alone no longer drives w to 0 …
        let skip: BTreeSet<OpId> = [OpId(0)].into_iter().collect();
        let wd2 = weak_distance(instrument_overflow(&m, entry, &skip));
        let v = wd2.run(&[1.0e200], &mut NullObserver).unwrap();
        // … because site 1 computes inf + 1 = inf, which also overflows, so w
        // is 0 there instead; use an input where only the product overflows.
        assert_eq!(v, 0.0);
        let v = wd2.run(&[2.0], &mut NullObserver).unwrap();
        assert!(v > 0.0);
    }

    #[test]
    fn overflow_driver_reads_w_after_early_return() {
        let m = fig2_program();
        let entry = m.function_by_name("prog").unwrap();
        let inst = instrument_overflow(&m, entry, &BTreeSet::new());
        assert_eq!(validate(&inst), Ok(()));
        let wd = weak_distance(inst);
        // No op of Fig. 2 overflows for moderate inputs: w stays positive.
        let v = wd.run(&[1.0], &mut NullObserver).unwrap();
        assert!(v > 0.0);
        // Huge input: x*x overflows, w becomes 0.
        let v = wd.run(&[1.0e200], &mut NullObserver).unwrap();
        assert_eq!(v, 0.0);
    }

    #[test]
    fn instrumented_modules_leave_original_function_usable() {
        let m = fig2_program();
        let entry = m.function_by_name("prog").unwrap();
        let inst = instrument_boundary(&m, entry);
        // The original (now instrumented) prog still computes its result.
        let p = ModuleProgram::new(inst, "prog").unwrap();
        assert_eq!(p.run(&[3.0], &mut NullObserver), Some(3.0));
    }
}
