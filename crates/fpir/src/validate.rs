//! Strict verification of IR modules.
//!
//! [`validate`] combines the structural checks (index ranges, arities)
//! with a dominance-based definite-assignment pass: a register read must be
//! preceded by a write on *every* path from the function entry, so a value
//! defined in only one branch arm cannot leak through the join as a silent
//! `0.0`. [`diagnostics`] reports the non-fatal findings — unreachable
//! blocks and (mutual) recursion — that are legal to execute (the
//! interpreter zero-fills frames and bounds call depth) but usually
//! indicate an instrumentation bug.

use crate::analysis::{self, Cfg};
use crate::ir::{FuncId, Inst, Module, Terminator};
use std::fmt;

/// A structural error found in a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A function has no blocks.
    EmptyFunction {
        /// The offending function.
        func: FuncId,
    },
    /// A register index is out of range.
    BadRegister {
        /// The offending function.
        func: FuncId,
        /// Details of the offence.
        detail: String,
    },
    /// A block target is out of range.
    BadBlockTarget {
        /// The offending function.
        func: FuncId,
        /// Details of the offence.
        detail: String,
    },
    /// A parameter index is out of range.
    BadParamIndex {
        /// The offending function.
        func: FuncId,
        /// Details of the offence.
        detail: String,
    },
    /// A call references a missing function or has the wrong arity.
    BadCall {
        /// The offending function.
        func: FuncId,
        /// Details of the offence.
        detail: String,
    },
    /// A global cell index is out of range.
    BadGlobal {
        /// The offending function.
        func: FuncId,
        /// Details of the offence.
        detail: String,
    },
    /// A register is read on some path before any write reaches it (for
    /// example, defined in one branch arm and read after the join).
    UseBeforeDef {
        /// The offending function.
        func: FuncId,
        /// Details of the offence.
        detail: String,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::EmptyFunction { func } => {
                write!(f, "function {func} has no blocks")
            }
            ValidationError::BadRegister { func, detail } => {
                write!(f, "bad register in {func}: {detail}")
            }
            ValidationError::BadBlockTarget { func, detail } => {
                write!(f, "bad block target in {func}: {detail}")
            }
            ValidationError::BadParamIndex { func, detail } => {
                write!(f, "bad parameter index in {func}: {detail}")
            }
            ValidationError::BadCall { func, detail } => {
                write!(f, "bad call in {func}: {detail}")
            }
            ValidationError::BadGlobal { func, detail } => {
                write!(f, "bad global in {func}: {detail}")
            }
            ValidationError::UseBeforeDef { func, detail } => {
                write!(f, "use before definition in {func}: {detail}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates every function of a module; returns the first error found, or
/// `Ok(())`.
///
/// # Errors
///
/// Returns a [`ValidationError`] describing the first problem: out-of-range
/// registers, blocks, parameters, globals, ill-formed calls, or a register
/// read that is not dominated by a write (definite assignment over every
/// reachable path — the structural checks run first so the dataflow pass
/// only ever sees in-range indices).
pub fn validate(module: &Module) -> Result<(), ValidationError> {
    for (fi, func) in module.functions.iter().enumerate() {
        validate_structure(module, FuncId(fi), func)?;
    }
    for (fi, func) in module.functions.iter().enumerate() {
        let cfg = Cfg::new(func);
        if let Some((block, inst, reg)) = analysis::liveness::first_use_before_def(func, &cfg) {
            let at = match inst {
                Some(i) => format!("instruction {i} of {block}"),
                None => format!("the terminator of {block}"),
            };
            return Err(ValidationError::UseBeforeDef {
                func: FuncId(fi),
                detail: format!("{reg} is read at {at} but not written on every path from entry"),
            });
        }
    }
    Ok(())
}

fn validate_structure(
    module: &Module,
    fid: FuncId,
    func: &crate::ir::Function,
) -> Result<(), ValidationError> {
    {
        if func.blocks.is_empty() {
            return Err(ValidationError::EmptyFunction { func: fid });
        }
        let check_reg = |r: crate::ir::Reg, what: &str| {
            if r.0 >= func.num_regs {
                Err(ValidationError::BadRegister {
                    func: fid,
                    detail: format!(
                        "{what} uses {r} but the function has {} registers",
                        func.num_regs
                    ),
                })
            } else {
                Ok(())
            }
        };
        let check_block = |b: crate::ir::BlockId| {
            if b.0 >= func.blocks.len() {
                Err(ValidationError::BadBlockTarget {
                    func: fid,
                    detail: format!("target {b} out of {} blocks", func.blocks.len()),
                })
            } else {
                Ok(())
            }
        };
        for block in &func.blocks {
            for inst in &block.insts {
                if let Some(dst) = inst.dst() {
                    check_reg(dst, "destination")?;
                }
                match inst {
                    Inst::Const { .. } => {}
                    Inst::Copy { src, .. } => check_reg(*src, "copy source")?,
                    Inst::Param { index, .. } => {
                        if *index >= func.num_params {
                            return Err(ValidationError::BadParamIndex {
                                func: fid,
                                detail: format!(
                                    "parameter {index} of {} parameters",
                                    func.num_params
                                ),
                            });
                        }
                    }
                    Inst::Bin { lhs, rhs, .. } => {
                        check_reg(*lhs, "binary lhs")?;
                        check_reg(*rhs, "binary rhs")?;
                    }
                    Inst::Un { arg, .. } => check_reg(*arg, "unary operand")?,
                    Inst::Cmp { lhs, rhs, .. } => {
                        check_reg(*lhs, "compare lhs")?;
                        check_reg(*rhs, "compare rhs")?;
                    }
                    Inst::Select {
                        cond,
                        if_true,
                        if_false,
                        ..
                    } => {
                        check_reg(*cond, "select condition")?;
                        check_reg(*if_true, "select true value")?;
                        check_reg(*if_false, "select false value")?;
                    }
                    Inst::Call {
                        func: callee, args, ..
                    } => {
                        if callee.0 >= module.functions.len() {
                            return Err(ValidationError::BadCall {
                                func: fid,
                                detail: format!("callee {callee} does not exist"),
                            });
                        }
                        let expected = module.functions[callee.0].num_params;
                        if args.len() != expected {
                            return Err(ValidationError::BadCall {
                                func: fid,
                                detail: format!(
                                    "callee {callee} expects {expected} arguments, got {}",
                                    args.len()
                                ),
                            });
                        }
                        for a in args {
                            check_reg(*a, "call argument")?;
                        }
                    }
                    Inst::LoadGlobal { global, .. } | Inst::StoreGlobal { global, .. } => {
                        if global.0 >= module.globals.len() {
                            return Err(ValidationError::BadGlobal {
                                func: fid,
                                detail: format!("global {global} does not exist"),
                            });
                        }
                        if let Inst::StoreGlobal { src, .. } = inst {
                            check_reg(*src, "store source")?;
                        }
                    }
                }
            }
            match &block.term {
                Terminator::Jump(b) => check_block(*b)?,
                Terminator::CondBr {
                    lhs,
                    rhs,
                    then_bb,
                    else_bb,
                    ..
                } => {
                    check_reg(*lhs, "branch lhs")?;
                    check_reg(*rhs, "branch rhs")?;
                    check_block(*then_bb)?;
                    check_block(*else_bb)?;
                }
                Terminator::Return(Some(r)) => check_reg(*r, "return value")?,
                Terminator::Return(None) => {}
            }
        }
    }
    Ok(())
}

/// A non-fatal finding of the strict verifier.
///
/// Both conditions execute fine — the interpreter zero-fills frames, never
/// enters unreachable blocks and bounds call depth — but they are almost
/// always instrumentation bugs, so the `analyze` bench surfaces them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Diagnostic {
    /// A block no path from the function entry reaches.
    UnreachableBlock {
        /// The containing function.
        func: FuncId,
        /// The unreachable block.
        block: crate::ir::BlockId,
    },
    /// A function that can reach itself through calls; such functions never
    /// run lockstep in the lanewise kernel.
    RecursiveFunction {
        /// The recursive function.
        func: FuncId,
    },
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Diagnostic::UnreachableBlock { func, block } => {
                write!(f, "{block} of {func} is unreachable from the entry")
            }
            Diagnostic::RecursiveFunction { func } => {
                write!(f, "{func} is (mutually) recursive")
            }
        }
    }
}

/// Reports every non-fatal [`Diagnostic`] of `module`, in function order.
pub fn diagnostics(module: &Module) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let call_graph = analysis::CallGraph::new(module);
    for (fi, func) in module.functions.iter().enumerate() {
        let cfg = Cfg::new(func);
        for b in 0..cfg.num_blocks() {
            let block = crate::ir::BlockId(b);
            if !cfg.is_reachable(block) {
                out.push(Diagnostic::UnreachableBlock {
                    func: FuncId(fi),
                    block,
                });
            }
        }
        if call_graph.recursive[fi] {
            out.push(Diagnostic::RecursiveFunction { func: FuncId(fi) });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::ir::{BinOp, Block, BlockId, Function, Reg};
    use fp_runtime::Cmp;

    fn good_module() -> Module {
        let mut mb = ModuleBuilder::new();
        let w = mb.global("w", 1.0);
        let mut f = mb.function("f", 1);
        let x = f.param(0);
        let one = f.constant(1.0);
        let y = f.bin(BinOp::Add, x, one, Some(0));
        f.store_global(w, y);
        let t = f.new_block();
        let e = f.new_block();
        f.cond_br(Some(0), y, Cmp::Le, one, t, e);
        f.switch_to(t);
        f.ret(Some(y));
        f.switch_to(e);
        f.ret(None);
        f.finish();
        mb.build()
    }

    #[test]
    fn accepts_well_formed_module() {
        assert_eq!(validate(&good_module()), Ok(()));
    }

    #[test]
    fn rejects_out_of_range_register() {
        let mut m = good_module();
        m.functions[0].blocks[0].insts.push(crate::ir::Inst::Copy {
            dst: Reg(0),
            src: Reg(999),
        });
        let err = validate(&m).unwrap_err();
        assert!(matches!(err, ValidationError::BadRegister { .. }));
        assert!(err.to_string().contains("register"));
    }

    #[test]
    fn rejects_bad_block_target() {
        let mut m = good_module();
        m.functions[0].blocks[1].term = crate::ir::Terminator::Jump(BlockId(77));
        assert!(matches!(
            validate(&m).unwrap_err(),
            ValidationError::BadBlockTarget { .. }
        ));
    }

    #[test]
    fn rejects_bad_call_arity() {
        let mut m = good_module();
        // Add a caller passing no arguments to the unary function 0.
        m.functions.push(Function {
            name: "caller".into(),
            num_params: 0,
            num_regs: 1,
            blocks: vec![Block {
                insts: vec![crate::ir::Inst::Call {
                    dst: Reg(0),
                    func: crate::ir::FuncId(0),
                    args: vec![],
                }],
                term: crate::ir::Terminator::Return(None),
            }],
        });
        assert!(matches!(
            validate(&m).unwrap_err(),
            ValidationError::BadCall { .. }
        ));
    }

    #[test]
    fn rejects_missing_global() {
        let mut m = good_module();
        m.globals.clear();
        assert!(matches!(
            validate(&m).unwrap_err(),
            ValidationError::BadGlobal { .. }
        ));
    }

    #[test]
    fn rejects_empty_function() {
        let mut m = good_module();
        m.functions[0].blocks.clear();
        assert!(matches!(
            validate(&m).unwrap_err(),
            ValidationError::EmptyFunction { .. }
        ));
    }

    #[test]
    fn rejects_one_arm_definition_read_after_the_join() {
        // if (x < 0) { y = x + x } ; return y — the classic bug the old
        // structural validator waved through (the join read silently saw
        // 0.0 on the else path).
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("j", 1);
        let t = f.new_block();
        let e = f.new_block();
        let j = f.new_block();
        let x = f.param(0);
        let z = f.constant(0.0);
        f.cond_br(None, x, Cmp::Lt, z, t, e);
        f.switch_to(t);
        let y = f.bin(BinOp::Add, x, x, None);
        let _ = y;
        f.jump(j);
        f.switch_to(e);
        f.jump(j);
        f.switch_to(j);
        f.ret(Some(y));
        f.finish();
        let m = mb.build();
        let err = validate(&m).unwrap_err();
        assert!(matches!(err, ValidationError::UseBeforeDef { .. }));
        assert!(err.to_string().contains("not written on every path"));
    }

    #[test]
    fn accepts_both_arm_definitions_read_after_the_join() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("j", 1);
        let t = f.new_block();
        let e = f.new_block();
        let j = f.new_block();
        let x = f.param(0);
        let z = f.constant(0.0);
        f.cond_br(None, x, Cmp::Lt, z, t, e);
        f.switch_to(t);
        let y = f.copy(x);
        f.jump(j);
        f.switch_to(e);
        f.assign(y, z);
        f.jump(j);
        f.switch_to(j);
        f.ret(Some(y));
        f.finish();
        assert_eq!(validate(&mb.build()), Ok(()));
    }

    #[test]
    fn diagnostics_report_unreachable_blocks_and_recursion() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("r", 1);
        let dead = f.new_block();
        let x = f.param(0);
        let r = f.call(crate::ir::FuncId(0), vec![x]);
        f.ret(Some(r));
        f.switch_to(dead);
        f.ret(None);
        f.finish();
        let m = mb.build();
        assert_eq!(validate(&m), Ok(()), "diagnostics are not errors");
        let diags = diagnostics(&m);
        assert!(diags.contains(&Diagnostic::UnreachableBlock {
            func: crate::ir::FuncId(0),
            block: dead,
        }));
        assert!(diags.contains(&Diagnostic::RecursiveFunction {
            func: crate::ir::FuncId(0)
        }));
    }

    /// A buggy slice that deletes the definition of a register whose uses
    /// survive must not pass the post-optimization verifier: the
    /// zero-filled frame would silently change the surviving branch and
    /// store.
    #[test]
    fn rejects_slice_that_drops_a_live_definition() {
        let mut m = good_module();
        // "Slice away" y = x + 1 while its branch/store/return uses stay.
        m.functions[0].blocks[0]
            .insts
            .retain(|i| !matches!(i, crate::ir::Inst::Bin { .. }));
        let err = validate(&m).unwrap_err();
        assert!(matches!(err, ValidationError::UseBeforeDef { .. }));
        assert!(err.to_string().contains("not written on every path"));
    }

    /// A buggy slice that drops a function from the table while a call to
    /// it survives (the W-driver shape: entry calling the subject) must be
    /// rejected, not resolved to garbage.
    #[test]
    fn rejects_slice_that_removes_a_called_function() {
        let mut mb = ModuleBuilder::new();
        let mut d = mb.function("driver", 1);
        let x = d.param(0);
        let r = d.call(crate::ir::FuncId(1), vec![x]);
        d.ret(Some(r));
        d.finish();
        let mut c = mb.function("callee", 1);
        let y = c.param(0);
        c.ret(Some(y));
        c.finish();
        let mut m = mb.build();
        assert_eq!(validate(&m), Ok(()));
        m.functions.pop();
        let err = validate(&m).unwrap_err();
        assert!(matches!(err, ValidationError::BadCall { .. }));
        assert!(err.to_string().contains("does not exist"));
    }

    /// A buggy slice that compacts the global table while a surviving load
    /// still reads the dropped cell must be rejected.
    #[test]
    fn rejects_slice_that_drops_a_loaded_global() {
        let mut mb = ModuleBuilder::new();
        let w = mb.global("w", 0.0);
        let mut f = mb.function("reader", 0);
        let v = f.load_global(w);
        f.ret(Some(v));
        f.finish();
        let mut m = mb.build();
        assert_eq!(validate(&m), Ok(()));
        m.globals.clear();
        assert!(matches!(
            validate(&m).unwrap_err(),
            ValidationError::BadGlobal { .. }
        ));
    }

    #[test]
    fn rejects_bad_param_index() {
        let mut m = good_module();
        m.functions[0].blocks[0].insts.push(crate::ir::Inst::Param {
            dst: Reg(0),
            index: 5,
        });
        assert!(matches!(
            validate(&m).unwrap_err(),
            ValidationError::BadParamIndex { .. }
        ));
    }
}
