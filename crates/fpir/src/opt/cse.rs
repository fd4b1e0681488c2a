//! Dominator-based common-subexpression elimination.
//!
//! fpir is a register machine, not SSA, so availability is restricted to
//! the easy case that is still sound: an operation is a candidate only if
//! its operands **and** its destination each have exactly one static
//! definition in the whole function. A strictly-validated module has no
//! use-before-def on any reachable path, so a single-definition register
//! holds the same value at every read — which makes "identical pure op on
//! identical operands, dominated by an earlier copy of itself" replaceable
//! by a register copy of the earlier destination, with bit-identical
//! semantics.
//!
//! Only unobserved (`site: None`) `Bin`/`Un` and `Cmp` instructions
//! participate: an instrumented operation's event is an observation that
//! must keep firing. Floating-point operations are matched exactly —
//! same operator, same operand registers, in order — so no reassociation
//! or commutation ever happens.

use super::OptStats;
use crate::analysis::cfg::Cfg;
use crate::analysis::dom::Dominators;
use crate::ir::{BinOp, BlockId, Inst, Module, Reg, UnOp};
use fp_runtime::Cmp;
use std::collections::HashMap;

/// A pure expression, keyed for availability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ExprKey {
    Bin(BinOp, Reg, Reg),
    Un(UnOp, Reg),
    Cmp(Cmp, Reg, Reg),
}

/// Runs the pass over every function of `module`. Returns the number of
/// instructions replaced by copies.
pub(crate) fn run(module: &mut Module, stats: &mut OptStats) -> usize {
    let mut replaced = 0usize;
    for function in &mut module.functions {
        let cfg = Cfg::new(function);
        let doms = Dominators::new(&cfg);

        // Static definition counts (Param and every dst-writing inst).
        let mut defs = vec![0usize; function.num_regs];
        for block in &function.blocks {
            for inst in &block.insts {
                if let Some(d) = inst.dst() {
                    defs[d.0] += 1;
                }
            }
        }
        let single = |r: Reg| defs[r.0] == 1;

        // Dominator-tree preorder DFS with a scoped availability map: what
        // is available in a block is whatever its dominators computed.
        let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); function.blocks.len()];
        for b in 1..function.blocks.len() {
            if let Some(p) = doms.idom(BlockId(b)) {
                children[p.0].push(BlockId(b));
            }
        }
        let mut stack: Vec<(BlockId, HashMap<ExprKey, Reg>)> = vec![(BlockId(0), HashMap::new())];
        while let Some((b, mut avail)) = stack.pop() {
            for inst in &mut function.blocks[b.0].insts {
                let key = match inst {
                    Inst::Bin {
                        op,
                        lhs,
                        rhs,
                        site: None,
                        dst,
                    } if single(*lhs) && single(*rhs) && single(*dst) => {
                        Some((ExprKey::Bin(*op, *lhs, *rhs), *dst))
                    }
                    Inst::Un {
                        op,
                        arg,
                        site: None,
                        dst,
                    } if single(*arg) && single(*dst) => Some((ExprKey::Un(*op, *arg), *dst)),
                    Inst::Cmp { cmp, lhs, rhs, dst }
                        if single(*lhs) && single(*rhs) && single(*dst) =>
                    {
                        Some((ExprKey::Cmp(*cmp, *lhs, *rhs), *dst))
                    }
                    _ => None,
                };
                if let Some((key, dst)) = key {
                    match avail.get(&key) {
                        Some(&prev) if prev != dst => {
                            *inst = Inst::Copy { dst, src: prev };
                            replaced += 1;
                        }
                        Some(_) => {}
                        None => {
                            avail.insert(key, dst);
                        }
                    }
                }
            }
            for &c in &children[b.0] {
                stack.push((c, avail.clone()));
            }
        }
    }
    stats.cse_replaced += replaced;
    replaced
}
