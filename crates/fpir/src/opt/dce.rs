//! Backward slicing / dead-code elimination from the observation set.
//!
//! An instruction survives only if it can affect something the
//! [`ObservationSpec`] observes:
//!
//! * **roots** — instrumented operations (their event is the observation),
//!   every `Call` (the callee may emit events or store observed globals),
//!   and `StoreGlobal` to a *needed* global;
//! * **flow** — any instruction whose destination some live instruction or
//!   terminator reads (branch operands always stay live: control flow is
//!   never rewritten here).
//!
//! The entry function's `Return` operand is an observation root only when
//! the spec observes return values (or the entry is also called from
//! inside the module); otherwise the return is rewritten to `ret` with no
//! value and its computation chain becomes eligible for deletion — the
//! core of target-directed slicing, since the event-folding weak distances
//! never read the program's result.
//!
//! Liveness is iterated to a **least** fixpoint starting from the roots
//! (faint-variable style): a definition only used by other dead
//! definitions is itself dead, so whole chains disappear in one pass. The
//! needed-globals set is likewise a fixpoint: a global is needed if the
//! spec observes globals or some *live* `LoadGlobal` reads it, and stores
//! to needed globals are roots — the two analyses iterate together until
//! neither grows.

use super::OptStats;
use crate::analysis::liveness::{for_each_term_use, for_each_use};
use crate::ir::{Function, Inst, Module, Terminator};
use fp_runtime::ObservationSpec;
use std::collections::BTreeSet;

/// Runs the pass over `module`. Returns the number of instructions
/// deleted plus return rewrites (0 = fixpoint reached).
pub(crate) fn run(
    module: &mut Module,
    entry: crate::ir::FuncId,
    spec: &ObservationSpec,
    stats: &mut OptStats,
) -> usize {
    let _ = stats;
    let mut changes = 0usize;

    // The entry's return value may only be dropped when nothing observes
    // it: the spec does not, and no internal call reads it either.
    let entry_called = module
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .flat_map(|b| &b.insts)
        .any(|i| matches!(i, Inst::Call { func, .. } if *func == entry));
    if !spec.return_value && !entry_called {
        for block in &mut module.functions[entry.0].blocks {
            if matches!(block.term, Terminator::Return(Some(_))) {
                block.term = Terminator::Return(None);
                changes += 1;
            }
        }
    }

    // Needed globals ∪ per-function liveness, iterated together.
    let mut needed: BTreeSet<usize> = if spec.globals {
        (0..module.globals.len()).collect()
    } else {
        BTreeSet::new()
    };
    let live: Vec<Vec<Vec<bool>>> = loop {
        let live: Vec<Vec<Vec<bool>>> = module
            .functions
            .iter()
            .map(|f| function_liveness(f, spec, &needed))
            .collect();
        let mut grown = needed.clone();
        for (f, function) in module.functions.iter().enumerate() {
            for (b, block) in function.blocks.iter().enumerate() {
                for (i, inst) in block.insts.iter().enumerate() {
                    if live[f][b][i] {
                        if let Inst::LoadGlobal { global, .. } = inst {
                            grown.insert(global.0);
                        }
                    }
                }
            }
        }
        if grown == needed {
            break live;
        }
        needed = grown;
    };

    for (f, function) in module.functions.iter_mut().enumerate() {
        for (b, block) in function.blocks.iter_mut().enumerate() {
            let keep = &live[f][b];
            if keep.iter().all(|&k| k) {
                continue;
            }
            let mut i = 0usize;
            block.insts.retain(|_| {
                let k = keep[i];
                i += 1;
                k
            });
            changes += keep.iter().filter(|&&k| !k).count();
        }
    }
    changes
}

/// True if `inst` is an observation root under `spec`/`needed`.
fn is_root(inst: &Inst, needed: &BTreeSet<usize>) -> bool {
    match inst {
        // A surviving site label means the spec observes this event
        // (unobserved labels were stripped before the pipeline ran).
        Inst::Bin { site: Some(_), .. } | Inst::Un { site: Some(_), .. } => true,
        Inst::Call { .. } => true,
        Inst::StoreGlobal { global, .. } => needed.contains(&global.0),
        _ => false,
    }
}

/// Per-instruction liveness of one function: `result[block][inst]`.
fn function_liveness(
    function: &Function,
    _spec: &ObservationSpec,
    needed: &BTreeSet<usize>,
) -> Vec<Vec<bool>> {
    let nb = function.blocks.len();
    let nr = function.num_regs;

    let succs: Vec<Vec<usize>> = function
        .blocks
        .iter()
        .map(|b| b.term.successors_iter().map(|s| s.0).collect())
        .collect();

    // live_in[b]: registers whose values may still reach an observation
    // when control enters `b`.
    let mut live_in: Vec<Vec<bool>> = vec![vec![false; nr]; nb];
    loop {
        let mut changed = false;
        for b in (0..nb).rev() {
            let mut live = vec![false; nr];
            for &s in &succs[b] {
                for r in 0..nr {
                    live[r] = live[r] || live_in[s][r];
                }
            }
            for_each_term_use(&function.blocks[b].term, |r| live[r.0] = true);
            for inst in function.blocks[b].insts.iter().rev() {
                let inst_live =
                    is_root(inst, needed) || inst.dst().map(|d| live[d.0]).unwrap_or(false);
                if inst_live {
                    if let Some(d) = inst.dst() {
                        live[d.0] = false;
                    }
                    for_each_use(inst, |r| live[r.0] = true);
                }
                // A dead instruction will be deleted: it neither defines
                // nor uses anything.
            }
            if live != live_in[b] {
                live_in[b] = live;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Final forward-order decision pass per block, walking backward from
    // the converged live-out sets.
    let mut result: Vec<Vec<bool>> = Vec::with_capacity(nb);
    for (b, block_succs) in succs.iter().enumerate() {
        let mut live = vec![false; nr];
        for &s in block_succs {
            for r in 0..nr {
                live[r] = live[r] || live_in[s][r];
            }
        }
        for_each_term_use(&function.blocks[b].term, |r| live[r.0] = true);
        let mut keep = vec![false; function.blocks[b].insts.len()];
        for (i, inst) in function.blocks[b].insts.iter().enumerate().rev() {
            let inst_live = is_root(inst, needed) || inst.dst().map(|d| live[d.0]).unwrap_or(false);
            keep[i] = inst_live;
            if inst_live {
                if let Some(d) = inst.dst() {
                    live[d.0] = false;
                }
                for_each_use(inst, |r| live[r.0] = true);
            }
        }
        result.push(keep);
    }
    result
}
