//! Backward liveness and the slot-sharing register allocation that lets the
//! lanewise kernel size its SoA wave register file by *live* registers
//! instead of `num_regs`.
//!
//! The allocation follows the classic Chaitin interference rule: at every
//! definition, the defined register interferes with everything live out of
//! that definition (including dead definitions, which still clobber their
//! slot). Two registers may share a slot only if they never interfere, which
//! guarantees the invariant the kernel's eviction path relies on: **at any
//! program point, every live register's slot holds that register's own last
//! written value.** Dead registers may observe a sharing partner's value,
//! but a register that is dead is by definition never read before being
//! redefined, so a scalar resume from any point still computes bit-identical
//! results.
//!
//! Sharing is only sound if no reachable path reads a register before
//! writing it, so [`FrameLayout::of`] gates compaction on the
//! definite-assignment analysis and falls back to the identity layout
//! otherwise (preserving today's behavior for modules that strict
//! validation would reject but that still execute under
//! `KernelPolicy::Always`).

use super::cfg::Cfg;
use crate::ir::{BlockId, Function, Inst, Reg, Terminator};

/// A dense bitset over register indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub(crate) fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        old & (1 << b) == 0
    }

    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `self |= other`; returns true if `self` changed.
    pub(crate) fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self &= other`.
    pub(crate) fn intersect_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word & (1 << b) != 0)
                .map(move |b| w * 64 + b)
        })
    }
}

/// Calls `f` for every register read by `inst`.
pub fn for_each_use(inst: &Inst, mut f: impl FnMut(Reg)) {
    match inst {
        Inst::Const { .. } | Inst::Param { .. } | Inst::LoadGlobal { .. } => {}
        Inst::Copy { src, .. } => f(*src),
        Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
            f(*lhs);
            f(*rhs);
        }
        Inst::Un { arg, .. } => f(*arg),
        Inst::Select {
            cond,
            if_true,
            if_false,
            ..
        } => {
            f(*cond);
            f(*if_true);
            f(*if_false);
        }
        Inst::Call { args, .. } => {
            for a in args {
                f(*a);
            }
        }
        Inst::StoreGlobal { src, .. } => f(*src),
    }
}

/// Calls `f` for every register read by `term`.
pub fn for_each_term_use(term: &Terminator, mut f: impl FnMut(Reg)) {
    match term {
        Terminator::Jump(_) => {}
        Terminator::CondBr { lhs, rhs, .. } => {
            f(*lhs);
            f(*rhs);
        }
        Terminator::Return(Some(r)) => f(*r),
        Terminator::Return(None) => {}
    }
}

/// Forward definite-assignment analysis.
///
/// `IN[entry] = ∅` (fpir parameters arrive through `Inst::Param`, not
/// pre-assigned registers) and `IN[b] = ⋂ OUT[pred]`: a register counts as
/// assigned at a use only if **every** path from the entry writes it first.
/// Returns the first offending `(block, inst_index_or_none_for_terminator,
/// register)` in RPO/instruction order, or `None` if the function is
/// definitely assigned on all reachable paths.
pub fn first_use_before_def(
    function: &Function,
    cfg: &Cfg,
) -> Option<(BlockId, Option<usize>, Reg)> {
    let nr = function.num_regs;
    let nb = function.blocks.len();
    // OUT[b] per block; None = not yet computed (⊤ for the intersection).
    let mut out: Vec<Option<BitSet>> = vec![None; nb];
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &cfg.rpo {
            let mut live = BitSet::new(nr);
            let mut first = true;
            for &p in &cfg.preds[b.0] {
                // An unprocessed predecessor (`None`) is ⊤ (all assigned):
                // skipping it keeps the intersection an over-approx of the
                // final value, and the fixpoint corrects it.
                if let Some(po) = &out[p.0] {
                    if first {
                        live = po.clone();
                        first = false;
                    } else {
                        live.intersect_with(po);
                    }
                }
            }
            if b.0 == 0 {
                live = BitSet::new(nr); // the entry starts with nothing assigned
            }
            for inst in &function.blocks[b.0].insts {
                if let Some(d) = inst.dst() {
                    if d.0 < nr {
                        live.insert(d.0);
                    }
                }
            }
            if out[b.0].as_ref() != Some(&live) {
                out[b.0] = Some(live);
                changed = true;
            }
        }
    }

    // Re-walk in RPO and report the first read of an unassigned register.
    for &b in &cfg.rpo {
        let mut assigned = BitSet::new(nr);
        let mut first = true;
        for &p in &cfg.preds[b.0] {
            if let Some(po) = &out[p.0] {
                if first {
                    assigned = po.clone();
                    first = false;
                } else {
                    assigned.intersect_with(po);
                }
            }
        }
        if b.0 == 0 {
            assigned = BitSet::new(nr);
        }
        for (i, inst) in function.blocks[b.0].insts.iter().enumerate() {
            let mut bad = None;
            for_each_use(inst, |r| {
                if bad.is_none() && r.0 < nr && !assigned.contains(r.0) {
                    bad = Some(r);
                }
            });
            if let Some(r) = bad {
                return Some((b, Some(i), r));
            }
            if let Some(d) = inst.dst() {
                if d.0 < nr {
                    assigned.insert(d.0);
                }
            }
        }
        let mut bad = None;
        for_each_term_use(&function.blocks[b.0].term, |r| {
            if bad.is_none() && r.0 < nr && !assigned.contains(r.0) {
                bad = Some(r);
            }
        });
        if let Some(r) = bad {
            return Some((b, None, r));
        }
    }
    None
}

/// Per-block liveness sets of one function (reachable blocks only).
#[derive(Debug, Clone)]
pub struct Liveness {
    /// `live_in[b]`: registers live on entry to `bb b`.
    live_in: Vec<BitSet>,
    /// `live_out[b]`: registers live on exit from `bb b`.
    live_out: Vec<BitSet>,
}

impl Liveness {
    /// Computes backward liveness over the reachable blocks of `function`.
    pub fn new(function: &Function, cfg: &Cfg) -> Self {
        let nr = function.num_regs;
        let nb = function.blocks.len();
        let mut use_b = vec![BitSet::new(nr); nb];
        let mut def_b = vec![BitSet::new(nr); nb];
        for &b in &cfg.rpo {
            let (ub, db) = (&mut use_b[b.0], &mut def_b[b.0]);
            for inst in &function.blocks[b.0].insts {
                for_each_use(inst, |r| {
                    if r.0 < nr && !db.contains(r.0) {
                        ub.insert(r.0);
                    }
                });
                if let Some(d) = inst.dst() {
                    if d.0 < nr {
                        db.insert(d.0);
                    }
                }
            }
            for_each_term_use(&function.blocks[b.0].term, |r| {
                if r.0 < nr && !db.contains(r.0) {
                    ub.insert(r.0);
                }
            });
        }

        let mut live_in = vec![BitSet::new(nr); nb];
        let mut live_out = vec![BitSet::new(nr); nb];
        let mut changed = true;
        while changed {
            changed = false;
            // Postorder (reverse RPO) converges fastest for backward flow.
            for &b in cfg.rpo.iter().rev() {
                let mut new_out = BitSet::new(nr);
                for &s in &cfg.succs[b.0] {
                    new_out.union_with(&live_in[s.0]);
                }
                // IN = use ∪ (OUT − def)
                let mut new_in = new_out.clone();
                for r in def_b[b.0].iter() {
                    new_in.remove(r);
                }
                new_in.union_with(&use_b[b.0]);
                if new_out != live_out[b.0] || new_in != live_in[b.0] {
                    live_out[b.0] = new_out;
                    live_in[b.0] = new_in;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Number of registers live on entry to `b` (for reporting).
    pub fn num_live_in(&self, b: BlockId) -> usize {
        self.live_in[b.0].iter().count()
    }
}

/// A register-to-slot mapping for one function's SoA wave frame.
#[derive(Debug, Clone)]
pub struct FrameLayout {
    /// `slot[r]` is the wave-file slot backing register `%r`.
    pub slot: Vec<usize>,
    /// Number of distinct slots (the wave file holds `num_slots * lanes`
    /// cells instead of `num_regs * lanes`).
    pub num_slots: usize,
    /// True if sharing actually happened (`num_slots < num_regs`).
    pub compacted: bool,
}

impl FrameLayout {
    /// The identity layout (one slot per register).
    pub fn identity(num_regs: usize) -> Self {
        FrameLayout {
            slot: (0..num_regs).collect(),
            num_slots: num_regs,
            compacted: false,
        }
    }

    /// Computes the slot-sharing layout of `function`, or the identity
    /// layout if any reachable path may read a register before writing it
    /// (see the module docs for why that gate is required).
    pub fn of(function: &Function, cfg: &Cfg) -> Self {
        let nr = function.num_regs;
        if nr == 0 {
            return FrameLayout::identity(0);
        }
        if first_use_before_def(function, cfg).is_some() {
            return FrameLayout::identity(nr);
        }
        let liveness = Liveness::new(function, cfg);

        // Interference: def × live-out-at-def, built by walking each block
        // backward from its live-out set.
        let mut interferes = vec![BitSet::new(nr); nr];
        for &b in &cfg.rpo {
            let mut live = liveness.live_out[b.0].clone();
            for_each_term_use(&function.blocks[b.0].term, |r| {
                if r.0 < nr {
                    live.insert(r.0);
                }
            });
            for inst in function.blocks[b.0].insts.iter().rev() {
                if let Some(d) = inst.dst() {
                    if d.0 < nr {
                        for r in live.iter() {
                            if r != d.0 {
                                interferes[d.0].insert(r);
                                interferes[r].insert(d.0);
                            }
                        }
                        live.remove(d.0);
                    }
                }
                for_each_use(inst, |r| {
                    if r.0 < nr {
                        live.insert(r.0);
                    }
                });
            }
        }

        // Greedy coloring in register order: lowest slot not taken by an
        // interfering neighbor. Register order keeps the result
        // deterministic and cheap; optimal coloring is not the point.
        let mut slot = vec![usize::MAX; nr];
        let mut num_slots = 0;
        let mut taken: Vec<bool> = Vec::new();
        for r in 0..nr {
            taken.clear();
            taken.resize(num_slots.max(1), false);
            for n in interferes[r].iter() {
                if slot[n] != usize::MAX && slot[n] < taken.len() {
                    taken[slot[n]] = true;
                }
            }
            let s = taken.iter().position(|&t| !t).unwrap_or(taken.len());
            slot[r] = s;
            num_slots = num_slots.max(s + 1);
        }
        FrameLayout {
            compacted: num_slots < nr,
            slot,
            num_slots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::ir::{BinOp, FuncId};
    use fp_runtime::Cmp;

    #[test]
    fn straightline_chain_shares_slots() {
        // t1 = t0+t0; t2 = t1*t1; t3 = t1-t2; ret t3 — `t1` stays live
        // across `t2`'s definition (they interfere), but at most two values
        // are live at once, so the frame compacts below num_regs.
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("c", 1);
        let p = f.param(0);
        let a = f.bin(BinOp::Add, p, p, None);
        let b = f.bin(BinOp::Mul, a, a, None);
        let c = f.bin(BinOp::Sub, a, b, None);
        f.ret(Some(c));
        f.finish();
        let m = mb.build();
        let function = m.function(FuncId(0));
        let cfg = Cfg::new(function);
        let layout = FrameLayout::of(function, &cfg);
        assert!(layout.compacted);
        assert!(layout.num_slots < function.num_regs);
        assert_ne!(layout.slot[a.0], layout.slot[b.0], "a live across b's def");
        assert_eq!(layout.slot[c.0], layout.slot[a.0], "a dead once c defined");
    }

    #[test]
    fn use_before_def_disables_compaction() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("u", 1);
        let p = f.param(0);
        let s = f.bin(BinOp::Add, p, p, None);
        f.ret(Some(s));
        f.finish();
        let mut m = mb.build();
        // Point the second operand at a register nothing ever writes.
        let function = m.function_mut(FuncId(0));
        let ghost = function.fresh_reg();
        if let crate::ir::Inst::Bin { rhs, .. } = &mut function.blocks[0].insts[1] {
            *rhs = ghost;
        }
        let function = m.function(FuncId(0));
        let cfg = Cfg::new(function);
        assert!(first_use_before_def(function, &cfg).is_some());
        let layout = FrameLayout::of(function, &cfg);
        assert!(!layout.compacted);
        assert_eq!(layout.num_slots, function.num_regs);
    }

    #[test]
    fn one_arm_def_read_after_join_is_flagged() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("j", 1);
        let t = f.new_block();
        let e = f.new_block();
        let j = f.new_block();
        let x = f.param(0);
        let z = f.constant(0.0);
        f.cond_br(None, x, Cmp::Lt, z, t, e);
        f.switch_to(t);
        let y = f.bin(BinOp::Add, x, x, None); // defined only on this arm
        let _ = y;
        f.jump(j);
        f.switch_to(e);
        f.jump(j);
        f.switch_to(j);
        f.ret(Some(y)); // read after the join
        f.finish();
        let m = mb.build();
        let function = m.function(FuncId(0));
        let cfg = Cfg::new(function);
        let bad = first_use_before_def(function, &cfg);
        assert_eq!(bad, Some((j, None, y)));
    }

    #[test]
    fn values_live_across_a_branch_keep_distinct_slots() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("d", 2);
        let t = f.new_block();
        let e = f.new_block();
        let x = f.param(0);
        let y = f.param(1);
        f.cond_br(None, x, Cmp::Lt, y, t, e);
        f.switch_to(t);
        let s = f.bin(BinOp::Add, x, y, None);
        f.ret(Some(s));
        f.switch_to(e);
        let d = f.bin(BinOp::Sub, x, y, None);
        f.ret(Some(d));
        f.finish();
        let m = mb.build();
        let function = m.function(FuncId(0));
        let cfg = Cfg::new(function);
        let layout = FrameLayout::of(function, &cfg);
        assert_ne!(layout.slot[x.0], layout.slot[y.0]);
    }
}
