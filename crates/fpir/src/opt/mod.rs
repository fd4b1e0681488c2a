//! Target-directed optimizing passes over fpir modules, with translation
//! validation.
//!
//! Every weak-distance analysis evaluates its objective by *executing* the
//! subject program millions of times, so any instruction that provably
//! cannot affect what the analysis observes is pure per-eval overhead. This
//! module specializes a module against an [`ObservationSpec`] — which event
//! sites the target folds over, and whether the returned value or globals
//! are read — through three semantics-preserving passes:
//!
//! 1. **Site stripping + SCCP** ([`sccp`]): unobserved instrumentation
//!    sites are erased (the instruction stays, its event goes away), then a
//!    sparse conditional constant propagation over the
//!    [`analysis::interval`](crate::analysis::interval) domain folds
//!    comparisons and *unobserved* branches proved one-sided, and
//!    propagates singleton intervals as constants. Folding is bitwise
//!    exact: a constant is only substituted when both operands are single
//!    bit patterns and the folded result (computed by the same
//!    [`BinOp::apply`](crate::ir::BinOp::apply) the interpreter runs) is
//!    non-NaN — live FP operations are never reassociated or reordered.
//! 2. **Dominator-based CSE** ([`cse`]): a pure, unobserved operation
//!    dominated by an identical operation on identical single-assignment
//!    operands is replaced by a register copy.
//! 3. **Backward slicing / DCE** ([`dce`]): liveness seeded from the
//!    observation set — observed event sites, calls, observed globals, and
//!    the entry return when observed — iterated to a least fixpoint, so
//!    chains of mutually-dead definitions disappear together. Control flow
//!    is never rewritten here; only non-root instructions whose results
//!    provably cannot reach an observation are deleted.
//!
//! The specialized module is then **translation validated**: it must pass
//! the strict verifier ([`crate::validate::validate`], in release builds
//! too), and a differential check executes both modules over a
//! deterministic sample of the search domain, requiring bit-identical
//! observed event streams (and return/global bits where observed). Any
//! failure is an error — callers fall back to the unoptimized module, so a
//! validator miss can cost throughput but never correctness.
//!
//! Equivalence is guaranteed **for inputs inside the search domain**: the
//! constant propagation seeds the entry parameters from the domain
//! intervals, mirroring the assumption the zero-eval static pruning already
//! makes, and the analyses' evaluation pipeline clamps every candidate into
//! the domain before evaluating.
//!
//! Identical full event streams imply identical stop behavior for any
//! deterministic stopping observer: the observer sees the same prefix of
//! events in the same order, so it issues a stop (if any) at the same
//! event, and both executions return `None` past it.

pub mod cse;
pub mod dce;
pub mod sccp;

use crate::interp::Interpreter;
use crate::ir::{FuncId, Inst, Module, Terminator};
use crate::lower::Lowered;
use crate::validate::{self, ValidationError};
use fp_runtime::{
    BranchEvent, Cmp, Ctx, FpOp, Interval, ObservationSpec, Observer, OpEvent, ProbeControl,
};
use std::fmt;

/// Why [`specialize`] refused to produce an optimized module.
///
/// Every variant means "use the original module"; none of them is a
/// correctness problem for the caller.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecializeError {
    /// The input module does not pass strict validation, so no proof can be
    /// built on it.
    InputInvalid(ValidationError),
    /// The optimized module failed the strict verifier — a pass bug caught
    /// by the checked seam.
    OutputInvalid(ValidationError),
    /// The differential check observed diverging behavior between the
    /// original and optimized module.
    Differs(String),
}

impl fmt::Display for SpecializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecializeError::InputInvalid(e) => write!(f, "input module invalid: {e}"),
            SpecializeError::OutputInvalid(e) => write!(f, "optimized module invalid: {e}"),
            SpecializeError::Differs(why) => write!(f, "translation validation failed: {why}"),
        }
    }
}

impl std::error::Error for SpecializeError {}

/// What the pass pipeline did to one module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions in the original module (all functions).
    pub original_insts: usize,
    /// Instructions in the optimized module.
    pub optimized_insts: usize,
    /// Instrumentation sites erased because the observation spec does not
    /// observe them.
    pub sites_stripped: usize,
    /// Conditional branches folded to unconditional jumps.
    pub branches_folded: usize,
    /// Instructions folded to constants or decided selects/comparisons.
    pub constants_folded: usize,
    /// Instructions replaced by register copies via CSE.
    pub cse_replaced: usize,
    /// Sample points executed by the differential validator.
    pub validation_points: usize,
}

impl OptStats {
    /// Instructions deleted by the pipeline.
    pub fn insts_removed(&self) -> usize {
        self.original_insts.saturating_sub(self.optimized_insts)
    }

    /// Fraction of the original instructions the slice kept (1.0 = nothing
    /// removed).
    pub fn slice_ratio(&self) -> f64 {
        if self.original_insts == 0 {
            1.0
        } else {
            self.optimized_insts as f64 / self.original_insts as f64
        }
    }

    /// True if the pipeline changed anything worth keeping: fewer
    /// instructions, a folded branch, or a stripped instrumentation site
    /// (stripping alone already removes per-event observer calls).
    pub fn removed_anything(&self) -> bool {
        self.insts_removed() > 0 || self.branches_folded > 0 || self.sites_stripped > 0
    }
}

/// Specializes `module` against `spec`: strips unobserved instrumentation,
/// runs the SCCP → CSE → DCE pipeline to a fixpoint (bounded), and
/// translation-validates the result against the original.
///
/// On success the returned module has bit-identical observed semantics to
/// `module` for every input in `domain` (see the module docs for the exact
/// contract). On any error the caller must keep using `module`.
///
/// # Errors
///
/// [`SpecializeError::InputInvalid`] if `module` fails strict validation,
/// [`SpecializeError::OutputInvalid`] if the optimized module does
/// (a pass bug), [`SpecializeError::Differs`] if the differential check
/// observes any divergence.
pub fn specialize(
    module: &Module,
    entry: FuncId,
    domain: &[Interval],
    spec: &ObservationSpec,
) -> Result<(Module, OptStats), SpecializeError> {
    validate::validate(module).map_err(SpecializeError::InputInvalid)?;
    let mut out = module.clone();
    let mut stats = OptStats {
        original_insts: count_insts(module),
        ..OptStats::default()
    };
    stats.sites_stripped = strip_unobserved_sites(&mut out, spec);
    // Each pass can expose work for the others (a folded branch makes a
    // block unreachable, whose deletion kills definitions, ...). Three
    // rounds reach the fixpoint on everything this IR produces; the bound
    // only caps pathological inputs.
    for _ in 0..3 {
        let mut changed = 0usize;
        changed += sccp::run(&mut out, entry, domain, &mut stats);
        changed += cse::run(&mut out, &mut stats);
        changed += dce::run(&mut out, entry, spec, &mut stats);
        if changed == 0 {
            break;
        }
    }
    stats.optimized_insts = count_insts(&out);
    validate::validate(&out).map_err(SpecializeError::OutputInvalid)?;
    differential_check(module, &out, entry, domain, spec, &mut stats)?;
    Ok((out, stats))
}

/// Total instruction count across all functions (terminators excluded).
pub fn count_insts(module: &Module) -> usize {
    module
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.insts.len())
        .sum()
}

/// Erases the site label of every instrumented operation and branch the
/// spec does not observe, module-wide. The instruction or branch itself is
/// untouched — it simply stops emitting events (and stops being a DCE
/// root). Returns the number of labels erased.
fn strip_unobserved_sites(module: &mut Module, spec: &ObservationSpec) -> usize {
    let mut stripped = 0usize;
    for function in &mut module.functions {
        for block in &mut function.blocks {
            for inst in &mut block.insts {
                match inst {
                    Inst::Bin { site, .. } | Inst::Un { site, .. } => {
                        if let Some(id) = site {
                            if !spec.ops.contains(id.0) {
                                *site = None;
                                stripped += 1;
                            }
                        }
                    }
                    _ => {}
                }
            }
            if let Terminator::CondBr { site, .. } = &mut block.term {
                if let Some(id) = site {
                    if !spec.branches.contains(id.0) {
                        *site = None;
                        stripped += 1;
                    }
                }
            }
        }
    }
    stripped
}

/// A comparable, NaN-safe rendering of one event: site, operator and the
/// raw bit patterns of every floating-point payload.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKey {
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

/// Records the events the spec observes, as bit-exact keys.
struct FilterRecorder<'s> {
    spec: &'s ObservationSpec,
    events: Vec<EventKey>,
}

impl Observer for FilterRecorder<'_> {
    fn on_op(&mut self, ev: &OpEvent) -> ProbeControl {
        if self.spec.ops.contains(ev.id.0) {
            self.events.push(EventKey::Op {
                id: ev.id.0,
                op: ev.op,
                value: ev.value.to_bits(),
            });
        }
        ProbeControl::Continue
    }

    fn on_branch(&mut self, ev: &BranchEvent) -> ProbeControl {
        if self.spec.branches.contains(ev.id.0) {
            self.events.push(EventKey::Branch {
                id: ev.id.0,
                lhs: ev.lhs.to_bits(),
                cmp: ev.cmp,
                rhs: ev.rhs.to_bits(),
                taken: ev.taken,
            });
        }
        ProbeControl::Continue
    }
}

/// SplitMix64 step, the same deterministic mixer the test suites use.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic in-domain sample points: the center, the domain corners
/// (the full product for up to 4 dimensions, per-axis extremes above that)
/// and 32 pseudo-random points from a fixed seed.
fn sample_points(domain: &[Interval]) -> Vec<Vec<f64>> {
    let n = domain.len();
    let mut pts: Vec<Vec<f64>> = Vec::new();
    if n == 0 {
        pts.push(Vec::new());
        return pts;
    }
    let center: Vec<f64> = domain.iter().map(|iv| iv.midpoint()).collect();
    pts.push(center.clone());
    if n <= 4 {
        for mask in 0u32..(1 << n) {
            pts.push(
                domain
                    .iter()
                    .enumerate()
                    .map(|(i, iv)| if mask >> i & 1 == 1 { iv.hi() } else { iv.lo() })
                    .collect(),
            );
        }
    } else {
        for i in 0..n {
            for v in [domain[i].lo(), domain[i].hi()] {
                let mut p = center.clone();
                p[i] = v;
                pts.push(p);
            }
        }
    }
    let mut state = 0x243F_6A88_85A3_08D3u64;
    for _ in 0..32 {
        pts.push(
            domain
                .iter()
                .map(|iv| {
                    let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                    iv.lerp(u)
                })
                .collect(),
        );
    }
    pts
}

/// One side of the differential check: the observed event stream, the
/// return value and the final globals of executing the lowered `module` on
/// `input` — or `None` if execution errored (fuel, depth), in which case
/// validation conservatively fails.
fn observed_run(
    module: &Lowered,
    entry: FuncId,
    input: &[f64],
    spec: &ObservationSpec,
) -> Option<(Vec<EventKey>, Option<u64>, Vec<u64>)> {
    let mut rec = FilterRecorder {
        spec,
        events: Vec::new(),
    };
    let mut ctx = Ctx::new(&mut rec);
    let (ret, globals) = module
        .execute(
            &Interpreter::default(),
            entry.0,
            input,
            &mut ctx,
            |ret, globals, _| {
                (
                    ret.map(f64::to_bits),
                    globals.iter().map(|g| g.to_bits()).collect(),
                )
            },
        )
        .ok()?;
    Some((rec.events, ret, globals))
}

/// The differential half of the translation validator: executes original
/// and optimized module over [`sample_points`] and requires bit-identical
/// observed event streams, plus bit-identical return values and globals
/// where the spec observes them.
///
/// Execution errors on **either** side fail validation: the optimized
/// module charges less fuel, so a fuel-exhaustion boundary could otherwise
/// mask a real divergence. (Programs that exhaust the default fuel budget
/// on validation inputs simply never specialize.)
fn differential_check(
    original: &Module,
    optimized: &Module,
    entry: FuncId,
    domain: &[Interval],
    spec: &ObservationSpec,
    stats: &mut OptStats,
) -> Result<(), SpecializeError> {
    let points = sample_points(domain);
    stats.validation_points = points.len();
    let (original, optimized) = (Lowered::new(original), Lowered::new(optimized));
    for (i, x) in points.iter().enumerate() {
        let a = observed_run(&original, entry, x, spec);
        let b = observed_run(&optimized, entry, x, spec);
        let (a, b) = match (a, b) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(SpecializeError::Differs(format!(
                    "execution error at sample point {i}"
                )))
            }
        };
        if a.0 != b.0 {
            return Err(SpecializeError::Differs(format!(
                "observed event streams differ at sample point {i}: {} vs {} events",
                a.0.len(),
                b.0.len()
            )));
        }
        if spec.return_value && a.1 != b.1 {
            return Err(SpecializeError::Differs(format!(
                "return values differ at sample point {i}"
            )));
        }
        if spec.globals && a.2 != b.2 {
            return Err(SpecializeError::Differs(format!(
                "global cells differ at sample point {i}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instrument;
    use crate::ir::{BinOp, UnOp};
    use crate::programs;
    use fp_runtime::{Analyzable, SiteSet, TraceRecorder};

    fn domain1(r: f64) -> Vec<Interval> {
        vec![Interval::symmetric(r)]
    }

    /// The `|x| + 1 < 0` guard of the pruning tests: branch 0 is provably
    /// one-sided, the then-arm dead.
    fn guarded_module() -> Module {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("guarded", 1);
        let x = f.param(0);
        let one = f.constant(1.0);
        let zero = f.constant(0.0);
        let a = f.un(UnOp::Abs, x, None);
        let y = f.bin(BinOp::Add, a, one, None);
        let dead = f.new_block();
        let live = f.new_block();
        f.cond_br(None, y, Cmp::Lt, zero, dead, live);
        f.switch_to(dead);
        f.ret(Some(y));
        f.switch_to(live);
        let neg = f.new_block();
        let pos = f.new_block();
        f.cond_br(Some(0), x, Cmp::Lt, zero, neg, pos);
        f.switch_to(neg);
        f.ret(Some(x));
        f.switch_to(pos);
        f.ret(Some(y));
        f.finish();
        mb.build()
    }

    #[test]
    fn specialize_preserves_fig2_under_everything() {
        let module = programs::fig2_program();
        let entry = module.function_by_name("prog").unwrap();
        let (opt, stats) = specialize(
            &module,
            entry,
            &domain1(1.0e3),
            &ObservationSpec::everything(),
        )
        .expect("fig2 specializes");
        assert_eq!(stats.original_insts, count_insts(&module));
        assert_eq!(stats.optimized_insts, count_insts(&opt));
        assert!(stats.validation_points > 0);
        // Everything observed: the branch events and return must survive.
        let p = crate::ModuleProgram::new(opt, "prog").unwrap();
        let mut rec = TraceRecorder::new();
        let ret = p.run(&[0.5], &mut rec);
        assert_eq!(ret.map(f64::to_bits), Some(0.5f64.to_bits()));
        assert_eq!(rec.branches().count(), 2);
    }

    #[test]
    fn unobserved_branch_with_dead_arm_folds_away() {
        let module = guarded_module();
        let entry = module.function_by_name("guarded").unwrap();
        // Target branch 0 only: the unlabeled `|x|+1 < 0` guard is proved
        // one-sided over the domain and folds to a jump; its dead arm and
        // the return-value chain (unobserved) disappear.
        let spec = ObservationSpec::branches(SiteSet::Only([0u32].into_iter().collect()));
        let (opt, stats) =
            specialize(&module, entry, &domain1(1.0e3), &spec).expect("guarded specializes");
        assert!(stats.branches_folded >= 1, "{stats:?}");
        assert!(stats.insts_removed() > 0, "{stats:?}");
        // The observed branch still fires with identical operands.
        let p = crate::ModuleProgram::new(opt, "guarded").unwrap();
        let orig = crate::ModuleProgram::new(module, "guarded").unwrap();
        for x in [-3.0, -0.5, 0.0, 0.25, 7.0] {
            let mut ra = TraceRecorder::new();
            let mut rb = TraceRecorder::new();
            orig.run(&[x], &mut ra);
            p.run(&[x], &mut rb);
            let a: Vec<_> = ra
                .branches()
                .map(|e| (e.id, e.lhs.to_bits(), e.taken))
                .collect();
            let b: Vec<_> = rb
                .branches()
                .map(|e| (e.id, e.lhs.to_bits(), e.taken))
                .collect();
            assert_eq!(a, b, "at {x}");
        }
    }

    #[test]
    fn observed_sites_never_fold_even_when_one_sided() {
        let module = guarded_module();
        let entry = module.function_by_name("guarded").unwrap();
        // Give the one-sided guard a site label and observe everything:
        // the branch event must survive, so the CondBr cannot fold.
        let mut labeled = module.clone();
        if let Terminator::CondBr { site, .. } = &mut labeled.function_mut(entry).blocks[0].term {
            *site = Some(fp_runtime::BranchId(7));
        }
        let (opt, _) = specialize(
            &labeled,
            entry,
            &domain1(1.0e3),
            &ObservationSpec::everything(),
        )
        .expect("specializes");
        let p = crate::ModuleProgram::new(opt, "guarded").unwrap();
        let mut rec = TraceRecorder::new();
        p.run(&[2.0], &mut rec);
        assert!(
            rec.branches().any(|e| e.id.0 == 7),
            "observed branch event was dropped"
        );
    }

    #[test]
    fn instrumented_w_module_slices_when_events_unobserved() {
        // The boundary-instrumented W module updates the global `w` purely
        // for the benefit of run_with_globals readers; an event-only
        // observation spec slices that bookkeeping away while keeping every
        // branch event bit-identical.
        let base = programs::fig2_program();
        let entry = base.function_by_name("prog").unwrap();
        let w = instrument::instrument_boundary(&base, entry);
        let w_entry = w.function_by_name(instrument::W_FUNCTION).unwrap();
        let spec = ObservationSpec::branches(SiteSet::All);
        let (opt, stats) = specialize(&w, w_entry, &domain1(1.0e3), &spec).expect("W specializes");
        assert!(stats.insts_removed() > 0, "{stats:?}");
        let orig = crate::ModuleProgram::new(w.clone(), instrument::W_FUNCTION).unwrap();
        let sliced = crate::ModuleProgram::new(opt, instrument::W_FUNCTION).unwrap();
        for x in [-2.0, 0.0, 0.5, 1.0, 3.5] {
            let mut ra = TraceRecorder::new();
            let mut rb = TraceRecorder::new();
            orig.run(&[x], &mut ra);
            sliced.run(&[x], &mut rb);
            let a: Vec<_> = ra
                .branches()
                .map(|e| (e.id, e.lhs.to_bits(), e.rhs.to_bits(), e.taken))
                .collect();
            let b: Vec<_> = rb
                .branches()
                .map(|e| (e.id, e.lhs.to_bits(), e.rhs.to_bits(), e.taken))
                .collect();
            assert_eq!(a, b, "at {x}");
        }
    }

    #[test]
    fn invalid_input_is_rejected_not_optimized() {
        let mut module = programs::fig2_program();
        let entry = module.function_by_name("prog").unwrap();
        module.function_mut(entry).blocks.clear();
        match specialize(
            &module,
            entry,
            &domain1(1.0),
            &ObservationSpec::everything(),
        ) {
            Err(SpecializeError::InputInvalid(_)) => {}
            other => panic!("expected InputInvalid, got {other:?}"),
        }
    }

    #[test]
    fn sample_points_are_deterministic_and_in_domain() {
        let domain = vec![Interval::new(-2.0, 5.0), Interval::symmetric(1.0)];
        let a = sample_points(&domain);
        let b = sample_points(&domain);
        assert_eq!(a, b);
        assert!(a.len() > 32);
        for p in &a {
            assert_eq!(p.len(), 2);
            for (v, iv) in p.iter().zip(&domain) {
                assert!(*v >= iv.lo() && *v <= iv.hi(), "{v} outside {iv:?}");
            }
        }
        // High-dimensional fall-back stays bounded.
        let big = sample_points(&[Interval::symmetric(1.0); 6]);
        assert_eq!(big.len(), 1 + 12 + 32);
    }
}
