//! Static analysis over fpir modules: CFG, dominance, liveness, interval
//! abstract interpretation and kernel eligibility.
//!
//! The pass pipeline is deliberately layered:
//!
//! 1. [`cfg`](mod@cfg) — per-function control-flow graphs (successors, predecessors,
//!    reverse postorder, reachability, cycle membership) and the module
//!    call graph with recursion detection;
//! 2. [`dom`] — dominator trees (Cooper–Harvey–Kennedy), powering the
//!    strict verifier's def-before-use check;
//! 3. [`liveness`] — backward liveness and the slot-sharing
//!    [`FrameLayout`] the lanewise kernel uses to shrink its SoA register
//!    file;
//! 4. [`eligibility`] — structural wave-safety replacing the old
//!    `KernelPolicy::Auto` "entry is call-free" heuristic;
//! 5. [`interval`] — a forward interval abstract interpreter with NaN/±inf
//!    tracking that classifies branch sides, branch boundaries and
//!    operation sites as `Reachable`/`Unreachable`/`Unknown`, letting
//!    `wdm_core` prune provably-dead targets before any minimizer runs.
//!
//! Everything below 5 is input-independent; the interval pass is seeded
//! from the program's search domain, so its `Unreachable` verdicts are
//! proofs *relative to that domain* (exactly the set minimizers sample
//! from, which clamp into the domain box).

pub mod cfg;
pub mod dom;
pub mod eligibility;
pub mod interval;
pub mod liveness;

pub use cfg::{CallGraph, Cfg};
pub use dom::Dominators;
pub use eligibility::FunctionEligibility;
pub use interval::{AbsVal, BranchInfo, OpInfo, ReachSummary};
pub use liveness::{FrameLayout, Liveness};

use crate::ir::{FuncId, Function, Inst, Module, Terminator};
use fp_runtime::{BranchId, BranchSite, Interval, OpId, OpSite};

/// All instrumented operation sites of `function`, in block/instruction
/// order — the single traversal behind [`Module::op_sites_of`] and the
/// cached site tables.
pub fn op_site_ids(function: &Function) -> Vec<OpId> {
    let mut sites = Vec::new();
    for block in &function.blocks {
        for inst in &block.insts {
            if let Some(s) = inst.site() {
                sites.push(s);
            }
        }
    }
    sites
}

/// All instrumented branch sites of `function`, in block order.
pub fn branch_site_ids(function: &Function) -> Vec<BranchId> {
    let mut sites = Vec::new();
    for block in &function.blocks {
        if let Terminator::CondBr { site: Some(s), .. } = block.term {
            sites.push(s);
        }
    }
    sites
}

/// The labelled [`OpSite`] table of `function` (same order and labels the
/// interpreter's `Analyzable::op_sites` always produced).
pub fn op_site_table(function: &Function) -> Vec<OpSite> {
    let mut sites = Vec::new();
    for block in &function.blocks {
        for inst in &block.insts {
            match inst {
                Inst::Bin {
                    op, site: Some(s), ..
                } => sites.push(OpSite::new(s.0, op.event_kind(), inst.to_string())),
                Inst::Un {
                    op, site: Some(s), ..
                } => sites.push(OpSite::new(s.0, op.event_kind(), inst.to_string())),
                _ => {}
            }
        }
    }
    sites
}

/// The labelled [`BranchSite`] table of `function`.
pub fn branch_site_table(function: &Function) -> Vec<BranchSite> {
    let mut sites = Vec::new();
    for block in &function.blocks {
        if let Terminator::CondBr {
            site: Some(s), cmp, ..
        } = &block.term
        {
            sites.push(BranchSite::new(s.0, *cmp, block.term.to_string()));
        }
    }
    sites
}

/// The input-independent analysis results of one module: CFGs, dominator
/// trees, call graph, wave layouts and wave-safety.
///
/// Building one walks every function once per pass; callers cache it
/// (`ModuleProgram` holds one behind a `OnceLock`).
#[derive(Debug, Clone)]
pub struct ModuleAnalysis {
    /// Per-function CFG.
    pub cfgs: Vec<Cfg>,
    /// Per-function dominator tree.
    pub doms: Vec<Dominators>,
    /// The module call graph.
    pub call_graph: CallGraph,
    /// Per-function SoA frame layout (liveness-compacted when sound).
    pub layouts: Vec<FrameLayout>,
    /// Per-function wave-safety (see [`eligibility`]).
    pub wave_safe: Vec<bool>,
    /// Per-function structural summaries.
    pub functions: Vec<FunctionEligibility>,
}

impl ModuleAnalysis {
    /// Analyzes every function of `module`.
    pub fn new(module: &Module) -> Self {
        let cfgs: Vec<Cfg> = module.functions.iter().map(Cfg::new).collect();
        let doms: Vec<Dominators> = cfgs.iter().map(Dominators::new).collect();
        let call_graph = CallGraph::new(module);
        let layouts: Vec<FrameLayout> = module
            .functions
            .iter()
            .zip(&cfgs)
            .map(|(f, cfg)| FrameLayout::of(f, cfg))
            .collect();
        let wave_safe = eligibility::wave_safety(module, &cfgs, &call_graph);
        let functions = eligibility::function_eligibility(module, &cfgs, &call_graph, &wave_safe);
        ModuleAnalysis {
            cfgs,
            doms,
            call_graph,
            layouts,
            wave_safe,
            functions,
        }
    }
}

/// Everything a [`crate::ModuleProgram`] derives statically from its module
/// and search domain, computed once and cached.
#[derive(Debug, Clone)]
pub struct StaticInfo {
    /// Whole-module structural analysis.
    pub analysis: ModuleAnalysis,
    /// True if the entry function is wave-safe — the new
    /// `KernelPolicy::Auto` eligibility test.
    pub eligible: bool,
    /// Cached `Analyzable::op_sites` table (entry function, historical
    /// contract).
    pub op_sites: Vec<OpSite>,
    /// Cached `Analyzable::branch_sites` table (entry function).
    pub branch_sites: Vec<BranchSite>,
    /// Reachability classification of every site in the module (module
    /// wide: instrumented callees included), seeded from the search domain.
    /// Trivially `Unknown` when the module fails strict validation.
    pub reach: ReachSummary,
    /// True if strict validation passed (reachability proofs are only
    /// built on validated modules).
    pub validated: bool,
}

impl StaticInfo {
    /// Computes the full static summary of (`module`, `entry`, `domain`).
    pub fn compute(module: &Module, entry: FuncId, domain: &[Interval]) -> Self {
        let analysis = ModuleAnalysis::new(module);
        let eligible = analysis.wave_safe.get(entry.0).copied().unwrap_or(false);
        let entry_fn = module.function(entry);
        let op_sites = op_site_table(entry_fn);
        let branch_sites = branch_site_table(entry_fn);
        let validated = crate::validate::validate(module).is_ok();
        let reach = if validated {
            interval::analyze(module, entry, domain, &analysis.cfgs, &analysis.call_graph)
        } else {
            ReachSummary::unknown_for(module)
        };
        StaticInfo {
            analysis,
            eligible,
            op_sites,
            branch_sites,
            reach,
            validated,
        }
    }
}
