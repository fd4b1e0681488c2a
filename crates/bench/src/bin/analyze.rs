//! Static-analysis audit of the shipped fpir module suite.
//!
//! Three things happen, mirroring what `wdm_core` now gets for free from
//! `fpir::analysis`:
//!
//! 1. **Strict verification** — every shipped program (and its
//!    boundary-instrumented `W` variant) must pass `fpir::validate`; a
//!    verifier error in a shipped module is a bug and exits non-zero.
//! 2. **Structural audit** — per-module CFG/liveness/eligibility stats:
//!    block counts, wave-safe functions, liveness-compacted frame layouts
//!    (and the register slots they save), and whether the entry is
//!    kernel-eligible under `KernelPolicy::Auto`. At least one
//!    instrumented-`W` module must be eligible — that is the acceptance
//!    gate the new call-aware eligibility analysis exists for.
//! 3. **Static pruning gate** — a crafted module guards a branch with the
//!    provably-false `|x| + 1 < 0`; boundary analysis must prune that
//!    target at **zero** evaluations while the sibling feasible target
//!    still minimizes normally. The native Glibc `sin` port does the same
//!    from its own reachability answers, through `Restricted` on each
//!    half-line: the boundary `k == 0x7ff00000` is pruned at zero
//!    evaluations, and the four reachable thresholds are searched and
//!    found.
//!
//! Usage: `analyze [--smoke] [--json <path>]` (the JSON report is
//! `BENCH_analysis.json` when `--json` targets a directory).

use fp_runtime::{Analyzable, BranchId, Interval};
use fpir::instrument;
use fpir::ir::{BinOp, UnOp};
use mini_gsl::glibc_sin::GlibcSin;
use serde::Serialize;
use wdm_bench::restricted::Restricted;
use wdm_core::boundary::BoundaryAnalysis;
use wdm_core::driver::AnalysisConfig;

#[derive(Debug, Clone, Serialize)]
struct ModuleReport {
    module: String,
    functions: usize,
    blocks: usize,
    reachable_blocks: usize,
    wave_safe_functions: usize,
    kernel_eligible: bool,
    compacted_frames: usize,
    register_slots: usize,
    register_slots_saved: usize,
    branch_sites: usize,
    op_sites: usize,
    unreachable_branch_sides: usize,
    unreachable_boundaries: usize,
    unreachable_op_sites: usize,
    validated: bool,
    /// Target-directed specialization under an events-only observation
    /// (every branch site kept, return value and globals unobserved) —
    /// `None` when translation validation rejected the specialized module.
    opt_insts_removed: Option<usize>,
    opt_branches_folded: Option<usize>,
    opt_slice_ratio: Option<f64>,
}

#[derive(Debug, Clone, Serialize)]
struct PruneReport {
    target: String,
    /// Whether the target is provably unreachable, so that static analysis
    /// must prune it; otherwise minimization must find it.
    expected_pruned: bool,
    statically_pruned: bool,
    evals: usize,
    found: bool,
}

impl PruneReport {
    /// Boundary analysis of `site` of `program`.
    fn run(
        target: String,
        program: impl Analyzable,
        site: BranchId,
        expected_pruned: bool,
        config: &AnalysisConfig,
    ) -> Self {
        let run = BoundaryAnalysis::new(program).find_condition_run(site, config);
        let report = PruneReport {
            target,
            expected_pruned,
            statically_pruned: run.statically_pruned(),
            evals: run.outcome.evals(),
            found: run.outcome.is_found(),
        };
        println!(
            "{:<16} pruned={} evals={} found={}",
            report.target, report.statically_pruned, report.evals, report.found
        );
        report
    }

    /// Why the target fails the gate, if it does.
    fn failure(&self) -> Option<&'static str> {
        if self.statically_pruned != self.expected_pruned {
            Some(if self.expected_pruned {
                "a provably unreachable target was not pruned"
            } else {
                "a feasible target was pruned"
            })
        } else if self.statically_pruned && self.evals != 0 {
            Some("static pruning did not retire a target at zero evaluations")
        } else if !self.statically_pruned && !self.found {
            Some("a feasible boundary target was not found")
        } else {
            None
        }
    }
}

#[derive(Debug, Clone, Serialize)]
struct AnalysisReport {
    smoke: bool,
    modules: Vec<ModuleReport>,
    /// The eligibility acceptance gate: some instrumented `W` driver module
    /// runs on the lanewise kernel under `KernelPolicy::Auto`.
    instrumented_w_kernel_eligible: bool,
    pruned_targets: Vec<PruneReport>,
    statically_pruned_count: usize,
}

fn audit(name: &str, program: &fpir::ModuleProgram) -> ModuleReport {
    let info = program.static_info();
    let module = program.module();
    let analysis = &info.analysis;
    let (mut blocks, mut reachable) = (0usize, 0usize);
    for cfg in &analysis.cfgs {
        blocks += cfg.num_blocks();
        reachable += cfg.num_reachable();
    }
    let mut slots = 0usize;
    let mut saved = 0usize;
    let mut compacted = 0usize;
    for (func, layout) in module.functions.iter().zip(&analysis.layouts) {
        slots += layout.num_slots;
        saved += func.num_regs - layout.num_slots;
        compacted += layout.compacted as usize;
    }
    let mut dead_sides = 0usize;
    let mut dead_boundaries = 0usize;
    for b in info.reach.branches.values() {
        dead_sides += b.then_reach.is_unreachable() as usize;
        dead_sides += b.else_reach.is_unreachable() as usize;
        dead_boundaries += b.boundary_reach.is_unreachable() as usize;
    }
    let dead_ops = info
        .reach
        .ops
        .values()
        .filter(|o| o.reach.is_unreachable())
        .count();
    let opt_stats = program
        .specialized_with_stats(
            &fp_runtime::ObservationSpec::branches(fp_runtime::SiteSet::All),
            fp_runtime::OptPolicy::Always,
        )
        .map(|(_, stats)| stats);
    ModuleReport {
        module: name.to_string(),
        functions: module.functions.len(),
        blocks,
        reachable_blocks: reachable,
        wave_safe_functions: analysis.wave_safe.iter().filter(|&&w| w).count(),
        kernel_eligible: program.kernel_eligible(),
        compacted_frames: compacted,
        register_slots: slots,
        register_slots_saved: saved,
        branch_sites: info.reach.branches.len(),
        op_sites: info.reach.ops.len(),
        unreachable_branch_sides: dead_sides,
        unreachable_boundaries: dead_boundaries,
        unreachable_op_sites: dead_ops,
        validated: info.validated,
        opt_insts_removed: opt_stats.as_ref().map(|s| s.insts_removed()),
        opt_branches_folded: opt_stats.as_ref().map(|s| s.branches_folded),
        opt_slice_ratio: opt_stats.as_ref().map(|s| s.slice_ratio()),
    }
}

/// The shipped module suite: base programs plus their
/// boundary-instrumented `W` drivers (the modules minimizers actually run).
fn suite() -> Vec<(String, fpir::ModuleProgram)> {
    let base: Vec<(&str, fpir::Module)> = vec![
        ("fig2", fpir::programs::fig2_program()),
        ("fig1a", fpir::programs::fig1a_program()),
        ("fig1b", fpir::programs::fig1b_program()),
        ("eq_zero", fpir::programs::eq_zero_program()),
        ("horner24", fpir::programs::horner_program(24)),
    ];
    let mut out = Vec::new();
    for (name, module) in base {
        let entry = module.function_by_name("prog").expect("entry exists");
        let w = instrument::instrument_boundary(&module, entry);
        out.push((
            name.to_string(),
            fpir::ModuleProgram::new(module, "prog").expect("entry exists"),
        ));
        out.push((
            format!("{name}/W"),
            fpir::ModuleProgram::new(w, instrument::W_FUNCTION).expect("driver W exists"),
        ));
    }
    out
}

/// A module whose first branch (`|x| + 1 < 0`) is provably untakeable on
/// every domain input, next to a feasible one (`x < 0`): the pruning
/// workload of the report.
fn guarded_program() -> fpir::ModuleProgram {
    let mut mb = fpir::ModuleBuilder::new();
    let mut f = mb.function("guarded", 1);
    let x = f.param(0);
    let one = f.constant(1.0);
    let zero = f.constant(0.0);
    let a = f.un(UnOp::Abs, x, None);
    let y = f.bin(BinOp::Add, a, one, None);
    let dead = f.new_block();
    let live = f.new_block();
    f.cond_br(Some(0), y, fp_runtime::Cmp::Lt, zero, dead, live);
    f.switch_to(dead);
    f.ret(Some(y));
    f.switch_to(live);
    let neg = f.new_block();
    let pos = f.new_block();
    f.cond_br(Some(1), x, fp_runtime::Cmp::Lt, zero, neg, pos);
    f.switch_to(neg);
    let n = f.bin(BinOp::Sub, zero, x, None);
    f.ret(Some(n));
    f.switch_to(pos);
    f.ret(Some(x));
    f.finish();
    fpir::ModuleProgram::new(mb.build(), "guarded")
        .expect("entry exists")
        .with_domain(vec![Interval::symmetric(1.0e3)])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    println!(
        "Static-analysis audit ({} mode)",
        if smoke { "smoke" } else { "full" }
    );

    let mut failed = false;
    let mut modules = Vec::new();
    for (name, program) in suite() {
        let report = audit(&name, &program);
        if !report.validated {
            eprintln!("error: shipped module {name} fails the strict verifier");
            failed = true;
        }
        modules.push(report);
    }
    let instrumented_w_kernel_eligible = modules
        .iter()
        .any(|m| m.module.ends_with("/W") && m.kernel_eligible);

    println!(
        "{:<12} {:>5} {:>7} {:>6} {:>9} {:>11} {:>10} {:>9}  eligible",
        "module",
        "funcs",
        "blocks",
        "sites",
        "compacted",
        "slots saved",
        "dead sides",
        "opt -insts"
    );
    for m in &modules {
        println!(
            "{:<12} {:>5} {:>7} {:>6} {:>9} {:>11} {:>10} {:>9}  {}",
            m.module,
            m.functions,
            m.blocks,
            m.branch_sites + m.op_sites,
            m.compacted_frames,
            m.register_slots_saved,
            m.unreachable_branch_sides,
            m.opt_insts_removed
                .map_or_else(|| "-".to_string(), |n| n.to_string()),
            if m.kernel_eligible { "yes" } else { "no" }
        );
    }

    // The pruning workload. In the guarded module, site 0's boundary
    // (`|x| + 1 == 0`) is provably unreachable and must cost zero
    // evaluations; site 1's boundary (`x == 0`) is feasible and must still
    // be found by ordinary minimization. In the `sin` port, the boundary of
    // `k < 0x7ff00000` needs |x| = 2^1024 and the other four are feasible,
    // on either half-line.
    let config = if smoke {
        AnalysisConfig::quick(11)
    } else {
        AnalysisConfig::quick(11).with_max_evals(50_000)
    };
    let guarded = guarded_program();
    let mut pruned_targets = Vec::new();
    for site in [BranchId(0), BranchId(1)] {
        pruned_targets.push(PruneReport::run(
            format!("guarded/branch{}", site.0),
            &guarded,
            site,
            site == BranchId(0),
            &config,
        ));
    }
    for (sign, half) in [
        ('+', Interval::new(0.0, f64::MAX)),
        ('-', Interval::new(-f64::MAX, 0.0)),
    ] {
        for site in 0..GlibcSin::NUM_BRANCHES {
            pruned_targets.push(PruneReport::run(
                format!("sin{sign}/branch{site}"),
                Restricted::new(GlibcSin::new(), vec![half]),
                BranchId(site),
                site == 4,
                &config,
            ));
        }
    }
    let statically_pruned_count = pruned_targets
        .iter()
        .filter(|t| t.statically_pruned)
        .count();

    let report = AnalysisReport {
        smoke,
        modules,
        instrumented_w_kernel_eligible,
        pruned_targets,
        statically_pruned_count,
    };
    wdm_bench::emit_json("analysis", &report);

    if !report.instrumented_w_kernel_eligible {
        eprintln!("error: no instrumented W module is kernel-eligible under Auto");
        failed = true;
    }
    for target in &report.pruned_targets {
        if let Some(failure) = target.failure() {
            eprintln!("error: {}: {failure}", target.target);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
