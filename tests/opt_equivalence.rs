//! Translation-validated specialization is **invisible**: for every
//! weak-distance kind, every module of the suite (including instrumented
//! `W` drivers), every [`KernelPolicy`] and every [`OptPolicy`], the
//! weak-distance values — scalar, batched, truncated mid-batch through the
//! `mo` evaluator, and whole minimization runs with recorded sampling
//! traces — are bit-identical to the unoptimized reference
//! (`OptPolicy::Never`). Observers that stop early (coverage, overflow)
//! are part of the matrix, so stop behavior is pinned too.

mod common;

use common::{
    assert_runs_identical, bits, matrix_threads, module_suite, program, scalar_reference,
    suite_points, trace_bits,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Barrier;
use wdm::core::boundary::{BoundaryAnalysis, BoundaryMode, BoundaryWeakDistance};
use wdm::core::coverage::{CoverageAnalysis, CoverageWeakDistance};
use wdm::core::driver::AnalysisConfig;
use wdm::core::overflow::{OverflowDetector, OverflowWeakDistance};
use wdm::core::path::{PathAnalysis, PathWeakDistance};
use wdm::core::weak_distance::{WeakDistance, WeakDistanceObjective};
use wdm::ir::{ExecError, ModuleProgram};
use wdm::mo::evaluator::Evaluator;
use wdm::mo::{Bounds, Problem, SamplingTrace};
use wdm::runtime::{
    Analyzable, BranchId, CancelToken, Cmp, Interval, KernelPolicy, NullObserver, ObservationSpec,
    OptPolicy, SiteSet, TraceRecorder,
};

const KERNEL_POLICIES: [KernelPolicy; 3] =
    [KernelPolicy::Never, KernelPolicy::Always, KernelPolicy::Auto];
const OPT_POLICIES: [OptPolicy; 3] = [OptPolicy::Never, OptPolicy::Always, OptPolicy::Auto];

/// Every weak-distance kind applicable to `prog`, under the given
/// policies, in a deterministic order. Includes targeted variants
/// (single-branch boundary, partial coverage, overflow skip sets) so the
/// per-target observation specs all get exercised.
fn distances(
    prog: &ModuleProgram,
    kp: KernelPolicy,
    op: OptPolicy,
) -> Vec<(String, Box<dyn WeakDistance>)> {
    let mut out: Vec<(String, Box<dyn WeakDistance>)> = vec![(
        "boundary/product".into(),
        Box::new(
            BoundaryWeakDistance::new(prog.clone())
                .with_kernel_policy(kp)
                .with_opt_policy(op),
        ),
    )];
    let branches = prog.branch_sites();
    if let Some(first) = branches.first() {
        out.push((
            format!("boundary/single({})", first.id),
            Box::new(
                BoundaryWeakDistance::new(prog.clone())
                    .with_mode(BoundaryMode::Single(first.id))
                    .with_kernel_policy(kp)
                    .with_opt_policy(op),
            ),
        ));
        let path: Vec<_> = branches.iter().map(|s| (s.id, true)).collect();
        out.push((
            "path/all-then".into(),
            Box::new(
                PathWeakDistance::new(prog.clone(), path)
                    .with_kernel_policy(kp)
                    .with_opt_policy(op),
            ),
        ));
        // One pair already covered: the observer both folds flip distances
        // and stops on fresh coverage.
        let covered: BTreeSet<_> = [(first.id, true)].into_iter().collect();
        out.push((
            "coverage/partial".into(),
            Box::new(
                CoverageWeakDistance::new(prog.clone(), covered)
                    .with_kernel_policy(kp)
                    .with_opt_policy(op),
            ),
        ));
    }
    out.push((
        "coverage/empty".into(),
        Box::new(
            CoverageWeakDistance::new(prog.clone(), BTreeSet::new())
                .with_kernel_policy(kp)
                .with_opt_policy(op),
        ),
    ));
    out.push((
        "overflow/all".into(),
        Box::new(
            OverflowWeakDistance::new(prog.clone(), BTreeSet::new())
                .with_kernel_policy(kp)
                .with_opt_policy(op),
        ),
    ));
    if let Some(site) = prog.op_sites().first() {
        out.push((
            format!("overflow/skip({})", site.id),
            Box::new(
                OverflowWeakDistance::new(
                    prog.clone(),
                    [site.id].into_iter().collect(),
                )
                .with_kernel_policy(kp)
                .with_opt_policy(op),
            ),
        ));
    }
    out
}

/// Scalar and batched evaluation of every weak-distance kind on every
/// module, under the full `KernelPolicy` × `OptPolicy` matrix, against the
/// `(Never, Never)` reference — bit for bit.
#[test]
fn eval_and_batch_bit_identical_across_policy_matrix() {
    for (name, module, entry) in module_suite() {
        let prog = program(&module, entry);
        let xs = suite_points(0xC0FFEE ^ name.len() as u64, 48);
        let reference: Vec<Vec<f64>> = distances(&prog, KernelPolicy::Never, OptPolicy::Never)
            .iter()
            .map(|(_, wd)| xs.iter().map(|x| wd.eval(x)).collect())
            .collect();
        for kp in KERNEL_POLICIES {
            for op in OPT_POLICIES {
                let wds = distances(&prog, kp, op);
                assert_eq!(wds.len(), reference.len(), "{name}: kind set is stable");
                for ((label, wd), expect) in wds.iter().zip(&reference) {
                    for (x, e) in xs.iter().zip(expect) {
                        assert_eq!(
                            wd.eval(x).to_bits(),
                            e.to_bits(),
                            "{name}/{label}: eval under {kp:?}/{op:?} at {x:?}"
                        );
                    }
                    let mut out = Vec::new();
                    wd.eval_batch(&xs, &mut out);
                    assert_eq!(
                        bits(&out),
                        bits(expect),
                        "{name}/{label}: batch under {kp:?}/{op:?}"
                    );
                }
            }
        }
    }
}

/// A weak distance whose target changes after it evaluated resolves its
/// program again: a single-branch boundary weak distance, switched to
/// product mode, evaluates exactly like a fresh unoptimized product one.
#[test]
fn changing_the_target_after_evaluation_respecializes() {
    for (name, module, entry) in module_suite() {
        let prog = program(&module, entry);
        let Some(first) = prog.branch_sites().first().map(|site| site.id) else {
            continue;
        };
        let xs = suite_points(0xF01D ^ name.len() as u64, 48);
        let single = BoundaryWeakDistance::new(prog.clone()).with_mode(BoundaryMode::Single(first));
        for x in &xs {
            single.eval(x);
        }
        let product = single.with_mode(BoundaryMode::Product);
        let fresh = BoundaryWeakDistance::new(prog.clone()).with_opt_policy(OptPolicy::Never);
        let expect: Vec<f64> = xs.iter().map(|x| fresh.eval(x)).collect();
        let scalar: Vec<f64> = xs.iter().map(|x| product.eval(x)).collect();
        assert_eq!(
            bits(&scalar),
            bits(&expect),
            "{name}: eval after the switch"
        );
        let mut batched = Vec::new();
        product.eval_batch(&xs, &mut batched);
        assert_eq!(
            bits(&batched),
            bits(&expect),
            "{name}: batch after the switch"
        );
    }
}

fn run_config(seed: u64) -> AnalysisConfig {
    AnalysisConfig::quick(seed)
        .with_rounds(2)
        .with_max_evals(1_500)
        .recording(1)
}

/// Whole minimization runs — outcome, best result, eval counts and the
/// recorded sampling trace — are bit-identical under every opt policy, for
/// every analysis kind, sequentially and under the CI matrix's thread
/// count.
#[test]
fn full_analysis_runs_identical_across_opt_policies() {
    for (name, module, entry) in [
        ("fig2", wdm::ir::programs::fig2_program(), "prog"),
        ("W_boundary(fig2)", {
            let fig2 = wdm::ir::programs::fig2_program();
            let e = fig2.function_by_name("prog").unwrap();
            wdm::ir::instrument::instrument_boundary(&fig2, e)
        }, wdm::ir::instrument::W_FUNCTION),
    ] {
        let prog = program(&module, entry);
        for parallelism in [1, matrix_threads()] {
            let config =
                |op: OptPolicy| run_config(23).with_parallelism(parallelism).with_opt_policy(op);
            let boundary = BoundaryAnalysis::new(prog.clone());
            let path = PathAnalysis::new(prog.clone());
            let target_path = path.path_of(&[0.5]);
            let coverage = CoverageAnalysis::new(prog.clone());

            let ref_any = boundary.find_any_run(&config(OptPolicy::Never));
            let ref_path = path.reach_run(&target_path, &config(OptPolicy::Never));
            let ref_cov = coverage.run(&[vec![0.5]], &config(OptPolicy::Never));
            // The W driver folds w arithmetically and declares no branch
            // sites; condition targeting only applies when sites exist.
            let site = prog.branch_sites().first().map(|s| s.id);
            let ref_cond = site.map(|s| boundary.find_condition_run(s, &config(OptPolicy::Never)));

            for op in [OptPolicy::Auto, OptPolicy::Always] {
                let what = format!("{name} p={parallelism} {op:?}");
                assert_runs_identical(
                    &boundary.find_any_run(&config(op)),
                    &ref_any,
                    &format!("{what}: boundary any"),
                );
                if let (Some(s), Some(ref_cond)) = (site, &ref_cond) {
                    assert_runs_identical(
                        &boundary.find_condition_run(s, &config(op)),
                        ref_cond,
                        &format!("{what}: boundary condition"),
                    );
                }
                assert_runs_identical(
                    &path.reach_run(&target_path, &config(op)),
                    &ref_path,
                    &format!("{what}: path"),
                );
                let cov = coverage.run(&[vec![0.5]], &config(op));
                assert_eq!(cov.covered, ref_cov.covered, "{what}: coverage pairs");
                assert_eq!(cov.rounds, ref_cov.rounds, "{what}: coverage rounds");
                assert_eq!(
                    cov.suite.iter().map(|x| bits(x)).collect::<Vec<_>>(),
                    ref_cov.suite.iter().map(|x| bits(x)).collect::<Vec<_>>(),
                    "{what}: coverage suite"
                );
            }
        }
    }
}

/// The overflow detector (Algorithm 3's multi-round loop, with its
/// growing skip set re-specializing each round) reports identical
/// witnesses, rounds and eval counts under every opt policy.
#[test]
fn overflow_detector_identical_across_opt_policies() {
    use wdm::ir::{BinOp, UnOp};
    let mut mb = wdm::ir::ModuleBuilder::new();
    let mut f = mb.function("guarded", 1);
    let x = f.param(0);
    let one = f.constant(1.0);
    let zero = f.constant(0.0);
    let a = f.un(UnOp::Abs, x, None);
    let y = f.bin(BinOp::Add, a, one, None);
    let dead = f.new_block();
    let live = f.new_block();
    f.cond_br(Some(0), y, wdm::runtime::Cmp::Lt, zero, dead, live);
    f.switch_to(dead);
    let d = f.bin(BinOp::Mul, y, y, Some(0));
    f.ret(Some(d));
    f.switch_to(live);
    let big = f.constant(1.0e308);
    let l = f.bin(BinOp::Mul, y, big, Some(1));
    f.ret(Some(l));
    f.finish();
    let prog = ModuleProgram::new(mb.build(), "guarded")
        .expect("entry exists")
        .with_domain(vec![wdm::runtime::Interval::symmetric(1.0e4)]);

    let config = |op: OptPolicy| {
        AnalysisConfig::quick(8)
            .with_rounds(1)
            .with_max_evals(5_000)
            .with_opt_policy(op)
    };
    let reference = OverflowDetector::new(prog.clone()).run(&config(OptPolicy::Never));
    for op in [OptPolicy::Auto, OptPolicy::Always] {
        let report = OverflowDetector::new(prog.clone()).run(&config(op));
        assert_eq!(report.rounds, reference.rounds, "{op:?}: rounds");
        assert_eq!(report.evals, reference.evals, "{op:?}: evals");
        assert_eq!(
            report.inputs.iter().map(|x| bits(x)).collect::<Vec<_>>(),
            reference.inputs.iter().map(|x| bits(x)).collect::<Vec<_>>(),
            "{op:?}: generated inputs"
        );
        for (a, b) in report.operations.iter().zip(&reference.operations) {
            assert_eq!(a.site.id, b.site.id);
            assert_eq!(
                a.witness.as_deref().map(bits),
                b.witness.as_deref().map(bits),
                "{op:?}: witness for {}",
                a.site.label
            );
        }
    }
}

/// Specialization genuinely shrinks event-only targets: the instrumented
/// `W` drivers of fig2 and fig1b (whose `w` bookkeeping is unobserved by
/// the event-folding boundary analysis) and the single-branch target all
/// lose instructions, and the specialized interpreter executes measurably
/// fewer of them.
#[test]
fn specialization_removes_instructions_for_event_only_targets() {
    use wdm::runtime::{ObservationSpec, SiteSet};
    let grid: Vec<[f64; 1]> = (0..=2000)
        .map(|i| [-50.0 + 100.0 * i as f64 / 2000.0])
        .collect();
    let fig2 = wdm::ir::programs::fig2_program();
    let spec = ObservationSpec::branches(SiteSet::All);
    for module in [fig2.clone(), wdm::ir::programs::fig1b_program()] {
        let e = module.function_by_name("prog").unwrap();
        let w = wdm::ir::instrument::instrument_boundary(&module, e);
        let prog = program(&w, wdm::ir::instrument::W_FUNCTION);

        let (opt, stats) = prog
            .specialized_with_stats(&spec, OptPolicy::Auto)
            .expect("W driver slices under an events-only spec");
        assert!(stats.insts_removed() > 0, "stats: {stats:?}");
        for x in [[0.5], [2.0], [-3.0], [100.0]].iter().chain(&grid) {
            let base = prog.instructions_executed(x).expect("baseline runs");
            let fast = opt.instructions_executed(x).expect("specialized runs");
            assert!(
                fast < base,
                "expected fewer instructions at {x:?}: {fast} vs {base}"
            );
        }
    }

    // A single-branch boundary target prunes the untargeted site's event
    // and the return computation. Some points execute as many
    // instructions either way, so the grid's mean is what must fall.
    let prog2 = program(&fig2, "prog");
    let single = ObservationSpec::branches(SiteSet::Only([0].into_iter().collect()));
    let (opt2, stats2) = prog2
        .specialized_with_stats(&single, OptPolicy::Auto)
        .expect("single-site spec specializes");
    assert!(stats2.removed_anything(), "stats: {stats2:?}");
    let mean_insts = |p: &ModuleProgram| {
        let total: u64 = grid
            .iter()
            .map(|x| p.instructions_executed(x).expect("runs"))
            .sum();
        total as f64 / grid.len() as f64
    };
    let (base, fast) = (mean_insts(&prog2), mean_insts(&opt2));
    assert!(fast < base, "mean instructions per evaluation: {fast} vs {base}");
}

fn batched_values(
    problem: &Problem<'_>,
    xs: &[Vec<f64>],
) -> (Vec<f64>, usize, (Vec<f64>, f64), SamplingTrace) {
    let mut trace = SamplingTrace::new();
    let mut ev = Evaluator::new(problem, &mut trace);
    let mut values = Vec::new();
    ev.eval_batch(xs, &mut values);
    let evals = ev.evals();
    let best = ev.best();
    (values, evals, best, trace)
}

proptest! {
    /// Truncated batches through the `mo` evaluator — budgets smaller than
    /// the batch, early-stop targets, the kernel and interpreter backends —
    /// see identical values, counts, incumbents and traces whichever opt
    /// policy the weak distance runs under.
    #[test]
    fn truncated_evaluator_batches_match_across_policies(
        module_idx in 0usize..6,
        seed in any::<u64>(),
        n in 1usize..80,
        max_evals in 1usize..60,
        target in proptest::option::of(0.0..1.0f64),
        kp_idx in 0usize..3,
    ) {
        let suite = module_suite();
        let (name, module, entry) = &suite[module_idx];
        let prog = program(module, entry);
        let kp = KERNEL_POLICIES[kp_idx];
        let xs = suite_points(seed, n);

        let reference = BoundaryWeakDistance::new(prog.clone())
            .with_kernel_policy(kp)
            .with_opt_policy(OptPolicy::Never);
        let ref_obj = WeakDistanceObjective::new(&reference);
        let mut ref_problem =
            Problem::new(&ref_obj, Bounds::symmetric(1, 1.0e4)).with_max_evals(max_evals);
        if let Some(t) = target {
            ref_problem = ref_problem.with_target(t);
        }
        let (sv, se, sb, st) = scalar_reference(&ref_problem, &xs);

        for op in [OptPolicy::Auto, OptPolicy::Always] {
            let wd = BoundaryWeakDistance::new(prog.clone())
                .with_kernel_policy(kp)
                .with_opt_policy(op);
            let obj = WeakDistanceObjective::new(&wd);
            let mut problem =
                Problem::new(&obj, Bounds::symmetric(1, 1.0e4)).with_max_evals(max_evals);
            if let Some(t) = target {
                problem = problem.with_target(t);
            }
            let (bv, be, bb, bt) = batched_values(&problem, &xs);
            prop_assert_eq!(bits(&bv), bits(&sv), "{} {:?}/{:?}: values", name, kp, op);
            prop_assert_eq!(be, se, "{} {:?}/{:?}: evals", name, kp, op);
            prop_assert_eq!(bits(&bb.0), bits(&sb.0), "{} {:?}/{:?}: best x", name, kp, op);
            prop_assert_eq!(bb.1.to_bits(), sb.1.to_bits(), "{} {:?}/{:?}: best v", name, kp, op);
            prop_assert_eq!(trace_bits(&bt), trace_bits(&st), "{} {:?}/{:?}: trace", name, kp, op);
        }
    }
}

/// The observation specs the analyses build for `prog`: a single-site
/// boundary target, a path over every branch site, coverage of all
/// branches, and overflow with one operation site handled.
fn analysis_specs(prog: &ModuleProgram) -> Vec<(&'static str, ObservationSpec)> {
    let branches: BTreeSet<u32> = prog.branch_sites().iter().map(|s| s.id.0).collect();
    let handled: BTreeSet<u32> = prog.op_sites().iter().take(1).map(|s| s.id.0).collect();
    let mut specs = Vec::new();
    if let Some(&first) = branches.first() {
        let single = SiteSet::Only([first].into());
        specs.push(("boundary/single", ObservationSpec::branches(single)));
        let path = SiteSet::Only(branches);
        specs.push(("path", ObservationSpec::branches(path)));
    }
    specs.push(("coverage", ObservationSpec::branches(SiteSet::All)));
    let unhandled = SiteSet::Except(handled);
    specs.push(("overflow/except", ObservationSpec::ops(unhandled)));
    specs
}

/// A repeated request for one spec, on the program or on a clone, is
/// served from the program's memo: it shares the first request's module,
/// and it equals what a fresh program specializes to, module and
/// statistics alike, under both keeping policies.
#[test]
fn repeated_specializations_share_one_validated_module() {
    for (name, module, entry) in module_suite() {
        let prog = program(&module, entry);
        for (shape, spec) in analysis_specs(&prog) {
            for op in [OptPolicy::Always, OptPolicy::Auto] {
                let what = format!("{name}/{shape} {op:?}");
                let fresh = program(&module, entry).specialized_with_stats(&spec, op);
                let first = prog.specialized_with_stats(&spec, op);
                let repeats = [
                    prog.specialized_with_stats(&spec, op),
                    prog.clone().specialized_with_stats(&spec, op),
                ];
                if op == OptPolicy::Always {
                    assert!(fresh.is_some(), "{what}: every suite module validates");
                }
                for repeat in repeats {
                    match (&first, repeat, &fresh) {
                        (Some(first), Some((repeat, stats)), Some((fresh, fresh_stats))) => {
                            assert_eq!(repeat.module(), fresh.module(), "{what}: module");
                            assert_eq!(stats, *fresh_stats, "{what}: stats");
                            assert!(
                                std::ptr::eq(repeat.module(), first.0.module()),
                                "{what}: a repeat shares the first module"
                            );
                        }
                        (None, None, None) => {}
                        (first, repeat, fresh) => panic!(
                            "{what}: kept first {}, repeat {}, fresh {}",
                            first.is_some(),
                            repeat.is_some(),
                            fresh.is_some()
                        ),
                    }
                }
            }
        }
    }
}

/// Moving a program to a new domain drops everything computed for the old
/// one: fig2 specialized on [-1e3, 1e3] and then moved to [1.5, 1e3]
/// specializes and analyses exactly like a fresh program on [1.5, 1e3].
#[test]
fn with_domain_serves_nothing_from_the_old_domain() {
    let fig2 = wdm::ir::programs::fig2_program();
    let right = vec![Interval::new(1.5, 1.0e3)];
    // Branch 0 (`x <= 1`) is unobserved, and one-sided on [1.5, 1e3].
    let spec = ObservationSpec::branches(SiteSet::Only([1].into()));
    let prog = ModuleProgram::new(fig2.clone(), "prog")
        .expect("entry exists")
        .with_domain(vec![Interval::new(-1.0e3, 1.0e3)]);
    let (old, _) = prog
        .specialized_with_stats(&spec, OptPolicy::Always)
        .expect("fig2 specializes");
    let moved = prog.with_domain(right.clone());
    let fresh = ModuleProgram::new(fig2, "prog")
        .expect("entry exists")
        .with_domain(right);
    let (new, stats) = moved
        .specialized_with_stats(&spec, OptPolicy::Always)
        .expect("fig2 specializes");
    let (expect, expect_stats) = fresh
        .specialized_with_stats(&spec, OptPolicy::Always)
        .expect("fig2 specializes");
    assert_ne!(old.module(), expect.module(), "the domains specialize alike");
    assert_eq!(new.module(), expect.module());
    assert_eq!(stats, expect_stats);
    assert_eq!(new.search_domain(), expect.search_domain());
    for taken in [true, false] {
        assert_eq!(
            moved.branch_side_reachability(BranchId(0), taken),
            fresh.branch_side_reachability(BranchId(0), taken),
            "branch 0 taken={taken}"
        );
    }
}

/// `n = 0; while (n < 1000) n = n + 1; return x + n`: thousands of
/// instructions per run, so a run polls its cancel token many times, yet
/// it ends well within the default fuel, as validation requires.
fn counting_loop() -> wdm::ir::Module {
    use wdm::ir::BinOp;
    let mut mb = wdm::ir::ModuleBuilder::new();
    let mut f = mb.function("count", 1);
    let x = f.param(0);
    let one = f.constant(1.0);
    let limit = f.constant(1000.0);
    let n = f.constant(0.0);
    let header = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();
    f.jump(header);
    f.switch_to(header);
    f.cond_br(Some(0), n, Cmp::Lt, limit, body, exit);
    f.switch_to(body);
    let next = f.bin(BinOp::Add, n, one, Some(0));
    f.assign(n, next);
    f.jump(header);
    f.switch_to(exit);
    let sum = f.bin(BinOp::Add, x, n, Some(1));
    f.ret(Some(sum));
    f.finish();
    mb.build()
}

/// A hand-out runs under the interpreter of the program that requested it,
/// not of the one that filled the memo: taken after `with_cancel(token)`,
/// it stops with `Cancelled` once that token is cancelled.
#[test]
fn a_hand_out_runs_under_the_requesting_programs_cancel_token() {
    let prog = ModuleProgram::new(counting_loop(), "count")
        .expect("entry exists")
        .with_domain(vec![Interval::symmetric(1.0e3)]);
    let spec = ObservationSpec::branches(SiteSet::All);
    let filled = prog
        .specialized(&spec, OptPolicy::Always)
        .expect("the loop validates");
    assert!(filled.run_with_globals(&[0.5], &mut NullObserver).is_ok());

    let token = CancelToken::new();
    let handout = prog
        .clone()
        .with_cancel(token.clone())
        .specialized(&spec, OptPolicy::Always)
        .expect("the loop validates");
    assert!(
        std::ptr::eq(handout.module(), filled.module()),
        "with_cancel kept the memo"
    );
    token.cancel();
    assert_eq!(
        handout.run_with_globals(&[0.5], &mut NullObserver),
        Err(ExecError::Cancelled)
    );
    assert!(
        filled.run_with_globals(&[0.5], &mut NullObserver).is_ok(),
        "the first hand-out keeps its own token"
    );
}

/// The branch events `prog` reports on each of `xs`, bit for bit.
fn branch_bits(prog: &ModuleProgram, xs: &[Vec<f64>]) -> Vec<Vec<(u32, u64, u64, bool)>> {
    xs.iter()
        .map(|x| {
            let mut rec = TraceRecorder::new();
            prog.run(x, &mut rec);
            rec.branches()
                .map(|b| (b.id.0, b.lhs.to_bits(), b.rhs.to_bits(), b.taken))
                .collect()
        })
        .collect()
}

/// Threads that request one spec at once get one shared module, whose
/// observed events match the unspecialized program's bit for bit.
#[test]
fn concurrent_requests_for_one_spec_share_one_module() {
    let threads = matrix_threads();
    let spec = ObservationSpec::branches(SiteSet::All);
    for (name, module, entry) in module_suite() {
        let prog = program(&module, entry);
        let xs = suite_points(0x5EED ^ name.len() as u64, 16);
        let reference = branch_bits(&prog, &xs);
        let start = Barrier::new(threads);
        let handouts: Vec<ModuleProgram> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        prog.specialized(&spec, OptPolicy::Always)
                            .expect("every suite module validates")
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker thread"))
                .collect()
        });
        for handout in &handouts {
            assert!(
                std::ptr::eq(handout.module(), handouts[0].module()),
                "{name}: one shared module"
            );
            assert_eq!(branch_bits(handout, &xs), reference, "{name}: events");
        }
    }
}
