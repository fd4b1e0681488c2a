//! Allocation regression: a scalar or batch evaluation through the
//! `Evaluator` never touches the heap, `fpir` programs included, and
//! neither does a basin-hopping hop or a multi-start start; a batch
//! through the lanewise kernel allocates a fixed handful of times; and the
//! local searches and the batch backends (random search, Differential
//! Evolution) allocate a fixed number of times per call, whatever their
//! budget.
//!
//! A counting global allocator tallies allocations per thread, so the test
//! threads the harness runs in parallel do not see each other's traffic.
//! The `fpir` kernel keeps its buffers per thread, so the first batch on a
//! thread allocates them: measure after a warm-up. A scalar `fpir`
//! execution keeps its frames on the stack, so once a program's lowering
//! is cached, even its first evaluation on a new thread allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use wdm::core::boundary::{BoundaryMode, BoundaryWeakDistance};
use wdm::core::coverage::CoverageWeakDistance;
use wdm::core::overflow::OverflowWeakDistance;
use wdm::core::path::PathWeakDistance;
use wdm::core::weak_distance::{FnWeakDistance, WeakDistance, WeakDistanceObjective};
use wdm::gsl::bessel::BesselKnuScaled;
use wdm::gsl::glibc_sin::GlibcSin;
use wdm::ir::{
    instrument, programs, BinOp, ExecError, FuncId, Interpreter, Module, ModuleBuilder,
    ModuleProgram,
};
use wdm::mo::evaluator::Evaluator;
use wdm::mo::{
    BasinHopping, Bounds, DifferentialEvolution, FnObjective, GlobalMinimizer, LocalMinimizer,
    MultiStart, NelderMead, NoTrace, Problem, RandomSearch, Termination, UlpSearch,
};
use wdm::runtime::{Analyzable, BranchId, Ctx, Interval, NullObserver, OpId};
use wdm::xsat::{Atom, Clause, Cnf, CnfWeakDistance, Expr};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation of the calling thread.
struct Counting;

fn count_one() {
    // A const-initialized `Cell` has no destructor, so the counter is
    // always accessible and touching it never allocates.
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only touches a thread-local
// `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocations this thread made.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// After one warm-up call, 10 000 `Evaluator::eval` calls over `wd` must
/// not allocate.
fn assert_eval_allocation_free(name: &str, wd: &dyn WeakDistance, points: &[Vec<f64>]) {
    let objective = WeakDistanceObjective::new(wd);
    let problem = Problem::new(&objective, objective.bounds()).with_target(0.0);
    let mut sink = NoTrace;
    let mut ev = Evaluator::new(&problem, &mut sink);
    // The first evaluation specializes the program for the target.
    ev.eval(&points[0]);
    let ((), allocated) = allocations(|| {
        for i in 0..10_000 {
            ev.eval(&points[i % points.len()]);
        }
    });
    assert_eq!(
        allocated, 0,
        "{name}: 10 000 evaluations allocated {allocated} times"
    );
    assert_eq!(ev.evals(), 10_001);
}

/// Points on every range of the programs, plus a NaN coordinate (clamped
/// to the domain midpoint) and the extremes of binary64.
fn points(dim: usize) -> Vec<Vec<f64>> {
    let samples = [
        0.5,
        -2.0,
        1.0e-9,
        3.0e7,
        -1.2e8,
        1.0e300,
        f64::MAX,
        -f64::MAX,
        f64::NAN,
        7.0,
    ];
    (0..samples.len())
        .map(|i| {
            (0..dim)
                .map(|d| samples[(i + 3 * d) % samples.len()])
                .collect()
        })
        .collect()
}

#[test]
fn single_site_sin_boundary_evaluations_do_not_allocate() {
    let wd = BoundaryWeakDistance::new(GlibcSin).with_mode(BoundaryMode::Single(BranchId(3)));
    assert_eval_allocation_free("sin boundary", &wd, &points(1));
}

#[test]
fn overflow_evaluations_with_a_skip_set_do_not_allocate() {
    let skip: BTreeSet<OpId> = [OpId(0), OpId(1), OpId(4)].into();
    let wd = OverflowWeakDistance::new(BesselKnuScaled::new(), skip);
    assert_eval_allocation_free("bessel overflow", &wd, &points(2));
}

#[test]
fn cnf_evaluations_do_not_allocate() {
    let cnf = Cnf::new(2)
        .and(Clause::from(Atom::eq(
            Expr::var(0) * Expr::var(1),
            Expr::constant(7.0),
        )))
        .and(
            Clause::new()
                .or(Atom::ge(Expr::var(0) - Expr::var(1), Expr::constant(1.5)))
                .or(Atom::le(Expr::var(0).sin(), Expr::constant(-0.5))),
        );
    assert_eval_allocation_free("xsat cnf", &CnfWeakDistance::new(cnf), &points(2));
}

/// An `fpir` program over `module`'s `entry` on [−1e3, 1e3].
fn fpir_program(module: Module, entry: &str) -> ModuleProgram {
    ModuleProgram::new(module, entry)
        .expect("entry exists")
        .with_domain(vec![Interval::symmetric(1.0e3)])
}

/// `fig2`'s instrumented boundary driver `W`: a call into the instrumented
/// copy of `fig2`, and the global `w`.
fn fig2_driver() -> ModuleProgram {
    let fig2 = programs::fig2_program();
    let entry = fig2.function_by_name("prog").expect("entry exists");
    fpir_program(
        instrument::instrument_boundary(&fig2, entry),
        instrument::W_FUNCTION,
    )
}

#[test]
fn fpir_evaluations_do_not_allocate() {
    let fig2 = || fpir_program(programs::fig2_program(), "prog");
    let single = BoundaryMode::Single(BranchId(0));
    let path = vec![(BranchId(0), true), (BranchId(1), false)];
    let skip: BTreeSet<OpId> = [OpId(1)].into();
    let covered: BTreeSet<(BranchId, bool)> = [(BranchId(0), true), (BranchId(1), false)].into();
    let cases: [(&str, Box<dyn WeakDistance>); 5] = [
        (
            "fig2 boundary",
            Box::new(BoundaryWeakDistance::new(fig2()).with_mode(single)),
        ),
        (
            "W(fig2) boundary",
            Box::new(BoundaryWeakDistance::new(fig2_driver()).with_mode(single)),
        ),
        (
            "fig1b path",
            Box::new(PathWeakDistance::new(
                fpir_program(programs::fig1b_program(), "prog"),
                path,
            )),
        ),
        (
            "fig2 overflow",
            Box::new(OverflowWeakDistance::new(fig2(), skip)),
        ),
        (
            "fig2 coverage",
            Box::new(CoverageWeakDistance::new(fig2(), covered)),
        ),
    ];
    for (name, wd) in &cases {
        assert_eval_allocation_free(name, wd.as_ref(), &points(1));
        // The program's lowering is cached now: a thread that has run
        // nothing evaluates without allocating, from its first evaluation.
        let xs = points(1);
        let (_, allocated) = std::thread::scope(|s| {
            s.spawn(|| {
                allocations(|| {
                    for x in &xs {
                        wd.eval(x);
                    }
                })
            })
            .join()
            .expect("evaluation thread")
        });
        assert_eq!(
            allocated, 0,
            "{name}: the first evaluations on a new thread allocated {allocated} times"
        );
    }
}

/// `rec(x)` recurses unconditionally through 64 registers (the widest frame
/// kept on the stack), with a sited op and a global update at every level.
fn bottomless_recursion() -> Module {
    let mut mb = ModuleBuilder::new();
    let w = mb.global("w", 0.0);
    let mut f = mb.function("rec", 1);
    let x = f.param(0);
    let one = f.constant(1.0);
    let mut acc = f.bin(BinOp::Add, x, one, Some(0));
    for _ in 0..58 {
        acc = f.bin(BinOp::Mul, acc, one, None);
    }
    let wv = f.load_global(w);
    let sum = f.bin(BinOp::Add, wv, acc, None);
    f.store_global(w, sum);
    let r = f.call(FuncId(0), vec![acc]);
    f.ret(Some(r));
    f.finish();
    mb.build()
}

/// A call level holds at most one 64-register frame plus the core loop's
/// own, so the default call-depth limit stops this recursion long before it
/// overflows a 256 KiB stack (an overflow aborts the whole test binary).
#[test]
fn recursion_to_the_call_depth_limit_fits_a_small_stack() {
    let module = bottomless_recursion();
    let entry = module.function_by_name("rec").expect("entry exists");
    let regs = module.function(entry).num_regs;
    assert_eq!(regs, 64);
    let program = ModuleProgram::new(module.clone(), "rec").expect("entry exists");
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn_scoped(s, || {
                let interpreter = Interpreter::default();
                assert_eq!(interpreter.max_call_depth, 64);
                let mut observer = NullObserver;
                let mut ctx = Ctx::new(&mut observer);
                assert_eq!(
                    interpreter.execute(&module, entry, &[1.0], &mut ctx),
                    Err(ExecError::CallDepthExceeded)
                );
                assert_eq!(program.run(&[1.0], &mut NullObserver), None);
            })
            .expect("spawn a 256 KiB thread")
            .join()
            .expect("recursion thread");
    });
}

#[test]
fn kernel_batches_allocate_a_fixed_handful() {
    let fig2 = fpir_program(programs::fig2_program(), "prog");
    let driver = fig2_driver();
    assert!(fig2.kernel_eligible() && driver.kernel_eligible());
    let single = BoundaryMode::Single(BranchId(0));
    let path = vec![(BranchId(0), true), (BranchId(1), true)];
    let cases: [(&str, Box<dyn WeakDistance + '_>); 4] = [
        (
            "fig2 boundary",
            Box::new(BoundaryWeakDistance::new(&fig2).with_mode(single)),
        ),
        (
            "W(fig2) boundary",
            Box::new(BoundaryWeakDistance::new(&driver).with_mode(single)),
        ),
        (
            "fig2 path",
            Box::new(PathWeakDistance::new(&fig2, path.clone())),
        ),
        (
            "W(fig2) path",
            Box::new(PathWeakDistance::new(&driver, path)),
        ),
    ];
    // Differential Evolution's batches: 20 points, here cycling through the
    // clamped, NaN and extreme samples.
    let base = points(1);
    let batch: Vec<Vec<f64>> = (0..20).map(|i| base[i % base.len()].clone()).collect();
    for (name, wd) in &cases {
        let objective = WeakDistanceObjective::new(wd.as_ref());
        // No target: a batch that hits a zero would stop early.
        let problem = Problem::new(&objective, objective.bounds()).with_max_evals(usize::MAX);
        let mut sink = NoTrace;
        let mut ev = Evaluator::new(&problem, &mut sink);
        let mut values = Vec::new();
        // The first batch specializes the program and sizes the buffers.
        assert_eq!(ev.eval_batch(&batch, &mut values), 20);
        let ((), allocated) = allocations(|| {
            for _ in 0..1_000 {
                assert_eq!(ev.eval_batch(&batch, &mut values), 20);
            }
        });
        assert!(
            allocated <= 8 * 1_000,
            "{name}: 1 000 batches of 20 points allocated {allocated} times"
        );
    }
}

/// Allocations of one `minimize` call of `backend` at dimension `dim`, over
/// an objective whose minimum is 1, so no hop or start reaches the target 0.
fn round_allocations(backend: &dyn GlobalMinimizer, dim: usize) -> u64 {
    let f = FnObjective::new(dim, |x: &[f64]| 1.0 + x.iter().map(|v| v * v).sum::<f64>());
    let problem = Problem::new(&f, Bounds::symmetric(dim, 100.0))
        .with_target(0.0)
        .with_max_evals(usize::MAX);
    let (result, allocated) = allocations(|| backend.minimize(&problem, 5, &mut NoTrace));
    assert_eq!(result.termination, Termination::IterationsCompleted);
    allocated
}

/// Allocations of a `hops`-hop basin-hopping run at dimension `dim`.
fn basin_hopping_allocations(dim: usize, hops: usize) -> u64 {
    let backend = BasinHopping::default()
        .with_local_max_evals(30)
        .with_hops(hops);
    round_allocations(&backend, dim)
}

#[test]
fn basin_hopping_hops_allocate_a_fixed_handful() {
    for dim in [1, 3] {
        let per_hop = (basin_hopping_allocations(dim, 100) - basin_hopping_allocations(dim, 50))
            as f64
            / 50.0;
        assert_eq!(per_hop, 0.0, "dim {dim}: {per_hop} allocations per hop");
    }
}

/// Allocations of a `starts`-start multi-start run at dimension `dim`.
fn multi_start_allocations(dim: usize, starts: usize) -> u64 {
    let backend = MultiStart {
        local_max_evals: 30,
        ..MultiStart::default().with_starts(starts)
    };
    round_allocations(&backend, dim)
}

#[test]
fn multi_start_starts_do_not_allocate() {
    for dim in [1, 3] {
        let per_start =
            (multi_start_allocations(dim, 100) - multi_start_allocations(dim, 50)) as f64 / 50.0;
        assert_eq!(
            per_start, 0.0,
            "dim {dim}: {per_start} allocations per start"
        );
    }
}

/// Allocations of one `minimize_from` call at `budget`, over an objective
/// that returns a value below every earlier one: neither search ever
/// converges or stalls, so both budgets run to exhaustion.
fn local_search_allocations(local: &dyn LocalMinimizer, budget: usize) -> u64 {
    let calls = AtomicU64::new(0);
    let f = FnObjective::new(3, |_: &[f64]| {
        -(calls.fetch_add(1, Ordering::Relaxed) as f64)
    });
    let problem = Problem::new(&f, Bounds::whole(3));
    let (result, allocated) =
        allocations(|| local.minimize_from(&problem, &[1.0, -2.0, 3.0], budget, &mut NoTrace));
    assert_eq!(result.termination, Termination::BudgetExhausted);
    assert!(
        result.evals >= budget,
        "{} of {budget} evaluations",
        result.evals
    );
    allocated
}

#[test]
fn local_search_allocations_do_not_grow_with_the_budget() {
    let locals: [(&str, &dyn LocalMinimizer); 2] = [
        ("NelderMead", &NelderMead::default()),
        ("UlpSearch", &UlpSearch::default()),
    ];
    for (name, local) in locals {
        let small = local_search_allocations(local, 200);
        let large = local_search_allocations(local, 2_000);
        assert_eq!(
            small, large,
            "{name}: {small} allocations at budget 200, {large} at budget 2 000"
        );
    }
}

#[test]
fn batch_evaluations_do_not_allocate() {
    let wd = FnWeakDistance::new(
        2,
        vec![Interval::symmetric(1.0e6), Interval::new(-1.0, 4.0)],
        |x: &[f64]| (x[0] - 3.0).abs() + (x[1] * x[1] - 2.0).abs() + 1.0,
    );
    let objective = WeakDistanceObjective::new(&wd);
    let problem = Problem::new(&objective, objective.bounds())
        .with_target(0.0)
        .with_max_evals(usize::MAX);
    // 256 points, cycling through the clamped, NaN and extreme samples.
    let base = points(2);
    let batch: Vec<Vec<f64>> = (0..256).map(|i| base[i % base.len()].clone()).collect();
    let mut sink = NoTrace;
    let mut ev = Evaluator::new(&problem, &mut sink);
    let mut values = Vec::new();
    // The first batch sizes the evaluator's rows and the value buffers.
    assert_eq!(ev.eval_batch(&batch, &mut values), 256);
    let ((), allocated) = allocations(|| {
        for _ in 0..1_000 {
            assert_eq!(ev.eval_batch(&batch, &mut values), 256);
        }
    });
    assert_eq!(
        allocated, 0,
        "1 000 batches of 256 points allocated {allocated} times"
    );
    assert_eq!(ev.evals(), 1_001 * 256);
}

/// Allocations of one `minimize` call at `budget`, over an objective that
/// returns a value below every earlier one: random search has no target to
/// hit and Differential Evolution's population never converges, so both
/// budgets run to exhaustion.
fn batch_backend_allocations(backend: &dyn GlobalMinimizer, budget: usize) -> u64 {
    let calls = AtomicU64::new(0);
    let f = FnObjective::new(3, |_: &[f64]| {
        -(calls.fetch_add(1, Ordering::Relaxed) as f64)
    });
    let problem = Problem::new(&f, Bounds::whole(3)).with_max_evals(budget);
    let (result, allocated) = allocations(|| backend.minimize(&problem, 11, &mut NoTrace));
    assert_eq!(result.termination, Termination::BudgetExhausted);
    assert_eq!(result.evals, budget);
    allocated
}

#[test]
fn batch_backend_allocations_do_not_grow_with_the_budget() {
    let backends: [(&str, &dyn GlobalMinimizer); 2] = [
        ("RandomSearch", &RandomSearch::new()),
        (
            "DifferentialEvolution",
            &DifferentialEvolution::default().with_max_generations(usize::MAX),
        ),
    ];
    for (name, backend) in backends {
        let small = batch_backend_allocations(backend, 2_000);
        let large = batch_backend_allocations(backend, 20_000);
        assert_eq!(
            small, large,
            "{name}: {small} allocations at budget 2 000, {large} at budget 20 000"
        );
    }
}
