//! Integration tests of the transformation-based Reduction Kernel: the
//! `fpir` instrumentation passes produce weak distances whose minimization
//! (through the same driver as the observer-based ones) solves the analysis
//! problems, and the two instrumentation mechanisms agree.

use std::collections::BTreeSet;
use wdm::core::boundary::BoundaryWeakDistance;
use wdm::core::driver::{minimize_weak_distance, AnalysisConfig, Outcome};
use wdm::core::weak_distance::{FnWeakDistance, WeakDistance};
use wdm::gsl::toy::Fig2Program;
use wdm::ir::instrument::{instrument_boundary, instrument_overflow, instrument_path, W_FUNCTION};
use wdm::ir::programs::fig2_program;
use wdm::ir::{validate, ModuleProgram};
use wdm::runtime::{Analyzable, BranchId, Interval, NullObserver};

fn ir_weak_distance(module: wdm::ir::Module) -> impl WeakDistance {
    let program = ModuleProgram::new(module, W_FUNCTION)
        .expect("driver function exists")
        .with_domain(vec![Interval::symmetric(1.0e6)]);
    FnWeakDistance::new(1, vec![Interval::symmetric(1.0e6)], move |x: &[f64]| {
        program.run(x, &mut NullObserver).unwrap_or(f64::MAX)
    })
}

#[test]
fn transformation_and_observer_boundary_weak_distances_agree() {
    let module = fig2_program();
    let entry = module.function_by_name("prog").unwrap();
    let instrumented = instrument_boundary(&module, entry);
    assert_eq!(validate(&instrumented), Ok(()));
    let ir_prog = ModuleProgram::new(instrumented, W_FUNCTION).unwrap();
    let observer_wd = BoundaryWeakDistance::new(Fig2Program::new());
    for i in -60..60 {
        let x = i as f64 * 0.17;
        let via_ir = ir_prog.run(&[x], &mut NullObserver).unwrap();
        let via_observer = observer_wd.eval(&[x]);
        assert_eq!(
            via_ir.to_bits(),
            via_observer.to_bits(),
            "W({x}) differs: IR {via_ir} vs observer {via_observer}"
        );
    }
}

#[test]
fn minimizing_the_ir_boundary_weak_distance_finds_a_boundary_value() {
    let module = fig2_program();
    let entry = module.function_by_name("prog").unwrap();
    let wd = ir_weak_distance(instrument_boundary(&module, entry));
    let run = minimize_weak_distance(&wd, &AnalysisConfig::quick(21));
    match run.outcome {
        Outcome::Found { input, .. } => {
            let x = input[0];
            assert!(
                x == 1.0
                    || x == 2.0
                    || x == -3.0
                    || BoundaryWeakDistance::new(Fig2Program::new()).eval(&[x]) == 0.0,
                "x = {x} is not a boundary value"
            );
        }
        Outcome::NotFound { best_value, .. } => panic!("not found, best = {best_value}"),
    }
}

#[test]
fn minimizing_the_ir_path_weak_distance_reaches_the_path() {
    let module = fig2_program();
    let entry = module.function_by_name("prog").unwrap();
    let path = [(BranchId(0), true), (BranchId(1), true)];
    let wd = ir_weak_distance(instrument_path(&module, entry, &path));
    let run = minimize_weak_distance(&wd, &AnalysisConfig::quick(22));
    let input = run.outcome.into_input().expect("path reachable");
    assert!((-3.0..=1.0).contains(&input[0]), "x = {}", input[0]);
}

#[test]
fn minimizing_the_ir_overflow_weak_distance_finds_an_overflow() {
    let module = fig2_program();
    let entry = module.function_by_name("prog").unwrap();
    let instrumented = instrument_overflow(&module, entry, &BTreeSet::new());
    assert_eq!(validate(&instrumented), Ok(()));
    let program = ModuleProgram::new(instrumented, W_FUNCTION)
        .unwrap()
        .with_domain(vec![Interval::whole()]);
    let wd = FnWeakDistance::new(1, vec![Interval::whole()], move |x: &[f64]| {
        program.run(x, &mut NullObserver).unwrap_or(f64::MAX)
    });
    let run = minimize_weak_distance(&wd, &AnalysisConfig::quick(23));
    let input = run.outcome.into_input().expect("x*x can overflow");
    assert!(input[0].abs() > 1.0e150, "x = {}", input[0]);
}
