//! Cross-crate integration tests: each analysis instance running end to end
//! on the paper's benchmarks, with every reported solution re-verified by
//! direct execution (the Section 5.2 soundness check).

use wdm::core::boundary::BoundaryAnalysis;
use wdm::core::coverage::CoverageAnalysis;
use wdm::core::driver::{AnalysisConfig, BackendKind};
use wdm::core::inconsistency::{find_inconsistencies, StatusOutcome};
use wdm::core::overflow::OverflowDetector;
use wdm::core::path::PathAnalysis;
use wdm::gsl::bessel::{bessel_outcome, BesselKnuScaled};
use wdm::gsl::glibc_sin::GlibcSin;
use wdm::gsl::toy::{Fig1aProgram, Fig2Program};
use wdm::runtime::{Analyzable, BranchId, NullObserver, TraceRecorder};

#[test]
fn boundary_analysis_on_fig2_finds_verified_boundary_values() {
    let analysis = BoundaryAnalysis::new(Fig2Program::new());
    let reports = analysis.find_all(&AnalysisConfig::quick(101));
    assert_eq!(reports.len(), 2);
    for report in reports {
        let witness = report
            .witness
            .expect("both conditions of Fig. 2 are reachable");
        assert!(analysis
            .triggered_conditions(&witness)
            .contains(&report.site));
    }
}

#[test]
fn path_reachability_finds_the_assertion_violation_of_fig1a() {
    // The Section 1 motivating example: reach the path that enters the
    // branch and violates the assertion (x < 1 taken, x < 2 not taken).
    let analysis = PathAnalysis::new(Fig1aProgram::new());
    let path = vec![(BranchId(0), true), (BranchId(1), false)];
    let outcome = analysis.reach(&path, &AnalysisConfig::quick(7).with_rounds(6));
    let input = outcome
        .into_input()
        .expect("the rounding counterexample exists");
    assert!(analysis.satisfies(&input, &path));
    // The program observes the assertion failure (returns 0.0).
    assert_eq!(
        Fig1aProgram::new().run(&input, &mut NullObserver),
        Some(0.0)
    );
    assert!(input[0] < 1.0, "input {input:?} must take the branch");
}

#[test]
fn overflow_detection_on_bessel_reproduces_the_table4_shape() {
    let config = AnalysisConfig::quick(5)
        .with_rounds(2)
        .with_max_evals(12_000);
    let report = OverflowDetector::new(BesselKnuScaled::new()).run(&config);
    assert_eq!(report.num_ops(), 23, "Fig. 5 has 23 elementary operations");
    assert!(
        report.num_overflows() >= 15,
        "most operations should overflow (paper: 21/23), got {}",
        report.num_overflows()
    );
    // Every witness is sound: replaying it overflows the claimed site.
    for op in report.operations.iter().filter(|o| o.overflowed()) {
        let input = op.witness.clone().unwrap();
        let mut rec = TraceRecorder::new();
        BesselKnuScaled::new().run(&input, &mut rec);
        assert!(rec.ops().any(|ev| ev.id == op.site.id && ev.overflowed()));
    }
    // Replaying the generated inputs uncovers inconsistencies (Table 5 shape).
    let inconsistencies = find_inconsistencies(
        &BesselKnuScaled::new(),
        |input| {
            let (r, status) = bessel_outcome(input);
            StatusOutcome::new(
                status.is_success(),
                vec![("val".into(), r.val), ("err".into(), r.err)],
            )
        },
        &report.inputs,
    );
    assert!(!inconsistencies.is_empty());
}

#[test]
fn coverage_testing_covers_the_reachable_sin_ranges() {
    let analysis = CoverageAnalysis::new(GlibcSin::new());
    let report = analysis.run(
        &[vec![1.0]],
        &AnalysisConfig::quick(3).with_max_evals(30_000),
    );
    // 5 branches = 10 pairs; (branch 4, false) needs a non-finite input.
    assert!(
        report.covered.len() >= 8,
        "covered {:?}",
        report.covered.len()
    );
    assert!(report.coverage() >= 0.8);
}

#[test]
fn backends_disagree_on_hard_instances_but_basinhopping_finds_boundaries() {
    // A miniature Table 1: basin hopping finds an exact boundary value of
    // Fig. 2; random search essentially never does within the same budget.
    let analysis = BoundaryAnalysis::new(Fig2Program::new());
    let bh = analysis.find_any(
        &AnalysisConfig::quick(9)
            .with_backend(BackendKind::BasinHopping)
            .with_max_evals(10_000),
    );
    assert!(bh.is_found());
    let rs = analysis.find_any(
        &AnalysisConfig::quick(9)
            .with_backend(BackendKind::RandomSearch)
            .with_rounds(1)
            .with_max_evals(10_000),
    );
    assert!(
        !rs.is_found(),
        "pure random search should not hit an exact boundary"
    );
}
