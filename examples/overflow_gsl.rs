//! Overflow detection (Algorithm 3, the `fpod` tool) on the GSL Bessel
//! benchmark of Fig. 5, followed by the Table 5 inconsistency replay.
//!
//! Run with `cargo run --release --example overflow_gsl`.

use wdm::core::driver::AnalysisConfig;
use wdm::core::inconsistency::{find_inconsistencies, StatusOutcome};
use wdm::core::overflow::OverflowDetector;
use wdm::gsl::bessel::{bessel_outcome, BesselKnuScaled};

fn main() {
    let config = AnalysisConfig::quick(7)
        .with_rounds(2)
        .with_max_evals(15_000);
    let detector = OverflowDetector::new(BesselKnuScaled::new());
    let report = detector.run(&config);

    println!(
        "{} of {} floating-point operations can overflow:",
        report.num_overflows(),
        report.num_ops()
    );
    for op in &report.operations {
        match &op.witness {
            Some(w) => println!(
                "  {:<58} nu = {:>10.2e}, x = {:>10.2e}",
                op.site.label, w[0], w[1]
            ),
            None => println!("  {:<58} (no overflow found)", op.site.label),
        }
    }

    // Replay the generated inputs against the GSL calling convention and
    // report inconsistencies (status SUCCESS with inf/nan results).
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
    println!("\n{} inconsistencies detected:", inconsistencies.len());
    for inc in inconsistencies.iter().take(5) {
        println!(
            "  input {:?}: {:?} — root cause: {}",
            inc.input, inc.outcome.values, inc.cause
        );
    }
}
