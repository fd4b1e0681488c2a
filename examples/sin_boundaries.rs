//! The Section 6.2 case study: boundary value analysis of the GNU `sin`
//! range-selection branches.
//!
//! Run with `cargo run --release --example sin_boundaries`.

use wdm::core::boundary::BoundaryAnalysis;
use wdm::core::driver::AnalysisConfig;
use wdm::gsl::glibc_sin::{GlibcSin, K_THRESHOLDS, REFERENCE_BOUNDS};
use wdm::runtime::Analyzable;

fn main() {
    let analysis = BoundaryAnalysis::new(GlibcSin::new());
    let config = AnalysisConfig::quick(42)
        .with_max_evals(40_000)
        .with_rounds(4);

    println!("boundary conditions of the Glibc sin range-selection branches:");
    let reports = analysis.find_all(&config);
    for (i, report) in reports.iter().enumerate() {
        // The program proves k == 0x7ff00000 unreachable (it needs
        // |x| = 2^1024), and the analysis prunes it at zero evaluations.
        let unreachable = analysis
            .program()
            .branch_boundary_reachability(report.site)
            .is_unreachable();
        match &report.witness {
            Some(input) => {
                let confirmed = analysis.triggered_conditions(input).contains(&report.site);
                println!(
                    "  {} (ref |x| ≈ {:.4e}): boundary value x = {:.6e} (confirmed: {confirmed})",
                    report.label, REFERENCE_BOUNDS[i], input[0]
                );
            }
            None => println!(
                "  {} : not triggered ({}, {} evals), threshold 0x{:08x}",
                report.label,
                if unreachable {
                    "proved unreachable"
                } else {
                    "missed"
                },
                report.evals,
                K_THRESHOLDS[i]
            ),
        }
    }
}
