//! Quickstart: boundary value analysis and path reachability on the paper's
//! Fig. 2 example program.
//!
//! Run with `cargo run --example quickstart`.

use wdm::core::boundary::BoundaryAnalysis;
use wdm::core::driver::AnalysisConfig;
use wdm::core::path::PathAnalysis;
use wdm::gsl::toy::Fig2Program;
use wdm::runtime::BranchId;

fn main() {
    let config = AnalysisConfig::quick(42);

    // Instance 1: find an input that sits exactly on a boundary condition
    // (x = 1 at the first branch or y = 4 at the second).
    let boundary = BoundaryAnalysis::new(Fig2Program::new());
    match boundary.find_any(&config) {
        outcome if outcome.is_found() => {
            let input = outcome.into_input().unwrap();
            let conditions = boundary.triggered_conditions(&input);
            println!(
                "boundary value found: x = {} (triggers branch {:?})",
                input[0], conditions
            );
        }
        _ => println!("no boundary value found within the budget"),
    }

    // Instance 2: find an input taking both branches (solution space [-3, 1]).
    let path_analysis = PathAnalysis::new(Fig2Program::new());
    let path = vec![(BranchId(0), true), (BranchId(1), true)];
    match path_analysis.reach(&path, &config) {
        outcome if outcome.is_found() => {
            let input = outcome.into_input().unwrap();
            assert!(path_analysis.satisfies(&input, &path));
            println!("path witness found: x = {} takes both branches", input[0]);
        }
        _ => println!("path not reached within the budget"),
    }
}
