//! Witness checks independent of the minimizer: each re-executes the
//! program (or re-evaluates the formula) on the reported input and decides
//! from the observed events alone whether the witness is genuine.

use fp_runtime::{Analyzable, BranchCoverage, BranchId, Observer, OpEvent, OpId, ProbeControl};
use std::collections::BTreeSet;
use wdm_core::boundary::BoundaryAnalysis;
use wdm_core::path::{Path, PathAnalysis};
use wdm_xsat::Cnf;

/// Does `input` drive branch `site` onto its boundary (`lhs == rhs`)?
pub fn boundary<P: Analyzable>(program: P, site: BranchId, input: &[f64]) -> bool {
    BoundaryAnalysis::new(program)
        .triggered_conditions(input)
        .contains(&site)
}

/// Does `input` take every branch of `path` in the required direction?
pub fn path<P: Analyzable>(program: P, path: &Path, input: &[f64]) -> bool {
    PathAnalysis::new(program).satisfies(input, path)
}

/// Does executing `input` produce an overflowed result at operation `site`:
/// infinite, NaN, or saturated at `±f64::MAX`? That is Algorithm 3's zero
/// set (`w = |a| < MAX ? MAX - |a| : 0`); the saturated case is not
/// IEEE-non-finite, and the overflow studies do report witnesses there.
pub fn overflow<P: Analyzable>(program: P, site: OpId, input: &[f64]) -> bool {
    struct OverflowAt {
        site: OpId,
        seen: bool,
    }
    impl Observer for OverflowAt {
        fn on_op(&mut self, ev: &OpEvent) -> ProbeControl {
            if ev.id == self.site && (ev.value.is_nan() || ev.value.abs() >= f64::MAX) {
                self.seen = true;
            }
            ProbeControl::Continue
        }
    }
    let mut obs = OverflowAt { site, seen: false };
    program.run(input, &mut obs);
    obs.seen
}

/// Does replaying the suite cover exactly the reported branch directions?
pub fn coverage<P: Analyzable>(
    program: P,
    suite: &[Vec<f64>],
    reported: &BTreeSet<(BranchId, bool)>,
) -> bool {
    let mut covered = BTreeSet::new();
    for input in suite {
        let mut cov = BranchCoverage::new();
        program.run(input, &mut cov);
        covered.extend(cov.covered().iter().copied());
    }
    &covered == reported
}

/// Is `model` a model of `cnf`? An expected-unsat formula never accepts a
/// model, whatever it evaluates to.
pub fn xsat(cnf: &Cnf, expected_sat: bool, model: &[f64]) -> bool {
    expected_sat && cnf.holds(model)
}
