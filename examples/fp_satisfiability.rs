//! Instance 5: solving quantifier-free floating-point constraints by
//! minimizing the XSat weak distance — including the Section 1 constraint
//! that is satisfiable only because of round-to-nearest.
//!
//! Run with `cargo run --example fp_satisfiability`.

use wdm::core::driver::AnalysisConfig;
use wdm::runtime::Interval;
use wdm::xsat::{Atom, Clause, Cnf, Expr, Solver, Verdict};

fn main() {
    let x = Expr::var(0);

    // x < 1  ∧  x + 1 >= 2 : satisfiable in binary64 round-to-nearest.
    let cnf = Cnf::new(1)
        .and(Clause::from(Atom::lt(x.clone(), Expr::constant(1.0))))
        .and(Clause::from(Atom::ge(
            x.clone() + Expr::constant(1.0),
            Expr::constant(2.0),
        )));
    let verdict = Solver::new(cnf)
        .with_domain(vec![Interval::symmetric(10.0)])
        .solve(&AnalysisConfig::quick(1).with_rounds(6));
    match verdict {
        Verdict::Sat(model) => println!(
            "x < 1 ∧ x + 1 >= 2 is SAT: x = {:.17} (x + 1 = {})",
            model[0],
            model[0] + 1.0
        ),
        Verdict::Unknown { best_residual, .. } => {
            println!("no model found (best residual {best_residual:e})")
        }
    }

    // A nonlinear system: x + y == 10 ∧ x * y == 21.
    let (x, y) = (Expr::var(0), Expr::var(1));
    let system = Cnf::new(2)
        .and(Clause::from(Atom::eq(
            x.clone() + y.clone(),
            Expr::constant(10.0),
        )))
        .and(Clause::from(Atom::eq(x * y, Expr::constant(21.0))));
    let verdict = Solver::new(system.clone())
        .with_domain(vec![Interval::symmetric(100.0); 2])
        .solve(&AnalysisConfig::quick(2).with_rounds(8));
    match verdict {
        Verdict::Sat(model) => {
            println!(
                "x + y == 10 ∧ x*y == 21 is SAT: x = {}, y = {}",
                model[0], model[1]
            );
            assert!(system.holds(&model));
        }
        Verdict::Unknown { best_residual, .. } => {
            println!("no model found (best residual {best_residual:e})")
        }
    }
}
