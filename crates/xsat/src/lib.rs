//! Instance 5: quantifier-free floating-point satisfiability via
//! weak-distance minimization (the XSat construction).
//!
//! A constraint in conjunctive normal form over binary64 variables is
//! translated into a nonnegative floating-point program `R` whose zeros are
//! exactly the models of the constraint; `R` is then minimized with the same
//! driver as every other analysis in this workspace. Equality atoms can be
//! measured either with the absolute-value distance or with the
//! integer-valued ULP distance (the Limitation 2 mitigation the paper
//! credits to XSat).
//!
//! # Example
//!
//! ```
//! use wdm_xsat::{Atom, Clause, Cnf, Expr, Solver};
//! use wdm_core::driver::AnalysisConfig;
//!
//! // The Section 1 constraint: x < 1  ∧  x + 1 >= 2 — satisfiable only
//! // because of round-to-nearest.
//! let x = Expr::var(0);
//! let cnf = Cnf::new(2)
//!     .and(Clause::from(Atom::lt(x.clone(), Expr::constant(1.0))))
//!     .and(Clause::from(Atom::ge(x + Expr::constant(1.0), Expr::constant(2.0))));
//! let cnf = cnf.with_num_vars(1);
//! let verdict = Solver::new(cnf).solve(&AnalysisConfig::quick(1));
//! let model = verdict.model().expect("satisfiable under round-to-nearest");
//! assert!(model[0] < 1.0 && model[0] + 1.0 >= 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod distance;
pub mod solver;

pub use ast::{Atom, Clause, Cnf, Expr, Rel};
pub use distance::{CnfWeakDistance, DistanceMetric};
pub use solver::{Solver, Verdict};
