//! # wdm — Weak-Distance Minimization for Floating-Point Analysis
//!
//! A Rust reproduction of *"Effective Floating-Point Analysis via
//! Weak-Distance Minimization"* (Fu & Su, PLDI 2019).
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`runtime`] ([`fp_runtime`]) — execution events, probe API, the
//!   [`Analyzable`](fp_runtime::Analyzable) program interface;
//! * [`ir`] ([`fpir`]) — a floating-point IR with interpreter and the
//!   weak-distance instrumentation passes;
//! * [`mo`] ([`wdm_mo`]) — mathematical-optimization backends
//!   (Basinhopping, Differential Evolution, Powell, ...);
//! * [`gsl`] ([`mini_gsl`]) — Rust ports of the GSL special functions and
//!   the Glibc `sin` benchmark;
//! * [`core`] ([`wdm_core`]) — the weak-distance reduction theory, the
//!   boundary-value / path-reachability / overflow / coverage analyses, and
//!   the driver's parallel modes: deterministic restart sharding and the
//!   adaptive backend portfolio
//!   ([`minimize_weak_distance_adaptive`](wdm_core::minimize_weak_distance_adaptive)),
//!   bandit-scheduled with first-hit cancellation and bit-identical at any
//!   thread count;
//! * [`xsat`] ([`wdm_xsat`]) — quantifier-free floating-point
//!   satisfiability on top of the same reduction;
//! * [`engine`] ([`wdm_engine`]) — campaign mode: whole benchmark suites
//!   batched over the analysis service's workers;
//! * [`service`] ([`wdm_service`]) — the multi-tenant analysis service:
//!   turn slicing of concurrent jobs (new jobs first), durable
//!   checkpoint/resume, and progress streaming (in-process or over the
//!   line-delimited JSON TCP protocol).
//!
//! See the `examples/` directory for runnable end-to-end scenarios and the
//! `crates/bench` binaries for the scripts that regenerate every table and
//! figure of the paper.
//!
//! # Example
//!
//! ```
//! use wdm::core::boundary::BoundaryAnalysis;
//! use wdm::core::driver::AnalysisConfig;
//! use wdm::gsl::toy::Fig2Program;
//!
//! // Find an input of the Fig. 2 program that triggers a boundary condition.
//! let analysis = BoundaryAnalysis::new(Fig2Program::new());
//! let outcome = analysis.find_any(&AnalysisConfig::quick(7));
//! assert!(outcome.is_found());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fp_runtime as runtime;
pub use fpir as ir;
pub use mini_gsl as gsl;
pub use wdm_core as core;
pub use wdm_engine as engine;
pub use wdm_mo as mo;
pub use wdm_service as service;
pub use wdm_xsat as xsat;
