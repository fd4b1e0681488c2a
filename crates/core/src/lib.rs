//! The weak-distance minimization reduction theory and its analysis
//! instances.
//!
//! This crate is the paper's primary contribution:
//!
//! * [`weak_distance`] — the [`WeakDistance`] abstraction of Definition
//!   3.1 (a nonnegative program whose zeros are exactly the solutions of
//!   the analysis problem), its adapter to the optimization backends, and
//!   [`ObservedWeakDistance`], the construction the four analyses below
//!   share: run the program under an observer that folds its events into
//!   `w`;
//! * [`driver`] — Algorithm 2: construct a weak distance, minimize it with
//!   an off-the-shelf MO backend, report the minimum point if the minimum
//!   is zero, and optionally verify the reported solution against a
//!   membership oracle (the Section 5.2 soundness remark); restart rounds
//!   can be sharded across threads;
//! * [`adaptive`] — the restart loop as a resumable state machine
//!   ([`SteppedAnalysis`], which the driver runs to completion) and the
//!   portfolio built on it: several backends share one run's budget under
//!   a deterministic bandit scheduler;
//! * [`boundary`] — Instance 1, boundary value analysis (Fig. 3);
//! * [`path`] — Instance 2, path reachability (Fig. 4);
//! * [`overflow`] — Instance 3, floating-point overflow detection
//!   (Algorithm 3, the `fpod` tool);
//! * [`coverage`] — Instance 4, branch-coverage-based testing
//!   (the CoverMe construction);
//! * [`inconsistency`] — the Section 6.3.2 check: replaying analysis
//!   witnesses against the GSL status convention and classifying root
//!   causes.
//!
//! Instance 5 (quantifier-free floating-point satisfiability) lives in the
//! companion crate `wdm-xsat`, built on the same driver.
//!
//! # Example
//!
//! ```
//! use wdm_core::boundary::BoundaryAnalysis;
//! use wdm_core::driver::AnalysisConfig;
//! use mini_gsl::toy::Fig2Program;
//!
//! // Fig. 3 of the paper: find an input of the Fig. 2 program that triggers
//! // a boundary condition (x = 1 at the first branch or y = 4 at the second).
//! let analysis = BoundaryAnalysis::new(Fig2Program::new());
//! let outcome = analysis.find_any(&AnalysisConfig::quick(42));
//! let input = outcome.clone().into_input().expect("a boundary value exists");
//! assert!(!analysis.triggered_conditions(&input).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod boundary;
pub mod checkpoint;
pub mod coverage;
pub mod driver;
pub mod inconsistency;
pub mod overflow;
pub mod path;
pub mod weak_distance;

pub use adaptive::{
    minimize_weak_distance_adaptive, minimize_weak_distance_adaptive_cancellable,
    AdaptivePortfolio, EscalationHandoff, PortfolioRun, SteppedAnalysis,
};
pub use checkpoint::{AdaptiveCheckpoint, AnalysisCheckpoint, EscalationCkpt};
pub use driver::{
    derive_round_seed, minimize_weak_distance, minimize_weak_distance_cancellable,
    statically_pruned_run, AnalysisConfig, BackendKind, EscalationConfig, MinimizationRun, Outcome,
};
pub use weak_distance::{ObservedWeakDistance, WeakDistance};
