//! # wdm_engine — campaign mode
//!
//! The paper's search is dominated by independent restarts and treats the
//! MO backend as an interchangeable black box — an embarrassingly parallel
//! workload. Adaptive backend portfolios
//! ([`wdm_core::minimize_weak_distance_adaptive`], bandit-scheduled and
//! deterministic) and restart sharding
//! ([`wdm_core::AnalysisConfig::with_parallelism`], with deterministic
//! per-round seeds from [`wdm_core::derive_round_seed`]) live in
//! `wdm_core`: they need nothing but scoped threads. This crate, std-only
//! (the build environment is offline), adds the level above them:
//! **campaign mode** ([`Campaign`], [`gsl_suite`]), a job queue over a
//! [`wdm_mo::WorkerPool`] that batches whole benchmark suites and reduces
//! the results into a single JSON report, plus the thread-count policy
//! ([`suggested_parallelism`]).
//!
//! # Example: campaign over the GSL suite
//!
//! ```
//! use wdm_core::AnalysisConfig;
//! use wdm_engine::{gsl_suite, suggested_parallelism};
//!
//! let config = AnalysisConfig::quick(7).with_rounds(1).with_max_evals(500);
//! let report = gsl_suite(&config).run(suggested_parallelism());
//! assert_eq!(report.jobs.len(), 10);
//! // The deterministic part of the report is independent of the
//! // thread count; only the timing fields vary.
//! let again = gsl_suite(&config).run(1);
//! assert_eq!(report.deterministic_results(), again.deterministic_results());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod threads;

pub use campaign::{
    gsl_portfolio_suite, gsl_suite, Campaign, CampaignJob, CampaignReport, JobReport, JobResult,
};
pub use threads::suggested_parallelism;
