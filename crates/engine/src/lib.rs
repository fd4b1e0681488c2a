//! # wdm_engine — parallel portfolio execution engine
//!
//! The paper's search is dominated by independent restarts and treats the
//! MO backend as an interchangeable black box — an embarrassingly parallel
//! workload that the core pipeline runs single-threaded. This crate is the
//! scheduling layer that exploits it, std-only (the build environment is
//! offline), at three levels:
//!
//! 1. **Portfolio mode** ([`race_all`],
//!    [`minimize_weak_distance_portfolio`]) — every [`BackendKind`] races
//!    on one problem; the first backend to find a zero cancels the rest
//!    through a shared [`CancelToken`]. Under
//!    [`PortfolioPolicy::Adaptive`] ([`adaptive_all`]) the race is
//!    replaced by a deterministic bandit scheduler that reallocates one
//!    run's budget across resumable backends each round.
//! 2. **Restart sharding** ([`AnalysisConfig::with_parallelism`]) — the
//!    Algorithm-3 rounds are split across workers with deterministic
//!    per-shard seeds ([`derive_round_seed`], a SplitMix64-style bijective
//!    mix), so the merged outcome is bit-identical for any thread count.
//! 3. **Campaign mode** ([`Campaign`], [`gsl_suite`]) — a job queue over a
//!    [`WorkerPool`] that batches whole benchmark suites and reduces the
//!    results into a single JSON report.
//!
//! Levels 1–2 live in `wdm_core::driver` (they need nothing but scoped
//! threads) and are re-exported here; this crate adds the pool, the
//! campaign layer and thread-count policy.
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

pub mod adaptive;
pub mod campaign;
pub mod portfolio;
pub mod threads;

pub use adaptive::{adaptive_all, minimize_weak_distance_adaptive, SteppedAnalysis};
pub use campaign::{
    gsl_portfolio_suite, gsl_suite, Campaign, CampaignJob, CampaignReport, JobReport, JobResult,
};
pub use portfolio::{minimize_weak_distance_portfolio, race_all, PortfolioEntry, PortfolioRun};
pub use threads::suggested_parallelism;

// Re-exported so engine users have the whole parallel surface in one place.
pub use wdm_core::driver::derive_round_seed;
pub use wdm_core::{AnalysisConfig, BackendKind, PortfolioPolicy};
pub use wdm_mo::{scoped_map, CancelToken, WorkerPool};
