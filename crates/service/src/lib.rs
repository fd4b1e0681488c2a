//! # wdm_service — multi-tenant weak-distance analysis service
//!
//! A long-running, std-only front-end over the adaptive portfolio
//! layer: clients submit analysis jobs (a
//! [`WeakDistance`](wdm_core::WeakDistance) plus an
//! [`AnalysisConfig`](wdm_core::AnalysisConfig) and a backend
//! portfolio), the service's workers time-slice every admitted job in
//! turns, new jobs first and the rest in rotation, progress streams to
//! subscribers after every turn, and terminal outcomes land in a result
//! store.
//!
//! Three properties define the design:
//!
//! * **Determinism** — jobs run through
//!   [`AdaptivePortfolio`](wdm_core::AdaptivePortfolio), whose rounds
//!   are bit-identical at any worker count, so a job's terminal outcome
//!   is exactly the solo run's outcome regardless of how many tenants
//!   share the workers or how turns interleave.
//! * **Durability** — between turns a job *is* a serializable
//!   checkpoint ([`AdaptiveCheckpoint`](wdm_core::AdaptiveCheckpoint)),
//!   re-materialized at the start of every turn; with a checkpoint
//!   directory configured the snapshot also goes to disk after every
//!   turn, and a restarted service resumes re-submitted jobs from it,
//!   replaying to the identical final report.
//! * **Fairness** — a turn is `weight × rounds_per_turn` adaptive
//!   rounds, and at each turn boundary a worker runs a job that has not
//!   run yet (the oldest first) or else the job whose latest turn started
//!   longest ago, so a new job goes next, no job is held back while newer
//!   ones arrive, no worker idles while a job can run, and weights skew
//!   throughput without affecting any job's outcome.
//!
//! The service is exposed two ways: the in-process [`ServiceHandle`]
//! (used by `wdm_engine::campaign`) and the line-delimited JSON TCP
//! protocol in [`wire`] (served by the `serve` bin in `wdm_bench`).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use fp_runtime::Interval;
//! use wdm_core::weak_distance::FnWeakDistance;
//! use wdm_core::AnalysisConfig;
//! use wdm_service::{AnalysisService, JobSpec, ServiceConfig};
//!
//! let service = AnalysisService::start(ServiceConfig::new(2));
//! let handle = service.handle();
//! let wd = Arc::new(FnWeakDistance::new(
//!     1,
//!     vec![Interval::symmetric(100.0)],
//!     |x: &[f64]| (x[0] - 3.0).abs(),
//! ));
//! let config = AnalysisConfig::quick(7).with_rounds(1).with_max_evals(2_000);
//! let id = handle.submit(JobSpec::new("find-3", wd, config)).unwrap();
//! let outcome = handle.wait(id);
//! assert!(outcome.run.outcome().is_found());
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod service;
pub mod wire;

pub use service::{
    AnalysisService, EventKind, JobId, JobOutcome, JobSpec, ProgressEvent, ServiceClosed,
    ServiceConfig, ServiceHandle,
};
pub use wire::{serve, Catalog};
