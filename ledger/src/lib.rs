//! The layer-ledger benchmark of the `wdm` workspace.
//!
//! Three workloads drive the library from outside, through its public
//! entry points only, and report end-to-end verdict metrics measured
//! untraced and calibrated for the host's speed; a separate traced run
//! records spans at every layer boundary the benchmark can wrap and derives
//! per-layer metrics from them. Every verdict's witness is checked by an
//! oracle independent of the minimizer, and every deterministic count must
//! repeat exactly across passes and between the untraced and traced runs.

pub mod calib;
pub mod fpir_suite;
pub mod native;
pub mod oracle;
pub mod probe;
pub mod report;
pub mod run;
pub mod service_tcp;
pub mod stats;
pub mod trace;
