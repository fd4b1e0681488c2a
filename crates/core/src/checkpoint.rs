//! Serializable snapshots of the adaptive-portfolio layer.
//!
//! These are the analysis-level counterparts of
//! [`wdm_mo::checkpoint`]: plain data structs with derived serde
//! implementations that capture everything above the backend state
//! machines — the restart loop's merge state
//! ([`AnalysisCheckpoint`]) and the bandit scheduler's statistics
//! ([`AdaptiveCheckpoint`]). Together with the backend [`StepCheckpoint`]
//! they make a whole adaptive run durable: serialize, kill the process,
//! restore, and the continuation is bit-identical to a run that never
//! stopped.
//!
//! As in the backend layer, every `f64` travels as its IEEE-754 bit
//! pattern (`u64`), because JSON round-trips of decimal floats are not
//! bit-exact and non-finite values do not render at all.

use serde::{Deserialize, Serialize};
use wdm_mo::checkpoint::{ResultCkpt, TraceCkpt};
use wdm_mo::StepCheckpoint;

/// The active (paused mid-round) part of a [`SteppedAnalysis`]
/// checkpoint: the backend state machine plus the round's sampling
/// trace, if recording.
///
/// [`SteppedAnalysis`]: crate::adaptive::SteppedAnalysis
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActiveCkpt {
    /// The paused backend state machine.
    pub step: StepCheckpoint,
    /// The per-round sampling trace (present iff the config records
    /// samples).
    pub trace: Option<TraceCkpt>,
}

/// Snapshot of one [`SteppedAnalysis`](crate::adaptive::SteppedAnalysis):
/// the restart loop's position and incremental merge. The
/// [`AnalysisConfig`](crate::driver::AnalysisConfig) is *not* stored —
/// restoring re-supplies it, exactly as backend configs are re-supplied
/// to [`SteppedMinimizer::restore`](wdm_mo::SteppedMinimizer::restore).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisCheckpoint {
    /// Completed-round counter.
    pub round: usize,
    /// The paused active round, if any.
    pub active: Option<ActiveCkpt>,
    /// Best merged result so far.
    pub best: Option<ResultCkpt>,
    /// Evaluations charged by completed rounds.
    pub total_evals: usize,
    /// The merged sampling trace.
    pub trace: TraceCkpt,
    /// Whether some round reached zero.
    pub hit: bool,
    /// Whether the analysis is finished.
    pub finished: bool,
}

/// Snapshot of one bandit arm's statistics, floats as bit patterns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArmStatsCkpt {
    /// `plays` (rounds led) as `f64` bits.
    pub plays: u64,
    /// Recency-weighted mean reward as `f64` bits.
    pub mean_reward: u64,
    /// Whether any slice has seeded the average.
    pub seen: bool,
}

/// Snapshot of a whole [`AdaptivePortfolio`]: every arm plus the
/// scheduler state. Backends and config are re-supplied on restore and
/// must match the checkpointed run (arm count is validated; the rest is
/// the caller's contract, as everywhere in the checkpoint layer).
///
/// [`AdaptivePortfolio`]: crate::adaptive::AdaptivePortfolio
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveCheckpoint {
    /// Per-arm analysis snapshots, in backend order.
    pub arms: Vec<AnalysisCheckpoint>,
    /// Per-arm bandit statistics, in arm order.
    pub stats: Vec<ArmStatsCkpt>,
    /// Evaluations drawn from the shared pool so far.
    pub spent: usize,
    /// Whether some arm has found a zero.
    pub found: bool,
    /// Scheduler round counter (the UCB `t`).
    pub t: u64,
    /// The most recent round's leader arm, for progress reporting.
    pub last_leader: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_checkpoint_round_trips_through_json() {
        let ckpt = AdaptiveCheckpoint {
            arms: vec![AnalysisCheckpoint {
                round: 2,
                active: None,
                best: None,
                total_evals: 1234,
                trace: TraceCkpt {
                    samples: Vec::new(),
                    stride: 3,
                    recorded_total: 9,
                },
                hit: false,
                finished: false,
            }],
            stats: vec![ArmStatsCkpt {
                plays: 4.0f64.to_bits(),
                mean_reward: 0.1875f64.to_bits(),
                seen: true,
            }],
            spent: 4321,
            found: false,
            t: 7,
            last_leader: Some(0),
        };
        let text = serde_json::to_string(&ckpt).expect("render");
        let back: AdaptiveCheckpoint = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, ckpt);
    }

    #[test]
    fn arm_stats_bits_survive_non_finite_values() {
        let stats = ArmStatsCkpt {
            plays: f64::INFINITY.to_bits(),
            mean_reward: f64::NAN.to_bits(),
            seen: false,
        };
        let text = serde_json::to_string(&stats).expect("render");
        let back: ArmStatsCkpt = serde_json::from_str(&text).expect("parse");
        assert!(f64::from_bits(back.plays).is_infinite());
        assert!(f64::from_bits(back.mean_reward).is_nan());
    }
}
