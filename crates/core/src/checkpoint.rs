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

/// Snapshot of one escalation-spawned arm's recipe: enough to rebuild
/// the arm's backend and tightened search box on restore. Floats travel
/// as bit patterns, as everywhere in this layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EscalationSpecCkpt {
    /// `"polish"` or `"restart"`.
    pub kind: String,
    /// Restart arms: the report name of the restarted backend
    /// ([`BackendKind::name`](crate::BackendKind::name)).
    pub backend: Option<String>,
    /// Polish arms: the incumbent starting point, as `f64` bits.
    pub x0: Vec<u64>,
    /// Tightened box lower limits, as `f64` bits.
    pub lo: Vec<u64>,
    /// Tightened box upper limits, as `f64` bits.
    pub hi: Vec<u64>,
}

/// Snapshot of a pending escalation handoff (see
/// [`AdaptivePortfolio::take_handoff`]).
///
/// [`AdaptivePortfolio::take_handoff`]: crate::adaptive::AdaptivePortfolio::take_handoff
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EscalationHandoffCkpt {
    /// Tightened box lower limits, as `f64` bits.
    pub lo: Vec<u64>,
    /// Tightened box upper limits, as `f64` bits.
    pub hi: Vec<u64>,
    /// The incumbent point, as `f64` bits.
    pub incumbent: Vec<u64>,
    /// Zero-based index of the escalation event that published this
    /// handoff.
    pub ordinal: usize,
}

/// Snapshot of the plateau detector and every escalation event so far.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EscalationCkpt {
    /// Consecutive below-threshold scheduler rounds observed.
    pub below: usize,
    /// Escalation events fired so far.
    pub events: usize,
    /// Arm recipes of every escalation-spawned arm, in spawn order
    /// (their analysis snapshots follow the base arms in
    /// [`AdaptiveCheckpoint::arms`]).
    pub specs: Vec<EscalationSpecCkpt>,
    /// A published handoff not yet consumed by the driving caller.
    pub handoff: Option<EscalationHandoffCkpt>,
}

/// Snapshot of a whole [`AdaptivePortfolio`]: every arm plus the
/// scheduler state. Backends and config are re-supplied on restore and
/// must match the checkpointed run (arm count is validated; the rest is
/// the caller's contract, as everywhere in the checkpoint layer).
///
/// [`AdaptivePortfolio`]: crate::adaptive::AdaptivePortfolio
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveCheckpoint {
    /// Per-arm analysis snapshots: base arms in backend order, then
    /// escalation-spawned arms in spawn order.
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
    /// Plateau-escalation state; `None` when escalation is disabled.
    pub escalation: Option<EscalationCkpt>,
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
            escalation: None,
        };
        let text = serde_json::to_string(&ckpt).expect("render");
        let back: AdaptiveCheckpoint = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, ckpt);
    }

    #[test]
    fn escalation_checkpoint_round_trips_through_json() {
        let esc = EscalationCkpt {
            below: 3,
            events: 1,
            specs: vec![
                EscalationSpecCkpt {
                    kind: "polish".to_string(),
                    backend: None,
                    x0: vec![1.5f64.to_bits(), (-0.0f64).to_bits()],
                    lo: vec![1.0f64.to_bits(), (-1.0f64).to_bits()],
                    hi: vec![2.0f64.to_bits(), 1.0f64.to_bits()],
                },
                EscalationSpecCkpt {
                    kind: "restart".to_string(),
                    backend: Some("Basinhopping".to_string()),
                    x0: Vec::new(),
                    lo: vec![1.0f64.to_bits(), f64::NEG_INFINITY.to_bits()],
                    hi: vec![2.0f64.to_bits(), f64::INFINITY.to_bits()],
                },
            ],
            handoff: Some(EscalationHandoffCkpt {
                lo: vec![1.0f64.to_bits()],
                hi: vec![2.0f64.to_bits()],
                incumbent: vec![1.5f64.to_bits()],
                ordinal: 0,
            }),
        };
        let text = serde_json::to_string(&esc).expect("render");
        let back: EscalationCkpt = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, esc);
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
