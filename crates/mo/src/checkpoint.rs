//! Serializable snapshots of resumable minimization state.
//!
//! The analysis service (`wdm_service`) persists a paused job so that a
//! killed process can restart and replay to the **bit-identical** final
//! report. That contract forces one representation choice everywhere in
//! this module: every `f64` travels as its raw IEEE-754 bit pattern
//! (`u64`), because a decimal JSON rendering cannot round-trip NaN
//! payloads, signed zeros or infinities, and even one ULP of drift in an
//! incumbent would fan out through the bandit's reward statistics.
//!
//! The checkpoint types are plain-old-data mirrors of the private state
//! machines: [`StepCheckpoint`] captures any backend's
//! [`MinimizerStep`](crate::MinimizerStep), [`EvalCkpt`] an
//! [`EvaluatorState`](crate::evaluator::EvaluatorState), [`TraceCkpt`] a
//! [`SamplingTrace`](crate::SamplingTrace) and [`RngCkpt`] a ChaCha8 RNG
//! mid-keystream. Conversions that need private fields live next to the
//! type they snapshot; everything here has public fields so higher layers
//! (the adaptive portfolio, the service) can compose them into job-level
//! checkpoints.

use crate::result::{MinimizeResult, Termination};
use rand_chacha::{ChaCha8Rng, ChaCha8State};
use serde::{DeError, Deserialize, Serialize, Value};

/// Encodes a point (or any float slice) as raw bit patterns.
pub fn bits_of(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Decodes a [`bits_of`] encoding back into floats, bit-exactly.
pub fn floats_of(bits: &[u64]) -> Vec<f64> {
    bits.iter().map(|&b| f64::from_bits(b)).collect()
}

/// Snapshot of a [`MinimizeResult`] (floats as bits).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResultCkpt {
    /// Best point, component bit patterns.
    pub x: Vec<u64>,
    /// Bit pattern of the best value.
    pub value: u64,
    /// Evaluations spent.
    pub evals: usize,
    /// Why the run stopped.
    pub termination: Termination,
}

impl ResultCkpt {
    /// Snapshots a result.
    pub fn of(r: &MinimizeResult) -> Self {
        ResultCkpt {
            x: bits_of(&r.x),
            value: r.value.to_bits(),
            evals: r.evals,
            termination: r.termination,
        }
    }

    /// Rebuilds the result, bit-exactly.
    pub fn restore(&self) -> MinimizeResult {
        MinimizeResult::new(
            floats_of(&self.x),
            f64::from_bits(self.value),
            self.evals,
            self.termination,
        )
    }
}

/// Snapshot of an [`EvaluatorState`](crate::evaluator::EvaluatorState):
/// the bookkeeping a backend carries across budget slices. Conversions are
/// on `EvaluatorState` (its fields are private).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalCkpt {
    /// Evaluations charged so far.
    pub evals: usize,
    /// Incumbent point, component bit patterns.
    pub best_x: Vec<u64>,
    /// Bit pattern of the incumbent value.
    pub best_value: u64,
    /// Whether an incumbent has been installed.
    pub has_best: bool,
    /// Whether the target value has been reached.
    pub target_hit: bool,
}

/// Snapshot of a ChaCha8 RNG mid-keystream (key, block counter, buffered
/// block and read position) — restoring continues the stream exactly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngCkpt {
    /// ChaCha key words.
    pub key: Vec<u32>,
    /// Block counter of the next block to generate.
    pub counter: u64,
    /// Buffered keystream block.
    pub block: Vec<u32>,
    /// Read position within the buffered block (16 = exhausted).
    pub index: usize,
}

impl RngCkpt {
    /// Snapshots a generator.
    pub fn of(rng: &ChaCha8Rng) -> Self {
        let s = rng.state();
        RngCkpt {
            key: s.key.to_vec(),
            counter: s.counter,
            block: s.block.to_vec(),
            index: s.index,
        }
    }

    /// Rebuilds the generator, continuing the keystream exactly. A
    /// truncated snapshot (wrong array lengths) yields `None`.
    pub fn restore(&self) -> Option<ChaCha8Rng> {
        let key: [u32; 8] = self.key.as_slice().try_into().ok()?;
        let block: [u32; 16] = self.block.as_slice().try_into().ok()?;
        Some(ChaCha8Rng::from_state(ChaCha8State {
            key,
            counter: self.counter,
            block,
            index: self.index,
        }))
    }
}

/// Snapshot of one recorded [`Sample`](crate::Sample) (floats as bits).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampleCkpt {
    /// Evaluation index within the run.
    pub index: u64,
    /// Sampled point, component bit patterns.
    pub x: Vec<u64>,
    /// Bit pattern of the objective value.
    pub value: u64,
}

/// Snapshot of a [`SamplingTrace`](crate::SamplingTrace). Conversions are
/// on `SamplingTrace` (its fields are private).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCkpt {
    /// Retained samples in evaluation order.
    pub samples: Vec<SampleCkpt>,
    /// Subsampling stride.
    pub stride: u64,
    /// Samples offered before subsampling.
    pub recorded_total: u64,
}

/// Snapshot of a paused basin-hopping run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BhCkpt {
    /// RNG stream.
    pub rng: RngCkpt,
    /// Whether the start phase (initial refinement) ran.
    pub started: bool,
    /// Hops performed.
    pub hop: usize,
    /// Current (Metropolis-accepted) local minimum.
    pub current: Option<ResultCkpt>,
    /// Best local minimum seen.
    pub best: Option<ResultCkpt>,
    /// Evaluations charged.
    pub total_evals: usize,
    /// Terminal result, if the run finished.
    pub finished: Option<ResultCkpt>,
}

/// Snapshot of a paused Differential Evolution run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeCkpt {
    /// RNG stream.
    pub rng: RngCkpt,
    /// Evaluator bookkeeping.
    pub ev: EvalCkpt,
    /// Population members, component bit patterns.
    pub pop: Vec<Vec<u64>>,
    /// Population values, bit patterns.
    pub values: Vec<u64>,
    /// Generations completed.
    pub generation: usize,
    /// Whether the initial population was evaluated.
    pub initialized: bool,
    /// Terminal result, if the run finished.
    pub finished: Option<ResultCkpt>,
}

/// Snapshot of a paused multi-start run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MsCkpt {
    /// Pre-generated starting points, component bit patterns.
    pub starts: Vec<Vec<u64>>,
    /// Cursor into the starting points.
    pub next: usize,
    /// Incumbent local result.
    pub best: Option<ResultCkpt>,
    /// Evaluations charged.
    pub total_evals: usize,
    /// Terminal result, if the run finished.
    pub finished: Option<ResultCkpt>,
}

/// Snapshot of a paused random-search run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RsCkpt {
    /// RNG stream.
    pub rng: RngCkpt,
    /// Evaluator bookkeeping.
    pub ev: EvalCkpt,
    /// Sample limit of this run.
    pub limit: usize,
    /// Samples drawn so far.
    pub done: usize,
    /// Terminal result, if the run finished.
    pub finished: Option<ResultCkpt>,
}

/// Snapshot of a paused Powell run (between outer conjugate-direction
/// iterations).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PwCkpt {
    /// Whether the initial evaluation at the start point ran.
    pub started: bool,
    /// Current direction set, component bit patterns.
    pub dirs: Vec<Vec<u64>>,
    /// Current point, component bit patterns.
    pub x: Vec<u64>,
    /// Bit pattern of the value at the current point.
    pub fx: u64,
    /// Outer iterations completed.
    pub iter: usize,
    /// Evaluator bookkeeping.
    pub ev: EvalCkpt,
    /// Terminal result, if the run finished.
    pub finished: Option<ResultCkpt>,
}

/// A serializable snapshot of any backend's paused
/// [`MinimizerStep`](crate::MinimizerStep).
///
/// Backend *configuration* is deliberately not captured: a checkpoint is
/// restored through the same [`SteppedMinimizer`](crate::SteppedMinimizer)
/// instance that started the run
/// ([`SteppedMinimizer::restore`](crate::SteppedMinimizer::restore)), which
/// re-supplies the configuration — exactly as every `step` call re-supplies
/// the problem. Serialized form is externally tagged:
/// `{"backend": "bh", "state": {...}}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepCheckpoint {
    /// Basin hopping.
    BasinHopping(BhCkpt),
    /// Differential Evolution.
    DiffEvo(DeCkpt),
    /// Multi-start.
    MultiStart(MsCkpt),
    /// Random search.
    RandomSearch(RsCkpt),
    /// Powell.
    Powell(PwCkpt),
}

impl StepCheckpoint {
    fn tag(&self) -> &'static str {
        match self {
            StepCheckpoint::BasinHopping(_) => "bh",
            StepCheckpoint::DiffEvo(_) => "de",
            StepCheckpoint::MultiStart(_) => "ms",
            StepCheckpoint::RandomSearch(_) => "rs",
            StepCheckpoint::Powell(_) => "powell",
        }
    }
}

impl Serialize for StepCheckpoint {
    fn to_value(&self) -> Value {
        let state = match self {
            StepCheckpoint::BasinHopping(c) => c.to_value(),
            StepCheckpoint::DiffEvo(c) => c.to_value(),
            StepCheckpoint::MultiStart(c) => c.to_value(),
            StepCheckpoint::RandomSearch(c) => c.to_value(),
            StepCheckpoint::Powell(c) => c.to_value(),
        };
        Value::Object(vec![
            ("backend".to_string(), Value::Str(self.tag().to_string())),
            ("state".to_string(), state),
        ])
    }
}

impl Deserialize for StepCheckpoint {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let tag = String::from_value(value.field("backend"))
            .map_err(|e| DeError(format!("StepCheckpoint.backend: {}", e.0)))?;
        let state = value.field("state");
        match tag.as_str() {
            "bh" => BhCkpt::from_value(state).map(StepCheckpoint::BasinHopping),
            "de" => DeCkpt::from_value(state).map(StepCheckpoint::DiffEvo),
            "ms" => MsCkpt::from_value(state).map(StepCheckpoint::MultiStart),
            "rs" => RsCkpt::from_value(state).map(StepCheckpoint::RandomSearch),
            "powell" => PwCkpt::from_value(state).map(StepCheckpoint::Powell),
            other => Err(DeError(format!("unknown StepCheckpoint backend {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use rand::SeedableRng;

    #[test]
    fn bits_round_trip_non_finite_floats() {
        let xs = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5e-308,
        ];
        let back = floats_of(&bits_of(&xs));
        for (a, b) in xs.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn result_ckpt_survives_json() {
        let r = MinimizeResult::new(
            vec![f64::NAN, -0.0, 3.25],
            f64::NEG_INFINITY,
            42,
            Termination::TargetReached,
        );
        let text = serde_json::to_string(&ResultCkpt::of(&r)).expect("render");
        let back: ResultCkpt = serde_json::from_str(&text).expect("parse");
        let restored = back.restore();
        assert_eq!(bits_of(&restored.x), bits_of(&r.x));
        assert_eq!(restored.value.to_bits(), r.value.to_bits());
        assert_eq!(restored.evals, r.evals);
        assert_eq!(restored.termination, r.termination);
    }

    #[test]
    fn rng_ckpt_continues_the_keystream() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..11 {
            rng.next_u32();
        }
        let ckpt = RngCkpt::of(&rng);
        let text = serde_json::to_string(&ckpt).expect("render");
        let back: RngCkpt = serde_json::from_str(&text).expect("parse");
        let mut resumed = back.restore().expect("well-formed");
        for _ in 0..40 {
            assert_eq!(rng.next_u64(), resumed.next_u64());
        }
    }

    #[test]
    fn rng_ckpt_rejects_truncated_snapshots() {
        let rng = ChaCha8Rng::seed_from_u64(5);
        let mut ckpt = RngCkpt::of(&rng);
        ckpt.key.pop();
        assert!(ckpt.restore().is_none());
    }

    #[test]
    fn step_checkpoint_tagging_round_trips() {
        let ckpt = StepCheckpoint::RandomSearch(RsCkpt {
            rng: RngCkpt::of(&ChaCha8Rng::seed_from_u64(1)),
            ev: EvalCkpt {
                evals: 3,
                best_x: vec![1.0f64.to_bits()],
                best_value: 0.5f64.to_bits(),
                has_best: true,
                target_hit: false,
            },
            limit: 100,
            done: 3,
            finished: None,
        });
        let text = serde_json::to_string(&ckpt).expect("render");
        assert!(text.contains("\"backend\":\"rs\""));
        let back: StepCheckpoint = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, ckpt);
        let bad = "{\"backend\":\"nope\",\"state\":{}}";
        assert!(serde_json::from_str::<StepCheckpoint>(bad).is_err());
    }
}
