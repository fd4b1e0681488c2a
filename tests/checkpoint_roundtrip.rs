//! Serde round-trip coverage for every resumable state: a run that is
//! paused, serialized to JSON, parsed back, restored and continued is
//! bit-identical to the run that never paused. This is the durability
//! contract the analysis service builds on — a checkpoint that survives
//! a byte-level round trip is exactly as good as the live state.
//!
//! Covered states, each through real JSON text (not just `Value`s):
//!
//! * every stepped backend's paused-run snapshot (`StepCheckpoint`),
//!   which embeds the evaluator state, the RNG stream and the incumbent;
//! * the sampling trace (`TraceCkpt`), round-tripped at the same pause;
//! * the adaptive portfolio snapshot (`AdaptiveCheckpoint`), which adds
//!   the bandit state (plays, reward EMAs, leadership history), including
//!   files that still carry the retired plateau detector's key.

mod common;

use common::{shaped, trace_bits};
use proptest::prelude::*;
use wdm::core::adaptive::minimize_weak_distance_adaptive;
use wdm::core::driver::{AnalysisConfig, BackendKind};
use wdm::core::weak_distance::FnWeakDistance;
use wdm::core::{AdaptiveCheckpoint, AdaptivePortfolio, WeakDistance};
use wdm::mo::stepped::StepStatus;
use wdm::mo::{
    BasinHopping, Bounds, CancelToken, DifferentialEvolution, FnObjective, MultiStart, Powell,
    Problem, RandomSearch, SamplingTrace, SteppedMinimizer,
};
use wdm::runtime::Interval;

fn stepped_backend(pick: usize) -> (&'static str, Box<dyn SteppedMinimizer>) {
    match pick % 5 {
        0 => (
            "BasinHopping",
            Box::new(BasinHopping::default().with_hops(10)),
        ),
        1 => (
            "DifferentialEvolution",
            Box::new(DifferentialEvolution::default().with_max_generations(20)),
        ),
        2 => ("MultiStart", Box::new(MultiStart::default().with_starts(6))),
        3 => ("Powell", Box::new(Powell::default())),
        _ => ("RandomSearch", Box::new(RandomSearch::new())),
    }
}

proptest! {
    /// Backend state round trip: at every pause the run is serialized to
    /// JSON, dropped, re-parsed, restored (trace included) and continued.
    /// The final result, eval count and trace match the straight-through
    /// sliced run bit for bit.
    #[test]
    fn stepped_state_survives_json_round_trips(
        seed in any::<u64>(),
        pick in 0usize..5,
        kind in any::<u8>(),
        max_evals in 300usize..1_500,
        slice in 37usize..400,
    ) {
        let (name, backend) = stepped_backend(pick);
        let f = FnObjective::new(1, move |x: &[f64]| shaped(kind, x[0]));
        let problem = Problem::new(&f, Bounds::symmetric(1, 1.0e3)).with_max_evals(max_evals);

        let mut straight_trace = SamplingTrace::new();
        let mut straight = backend.start(&problem, seed);
        while straight.step(&problem, slice, &mut straight_trace) == StepStatus::Paused {}

        let mut trace = SamplingTrace::new();
        let mut run = backend.start(&problem, seed);
        let mut hops = 0usize;
        while run.step(&problem, slice, &mut trace) == StepStatus::Paused {
            let step_json =
                serde_json::to_string(&run.checkpoint()).expect("render step checkpoint");
            let trace_json =
                serde_json::to_string(&trace.checkpoint()).expect("render trace checkpoint");
            drop(run);
            let step_ckpt = serde_json::from_str(&step_json).expect("parse step checkpoint");
            let trace_ckpt = serde_json::from_str(&trace_json).expect("parse trace checkpoint");
            run = backend
                .restore(&problem, &step_ckpt)
                .expect("restore own checkpoint");
            trace = SamplingTrace::from_checkpoint(&trace_ckpt);
            hops += 1;
            prop_assert!(hops < 10_000, "{name}: runaway stepping");
        }

        prop_assert!(run.is_finished());
        common::assert_results_identical(&run.result(), &straight.result(), name);
        prop_assert_eq!(run.evals(), straight.evals());
        prop_assert_eq!(trace_bits(&trace), trace_bits(&straight_trace));
    }
}

proptest! {
    /// Bandit state round trip: an adaptive portfolio is serialized to
    /// JSON after every scheduler round, re-parsed and restored, and the
    /// terminal report (winner, per-arm outcomes, eval accounting) equals
    /// the never-paused run's bit for bit.
    #[test]
    fn adaptive_bandit_state_survives_json_round_trips(
        seed in any::<u64>(),
        kind in any::<u8>(),
        offset in 0.25f64..64.0,
    ) {
        let wd = move || {
            FnWeakDistance::new(1, vec![Interval::symmetric(100.0)], move |x: &[f64]| {
                shaped(kind, x[0]).abs() + offset
            })
        };
        let config = AnalysisConfig::quick(seed).with_rounds(1).with_max_evals(1_200);
        let backends = BackendKind::all();
        let reference = minimize_weak_distance_adaptive(&wd(), &config, &backends);

        let objective = wd();
        let cancel = CancelToken::new();
        let mut portfolio = AdaptivePortfolio::new(&objective, &config, &backends, &cancel);
        let mut rounds = 0usize;
        while portfolio.round(1) {
            let json = serde_json::to_string(&portfolio.checkpoint())
                .expect("render portfolio checkpoint");
            drop(portfolio);
            let ckpt = serde_json::from_str(&json).expect("parse portfolio checkpoint");
            portfolio = AdaptivePortfolio::restore(&objective, &config, &backends, &cancel, &ckpt)
                .expect("restore own checkpoint");
            rounds += 1;
            prop_assert!(rounds < 10_000, "runaway scheduling");
        }
        portfolio.finalize();
        let resumed = portfolio.into_run();

        prop_assert_eq!(resumed.winner, reference.winner);
        for (a, b) in resumed.entries.iter().zip(&reference.entries) {
            prop_assert_eq!(a.backend, b.backend);
            common::assert_runs_identical(&a.run, &b.run, &format!("{:?}", a.backend));
        }
    }
}

/// A zero-free objective, so a portfolio on it spends its whole pool.
fn zero_free() -> impl WeakDistance {
    FnWeakDistance::new(1, vec![Interval::symmetric(100.0)], |x: &[f64]| {
        x[0].abs() + 0.5
    })
}

/// Portfolio checkpoints used to end in a null key that held the state of
/// the plateau detector, since retired. Such a file still restores, the
/// key is dropped, and the run replays bit for bit.
#[test]
fn a_checkpoint_with_the_retired_plateau_key_restores_and_replays() {
    let wd = zero_free();
    let config = AnalysisConfig::quick(31)
        .with_rounds(2)
        .with_max_evals(2_000);
    let backends = BackendKind::all();
    let reference = minimize_weak_distance_adaptive(&wd, &config, &backends);

    let cancel = CancelToken::new();
    let mut portfolio = AdaptivePortfolio::new(&wd, &config, &backends, &cancel);
    for _ in 0..3 {
        assert!(portfolio.round(1), "the pool outlasts three rounds");
    }
    let text = serde_json::to_string(&portfolio.checkpoint()).expect("render");
    drop(portfolio);
    let body = text.strip_suffix('}').expect("a JSON object");
    let old = format!("{body},\"escalation\":null}}");
    let ckpt: AdaptiveCheckpoint = serde_json::from_str(&old).expect("parse");
    assert_eq!(serde_json::to_string(&ckpt).expect("render"), text);

    let mut portfolio = AdaptivePortfolio::restore(&wd, &config, &backends, &cancel, &ckpt)
        .expect("restore a checkpoint with the retired key");
    while portfolio.round(1) {}
    portfolio.finalize();
    let resumed = portfolio.into_run();
    assert_eq!(resumed.winner, reference.winner);
    assert_eq!(resumed.entries.len(), reference.entries.len());
    for (a, b) in resumed.entries.iter().zip(&reference.entries) {
        assert_eq!(a.backend, b.backend);
        common::assert_runs_identical(&a.run, &b.run, &format!("{:?}", a.backend));
    }
}

/// A checkpoint with more arms than backends (the retired plateau
/// detector added arms mid-run) is rejected, not restored in part.
#[test]
fn a_checkpoint_with_more_arms_than_backends_is_rejected() {
    let wd = zero_free();
    let config = AnalysisConfig::quick(37)
        .with_rounds(2)
        .with_max_evals(2_000);
    let backends = [BackendKind::RandomSearch, BackendKind::BasinHopping];
    let cancel = CancelToken::new();
    let mut portfolio = AdaptivePortfolio::new(&wd, &config, &backends, &cancel);
    assert!(portfolio.round(1));
    let ckpt = portfolio.checkpoint();
    let mut extra = ckpt.clone();
    extra.arms.push(extra.arms[0].clone());
    extra.stats.push(extra.stats[0].clone());
    assert!(AdaptivePortfolio::restore(&wd, &config, &backends, &cancel, &extra).is_none());
    // The checkpoint it was grown from still restores.
    assert!(AdaptivePortfolio::restore(&wd, &config, &backends, &cancel, &ckpt).is_some());
}
