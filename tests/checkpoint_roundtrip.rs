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
//!   the bandit state (plays, reward EMAs, leadership history).

mod common;

use common::{shaped, trace_bits};
use proptest::prelude::*;
use wdm::core::adaptive::minimize_weak_distance_adaptive;
use wdm::core::driver::{AnalysisConfig, BackendKind, EscalationConfig};
use wdm::core::weak_distance::FnWeakDistance;
use wdm::core::AdaptivePortfolio;
use wdm::mo::stepped::StepStatus;
use wdm::mo::{
    BasinHopping, Bounds, CancelToken, DifferentialEvolution, FnObjective, MultiStart, Powell,
    Problem, RandomSearch, SamplingTrace, SteppedMinimizer,
};
use wdm::runtime::Interval;

fn stepped_backend(pick: usize) -> (&'static str, Box<dyn SteppedMinimizer>) {
    match pick % 5 {
        0 => ("BasinHopping", Box::new(BasinHopping::default().with_hops(10))),
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

proptest! {
    /// Escalation state round trip: with a saturating plateau threshold
    /// the detector fires on every run, so each checkpoint hop carries
    /// live escalation state — spawned-arm recipes, detector counters,
    /// pending handoffs. Restoring after every scheduler round still
    /// replays the never-paused run bit for bit, escalation arms
    /// included.
    #[test]
    fn escalation_state_survives_json_round_trips(
        seed in any::<u64>(),
        kind in any::<u8>(),
        offset in 0.25f64..64.0,
    ) {
        let wd = move || {
            FnWeakDistance::new(1, vec![Interval::symmetric(100.0)], move |x: &[f64]| {
                shaped(kind, x[0]).abs() + offset
            })
        };
        // Rewards live in [0, 1], so a threshold of 2 reads every quiet
        // stretch as a plateau: escalation is guaranteed, not workload-
        // dependent. Six rounds keep the pool above the worst-case
        // probe burn (an arm that cannot pause mid-step may spend its
        // whole per-round budget in one slice), so the detector always
        // folds with budget left to escalate into.
        let config = AnalysisConfig::quick(seed)
            .with_rounds(6)
            .with_max_evals(1_000)
            .with_escalation(
                EscalationConfig::default().with_threshold(2.0).with_patience(1),
            );
        let backends = BackendKind::all();
        let reference = minimize_weak_distance_adaptive(&wd(), &config, &backends);
        prop_assert!(
            reference.entries.len() > backends.len(),
            "the saturating threshold escalated"
        );

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
        prop_assert_eq!(resumed.entries.len(), reference.entries.len());
        for (a, b) in resumed.entries.iter().zip(&reference.entries) {
            prop_assert_eq!(a.backend, b.backend);
            common::assert_runs_identical(&a.run, &b.run, &format!("{:?}", a.backend));
        }
    }
}
