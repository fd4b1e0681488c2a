//! Determinism of the parallel execution engine: the analysis outcome must
//! be bit-identical for every thread count — parallelism is purely a
//! wall-clock knob.
//!
//! The CI matrix runs this suite under `WDM_TEST_THREADS=1` and `=8`; the
//! variable adds that thread count to the ones checked here, so both legs
//! exercise the exact comparison from different schedulings.

mod common;

use common::thread_counts;
use proptest::prelude::*;
use wdm::core::boundary::BoundaryAnalysis;
use wdm::core::driver::{derive_round_seed, minimize_weak_distance, AnalysisConfig};
use wdm::core::weak_distance::FnWeakDistance;
use wdm::engine::gsl_suite;
use wdm::gsl::toy::Fig2Program;
use wdm::runtime::Interval;

#[test]
fn sharded_outcome_is_identical_at_thread_counts_1_2_8() {
    // Zero-free distance: every round runs, so the merge covers all shards.
    let wd = FnWeakDistance::new(1, vec![Interval::symmetric(1.0e3)], |x: &[f64]| {
        (x[0] - 2.0).abs() + 0.125
    });
    let base = AnalysisConfig::quick(17)
        .with_rounds(8)
        .with_max_evals(3_000);
    let reference = minimize_weak_distance(&wd, &base);
    for threads in thread_counts() {
        let run = minimize_weak_distance(&wd, &base.clone().with_parallelism(threads));
        assert_eq!(run.outcome, reference.outcome, "threads = {threads}");
        assert_eq!(run.best, reference.best, "threads = {threads}");
    }
}

#[test]
fn sharded_outcome_with_early_hit_is_identical_at_any_thread_count() {
    // A solvable analysis: some round hits zero, later shards are cancelled
    // speculation — the merge must still charge exactly the sequential
    // prefix.
    let analysis = BoundaryAnalysis::new(Fig2Program::new());
    let base = AnalysisConfig::quick(23).with_rounds(6);
    let reference = analysis.find_any(&base);
    assert!(reference.is_found());
    for threads in thread_counts() {
        let outcome = analysis.find_any(&base.clone().with_parallelism(threads));
        assert_eq!(outcome, reference, "threads = {threads}");
    }
}

#[test]
fn campaign_results_are_identical_at_thread_counts_1_2_8() {
    let config = AnalysisConfig::quick(29)
        .with_rounds(1)
        .with_max_evals(1_500);
    let reference = gsl_suite(&config).run(1).deterministic_results();
    for threads in thread_counts() {
        let results = gsl_suite(&config).run(threads).deterministic_results();
        assert_eq!(results, reference, "threads = {threads}");
    }
}

proptest! {
    /// Per-shard seed derivation never collides across shard indices for
    /// the same root seed (SplitMix-style bijective mix: distinct inputs,
    /// distinct outputs).
    #[test]
    fn derived_seeds_never_collide_across_shards(
        root in any::<u64>(),
        a in 0usize..4_096,
        b in 0usize..4_096,
    ) {
        prop_assume!(a != b);
        prop_assert_ne!(
            derive_round_seed(root, a as u64),
            derive_round_seed(root, b as u64)
        );
    }

    /// Seed derivation is a pure function of (root, shard) — independent of
    /// call order or scheduling.
    #[test]
    fn derived_seeds_are_pure(root in any::<u64>(), shard in any::<u64>()) {
        prop_assert_eq!(derive_round_seed(root, shard), derive_round_seed(root, shard));
    }
}
