//! Campaign report merging is a commutative, associative reduction:
//! shards of a suite run anywhere (different machines, different days)
//! combine into one report whose JSON rendering does not depend on how
//! the merges were ordered or parenthesized. The aggregates are
//! recomputed from the sorted job list on every merge — including the
//! floating-point `cpu_seconds` sum, whose summation order is pinned to
//! the sorted order — so the guarantee is bit-exact, not approximate.

use proptest::prelude::*;
use wdm::core::{derive_round_seed, AnalysisConfig, BackendKind};
use wdm::engine::{gsl_portfolio_suite, CampaignReport, JobReport, JobResult};

/// Deterministic synthetic report: `jobs` jobs derived from `seed`, with
/// deliberately colliding names (4-name pool) so the merge order has to
/// break ties on the full job content.
fn synth_report(seed: u64, jobs: usize) -> CampaignReport {
    const NAMES: [&str; 4] = [
        "boundary/fig2",
        "boundary/glibc_sin/k0",
        "overflow/airy",
        "portfolio/eq_zero",
    ];
    let mut reports = Vec::new();
    for i in 0..jobs {
        let h = |salt: u64| derive_round_seed(seed, salt.wrapping_mul(97).wrapping_add(i as u64));
        let total = (h(1) % 4 + 1) as usize;
        reports.push(JobReport {
            result: JobResult {
                job: NAMES[h(0) as usize % NAMES.len()].to_string(),
                analysis: if h(2) % 2 == 0 { "boundary" } else { "overflow" }.to_string(),
                program: format!("prog-{}", h(3) % 3),
                found: h(4) as usize % (total + 1),
                total,
                best_value: (h(5) % 10_000) as f64 / 7.0,
                evals: (h(6) % 50_000) as usize,
                static_pruned: (h(7) % 3) as usize,
            },
            seconds: (h(8) % 1_000) as f64 / 13.0,
        });
    }
    let wall = reports.iter().map(|j| j.seconds).fold(0.0, f64::max);
    let threads = (seed % 8 + 1) as usize;
    // Build through merge-with-empty so aggregates are consistent with
    // the merge reduction itself.
    CampaignReport {
        threads,
        wall_seconds: wall,
        cpu_seconds: 0.0,
        total_evals: 0,
        jobs_fully_solved: 0,
        jobs: Vec::new(),
    }
    .merge(CampaignReport {
        threads,
        wall_seconds: wall,
        cpu_seconds: 0.0,
        total_evals: 0,
        jobs_fully_solved: 0,
        jobs: reports,
    })
}

fn json(report: &CampaignReport) -> String {
    serde_json::to_string(report).expect("campaign reports serialize")
}

proptest! {
    /// Satellite property: merging is associative and order-insensitive
    /// down to the serialized JSON, for any shard contents and sizes
    /// (including empty shards and duplicate job names).
    #[test]
    fn report_merge_is_associative_and_order_insensitive(
        seed in any::<u64>(),
        na in 0usize..6,
        nb in 0usize..6,
        nc in 0usize..6,
    ) {
        let a = || synth_report(seed, na);
        let b = || synth_report(derive_round_seed(seed, 0xB), nb);
        let c = || synth_report(derive_round_seed(seed, 0xC), nc);

        // Commutativity.
        prop_assert_eq!(json(&a().merge(b())), json(&b().merge(a())));
        // Associativity.
        let left = a().merge(b()).merge(c());
        let right = a().merge(b().merge(c()));
        prop_assert_eq!(json(&left), json(&right));
        // Full order-insensitivity: a reversed fold gives the same JSON.
        let reversed = c().merge(b()).merge(a());
        prop_assert_eq!(json(&left), json(&reversed));

        // The merge loses nothing and recomputes aggregates exactly.
        prop_assert_eq!(left.jobs.len(), na + nb + nc);
        let evals: usize = [a(), b(), c()].iter().map(|r| r.total_evals).sum();
        prop_assert_eq!(left.total_evals, evals);
        let solved: usize = [a(), b(), c()].iter().map(|r| r.jobs_fully_solved).sum();
        prop_assert_eq!(left.jobs_fully_solved, solved);
    }
}

/// Merging real suite reports: two adaptive portfolio shards (different
/// campaign seeds, so distinct deterministic content) combine into one
/// report carrying every job of both, with exact aggregate sums.
#[test]
fn real_suite_reports_merge_losslessly() {
    let backends = [BackendKind::BasinHopping, BackendKind::RandomSearch];
    let config = |seed| {
        AnalysisConfig::quick(seed)
            .with_rounds(1)
            .with_max_evals(1_500)
    };
    let first = gsl_portfolio_suite(&config(3), &backends).run(2);
    let second = gsl_portfolio_suite(&config(4), &backends).run(2);
    let evals = first.total_evals + second.total_evals;

    let merged = first.clone().merge(second.clone());
    assert_eq!(merged.jobs.len(), first.jobs.len() + second.jobs.len());
    assert_eq!(merged.total_evals, evals);
    assert_eq!(json(&merged), json(&second.merge(first)));
    let mut names: Vec<&str> = merged.jobs.iter().map(|j| j.result.job.as_str()).collect();
    let sorted = names.clone();
    names.sort_unstable();
    assert_eq!(names, sorted, "merged jobs arrive sorted by name");
}
