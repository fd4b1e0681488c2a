//! Shared test support for the workspace-level equivalence and determinism
//! suites: deterministic point/module builders, seeded configurations, and
//! the bitwise outcome-comparison helpers that every equivalence test
//! repeats.
//!
//! Cargo compiles this module into each integration test that declares
//! `mod common;` — not as a test target of its own — so helpers unused by
//! one suite are expected.
#![allow(dead_code)]

use wdm::core::driver::MinimizationRun;
use wdm::ir::{instrument, programs, Module, ModuleProgram};
use wdm::mo::evaluator::Evaluator;
use wdm::mo::{MinimizeResult, Problem, SamplingTrace};
use wdm::runtime::Interval;

/// A small family of deterministic 1-D objectives indexed by `kind`; the
/// NaN and overflow cases keep the non-finite paths honest.
pub fn shaped(kind: u8, x: f64) -> f64 {
    match kind % 5 {
        0 => (x - 3.0).abs(),
        1 => x * x - 2.0 * x,
        2 => (x * 1.0e160) * (x * 1.0e160), // overflows to inf away from 0
        3 => {
            if x.abs() < 0.5 {
                f64::NAN
            } else {
                x.abs()
            }
        }
        _ => (x * 0.7).sin() + 1.0,
    }
}

/// The SplitMix-style unit mix behind the deterministic point sets.
fn unit_mix(seed: u64, i: usize) -> f64 {
    let mix = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (mix >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic pseudo-random 1-D point set spanning `[-2r, 2r]` (some
/// points out of bounds, so clamping is exercised).
pub fn points_in_radius(seed: u64, n: usize, radius: f64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![(unit_mix(seed, i) * 4.0 - 2.0) * radius])
        .collect()
}

/// The module-suite point set: mostly near the interesting region,
/// occasionally far out.
pub fn suite_points(seed: u64, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let scale = if i % 7 == 0 { 1.0e4 } else { 8.0 };
            vec![(unit_mix(seed, i) * 2.0 - 1.0) * scale]
        })
        .collect()
}

/// Thread counts under test: 1, 2, 8 plus the CI matrix's
/// `WDM_TEST_THREADS`.
pub fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 8];
    if let Some(extra) = std::env::var("WDM_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        if !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

/// The CI matrix's thread count, defaulting to 2 outside the matrix.
pub fn matrix_threads() -> usize {
    std::env::var("WDM_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// The fpir module suite: divergent (fig2, fig1b, eq_zero) and
/// straight-line (horner) programs, plus instrumented `W` modules whose
/// entry calls the original program (exercising the kernel's per-lane
/// call fallback).
pub fn module_suite() -> Vec<(&'static str, Module, &'static str)> {
    use std::collections::BTreeSet;
    let fig2 = programs::fig2_program();
    let entry = fig2.function_by_name("prog").unwrap();
    let w_boundary = instrument::instrument_boundary(&fig2, entry);
    let w_overflow = instrument::instrument_overflow(&fig2, entry, &BTreeSet::new());
    vec![
        ("fig2", programs::fig2_program(), "prog"),
        ("fig1b", programs::fig1b_program(), "prog"),
        ("eq_zero", programs::eq_zero_program(), "prog"),
        ("horner24", programs::horner_program(24), "prog"),
        ("W_boundary(fig2)", w_boundary, instrument::W_FUNCTION),
        ("W_overflow(fig2)", w_overflow, instrument::W_FUNCTION),
    ]
}

/// A [`ModuleProgram`] over `module`'s `entry` with the standard ±1e6
/// search domain per parameter.
pub fn program(module: &Module, entry: &str) -> ModuleProgram {
    ModuleProgram::new(module.clone(), entry)
        .expect("entry exists")
        .with_domain(vec![
            Interval::symmetric(1.0e6);
            {
                let id = module.function_by_name(entry).unwrap();
                module.function(id).num_params
            }
        ])
}

/// Bit patterns of a value slice (NaN-safe equality).
pub fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A `SamplingTrace` rendered NaN-safe for equality: `Sample`'s derived
/// `PartialEq` would treat bit-identical NaN values as unequal.
pub fn trace_bits(trace: &SamplingTrace) -> Vec<(u64, Vec<u64>, u64)> {
    trace
        .samples()
        .iter()
        .map(|s| (s.index, bits(&s.x), s.value.to_bits()))
        .collect()
}

/// Runs the canonical scalar post-check loop every backend follows,
/// returning (values, evals, best, trace) — the reference the batched and
/// stepped paths must reproduce bit for bit.
pub fn scalar_reference(
    problem: &Problem<'_>,
    xs: &[Vec<f64>],
) -> (Vec<f64>, usize, (Vec<f64>, f64), SamplingTrace) {
    let mut trace = SamplingTrace::new();
    let mut ev = Evaluator::new(problem, &mut trace);
    let mut values = Vec::new();
    for x in xs {
        values.push(ev.eval(x));
        if ev.should_stop() {
            break;
        }
    }
    let evals = ev.evals();
    let best = ev.best();
    (values, evals, best, trace)
}

/// Asserts two backend results are bit-identical (point, value, count,
/// termination).
pub fn assert_results_identical(actual: &MinimizeResult, expected: &MinimizeResult, what: &str) {
    assert_eq!(bits(&actual.x), bits(&expected.x), "{what}: best point");
    assert_eq!(
        actual.value.to_bits(),
        expected.value.to_bits(),
        "{what}: best value"
    );
    assert_eq!(actual.evals, expected.evals, "{what}: eval count");
    assert_eq!(
        actual.termination, expected.termination,
        "{what}: termination"
    );
}

/// Asserts two driver runs are bit-identical (outcome, best result,
/// recorded trace).
pub fn assert_runs_identical(actual: &MinimizationRun, expected: &MinimizationRun, what: &str) {
    assert_eq!(actual.outcome, expected.outcome, "{what}: outcome");
    assert_results_identical(&actual.best, &expected.best, what);
    assert_eq!(
        trace_bits(&actual.trace),
        trace_bits(&expected.trace),
        "{what}: sampling trace"
    );
}
