//! The benchmark's own arithmetic: the percentile support rule, self time
//! over nested and overlapping spans, the `/proc` parsers, and the oracles
//! rejecting doctored witnesses.

use fp_runtime::{Analyzable, BranchId, ClosureProgram, FpOp, OpId, OpSite};
use mini_gsl::toy::Fig2Program;
use std::collections::BTreeSet;
use wdm_ledger::oracle;
use wdm_ledger::run::Args;
use wdm_ledger::stats::{
    median, parse_cpu_ticks, parse_vm_hwm_kib, supported_percentile, Digest, MIN_BEYOND,
};
use wdm_ledger::trace::{covered_ns, self_time_ns, self_times, Layer, Span};
use wdm_xsat::{Atom, Clause, Cnf, Expr};

#[test]
fn p90_needs_ten_samples_beyond_it() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(supported_percentile(&hundred, 90.0), Some(90.0));
    // 99 samples: the nearest-rank p90 is still 90, with only 9 above it.
    let short: Vec<f64> = (1..=99).map(f64::from).collect();
    assert_eq!(supported_percentile(&short, 90.0), None);
    // Ties at the percentile do not count as beyond it.
    let mut tied = vec![1.0; 150];
    tied.extend(std::iter::repeat_n(2.0, MIN_BEYOND - 1));
    assert_eq!(supported_percentile(&tied, 90.0), None);
    tied.push(3.0);
    assert_eq!(supported_percentile(&tied, 90.0), Some(1.0));
    // Order does not matter; degenerate inputs are refused.
    let reversed: Vec<f64> = hundred.iter().rev().copied().collect();
    assert_eq!(supported_percentile(&reversed, 90.0), Some(90.0));
    assert_eq!(supported_percentile(&[], 90.0), None);
    assert_eq!(supported_percentile(&hundred, 100.0), None);
}

#[test]
fn median_of_odd_and_even_lengths() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn self_time_counts_overlapping_children_once() {
    // Children [10,30) and [20,40) overlap; [90,120) sticks out of the span.
    let children = [(10, 30), (20, 40), (90, 120)];
    assert_eq!(covered_ns(0, 100, &children), 30 + 10);
    assert_eq!(self_time_ns(0, 100, &children, 5), 100 - 40 - 5);
    // A child nested inside another child adds nothing.
    assert_eq!(covered_ns(0, 100, &[(10, 50), (20, 30)]), 40);
    // Touching intervals merge; a child outside the span is ignored.
    assert_eq!(covered_ns(0, 100, &[(0, 10), (10, 20), (200, 300)]), 20);
    // Self time never goes negative.
    assert_eq!(self_time_ns(0, 10, &[(0, 10)], 5), 0);
}

#[test]
fn self_times_subtract_only_direct_children() {
    let span = |parent, start_ns, end_ns, leaf_ns| Span {
        layer: Layer::Boundary,
        parent,
        start_ns,
        end_ns,
        leaf_ns,
        leaf_count: 1,
    };
    let spans = [
        span(None, 0, 100, 10),
        span(Some(0), 20, 60, 0),
        // A grandchild: covered by its parent, not by the root.
        span(Some(1), 30, 50, 0),
        span(Some(0), 50, 70, 0),
    ];
    assert_eq!(self_times(&spans), vec![100 - 50 - 10, 40 - 20, 20, 20]);
}

#[test]
fn vm_hwm_is_read_in_kib() {
    let status = "Name:\tledger\nVmPeak:\t  20000 kB\nVmHWM:\t    3408 kB\nVmRSS:\t    3000 kB\n";
    assert_eq!(parse_vm_hwm_kib(status), Some(3408));
    assert_eq!(parse_vm_hwm_kib("VmRSS:\t 3000 kB\n"), None);
    assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
}

#[test]
fn cpu_ticks_skip_a_command_name_with_spaces() {
    let stat = "4242 (a ) b) R 1 4242 4242 0 -1 4194560 100 0 0 0 250 17 0 0 20 0 3 0 100 0 0";
    assert_eq!(parse_cpu_ticks(stat), Some(267));
    assert_eq!(parse_cpu_ticks("garbage"), None);
}

#[test]
fn digest_depends_on_order_and_bits() {
    let digest = |xs: &[f64]| {
        let mut d = Digest::default();
        d.floats(xs);
        d.0
    };
    assert_ne!(digest(&[1.0, 2.0]), digest(&[2.0, 1.0]));
    assert_ne!(digest(&[0.0]), digest(&[-0.0]));
    assert_eq!(digest(&[1.5, 2.5]), digest(&[1.5, 2.5]));
}

#[test]
fn every_flag_is_required_and_checked() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = Args::parse(&args(
        "--workload fpir_suite --seed 7 --seconds 2.5 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
        ("fpir_suite", 7, 2.5, true)
    );
    assert!(Args::parse(&args("--workload x --seed 7 --seconds 2")).is_err());
    assert!(Args::parse(&args("--workload x --seed 7 --seconds 0 --trace 0")).is_err());
    assert!(Args::parse(&args("--workload x --seed -1 --seconds 1 --trace 0")).is_err());
    assert!(Args::parse(&args("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
}

#[test]
fn boundary_oracle_rejects_a_doctored_witness() {
    // Site 0 of Fig. 2 is `x <= 1.0`: x = 1 sits on its boundary.
    assert!(oracle::boundary(Fig2Program::new(), BranchId(0), &[1.0]));
    let nudged = f64::from_bits(1.0f64.to_bits() + 1);
    assert!(!oracle::boundary(
        Fig2Program::new(),
        BranchId(0),
        &[nudged]
    ));
    // x = 2 puts site 1 (`y <= 4.0`) on its boundary, but not site 0.
    assert!(oracle::boundary(Fig2Program::new(), BranchId(1), &[2.0]));
    assert!(!oracle::boundary(Fig2Program::new(), BranchId(0), &[2.0]));
}

#[test]
fn path_oracle_rejects_a_doctored_witness() {
    let both_taken = vec![(BranchId(0), true), (BranchId(1), true)];
    assert!(oracle::path(Fig2Program::new(), &both_taken, &[0.0]));
    assert!(!oracle::path(Fig2Program::new(), &both_taken, &[5.0]));
}

fn square() -> impl Analyzable {
    ClosureProgram::new("square", 1, |x, ctx| {
        Some(ctx.op(0, FpOp::Mul, x[0] * x[0]))
    })
    .with_op_sites(vec![OpSite::new(0, FpOp::Mul, "x*x")])
}

#[test]
fn overflow_oracle_rejects_a_doctored_witness() {
    assert!(oracle::overflow(square(), OpId(0), &[1.0e200]));
    assert!(!oracle::overflow(square(), OpId(0), &[1.0e100]));
    // A site that never overflows on this input, and a site that never runs.
    assert!(!oracle::overflow(square(), OpId(1), &[1.0e200]));
    // Saturation at exactly MAX is in Algorithm 3's zero set.
    let at_max = ClosureProgram::new("max", 1, |x, ctx| Some(ctx.op(0, FpOp::Add, x[0] + 1.0)));
    assert!(oracle::overflow(at_max, OpId(0), &[f64::MAX]));
}

#[test]
fn coverage_oracle_rejects_a_doctored_report() {
    let suite = vec![vec![0.0]];
    let mut reported: BTreeSet<(BranchId, bool)> = [(BranchId(0), true), (BranchId(1), true)]
        .into_iter()
        .collect();
    assert!(oracle::coverage(Fig2Program::new(), &suite, &reported));
    reported.insert((BranchId(1), false));
    assert!(!oracle::coverage(Fig2Program::new(), &suite, &reported));
}

#[test]
fn xsat_oracle_rejects_a_doctored_model_and_any_unsat_answer() {
    let x = Expr::var(0);
    let four = Cnf::new(1).and(Clause::from(Atom::eq(x.clone() * x, Expr::constant(4.0))));
    assert!(oracle::xsat(&four, true, &[2.0]));
    assert!(!oracle::xsat(&four, true, &[2.000_000_000_000_000_4]));
    // A formula known to be unsat in binary64 accepts no model at all.
    assert!(!oracle::xsat(&four, false, &[2.0]));
}
