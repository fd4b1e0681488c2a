//! Drives an in-process workload through its untraced and traced runs and
//! renders the result: a human-readable table, then the one-line JSON
//! result the benchmark contract asks for.

use crate::run::{self, end_to_end, gate, metric, Args, Measurement, Metric, Suite};
use crate::stats;
use crate::trace::{self, Layer, Span};

/// A finished run, ready to print.
pub struct Output {
    /// Header lines (sample counts, passes, ...).
    pub notes: Vec<String>,
    /// End-to-end metrics of the untraced run.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics of the traced run (empty when untraced).
    pub per_layer: Vec<Metric>,
    /// Queries attempted and failed.
    pub attempted: u64,
    /// Queries that failed.
    pub failed: u64,
    /// Whether the JSON carries the per-layer metrics.
    pub traced: bool,
}

impl Output {
    /// Prints the table and, last, the JSON result line.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        println!("# end-to-end (untraced)");
        for m in &self.end_to_end {
            println!("{:<28} {:>18} {}", m.name, fmt(m.value), m.unit);
        }
        if self.traced {
            println!("# per-layer (traced)  metric value unit  -> should move");
            for m in &self.per_layer {
                println!(
                    "{:<30} {:>18} {:<6} -> {}",
                    m.name,
                    fmt(m.value),
                    m.unit,
                    m.moves
                );
            }
        }
        let shown = if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: Vec<String> = shown
            .iter()
            .filter(|m| self.traced || BOUNDED.contains(&m.name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The end-to-end metrics the JSON result carries. `error_frac` is printed
/// in the table but travels as the result's `failed`/`attempted` fields: it
/// reads 0 on a healthy run, and a bound relative to 0 means nothing.
pub const BOUNDED: [&str; 9] = [
    "setup_s",
    "verdicts_per_s",
    "verdict_ms_p50",
    "verdict_ms_p90",
    "ns_per_eval",
    "evals_per_verdict",
    "solved_frac",
    "verified_frac",
    "peak_rss_mb",
];

/// Every value with all its digits (Rust's shortest round-trip form).
fn fmt(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// Which in-process workload a report describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `native_suite`.
    Native,
    /// `fpir_suite`.
    Fpir,
}

/// Runs an in-process workload: the untraced measurement and its witness
/// checks, then (with `--trace 1`) the traced measurement, the determinism
/// gate between the two, the span dump and the per-layer metrics.
pub fn in_process<S: Suite>(
    kind: Kind,
    suite: &S,
    args: &Args,
    static_info_ms: impl Fn(&S::State) -> f64,
) -> Result<Output, String> {
    let (untraced, _) = run::measure(suite, args, false)?;
    if !untraced.rejected.is_empty() {
        return Err(format!(
            "oracle rejected {} of {} witnesses:\n  {}",
            untraced.rejected.len(),
            untraced.checked,
            untraced.rejected.join("\n  ")
        ));
    }
    let rss = stats::peak_rss_mb().ok_or("cannot read VmHWM")?;
    let e2e = end_to_end(&untraced, rss)?;
    let ms = untraced.verdict_ms();
    let evals: u64 = untraced.windows.iter().map(|w| w.evals).sum();
    let speeds: Vec<f64> = untraced.windows.iter().map(|w| w.speed).collect();
    let mut notes = vec![
        format!(
            "workload {} seed {} replicas {} windows {} query time {:.3} s, witnesses checked {}, verdict-time samples {} (beyond p90: {})",
            args.workload,
            args.seed,
            untraced.replicas,
            untraced.windows.len(),
            untraced.wall_s,
            untraced.checked,
            ms.len(),
            beyond_p90(&ms)
        ),
        format!(
            "host speed factor median {:.3} (min {:.3}, max {:.3}); uncalibrated ns_per_eval {:.2}",
            stats::median(&speeds).unwrap_or(0.0),
            speeds.iter().copied().fold(f64::INFINITY, f64::min),
            speeds.iter().copied().fold(0.0, f64::max),
            untraced.wall_s * 1e9 / evals.max(1) as f64
        ),
        format!("deterministic counts (first replicas) {:?}", untraced.counts),
    ];
    let mut per_layer = Vec::new();
    if args.trace {
        let (traced, state) = run::measure(suite, args, true)?;
        gate(&untraced.counts, &traced.counts)?;
        let path =
            std::path::PathBuf::from(format!(".ledger/spans-{}-{}.tsv", args.workload, args.seed));
        trace::write_spans(&path, &traced.spans).map_err(|e| format!("span dump: {e}"))?;
        notes.push(format!("spans written to {}", path.display()));
        per_layer = in_process_layers(kind, &untraced, &traced, static_info_ms(&state));
    }
    Ok(Output {
        notes,
        end_to_end: e2e,
        per_layer,
        attempted: untraced.attempted,
        failed: untraced.failed,
        traced: args.trace,
    })
}

fn beyond_p90(ms: &[f64]) -> usize {
    stats::supported_percentile(ms, 90.0).map_or(0, |p| ms.iter().filter(|&&x| x > p).count())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median calibrated duration (ms) of the top-level spans of `layer`.
fn layer_p50(spans: &[(&Span, u64, f64)], layer: Layer) -> f64 {
    let ms: Vec<f64> = spans
        .iter()
        .filter(|(s, ..)| s.layer == layer && s.parent.is_none())
        .map(|&(s, _, speed)| s.duration_ns() as f64 * speed / 1e6)
        .collect();
    stats::median(&ms).unwrap_or(0.0)
}

const SEARCH: &str = "ns_per_eval @ native_suite (smaller share @ fpir_suite)";
const VERDICT: &str =
    "verdict_ms_p50, verdict_ms_p90, evals_per_verdict @ native_suite, fpir_suite";
const SPECIALIZE: &str = "verdict_ms_p50 @ fpir_suite";
const FPIR_EVAL: &str = "ns_per_eval @ fpir_suite";
const SERVICE: &str = "verdict_ms_p50, verdicts_per_s @ service_tcp";
const WIRE: &str = "verdict_ms_p50, error_frac @ service_tcp";
const TRACE: &str = "(tracing cost per evaluation; moves nothing)";

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it should move.
pub const PER_LAYER: [(&str, &str, &str); 33] = [
    ("mini_gsl.exec_ns", "ns", "ns_per_eval @ native_suite"),
    ("search.overhead_ns_per_eval", "ns", SEARCH),
    ("search.overhead_share", "ratio", SEARCH),
    ("boundary.verdict_ms_p50", "ms", VERDICT),
    ("path.verdict_ms_p50", "ms", VERDICT),
    ("overflow.verdict_ms_p50", "ms", VERDICT),
    ("coverage.verdict_ms_p50", "ms", VERDICT),
    ("xsat.verdict_ms_p50", "ms", VERDICT),
    ("analysis.static_pruned", "count", VERDICT),
    ("search.unsolved_eval_share", "ratio", VERDICT),
    ("fpir.static_info_ms", "ms", "setup_s @ fpir_suite"),
    ("fpir.specialize_calls", "count", SPECIALIZE),
    ("fpir.specialize_ms", "ms", SPECIALIZE),
    ("fpir.specialize_share", "ratio", SPECIALIZE),
    ("fpir.specialize_kept_frac", "ratio", SPECIALIZE),
    ("fpir.exec_ns", "ns", FPIR_EVAL),
    ("fpir.batch_inputs_mean", "count", FPIR_EVAL),
    ("fpir.kernel_eligible_share", "ratio", FPIR_EVAL),
    ("fpir.insts_per_eval", "count", FPIR_EVAL),
    (
        "adaptive.winner_eval_share",
        "ratio",
        "evals_per_verdict @ service_tcp",
    ),
    ("service.turns", "count", SERVICE),
    ("service.checkpoints", "count", SERVICE),
    ("service.queue_ms_p50", "ms", SERVICE),
    ("service.turn_gap_ms_p50", "ms", SERVICE),
    ("service.checkpoint_bytes_mean", "bytes", SERVICE),
    ("service.objective_share", "ratio", SERVICE),
    ("wire.ping_ms_p50", "ms", WIRE),
    ("wire.submit_ms_p50", "ms", WIRE),
    ("wire.bytes_per_verdict", "bytes", WIRE),
    ("wire.error_replies", "count", WIRE),
    ("process.cpu_util", "ratio", "verdicts_per_s @ service_tcp"),
    ("trace.overhead_s", "s", TRACE),
    ("trace.overhead_frac", "ratio", TRACE),
];

/// The whole per-layer list, in catalog order, from the values a workload
/// measured: every traced run prints every metric, and a layer the
/// workload does not cross reads 0.
pub fn per_layer(measured: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in measured {
        assert!(
            PER_LAYER.iter().any(|(known, ..)| known == name),
            "{name} is not a per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit, moves)| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            metric(name, value, unit, moves)
        })
        .collect()
}

/// Per-layer metrics of an in-process workload from its traced spans.
fn in_process_layers(
    kind: Kind,
    untraced: &Measurement,
    traced: &Measurement,
    static_info_ms: f64,
) -> Vec<Metric> {
    // Every span with its self time and its window's host-speed factor:
    // timings are calibrated window by window, as the end-to-end ones are.
    let selfs = trace::self_times(&traced.spans);
    let spans: Vec<(&Span, u64, f64)> = traced
        .windows
        .iter()
        .flat_map(|w| w.spans.clone().map(|i| (i, w.speed)))
        .map(|(i, speed)| (&traced.spans[i], selfs[i], speed))
        .collect();
    let searched = |l: Layer| {
        matches!(
            l,
            Layer::Boundary | Layer::Path | Layer::Overflow | Layer::Coverage
        )
    };
    let (mut self_ns, mut span_ns, mut leaf_ns, mut leaf_n) = (0.0, 0.0, 0.0, 0u64);
    for &(s, own, speed) in &spans {
        if s.parent.is_none() && searched(s.layer) {
            self_ns += own as f64 * speed;
            span_ns += s.duration_ns() as f64 * speed;
            leaf_ns += s.leaf_ns as f64 * speed;
            leaf_n += s.leaf_count;
        }
    }
    let search_evals: u64 = traced
        .verdicts
        .iter()
        .filter(|v| searched(v.layer))
        .map(|v| v.evals)
        .sum();
    let specialize: Vec<f64> = spans
        .iter()
        .filter(|(s, ..)| s.layer == Layer::Specialize)
        .map(|&(s, _, speed)| s.duration_ns() as f64 * speed)
        .collect();
    let specialize_ns: f64 = specialize.iter().sum();
    let c = &traced.counts;
    let exec_ns = ratio(leaf_ns, leaf_n as f64);
    // Tracing overhead: the extra calibrated time per evaluation over the
    // untraced run's evaluations.
    let (plain, with_trace) = (untraced.ns_per_eval(), traced.ns_per_eval());
    let untraced_evals: u64 = untraced.windows.iter().map(|w| w.evals).sum();
    let overhead_s = (with_trace - plain) * untraced_evals as f64 / 1e9;
    let mut measured = vec![
        (
            "search.overhead_ns_per_eval",
            ratio(self_ns, search_evals as f64),
        ),
        ("search.overhead_share", ratio(self_ns, span_ns)),
        (
            "boundary.verdict_ms_p50",
            layer_p50(&spans, Layer::Boundary),
        ),
        ("path.verdict_ms_p50", layer_p50(&spans, Layer::Path)),
        (
            "overflow.verdict_ms_p50",
            layer_p50(&spans, Layer::Overflow),
        ),
        (
            "coverage.verdict_ms_p50",
            layer_p50(&spans, Layer::Coverage),
        ),
        ("xsat.verdict_ms_p50", layer_p50(&spans, Layer::Xsat)),
        ("analysis.static_pruned", c.static_pruned as f64),
        (
            "search.unsolved_eval_share",
            ratio(c.unsolved_evals as f64, c.evals as f64),
        ),
        ("process.cpu_util", traced.cpu_util),
        ("trace.overhead_s", overhead_s),
        ("trace.overhead_frac", ratio(with_trace - plain, plain)),
    ];
    match kind {
        // Native programs have no `fpir` layer (their specialize calls are
        // the default no-op).
        Kind::Native => measured.push(("mini_gsl.exec_ns", exec_ns)),
        Kind::Fpir => measured.extend([
            ("fpir.static_info_ms", static_info_ms),
            ("fpir.specialize_calls", c.specialize_calls as f64),
            (
                "fpir.specialize_ms",
                ratio(specialize_ns / 1e6, specialize.len() as f64),
            ),
            (
                "fpir.specialize_share",
                ratio(specialize_ns / 1e9, traced.calibrated_s()),
            ),
            (
                "fpir.specialize_kept_frac",
                ratio(c.specialize_kept as f64, c.specialize_calls as f64),
            ),
            ("fpir.exec_ns", exec_ns),
            (
                "fpir.batch_inputs_mean",
                ratio(c.batch_inputs as f64, c.batch_calls as f64),
            ),
            (
                "fpir.kernel_eligible_share",
                ratio(c.kernel_inputs as f64, c.executions as f64),
            ),
            ("fpir.insts_per_eval", c.insts_per_eval()),
        ]),
    }
    per_layer(&measured)
}
