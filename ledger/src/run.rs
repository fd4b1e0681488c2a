//! What every workload shares: the command line, the verdict record, the
//! deterministic pass counts, the timed pass loop of the in-process
//! workloads, and the metrics they report.

use crate::calib;
use crate::probe::Meter;
use crate::stats::{self, Digest};
use crate::trace::{self, Layer, Span};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// No run may measure longer than this, whatever `--seconds` says.
const MAX_MEASURE_S: f64 = 60.0;

/// The command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every instance is derived from it.
    pub seed: u64,
    /// How long one measurement lasts.
    pub seconds: f64,
    /// Whether to add the traced run.
    pub trace: bool,
}

impl Args {
    /// Parses the flags; every flag is required once.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let value = |flag: &str| -> Result<&str, String> {
            let at = args
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            args.get(at + 1)
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value"))
        };
        let seconds: f64 = value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= MAX_MEASURE_S) {
            return Err(format!("--seconds must be in (0, {MAX_MEASURE_S}]"));
        }
        let trace = match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
        Ok(Args {
            workload: value("--workload")?.to_string(),
            seed: value("--seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace,
        })
    }
}

/// One answered query.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The analysis that answered it.
    pub layer: Layer,
    /// Time to verdict.
    pub ms: f64,
    /// Objective evaluations charged.
    pub evals: u64,
    /// Targets attempted (1, or `|Op|` for overflow, branch directions for
    /// coverage).
    pub targets: u64,
    /// Targets answered with a zero.
    pub solved: u64,
}

/// A witness check deferred until after the timed window, with a label
/// naming the query for the failure report.
pub type Check = (Box<dyn FnOnce() -> String>, Box<dyn FnOnce() -> bool>);

/// The deterministic outcome of one pass: every field must repeat exactly
/// across passes, across runs with the same seed, and between the
/// untraced and traced runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Verdicts.
    pub verdicts: u64,
    /// Objective evaluations charged.
    pub evals: u64,
    /// Targets attempted.
    pub targets: u64,
    /// Targets answered with a zero.
    pub solved: u64,
    /// Witnesses reported.
    pub witnesses: u64,
    /// Targets pruned by static analysis without evaluating.
    pub static_pruned: u64,
    /// Evaluations spent on verdicts that left a target unsolved.
    pub unsolved_evals: u64,
    /// Queries that errored, panicked or were cancelled.
    pub errors: u64,
    /// `Analyzable::specialize` calls.
    pub specialize_calls: u64,
    /// Specialize calls that kept an optimized program.
    pub specialize_kept: u64,
    /// Program executions seen by the probes.
    pub executions: u64,
    /// `execute_many` calls.
    pub batch_calls: u64,
    /// Inputs passed to `execute_many`.
    pub batch_inputs: u64,
    /// Inputs run by a kernel-eligible module's batch executor.
    pub kernel_inputs: u64,
    /// Bit pattern of the mean interpreter instructions per sampled
    /// execution.
    pub insts_per_eval_bits: u64,
    /// Service turns.
    pub turns: u64,
    /// Durable service checkpoints.
    pub checkpoints: u64,
    /// Digest of every witness and per-verdict evaluation count.
    pub digest: u64,
}

impl Counts {
    /// Folds a probe meter's counters in.
    pub fn absorb_meter(&mut self, meter: &Meter) {
        self.specialize_calls = meter.specialize_calls.load(Ordering::Relaxed);
        self.specialize_kept = meter.specialize_kept.load(Ordering::Relaxed);
        self.executions = meter.executions.load(Ordering::Relaxed);
        self.batch_calls = meter.batch_calls.load(Ordering::Relaxed);
        self.batch_inputs = meter.batch_inputs.load(Ordering::Relaxed);
        self.kernel_inputs = meter.kernel_inputs.load(Ordering::Relaxed);
    }

    /// Mean interpreter instructions per sampled execution.
    pub fn insts_per_eval(&self) -> f64 {
        f64::from_bits(self.insts_per_eval_bits)
    }
}

/// What an in-process run records while it runs.
pub struct Pass {
    /// The verdicts, in query order.
    pub verdicts: Vec<Verdict>,
    /// The deterministic counts.
    pub counts: Counts,
    /// Witness checks, run after the timed window.
    pub checks: Vec<Check>,
    digest: Digest,
}

impl Pass {
    fn new() -> Pass {
        Pass {
            verdicts: Vec::new(),
            counts: Counts::default(),
            checks: Vec::new(),
            digest: Digest::default(),
        }
    }

    /// Records a verdict, its static prunes and whether it left a target
    /// unsolved.
    pub fn verdict(&mut self, verdict: Verdict, pruned: u64) {
        let c = &mut self.counts;
        c.verdicts += 1;
        c.evals += verdict.evals;
        c.targets += verdict.targets;
        c.solved += verdict.solved;
        c.static_pruned += pruned;
        if verdict.solved < verdict.targets {
            c.unsolved_evals += verdict.evals;
        }
        self.digest.word(verdict.evals);
        self.verdicts.push(verdict);
    }

    /// Records a reported witness and (on the verified pass) its check.
    pub fn witness(
        &mut self,
        label: impl FnOnce() -> String + 'static,
        input: &[f64],
        check: impl FnOnce() -> bool + 'static,
    ) {
        self.counts.witnesses += 1;
        self.digest.floats(input);
        self.checks.push((Box::new(label), Box::new(check)));
    }

    /// Folds any other deterministic outcome (a best value, a bit-exact
    /// comparison) into the digest.
    pub fn digest_word(&mut self, word: u64) {
        self.digest.word(word);
    }

    /// Runs one query inside a span of `layer` and returns its result with
    /// the elapsed milliseconds. A query that panics is recorded as an
    /// errored verdict over `targets` and yields `None`.
    pub fn attempt<T>(
        &mut self,
        layer: Layer,
        targets: u64,
        query: impl FnOnce() -> T,
    ) -> Option<(T, f64)> {
        let timed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = trace::open(layer);
            let start = Instant::now();
            let out = query();
            (out, start.elapsed().as_secs_f64() * 1e3)
        }));
        if timed.is_err() {
            self.counts.verdicts += 1;
            self.counts.targets += targets;
            self.counts.errors += 1;
        }
        timed.ok()
    }
}

/// Query time a window gathers before the next one opens.
pub const WINDOW_S: f64 = 0.1;
/// Set-ups a window's set-up sample repeats back to back until at least
/// this many seconds have passed; the sample is their mean. One cold
/// set-up of a few microseconds mostly measures the cache state the
/// previous window's witness checks left behind.
const SETUP_SAMPLE_S: f64 = 5e-4;

/// Consecutive replicas timed as one unit, with the host's speed and a
/// set-up sample taken just before them.
#[derive(Debug, Clone)]
pub struct Window {
    /// Host-speed factor measured just before the window ([`calib::speed`]).
    pub speed: f64,
    /// Mean wall seconds of the set-ups done just before the window.
    pub setup_s: f64,
    /// Query wall seconds (witness checks excluded).
    pub wall_s: f64,
    /// The window's verdicts: a range of [`Measurement::verdicts`].
    pub verdicts: Range<usize>,
    /// Evaluations charged, replayed ones included.
    pub evals: u64,
    /// Spans the window recorded: a range of [`Measurement::spans`].
    pub spans: Range<usize>,
}

/// Everything one measurement (untraced or traced) produced.
pub struct Measurement {
    /// Wall seconds spent running queries (witness checks excluded).
    pub wall_s: f64,
    /// The windows, in order.
    pub windows: Vec<Window>,
    /// Replicas of the query list run.
    pub replicas: u64,
    /// Every verdict.
    pub verdicts: Vec<Verdict>,
    /// The deterministic counts of the first [`Suite::PREFIX`] replicas.
    pub counts: Counts,
    /// Queries attempted over the whole run.
    pub attempted: u64,
    /// Queries that errored over the whole run.
    pub failed: u64,
    /// Witnesses checked (untraced runs; the traced run reproduces the
    /// same witnesses).
    pub checked: u64,
    /// Labels of the witnesses the oracles rejected.
    pub rejected: Vec<String>,
    /// Closed spans of the measuring thread (traced runs).
    pub spans: Vec<Span>,
    /// Process CPU seconds per wall second while running queries and
    /// checks.
    pub cpu_util: f64,
}

impl Measurement {
    /// Calibrated query seconds.
    pub fn calibrated_s(&self) -> f64 {
        self.windows.iter().map(|w| w.wall_s * w.speed).sum()
    }

    /// Calibrated nanoseconds per evaluation charged.
    pub fn ns_per_eval(&self) -> f64 {
        let evals: u64 = self.windows.iter().map(|w| w.evals).sum();
        self.calibrated_s() * 1e9 / evals.max(1) as f64
    }

    /// Calibrated verdict times (ms).
    pub fn verdict_ms(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| {
                self.verdicts[w.verdicts.clone()]
                    .iter()
                    .map(|v| v.ms * w.speed)
            })
            .collect()
    }
}

/// An in-process workload: set-up, then replicas of one query list, each
/// replica's instances seeded afresh from the workload seed.
pub trait Suite {
    /// The programs, analyses and query list built by set-up.
    type State;

    /// Replicas whose deterministic counts are compared between runs: a
    /// fixed prefix, so the counts do not depend on how many replicas fit
    /// in the measured time.
    const PREFIX: u64;

    /// Builds everything the queries need.
    fn setup(&self, seed: u64) -> Self::State;

    /// Runs every query of replica `replica` once.
    fn replica(&self, state: &Self::State, replica: u64, meter: &Arc<Meter>, pass: &mut Pass);

    /// Evaluations charged by replica `replica` that no report carries,
    /// recovered after the timed window: `(evals, of which unsolved)`.
    fn replayed_evals(&self, _state: &Self::State, _replica: u64) -> (u64, u64) {
        (0, 0)
    }
}

/// Builds fresh states back to back until [`SETUP_SAMPLE_S`] of building
/// has passed and returns the mean wall seconds per state. Each state is
/// dropped as soon as it is built, outside the clock, so memory stays flat.
fn setup_sample<S: Suite>(suite: &S, seed: u64) -> f64 {
    let (mut total, mut built) = (0.0, 0u32);
    while built == 0 || total < SETUP_SAMPLE_S {
        let start = Instant::now();
        let state = suite.setup(seed);
        total += start.elapsed().as_secs_f64();
        drop(state);
        built += 1;
    }
    total / f64::from(built)
}

/// Runs windows of replicas until `seconds` of query time have elapsed
/// and the prefix is complete. Each window opens with a set-up sample
/// whose states are thrown away, so set-up is sampled across the whole
/// run. Each replica's
/// witnesses are checked right after it, outside the measured time, so
/// memory stays flat however long the run.
pub fn measure<S: Suite>(
    suite: &S,
    args: &Args,
    traced: bool,
) -> Result<(Measurement, S::State), String> {
    trace::set_enabled(traced);
    let state = suite.setup(args.seed);
    let meter = Arc::new(Meter::default());
    let mut pass = Pass::new();
    let mut prefix: Option<(Counts, usize)> = None;
    let mut rejected = Vec::new();
    let mut checked = 0u64;
    let cpu_start = stats::cpu_seconds().unwrap_or(0.0);
    let started = Instant::now();
    let mut wall_s = 0.0;
    let mut windows = Vec::new();
    let mut replica_evals = Vec::new();
    let mut window_replicas = Vec::new();
    loop {
        let speed = calib::speed();
        let setup_s = setup_sample(suite, args.seed);
        let first = replica_evals.len() as u64;
        let mut window = Window {
            speed,
            setup_s,
            wall_s: 0.0,
            verdicts: pass.verdicts.len()..pass.verdicts.len(),
            evals: 0,
            spans: trace::recorded()..trace::recorded(),
        };
        while window.wall_s < WINDOW_S {
            let replica = replica_evals.len() as u64;
            let evals = pass.counts.evals;
            let start = Instant::now();
            suite.replica(&state, replica, &meter, &mut pass);
            window.wall_s += start.elapsed().as_secs_f64();
            replica_evals.push(pass.counts.evals - evals);
            let checks = std::mem::take(&mut pass.checks);
            if !traced {
                checked += checks.len() as u64;
                rejected.extend(verify(checks));
            }
            if replica + 1 == S::PREFIX {
                let mut counts = pass.counts.clone();
                counts.absorb_meter(&meter);
                counts.digest = pass.digest.0;
                prefix = Some((counts, meter.stop_sampling()));
            }
        }
        window.verdicts.end = pass.verdicts.len();
        window.spans.end = trace::recorded();
        wall_s += window.wall_s;
        windows.push(window);
        window_replicas.push(first..replica_evals.len() as u64);
        if prefix.is_some() && wall_s >= args.seconds {
            break;
        }
        if wall_s >= 2.0 * MAX_MEASURE_S {
            return Err(format!("prefix not complete after {wall_s:.1} s"));
        }
    }
    let cpu_util =
        (stats::cpu_seconds().unwrap_or(0.0) - cpu_start) / started.elapsed().as_secs_f64();
    trace::set_enabled(false);
    let (mut counts, samples) = prefix.expect("prefix complete");
    counts.insts_per_eval_bits = meter.insts_per_eval(samples).to_bits();
    for (replica, charged) in replica_evals.iter_mut().enumerate() {
        let (evals, unsolved) = suite.replayed_evals(&state, replica as u64);
        *charged += evals;
        if (replica as u64) < S::PREFIX {
            counts.evals += evals;
            counts.unsolved_evals += unsolved;
        }
    }
    for (window, replicas) in windows.iter_mut().zip(window_replicas) {
        window.evals = replica_evals[replicas.start as usize..replicas.end as usize]
            .iter()
            .sum();
    }
    Ok((
        Measurement {
            wall_s,
            windows,
            replicas: replica_evals.len() as u64,
            verdicts: pass.verdicts,
            counts,
            attempted: pass.counts.verdicts,
            failed: pass.counts.errors,
            checked,
            rejected,
            spans: trace::take_spans(),
            cpu_util,
        },
        state,
    ))
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// The end-to-end metric and workload a per-layer metric should move.
    pub moves: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str, moves: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        moves,
    }
}

/// The end-to-end metrics of an untraced measurement: calibrated timings,
/// counts over its prefix.
pub fn end_to_end(m: &Measurement, peak_rss_mb: f64) -> Result<Vec<Metric>, String> {
    let ms = m.verdict_ms();
    let p50 = stats::median(&ms).ok_or("no verdicts")?;
    let p90 = stats::supported_percentile(&ms, 90.0)
        .ok_or(format!("{} verdicts do not support a p90", ms.len()))?;
    let setup: Vec<f64> = m.windows.iter().map(|w| w.setup_s * w.speed).collect();
    let c = &m.counts;
    Ok(vec![
        metric("setup_s", stats::median(&setup).ok_or("no setup")?, "s", ""),
        metric(
            "verdicts_per_s",
            ms.len() as f64 / m.calibrated_s(),
            "1/s",
            "",
        ),
        metric("verdict_ms_p50", p50, "ms", ""),
        metric("verdict_ms_p90", p90, "ms", ""),
        metric("ns_per_eval", m.ns_per_eval(), "ns", ""),
        metric(
            "evals_per_verdict",
            c.evals as f64 / c.verdicts as f64,
            "count",
            "",
        ),
        metric(
            "solved_frac",
            c.solved as f64 / c.targets as f64,
            "ratio",
            "",
        ),
        metric(
            "verified_frac",
            (m.checked - m.rejected.len() as u64) as f64 / m.checked.max(1) as f64,
            "ratio",
            "",
        ),
        metric(
            "error_frac",
            m.failed as f64 / m.attempted as f64,
            "ratio",
            "",
        ),
        metric("peak_rss_mb", peak_rss_mb, "MB", ""),
    ])
}

/// Runs the deferred witness checks; returns the labels of the rejected
/// ones.
pub fn verify(checks: Vec<Check>) -> Vec<String> {
    checks
        .into_iter()
        .filter_map(|(label, check)| (!check()).then(label))
        .collect()
}

/// The determinism gate between the untraced and traced runs. Workloads
/// whose untraced run needs no probes (native programs) have no probe
/// counters there, so only the counts both runs keep are compared.
pub fn gate(untraced: &Counts, traced: &Counts) -> Result<(), String> {
    let mut traced = traced.clone();
    if untraced.executions == 0 {
        traced.specialize_calls = 0;
        traced.specialize_kept = 0;
        traced.executions = 0;
        traced.batch_calls = 0;
        traced.batch_inputs = 0;
        traced.kernel_inputs = 0;
        traced.insts_per_eval_bits = 0;
    }
    if *untraced == traced {
        Ok(())
    } else {
        Err(format!(
            "determinism gate: traced counts differ from untraced\n  untraced: {untraced:?}\n  traced:   {traced:?}"
        ))
    }
}
