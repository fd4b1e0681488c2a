//! Adaptive portfolio mode: bandit-driven budget reallocation across
//! resumable backends.
//!
//! A portfolio runs several backends on one weak distance. It spends *one*
//! run's budget ([`AnalysisConfig::rounds`] × [`AnalysisConfig::max_evals`])
//! and reallocates it between the backends while they run, concentrating
//! evaluations on the backend whose residual (best weak-distance value so
//! far) is improving fastest.
//!
//! Three pieces make that possible:
//!
//! * [`SteppedAnalysis`] — the restart loop (Algorithm 3 step 4) as a
//!   resumable state machine: rounds of a [`SteppedMinimizer`] backend,
//!   merged one by one, pausable at any eval-budget slice (the driver's
//!   [`minimize_weak_distance`] runs it to completion);
//! * a deterministic **UCB1-style bandit** over per-slice best-residual
//!   improvement: each scheduler round, the arm maximizing
//!   `mean_reward + c·sqrt(ln t / n)` (ties broken by a seeded hash)
//!   receives a full slice, every other live arm a small probe slice — so
//!   budget concentrates without starving exploration;
//! * deterministic parallel slice execution: the arms are independent
//!   state machines, so stepping them concurrently and folding the
//!   statistics in arm order is bit-identical at any
//!   [`AnalysisConfig::parallelism`].
//!
//! # Determinism and cancellation
//!
//! A portfolio run is **bit-identical at any thread count**: which arm
//! gets budget depends only on merged per-slice statistics, never on
//! timing. First-hit cancellation therefore acts at slice granularity —
//! when an arm finds a zero, the other arms of that scheduler round finish
//! their (small) slices before the scheduler fires the shared first-hit
//! [`CancelToken`] and stops them — bounded post-hit work instead of a
//! timing race. External cancellation stops the scheduler at the next
//! round boundary and is then observed by every arm.
//!
//! [`minimize_weak_distance`]: crate::driver::minimize_weak_distance

use crate::checkpoint::{
    ActiveCkpt, AdaptiveCheckpoint, AnalysisCheckpoint, ArmStatsCkpt, EscalationCkpt,
    EscalationHandoffCkpt, EscalationSpecCkpt,
};
use crate::driver::{derive_round_seed, AnalysisConfig, MinimizationRun, Outcome};
use crate::weak_distance::{WeakDistance, WeakDistanceObjective};
use crate::BackendKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use wdm_mo::checkpoint::ResultCkpt;
use wdm_mo::stepped::{MinimizerStep, StepStatus};
use wdm_mo::{
    CancelToken, MinimizeResult, NoTrace, Problem, SamplingTrace, SteppedMinimizer,
};

/// UCB exploration constant, sized for rewards in `[0, 1]`.
const UCB_EXPLORATION: f64 = 0.5;

/// Recency weight of the reward average: an exponential moving average
/// rather than the all-history UCB1 mean, so an arm whose residual has
/// plateaued loses its lead within a few scheduler rounds instead of
/// coasting on early improvements ("best residual *trajectory*", not best
/// residual history).
const REWARD_DECAY: f64 = 0.3;

/// A non-leader live arm receives `base_slice / PROBE_DIVISOR` evaluations
/// per scheduler round, so every arm keeps producing reward observations.
const PROBE_DIVISOR: usize = 8;

/// Salt decorrelating the tie-breaking stream from round seeds.
const TIEBREAK_SALT: u64 = 0x0ADA_97F0_1105_C0DE;

/// One round of a stepped analysis: the backend's resumable run plus the
/// per-round sampling trace.
struct ActiveRound {
    machine: Box<dyn MinimizerStep>,
    trace: Option<SamplingTrace>,
}

/// The restart loop as a resumable state machine: rounds of a stepped
/// backend with round-derived seeds, merged incrementally in round order.
/// Run to completion — in one slice or many — it is
/// [`minimize_weak_distance`](crate::driver::minimize_weak_distance) of the
/// same configuration.
pub struct SteppedAnalysis<'wd> {
    objective: WeakDistanceObjective<'wd>,
    bounds: wdm_mo::Bounds,
    config: AnalysisConfig,
    backend: Box<dyn SteppedMinimizer>,
    cancel: CancelToken,
    rounds: usize,
    round: usize,
    active: Option<ActiveRound>,
    best: Option<MinimizeResult>,
    total_evals: usize,
    trace: SamplingTrace,
    hit: bool,
    finished: bool,
}

impl<'wd> SteppedAnalysis<'wd> {
    /// Captures the initial state of an analysis of `wd` under `config`
    /// (whose `backend` selects the stepped backend; `parallelism` is
    /// ignored — slices of one analysis are sequential by construction).
    pub fn new(wd: &'wd dyn WeakDistance, config: &AnalysisConfig, cancel: CancelToken) -> Self {
        Self::with_parts(wd, config, cancel, config.backend.build_stepped(), None)
    }

    /// [`new`](Self::new) with an explicit backend state machine and an
    /// optional search-box override — the seam escalation-spawned arms
    /// (a [`wdm_mo::Polish`] slice, a bound-tightened restart) are built
    /// through: their machine or box is not derivable from the config
    /// alone.
    pub(crate) fn with_parts(
        wd: &'wd dyn WeakDistance,
        config: &AnalysisConfig,
        cancel: CancelToken,
        backend: Box<dyn SteppedMinimizer>,
        bounds: Option<wdm_mo::Bounds>,
    ) -> Self {
        let objective = WeakDistanceObjective::new(wd);
        let bounds = bounds.unwrap_or_else(|| objective.bounds());
        SteppedAnalysis {
            objective,
            bounds,
            backend,
            cancel,
            rounds: config.rounds.max(1),
            round: 0,
            active: None,
            best: None,
            total_evals: 0,
            trace: SamplingTrace::with_stride(config.sample_stride),
            hit: false,
            finished: false,
            config: config.clone(),
        }
    }

    /// Advances the analysis by (at least) `slice` objective evaluations,
    /// starting new rounds as earlier ones finish. Returns `true` once the
    /// analysis is finished — some round hit zero, every round ran, or
    /// cancellation was observed.
    pub fn step(&mut self, slice: usize) -> bool {
        if self.finished {
            return true;
        }
        // Between rounds: cancellation stops the restart loop before a new
        // round starts, mirroring the driver's sequential path.
        if self.active.is_none() && self.round > 0 && self.cancel.is_cancelled() {
            self.finished = true;
            return true;
        }

        // Every slice of one analysis runs against this same problem.
        let problem = Problem::new(&self.objective, self.bounds.clone())
            .with_target(0.0)
            .with_max_evals(self.config.max_evals)
            .with_cancel(self.cancel.clone());
        if self.active.is_none() {
            let seed = derive_round_seed(self.config.seed, self.round as u64);
            let machine = self.backend.start(&problem, seed);
            let trace = self
                .config
                .record_samples
                .then(|| SamplingTrace::with_stride(self.config.sample_stride));
            self.active = Some(ActiveRound { machine, trace });
        }
        let active = self.active.as_mut().expect("round started above");
        let status = match &mut active.trace {
            Some(trace) => active.machine.step(&problem, slice, trace),
            None => active.machine.step(&problem, slice, &mut NoTrace),
        };
        drop(problem);
        if status == StepStatus::Paused {
            return false;
        }

        let ActiveRound { machine, trace } = self.active.take().expect("round was active");
        self.merge(machine.result(), trace.unwrap_or_default());
        self.finished
    }

    /// Runs the rounds of a fresh analysis on up to `workers` threads
    /// and folds them in round order, bit-identical to running them one by
    /// one: every round has its own child token, a round that hits zero
    /// cancels every later round (the fold discards them, so this only
    /// saves work), and a round starts only while no earlier round hit zero
    /// and the analysis is not cancelled (round 0 always runs). The fold
    /// stops at the first skipped round; the analysis is then finished or
    /// cancelled, so [`step`](Self::step) stops at once. A later round
    /// claimed just before a mid-run cancellation may complete anyway; like
    /// post-hit speculation, its work is discarded and uncharged.
    pub(crate) fn run_rounds_sharded(&mut self, workers: usize) {
        debug_assert!(self.round == 0 && self.active.is_none(), "a fresh analysis");
        let tokens: Vec<CancelToken> = (0..self.rounds).map(|_| self.cancel.child()).collect();
        // Smallest round index that reached zero so far (usize::MAX = none).
        let first_hit = AtomicUsize::new(usize::MAX);
        // `MinimizerStep` is only `Send`, so the workers borrow the fields
        // they need rather than `self`.
        let (objective, bounds, config, backend, cancel) = (
            &self.objective,
            &self.bounds,
            &self.config,
            &*self.backend,
            &self.cancel,
        );
        let runs = wdm_mo::scoped_map(workers, self.rounds, |round| {
            if first_hit.load(Ordering::Acquire) < round || (round > 0 && cancel.is_cancelled()) {
                return None;
            }
            let problem = Problem::new(objective, bounds.clone())
                .with_target(0.0)
                .with_max_evals(config.max_evals)
                .with_cancel(tokens[round].clone());
            let seed = derive_round_seed(config.seed, round as u64);
            let mut trace = SamplingTrace::with_stride(config.sample_stride);
            let result = if config.record_samples {
                backend.minimize(&problem, seed, &mut trace)
            } else {
                backend.minimize(&problem, seed, &mut NoTrace)
            };
            if result.value <= 0.0 {
                first_hit.fetch_min(round, Ordering::AcqRel);
                for token in &tokens[round + 1..] {
                    token.cancel();
                }
            }
            Some((result, trace))
        });
        for (result, trace) in runs.into_iter().map_while(|run| run) {
            self.merge(result, trace);
            if self.finished {
                break;
            }
        }
    }

    /// Folds one finished round into the incremental merge: rounds are
    /// charged in index order up to and including the first round whose
    /// minimum reached zero.
    fn merge(&mut self, result: MinimizeResult, trace: SamplingTrace) {
        self.total_evals += result.evals;
        self.trace.append(trace);
        if round_improves(&result, self.best.as_ref()) {
            self.best = Some(result);
        }
        if self.best.as_ref().map(|b| b.value <= 0.0).unwrap_or(false) {
            self.hit = true;
            self.finished = true;
            return;
        }
        self.round += 1;
        if self.round >= self.rounds {
            self.finished = true;
        }
    }

    /// Whether the analysis is finished.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Whether some round's minimum reached zero.
    pub fn found(&self) -> bool {
        self.hit
    }

    /// Evaluations charged so far, including the active round's.
    pub fn evals(&self) -> usize {
        self.total_evals
            + self
                .active
                .as_ref()
                .map(|a| a.machine.evals())
                .unwrap_or(0)
    }

    /// The best point seen so far and its value, merging completed
    /// rounds with the active round's partial incumbent — `None` before
    /// any evaluation. Unlike [`run`](Self::run) this clones no traces,
    /// so the scheduler can poll it every round.
    pub(crate) fn best_snapshot(&self) -> Option<(Vec<f64>, f64)> {
        let mut best: Option<(Vec<f64>, f64)> = self.best.as_ref().map(|b| (b.x.clone(), b.value));
        if let Some(active) = &self.active {
            let partial = active.machine.result();
            let replaces = match &best {
                None => true,
                Some((_, v)) => partial.value < *v || v.is_nan(),
            };
            if replaces && !partial.x.is_empty() {
                best = Some((partial.x, partial.value));
            }
        }
        best
    }

    /// Best weak-distance value so far across completed rounds and the
    /// active round (`f64::INFINITY` before the first evaluation).
    pub fn best_value(&self) -> f64 {
        let merged = self
            .best
            .as_ref()
            .map(|b| b.value)
            .unwrap_or(f64::INFINITY);
        match &self.active {
            Some(active) => {
                let v = active.machine.best_value();
                if v < merged || merged.is_nan() {
                    v
                } else {
                    merged
                }
            }
            None => merged,
        }
    }

    /// The analysis result. After the run finishes this is exactly what
    /// the direct driver run returns; mid-run it additionally charges the
    /// active round's snapshot (best-so-far, evaluations spent) so a
    /// scheduler that withdraws the budget still reports honestly.
    pub fn run(&self) -> MinimizationRun {
        let mut best = self.best.clone();
        let mut total_evals = self.total_evals;
        let mut trace = self.trace.clone();
        if let Some(active) = &self.active {
            let partial = active.machine.result();
            total_evals += partial.evals;
            if let Some(t) = &active.trace {
                trace.append(t.clone());
            }
            if round_improves(&partial, best.as_ref()) {
                best = Some(partial);
            }
        }
        // An arm the scheduler never stepped (external cancellation before
        // the first slice) has nothing to report.
        let best = best.unwrap_or_else(|| {
            MinimizeResult::new(
                vec![f64::NAN; self.bounds.dim()],
                f64::INFINITY,
                0,
                wdm_mo::Termination::Cancelled,
            )
        });
        let outcome = outcome_from_best(&best, total_evals);
        MinimizationRun {
            outcome,
            best,
            trace,
        }
    }

    /// Snapshots the analysis for durable storage (floats as IEEE-754
    /// bit patterns, see [`crate::checkpoint`]).
    pub fn checkpoint(&self) -> AnalysisCheckpoint {
        let active = self.active.as_ref().map(|a| ActiveCkpt {
            step: a.machine.checkpoint(),
            trace: a.trace.as_ref().map(SamplingTrace::checkpoint),
        });
        AnalysisCheckpoint {
            round: self.round,
            active,
            best: self.best.as_ref().map(ResultCkpt::of),
            total_evals: self.total_evals,
            trace: self.trace.checkpoint(),
            hit: self.hit,
            finished: self.finished,
        }
    }

    /// Rebuilds an analysis from a [`checkpoint`](Self::checkpoint).
    /// `wd` and `config` are re-supplied by the caller and must match
    /// the checkpointed run (the snapshot stores neither, exactly as
    /// backend configs are re-supplied to
    /// [`SteppedMinimizer::restore`]); `cancel` is a fresh token —
    /// cancellation is deliberately not durable. Returns `None` if the
    /// active backend state does not match `config.backend` or fails
    /// validation.
    pub fn restore(
        wd: &'wd dyn WeakDistance,
        config: &AnalysisConfig,
        cancel: CancelToken,
        ckpt: &AnalysisCheckpoint,
    ) -> Option<Self> {
        Self::restore_with_parts(wd, config, cancel, config.backend.build_stepped(), None, ckpt)
    }

    /// [`restore`](Self::restore) with an explicit backend state machine
    /// and search-box override, mirroring [`with_parts`](Self::with_parts).
    pub(crate) fn restore_with_parts(
        wd: &'wd dyn WeakDistance,
        config: &AnalysisConfig,
        cancel: CancelToken,
        backend: Box<dyn SteppedMinimizer>,
        bounds: Option<wdm_mo::Bounds>,
        ckpt: &AnalysisCheckpoint,
    ) -> Option<Self> {
        let mut analysis = SteppedAnalysis::with_parts(wd, config, cancel, backend, bounds);
        analysis.round = ckpt.round;
        analysis.best = ckpt.best.as_ref().map(ResultCkpt::restore);
        analysis.total_evals = ckpt.total_evals;
        analysis.trace = SamplingTrace::from_checkpoint(&ckpt.trace);
        analysis.hit = ckpt.hit;
        analysis.finished = ckpt.finished;
        if let Some(a) = &ckpt.active {
            let problem = Problem::new(&analysis.objective, analysis.bounds.clone())
                .with_target(0.0)
                .with_max_evals(analysis.config.max_evals)
                .with_cancel(analysis.cancel.clone());
            let machine = analysis.backend.restore(&problem, &a.step)?;
            drop(problem);
            analysis.active = Some(ActiveRound {
                machine,
                trace: a.trace.as_ref().map(SamplingTrace::from_checkpoint),
            });
        }
        Some(analysis)
    }
}

/// The restart-merge comparison: does a round's `result` replace the
/// incumbent best? (Strictly smaller value, or the incumbent is NaN.)
fn round_improves(result: &MinimizeResult, incumbent: Option<&MinimizeResult>) -> bool {
    incumbent
        .map(|b| result.value < b.value || b.value.is_nan())
        .unwrap_or(true)
}

/// Assembles the Definition 2.1 outcome from a merged best result and the
/// total charged evaluations.
fn outcome_from_best(best: &MinimizeResult, total_evals: usize) -> Outcome {
    if best.value <= 0.0 {
        Outcome::Found {
            input: best.x.clone(),
            evals: total_evals,
        }
    } else {
        Outcome::NotFound {
            best_value: best.value,
            best_input: best.x.clone(),
            evals: total_evals,
        }
    }
}

/// Relative best-residual improvement of one slice, the bandit's reward:
/// 0 for no progress (or NaN), 1 for "reached finite from unbounded", and
/// the relative decrease `(before - after) / before` otherwise — weak
/// distances are nonnegative, so this lands in `[0, 1]`.
///
/// Every strictly improving slice earns a strictly positive reward: a
/// slice that improves past a non-positive incumbent (`before <= 0.0`,
/// reachable only through weak distances that dip below zero) earns the
/// full reward rather than the zero the relative formula would produce —
/// the old `before <= 0.0 → 0.0` branch starved exactly the slices that
/// crossed the finish line.
fn improvement(before: f64, after: f64) -> f64 {
    if before.is_nan() {
        // A NaN incumbent turning into a real value is progress (`<` would
        // never say so).
        return if after.is_finite() { 1.0 } else { 0.0 };
    }
    // NaN `after` lands here too: no progress. `-0.0 >= 0.0` holds, so a
    // `0.0 → -0.0` transition is (correctly) not an improvement.
    if after >= before || after.is_nan() {
        return 0.0;
    }
    if !before.is_finite() || before <= 0.0 {
        return 1.0;
    }
    ((before - after) / before).clamp(0.0, 1.0)
}

/// Per-arm bandit statistics: `plays` counts rounds led (the UCB `n`),
/// `mean_reward` the recency-weighted reward over *all* slices (probes
/// included), `seen` whether any slice has seeded the average yet.
struct ArmStats {
    plays: f64,
    mean_reward: f64,
    seen: bool,
}

/// Per-arm analysis config: decorrelate the backends' restart streams
/// (offset 0 leaves the seed unchanged).
fn arm_config(config: &AnalysisConfig, backend: BackendKind, index: usize) -> AnalysisConfig {
    config
        .clone()
        .with_backend(backend)
        .with_parallelism(1)
        .with_seed_offset(index as u64)
}

/// What an escalation-spawned arm runs.
#[derive(Debug, Clone, PartialEq)]
enum EscalationArmKind {
    /// A [`wdm_mo::Polish`] slice: Powell/Brent started exactly at the
    /// incumbent, one round.
    Polish {
        /// The incumbent at escalation time.
        x0: Vec<f64>,
    },
    /// A fresh restart of the named backend over the tightened box, with
    /// the configured round count.
    Restart {
        /// The restarted backend (the base arm with the best reward
        /// trajectory at escalation time).
        backend: BackendKind,
    },
}

/// The deterministic recipe of one escalation-spawned arm: everything
/// needed to (re)build it, checkpointed verbatim so a restored run
/// replays bit-identically.
#[derive(Debug, Clone, PartialEq)]
struct EscalationSpec {
    kind: EscalationArmKind,
    bounds: wdm_mo::Bounds,
}

impl EscalationSpec {
    /// The backend label the arm reports under (polish slices report as
    /// Powell — that is what they run).
    fn label(&self) -> BackendKind {
        match &self.kind {
            EscalationArmKind::Polish { .. } => BackendKind::Powell,
            EscalationArmKind::Restart { backend } => *backend,
        }
    }
}

/// A published escalation handoff: the tightened incumbent region, for
/// callers that can route it to a heavier engine mid-run (`wdm_xsat`
/// runs a focused sub-solve over it). Consuming or ignoring the handoff
/// never changes the portfolio's own evolution.
#[derive(Debug, Clone, PartialEq)]
pub struct EscalationHandoff {
    /// The tightened search box around the incumbent.
    pub bounds: wdm_mo::Bounds,
    /// The incumbent point the box was tightened around.
    pub incumbent: Vec<f64>,
    /// Zero-based index of the escalation event that published this.
    pub ordinal: usize,
}

/// The plateau detector plus the record of every escalation event — a
/// pure function of the slice history, durable through
/// [`AdaptivePortfolio::checkpoint`].
#[derive(Default)]
struct EscalationState {
    /// Consecutive scheduler rounds in which no live arm's mean reward
    /// reached the threshold.
    below: usize,
    /// Escalation events fired so far.
    events: usize,
    /// Spawn recipes of every escalation arm, in spawn order.
    specs: Vec<EscalationSpec>,
    /// The most recent handoff, until a caller takes it.
    handoff: Option<EscalationHandoff>,
}

/// Renders a box as parallel per-dimension bit vectors for the
/// checkpoint layer.
fn bounds_bits(bounds: &wdm_mo::Bounds) -> (Vec<u64>, Vec<u64>) {
    let lo = bounds.limits().iter().map(|&(lo, _)| lo.to_bits()).collect();
    let hi = bounds.limits().iter().map(|&(_, hi)| hi.to_bits()).collect();
    (lo, hi)
}

/// Decodes a checkpointed box, rejecting bit patterns
/// [`Bounds::new`](wdm_mo::Bounds::new) would panic on (NaN endpoints,
/// inverted limits) — corrupt disk state must surface as a failed
/// restore, not a panic.
fn bounds_from_bits(lo: &[u64], hi: &[u64]) -> Option<wdm_mo::Bounds> {
    if lo.len() != hi.len() {
        return None;
    }
    let mut limits = Vec::with_capacity(lo.len());
    for (&l, &h) in lo.iter().zip(hi) {
        let (l, h) = (f64::from_bits(l), f64::from_bits(h));
        if l.is_nan() || h.is_nan() || l > h {
            return None;
        }
        limits.push((l, h));
    }
    Some(wdm_mo::Bounds::new(limits))
}

/// Renders one escalation spec for the checkpoint layer.
fn spec_ckpt(spec: &EscalationSpec) -> EscalationSpecCkpt {
    let (lo, hi) = bounds_bits(&spec.bounds);
    match &spec.kind {
        EscalationArmKind::Polish { x0 } => EscalationSpecCkpt {
            kind: "polish".to_string(),
            backend: None,
            x0: x0.iter().map(|v| v.to_bits()).collect(),
            lo,
            hi,
        },
        EscalationArmKind::Restart { backend } => EscalationSpecCkpt {
            kind: "restart".to_string(),
            backend: Some(backend.name().to_string()),
            x0: Vec::new(),
            lo,
            hi,
        },
    }
}

/// Decodes one checkpointed escalation spec, validating the kind tag,
/// the backend name and the box.
fn spec_from_ckpt(ckpt: &EscalationSpecCkpt) -> Option<EscalationSpec> {
    let bounds = bounds_from_bits(&ckpt.lo, &ckpt.hi)?;
    let kind = match ckpt.kind.as_str() {
        "polish" => EscalationArmKind::Polish {
            x0: ckpt.x0.iter().map(|&b| f64::from_bits(b)).collect(),
        },
        "restart" => {
            let name = ckpt.backend.as_deref()?;
            let backend = BackendKind::all().into_iter().find(|b| b.name() == name)?;
            EscalationArmKind::Restart { backend }
        }
        _ => return None,
    };
    Some(EscalationSpec { kind, bounds })
}

/// The result of one arm of a portfolio.
#[derive(Debug, Clone)]
pub struct PortfolioEntry {
    /// Which backend this is.
    pub backend: BackendKind,
    /// The backend's full minimization run (its best may carry
    /// `Termination::Cancelled` if another arm found a zero first or the
    /// run was cancelled).
    pub run: MinimizationRun,
}

/// The result of running a portfolio of backends on one weak distance.
#[derive(Debug, Clone)]
pub struct PortfolioRun {
    /// The index into `entries` whose outcome is reported (first backend in
    /// the given order with a solution, otherwise the best residual).
    pub winner: usize,
    /// Per-backend results, in the order the backends were given.
    pub entries: Vec<PortfolioEntry>,
}

impl PortfolioRun {
    /// The winning backend.
    pub fn winning_backend(&self) -> BackendKind {
        self.entries[self.winner].backend
    }

    /// The reported outcome (the winner's, with evaluations summed over the
    /// whole portfolio — every backend's work is charged).
    pub fn outcome(&self) -> Outcome {
        let total_evals: usize = self
            .entries
            .iter()
            .map(|e| e.run.outcome.evals())
            .sum();
        match &self.entries[self.winner].run.outcome {
            Outcome::Found { input, .. } => Outcome::Found {
                input: input.clone(),
                evals: total_evals,
            },
            Outcome::NotFound {
                best_value,
                best_input,
                ..
            } => Outcome::NotFound {
                best_value: *best_value,
                best_input: best_input.clone(),
                evals: total_evals,
            },
        }
    }
}

/// Picks the reported entry of a portfolio: the first backend (in the
/// given order) with a solution, otherwise the best residual (NaN-aware).
fn pick_winner(runs: &[MinimizationRun]) -> usize {
    runs.iter()
        .position(|r| r.outcome.is_found())
        .unwrap_or_else(|| {
            let mut best = 0usize;
            for (i, run) in runs.iter().enumerate() {
                let (b, c) = (runs[best].best.value, run.best.value);
                if c < b || (b.is_nan() && !c.is_nan()) {
                    best = i;
                }
            }
            best
        })
}

/// The adaptive scheduler as a resumable value: the bandit statistics
/// plus every arm's [`SteppedAnalysis`], steppable one scheduler round
/// at a time. [`minimize_weak_distance_adaptive_cancellable`] is
/// exactly `new` + `while round(..) {}` + `finalize` + `into_run`, so a
/// caller driving a portfolio round by round — with serialize/restore
/// cycles in between ([`checkpoint`](Self::checkpoint) /
/// [`restore`](Self::restore)) — produces bit-identical results. This
/// is the seam the multi-tenant analysis service time-slices and makes
/// durable.
pub struct AdaptivePortfolio<'wd> {
    wd: &'wd dyn WeakDistance,
    config: AnalysisConfig,
    backends: Vec<BackendKind>,
    /// Backend label of every arm (base arms in backend order, then
    /// escalation-spawned arms in spawn order).
    arm_kinds: Vec<BackendKind>,
    /// The full search box, for tightening around incumbents.
    base_bounds: wdm_mo::Bounds,
    cancel: CancelToken,
    first_hit: CancelToken,
    arms: Vec<Mutex<SteppedAnalysis<'wd>>>,
    stats: Vec<ArmStats>,
    pool: usize,
    base_slice: usize,
    probe_slice: usize,
    spent: usize,
    found: bool,
    t: u64,
    last_leader: Option<usize>,
    escalation: EscalationState,
}

impl<'wd> AdaptivePortfolio<'wd> {
    /// Captures the initial scheduler state for `backends` over `wd`.
    /// `cancel` is the external token; the scheduler derives the shared
    /// first-hit token from it, so outside cancellation reaches the
    /// arms and a found zero cancels the laggards.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is empty.
    pub fn new(
        wd: &'wd dyn WeakDistance,
        config: &AnalysisConfig,
        backends: &[BackendKind],
        cancel: &CancelToken,
    ) -> Self {
        assert!(!backends.is_empty(), "portfolio needs at least one backend");
        // The shared first-hit token: a child of the external token so
        // outside cancellation reaches the arms, fired by the scheduler
        // when some arm finds a zero.
        let first_hit = cancel.child();
        let arms: Vec<Mutex<SteppedAnalysis<'_>>> = backends
            .iter()
            .enumerate()
            .map(|(index, &backend)| {
                let cfg = arm_config(config, backend, index);
                Mutex::new(SteppedAnalysis::new(wd, &cfg, first_hit.child()))
            })
            .collect();
        let stats = backends
            .iter()
            .map(|_| ArmStats {
                plays: 0.0,
                mean_reward: 0.0,
                seen: false,
            })
            .collect();
        Self::assemble(wd, config, backends, cancel.clone(), first_hit, arms, stats)
    }

    /// Shared tail of [`new`](Self::new) and [`restore`](Self::restore):
    /// the scheduler parameters derived from the config.
    fn assemble(
        wd: &'wd dyn WeakDistance,
        config: &AnalysisConfig,
        backends: &[BackendKind],
        cancel: CancelToken,
        first_hit: CancelToken,
        arms: Vec<Mutex<SteppedAnalysis<'wd>>>,
        stats: Vec<ArmStats>,
    ) -> Self {
        let rounds = config.rounds.max(1);
        // The shared evaluation pool: ONE direct backend run's worth. A
        // single-arm portfolio has nothing to reallocate and runs to
        // natural completion instead (bit-identical to the direct driver
        // run; a hard pool could cut the last round short, since local
        // searches may overshoot a round budget by a bounded amount).
        let pool = if backends.len() == 1 {
            usize::MAX
        } else {
            rounds.saturating_mul(config.max_evals).max(1)
        };
        let base_slice = (config.max_evals / 8).max(64);
        let probe_slice = (base_slice / PROBE_DIVISOR).max(16);
        let base_bounds = WeakDistanceObjective::new(wd).bounds();
        AdaptivePortfolio {
            wd,
            config: config.clone(),
            backends: backends.to_vec(),
            arm_kinds: backends.to_vec(),
            base_bounds,
            cancel,
            first_hit,
            arms,
            stats,
            pool,
            base_slice,
            probe_slice,
            spent: 0,
            found: false,
            t: 0,
            last_leader: None,
            escalation: EscalationState::default(),
        }
    }

    fn lock(&self, i: usize) -> MutexGuard<'_, SteppedAnalysis<'wd>> {
        self.arms[i].lock().expect("adaptive arm lock")
    }

    /// Runs one scheduler round — leader election, slice allocation,
    /// parallel arm stepping over at most `workers` threads, statistics
    /// fold — and returns `true`. Returns `false` without doing work
    /// once the scheduler is done: cancellation observed, a zero found,
    /// the pool spent, or every arm finished.
    pub fn round(&mut self, workers: usize) -> bool {
        if self.cancel.is_cancelled() || self.found || self.spent >= self.pool {
            return false;
        }
        let alive: Vec<usize> = (0..self.arms.len())
            .filter(|&i| !self.lock(i).is_finished())
            .collect();
        if alive.is_empty() {
            return false;
        }

        // UCB1 scores on per-slice best-residual improvement: `plays`
        // counts *leaderships* (every alive arm is probed each round, so
        // counting probes would make the bonus a constant shift), which
        // gives arms that have not led recently a growing exploration
        // bonus on top of their probe-fed reward average. Never-led arms
        // go first; ties break by a seeded per-(round, arm) hash, so the
        // schedule is a pure function of (config, statistics).
        let stats = &self.stats;
        let t = self.t;
        let score = |i: usize| {
            if stats[i].plays == 0.0 {
                f64::INFINITY
            } else {
                let bonus = (((t + 1) as f64).ln() / stats[i].plays).sqrt();
                let s = stats[i].mean_reward + UCB_EXPLORATION * bonus;
                if s.is_nan() {
                    f64::NEG_INFINITY
                } else {
                    s
                }
            }
        };
        let tiebreak = |i: usize| {
            derive_round_seed(
                self.config.seed ^ TIEBREAK_SALT,
                t.wrapping_mul(self.backends.len() as u64)
                    .wrapping_add(i as u64),
            )
        };
        // `total_cmp`, not `partial_cmp`: the score closure maps NaN to
        // -inf, but a NaN *input* (e.g. a corrupt checkpoint's bit
        // pattern in `plays`) could still surface NaN through the bonus
        // term — a silently non-total comparison must not be able to
        // panic or pick an arbitrary leader. On NaN-free scores this
        // orders exactly like the old tuple `partial_cmp`.
        let leader = alive
            .iter()
            .copied()
            .max_by(|&a, &b| {
                score(a)
                    .total_cmp(&score(b))
                    .then_with(|| tiebreak(a).cmp(&tiebreak(b)))
            })
            .expect("alive is non-empty");

        // Reallocation: the leader gets a full slice, every other live
        // arm a probe slice.
        let allocation: Vec<(usize, usize)> = alive
            .iter()
            .map(|&i| {
                (
                    i,
                    if i == leader {
                        self.base_slice
                    } else {
                        self.probe_slice
                    },
                )
            })
            .collect();

        // The arms are independent state machines, so stepping them in
        // parallel and folding the statistics in arm order below is
        // bit-identical at any worker count.
        let outcomes = wdm_mo::scoped_map(
            workers.max(1).min(allocation.len()),
            allocation.len(),
            |k| {
                let (i, slice) = allocation[k];
                let mut arm = self.lock(i);
                let evals_before = arm.evals();
                let best_before = arm.best_value();
                arm.step(slice);
                (
                    i,
                    arm.evals() - evals_before,
                    best_before,
                    arm.best_value(),
                    arm.found(),
                )
            },
        );
        for (i, delta_evals, before, after, arm_found) in outcomes {
            self.spent += delta_evals;
            let reward = improvement(before, after);
            let stat = &mut self.stats[i];
            // Probe slices feed the reward average too; only leaderships
            // count as plays (see the score comment above).
            if i == leader {
                stat.plays += 1.0;
            }
            if stat.seen {
                stat.mean_reward += REWARD_DECAY * (reward - stat.mean_reward);
            } else {
                stat.mean_reward = reward;
                stat.seen = true;
            }
            self.found |= arm_found;
        }
        // Plateau detection runs on the just-folded statistics, before
        // the round counter advances: a pure function of the slice
        // history, so it is worker-count-invariant and replays
        // identically from a checkpoint.
        self.maybe_escalate();
        self.t += 1;
        self.last_leader = Some(leader);
        true
    }

    /// The plateau detector: counts consecutive scheduler rounds in
    /// which no live arm's recency-weighted mean reward reaches the
    /// configured threshold, and fires [`escalate`](Self::escalate) when
    /// the patience runs out. A no-op unless
    /// [`AnalysisConfig::with_escalation`] enabled escalation.
    fn maybe_escalate(&mut self) {
        let Some(esc) = self.config.escalation.clone() else {
            return;
        };
        if self.found || self.spent >= self.pool {
            return;
        }
        let alive: Vec<usize> = (0..self.arms.len())
            .filter(|&i| !self.lock(i).is_finished())
            .collect();
        // Only count rounds where every live arm has produced at least
        // one reward observation — before that, "no arm is improving"
        // just means "we have not looked yet".
        if alive.is_empty() || !alive.iter().all(|&i| self.stats[i].seen) {
            return;
        }
        // f64::max ignores NaN operands, so NaN rewards (reachable only
        // through corrupt checkpoints) cannot mask a plateau.
        let peak = alive
            .iter()
            .map(|&i| self.stats[i].mean_reward)
            .fold(f64::NEG_INFINITY, f64::max);
        if peak >= esc.threshold {
            self.escalation.below = 0;
            return;
        }
        self.escalation.below += 1;
        if self.escalation.below >= esc.patience.max(1)
            && self.escalation.events < esc.max_escalations
        {
            self.escalate(&esc);
        }
    }

    /// One escalation event: fold the deterministic incumbent out of the
    /// arms, tighten the search box around it, spawn a polish arm and a
    /// bound-tightened sampling restart, and publish the handoff for
    /// heavier engines.
    fn escalate(&mut self, esc: &crate::driver::EscalationConfig) {
        self.escalation.below = 0;
        // The incumbent: fold every arm's best snapshot in arm order
        // with the same NaN-aware rule the round merge uses.
        let mut incumbent: Option<(Vec<f64>, f64)> = None;
        for i in 0..self.arms.len() {
            if let Some((x, v)) = self.lock(i).best_snapshot() {
                let replaces = match &incumbent {
                    None => true,
                    Some((_, best)) => v < *best || best.is_nan(),
                };
                if replaces {
                    incumbent = Some((x, v));
                }
            }
        }
        let Some((x0, _)) = incumbent else {
            return;
        };
        let ordinal = self.escalation.events;
        self.escalation.events += 1;
        let tightened = self.base_bounds.tightened_around(&x0, esc.tighten);
        // The restart arm deliberately uses the model-free sampler over
        // the tightened box: a plateau means the learned backend rankings
        // are exactly what stopped paying off, and flat regions reward
        // dense coverage, not another descent. It pairs with the polish
        // arm as explore/exploit over the same box.
        let specs = [
            EscalationSpec {
                kind: EscalationArmKind::Polish { x0: x0.clone() },
                bounds: tightened.clone(),
            },
            EscalationSpec {
                kind: EscalationArmKind::Restart {
                    backend: BackendKind::RandomSearch,
                },
                bounds: tightened.clone(),
            },
        ];
        for spec in specs {
            self.spawn_escalation_arm(&spec, None);
            self.escalation.specs.push(spec);
        }
        self.escalation.handoff = Some(EscalationHandoff {
            bounds: tightened,
            incumbent: x0,
            ordinal,
        });
    }

    /// Appends one escalation arm (fresh, or restored from `ckpt`) built
    /// from its spec. The arm's seed offset is its absolute arm index,
    /// continuing the base arms' offset sequence, so the spawn is a pure
    /// function of (config, spec, position). Returns `false` if a
    /// checkpointed arm state fails validation.
    fn spawn_escalation_arm(
        &mut self,
        spec: &EscalationSpec,
        ckpt: Option<&AnalysisCheckpoint>,
    ) -> bool {
        let index = self.arms.len();
        let mut cfg = arm_config(&self.config, spec.label(), index);
        let machine: Box<dyn SteppedMinimizer> = match &spec.kind {
            EscalationArmKind::Polish { x0 } => {
                // A polish slice is one deterministic local search, not a
                // restart loop: one round.
                cfg = cfg.with_rounds(1);
                Box::new(wdm_mo::Polish::from_incumbent(x0.clone()))
            }
            EscalationArmKind::Restart { backend } => backend.build_stepped(),
        };
        let analysis = match ckpt {
            None => SteppedAnalysis::with_parts(
                self.wd,
                &cfg,
                self.first_hit.child(),
                machine,
                Some(spec.bounds.clone()),
            ),
            Some(c) => {
                let Some(a) = SteppedAnalysis::restore_with_parts(
                    self.wd,
                    &cfg,
                    self.first_hit.child(),
                    machine,
                    Some(spec.bounds.clone()),
                    c,
                ) else {
                    return false;
                };
                a
            }
        };
        self.arms.push(Mutex::new(analysis));
        self.arm_kinds.push(spec.label());
        if self.stats.len() < self.arms.len() {
            // Fresh spawn (restore re-fills stats from the checkpoint):
            // never-played arms score infinity, so a new escalation arm
            // leads the very next round.
            self.stats.push(ArmStats {
                plays: 0.0,
                mean_reward: 0.0,
                seen: false,
            });
        }
        true
    }

    /// Takes the most recent escalation handoff, if one is pending: the
    /// tightened incumbent region a heavier engine (`wdm_xsat`'s
    /// focused sub-solve) can work mid-run. Consuming or ignoring it
    /// never changes the portfolio's own evolution, so callers that do
    /// not understand handoffs keep the determinism contract for free.
    pub fn take_handoff(&mut self) -> Option<EscalationHandoff> {
        self.escalation.handoff.take()
    }

    /// Escalation events fired so far.
    pub fn escalations(&self) -> usize {
        self.escalation.events
    }

    /// First-hit (and external) cancellation: fires the shared token
    /// and lets every unfinished arm observe it at its next checkpoint
    /// — a deterministic, bounded amount of work per arm. One step is
    /// not always enough: a never-stepped arm's first slice can pause
    /// at the slice quantum right after its start phase, *before*
    /// reaching a cancellation check — but with the token fired, every
    /// further step finishes a round or the run, so this terminates in
    /// a few steps. A no-op when the scheduler stopped by spending its
    /// pool. Call after [`round`](Self::round) returns `false`, before
    /// [`into_run`](Self::into_run).
    pub fn finalize(&mut self) {
        if self.found || self.cancel.is_cancelled() {
            self.first_hit.cancel();
            for i in 0..self.arms.len() {
                let mut arm = self.lock(i);
                while !arm.is_finished() {
                    arm.step(1);
                }
            }
        }
    }

    /// Consumes the scheduler and reports every arm's run (base arms
    /// first, then escalation-spawned arms): the winner is the first arm
    /// with a solution, otherwise the best residual.
    pub fn into_run(self) -> PortfolioRun {
        let runs: Vec<MinimizationRun> = self
            .arms
            .into_iter()
            .map(|arm| arm.into_inner().expect("adaptive arm lock").run())
            .collect();
        let winner = pick_winner(&runs);
        PortfolioRun {
            winner,
            entries: self
                .arm_kinds
                .iter()
                .zip(runs)
                .map(|(&backend, run)| PortfolioEntry { backend, run })
                .collect(),
        }
    }

    /// Whether the scheduler loop is over: [`round`](Self::round) would
    /// return `false` without doing work.
    pub fn is_done(&self) -> bool {
        self.cancel.is_cancelled()
            || self.found
            || self.spent >= self.pool
            || (0..self.arms.len()).all(|i| self.lock(i).is_finished())
    }

    /// Whether some arm has found a zero.
    pub fn found(&self) -> bool {
        self.found
    }

    /// Evaluations drawn from the shared pool so far (completed slices
    /// only — an arm paused mid-slice is charged at the next fold).
    pub fn evals_spent(&self) -> usize {
        self.spent
    }

    /// Best weak-distance value across all arms, including paused ones
    /// (`f64::INFINITY` before the first evaluation) — the residual a
    /// progress stream reports.
    pub fn best_value(&self) -> f64 {
        (0..self.arms.len())
            .map(|i| self.lock(i).best_value())
            .fold(f64::INFINITY, |a, b| if b < a { b } else { a })
    }

    /// The most recent round's bandit leader, `None` before the first
    /// round.
    pub fn leader(&self) -> Option<BackendKind> {
        self.last_leader.map(|i| self.arm_kinds[i])
    }

    /// Per-arm recency-weighted mean rewards, in arm order (base arms
    /// first, then escalation-spawned arms). Arms that have not yet
    /// received a slice report `0.0`. The plateau detector triggers when
    /// the maximum of these stays below the configured threshold — the
    /// same numbers a progress stream would chart.
    pub fn arm_rewards(&self) -> Vec<f64> {
        self.stats.iter().map(|s| s.mean_reward).collect()
    }

    /// The portfolio's base backends, in arm order (escalation-spawned
    /// arms are not listed — they are an artifact of the run, not its
    /// configuration).
    pub fn backends(&self) -> &[BackendKind] {
        &self.backends
    }

    /// Snapshots the whole scheduler — every arm plus the bandit
    /// statistics — for durable storage.
    pub fn checkpoint(&self) -> AdaptiveCheckpoint {
        AdaptiveCheckpoint {
            arms: (0..self.arms.len()).map(|i| self.lock(i).checkpoint()).collect(),
            stats: self
                .stats
                .iter()
                .map(|s| ArmStatsCkpt {
                    plays: s.plays.to_bits(),
                    mean_reward: s.mean_reward.to_bits(),
                    seen: s.seen,
                })
                .collect(),
            spent: self.spent,
            found: self.found,
            t: self.t,
            last_leader: self.last_leader,
            escalation: self.config.escalation.as_ref().map(|_| EscalationCkpt {
                below: self.escalation.below,
                events: self.escalation.events,
                specs: self.escalation.specs.iter().map(spec_ckpt).collect(),
                handoff: self.escalation.handoff.as_ref().map(|h| {
                    let (lo, hi) = bounds_bits(&h.bounds);
                    EscalationHandoffCkpt {
                        lo,
                        hi,
                        incumbent: h.incumbent.iter().map(|v| v.to_bits()).collect(),
                        ordinal: h.ordinal,
                    }
                }),
            }),
        }
    }

    /// Rebuilds a scheduler from a [`checkpoint`](Self::checkpoint).
    /// `wd`, `config` and `backends` are re-supplied and must match the
    /// checkpointed run; the arm count and the last leader's arm index
    /// are validated, backend state tags are validated per arm. `cancel`
    /// is a fresh external token.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is empty.
    pub fn restore(
        wd: &'wd dyn WeakDistance,
        config: &AnalysisConfig,
        backends: &[BackendKind],
        cancel: &CancelToken,
        ckpt: &AdaptiveCheckpoint,
    ) -> Option<Self> {
        assert!(!backends.is_empty(), "portfolio needs at least one backend");
        let specs: Vec<EscalationSpec> = match &ckpt.escalation {
            None => Vec::new(),
            Some(esc) => esc
                .specs
                .iter()
                .map(spec_from_ckpt)
                .collect::<Option<Vec<_>>>()?,
        };
        // Escalation-spawned arms' snapshots follow the base arms.
        if ckpt.arms.len() != backends.len() + specs.len()
            || ckpt.stats.len() != ckpt.arms.len()
            || ckpt.last_leader.is_some_and(|i| i >= ckpt.arms.len())
        {
            return None;
        }
        let first_hit = cancel.child();
        let mut arms = Vec::with_capacity(ckpt.arms.len());
        for (index, (&backend, a)) in backends.iter().zip(&ckpt.arms).enumerate() {
            let cfg = arm_config(config, backend, index);
            arms.push(Mutex::new(SteppedAnalysis::restore(
                wd,
                &cfg,
                first_hit.child(),
                a,
            )?));
        }
        let stats = ckpt
            .stats
            .iter()
            .map(|s| ArmStats {
                plays: f64::from_bits(s.plays),
                mean_reward: f64::from_bits(s.mean_reward),
                seen: s.seen,
            })
            .collect();
        let mut portfolio =
            Self::assemble(wd, config, backends, cancel.clone(), first_hit, arms, stats);
        for (j, spec) in specs.iter().enumerate() {
            if !portfolio.spawn_escalation_arm(spec, Some(&ckpt.arms[backends.len() + j])) {
                return None;
            }
        }
        if let Some(esc) = &ckpt.escalation {
            portfolio.escalation = EscalationState {
                below: esc.below,
                events: esc.events,
                specs,
                handoff: match &esc.handoff {
                    None => None,
                    Some(h) => Some(EscalationHandoff {
                        bounds: bounds_from_bits(&h.lo, &h.hi)?,
                        incumbent: h.incumbent.iter().map(|&b| f64::from_bits(b)).collect(),
                        ordinal: h.ordinal,
                    }),
                },
            };
        }
        portfolio.spent = ckpt.spent;
        portfolio.found = ckpt.found;
        portfolio.t = ckpt.t;
        portfolio.last_leader = ckpt.last_leader;
        Some(portfolio)
    }
}

/// [`minimize_weak_distance_adaptive`] with an external cancellation
/// token: the scheduler stops at the next round boundary once `cancel`
/// fires, then lets every arm observe the cancellation.
pub fn minimize_weak_distance_adaptive_cancellable(
    wd: &dyn WeakDistance,
    config: &AnalysisConfig,
    backends: &[BackendKind],
    cancel: &CancelToken,
) -> PortfolioRun {
    let mut portfolio = AdaptivePortfolio::new(wd, config, backends, cancel);
    let workers = config.parallelism.max(1);
    while portfolio.round(workers) {}
    portfolio.finalize();
    portfolio.into_run()
}

/// Adaptive portfolio mode (see the module docs): reallocates one run's
/// budget across `backends` with a deterministic bandit, stopping early
/// when some backend's weak distance reaches zero.
///
/// # Panics
///
/// Panics if `backends` is empty.
pub fn minimize_weak_distance_adaptive(
    wd: &dyn WeakDistance,
    config: &AnalysisConfig,
    backends: &[BackendKind],
) -> PortfolioRun {
    minimize_weak_distance_adaptive_cancellable(wd, config, backends, &CancelToken::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::minimize_weak_distance;
    use crate::weak_distance::FnWeakDistance;
    use crate::Outcome;
    use fp_runtime::Interval;

    fn wd_two_zeros() -> impl WeakDistance {
        FnWeakDistance::new(1, vec![Interval::symmetric(1.0e4)], |x: &[f64]| {
            (x[0] - 1.0).abs() * (x[0] + 3.0).abs()
        })
    }

    fn wd_zero_free() -> impl WeakDistance {
        FnWeakDistance::new(1, vec![Interval::symmetric(100.0)], |x: &[f64]| {
            x[0].abs() + 0.5
        })
    }

    #[test]
    fn improvement_reward_shape() {
        assert_eq!(improvement(f64::INFINITY, 3.0), 1.0);
        assert_eq!(improvement(10.0, 5.0), 0.5);
        assert_eq!(improvement(10.0, 10.0), 0.0);
        assert_eq!(improvement(5.0, 10.0), 0.0);
        assert_eq!(improvement(f64::NAN, 1.0), 1.0); // NaN -> finite is progress
        assert_eq!(improvement(1.0, f64::NAN), 0.0);
    }

    /// Regression (PR 10): edge cases of the reward path. A strictly
    /// improving slice must never earn zero reward — `(0.0, -1.0)` used
    /// to return 0 through the `before <= 0.0` guard, starving exactly
    /// the slice that crossed the finish line.
    #[test]
    fn improvement_reward_edges() {
        // Strict improvement past a non-positive incumbent: full reward.
        assert_eq!(improvement(0.0, -1.0), 1.0);
        assert_eq!(improvement(-0.0, -1.0), 1.0);
        assert_eq!(improvement(-1.0, -2.0), 1.0);
        // Signed-zero transitions are not improvements (`-0.0 >= 0.0`).
        assert_eq!(improvement(0.0, -0.0), 0.0);
        assert_eq!(improvement(-0.0, 0.0), 0.0);
        // An unbounded incumbent staying unbounded is no progress.
        assert_eq!(improvement(f64::INFINITY, f64::INFINITY), 0.0);
        assert_eq!(improvement(f64::NAN, f64::INFINITY), 0.0);
        assert_eq!(improvement(f64::NAN, f64::NAN), 0.0);
        // Every reward lands in [0, 1].
        for &(b, a) in &[
            (1e300, -1e300),
            (f64::MIN_POSITIVE, 0.0),
            (f64::INFINITY, -f64::INFINITY),
        ] {
            let r = improvement(b, a);
            assert!((0.0..=1.0).contains(&r), "improvement({b}, {a}) = {r}");
        }
    }

    #[test]
    fn stepped_analysis_matches_driver_run_at_any_slicing() {
        for backend in BackendKind::all() {
            let wd = wd_zero_free();
            let config = AnalysisConfig::quick(11)
                .with_backend(backend)
                .with_rounds(3)
                .with_max_evals(2_000)
                .recording(2);
            let direct = minimize_weak_distance(&wd, &config);
            for slice in [64usize, 700, usize::MAX] {
                let mut analysis = SteppedAnalysis::new(&wd, &config, CancelToken::new());
                while !analysis.step(slice) {}
                assert!(analysis.is_finished());
                let run = analysis.run();
                assert_eq!(run.outcome, direct.outcome, "{backend:?} slice {slice}");
                assert_eq!(run.best, direct.best, "{backend:?} slice {slice}");
                assert_eq!(
                    run.trace.samples(),
                    direct.trace.samples(),
                    "{backend:?} slice {slice}"
                );
            }
        }
    }

    #[test]
    fn single_backend_adaptive_equals_direct_run() {
        for backend in BackendKind::all() {
            let wd = wd_two_zeros();
            let config = AnalysisConfig::quick(5).with_backend(backend).with_rounds(2);
            let direct = minimize_weak_distance(&wd, &config);
            let adaptive = minimize_weak_distance_adaptive(&wd, &config, &[backend]);
            assert_eq!(adaptive.entries.len(), 1);
            assert_eq!(adaptive.winner, 0);
            let entry = &adaptive.entries[0].run;
            assert_eq!(entry.outcome, direct.outcome, "{backend:?}");
            assert_eq!(entry.best, direct.best, "{backend:?}");
        }
    }

    #[test]
    fn adaptive_portfolio_finds_a_zero_and_reports_all_entries() {
        let run = minimize_weak_distance_adaptive(
            &wd_two_zeros(),
            &AnalysisConfig::quick(2).with_rounds(2),
            &BackendKind::all(),
        );
        assert_eq!(run.entries.len(), 5);
        match run.outcome() {
            Outcome::Found { input, .. } => {
                let x = input[0];
                assert!(x == 1.0 || x == -3.0, "x = {x}");
            }
            Outcome::NotFound { best_value, .. } => panic!("not found, best = {best_value}"),
        }
        assert!(run.entries[run.winner].run.outcome.is_found());
        assert_eq!(run.winning_backend(), run.entries[run.winner].backend);
    }

    #[test]
    fn portfolio_runs_every_backend_within_its_budget() {
        let wd = FnWeakDistance::new(1, vec![Interval::symmetric(10.0)], |x: &[f64]| {
            (x[0] - 1.0).abs()
        });
        let run = minimize_weak_distance_adaptive(
            &wd,
            &AnalysisConfig::quick(5).with_rounds(1).with_max_evals(5_000),
            &BackendKind::all(),
        );
        assert_eq!(run.entries.len(), BackendKind::all().len());
        assert!(run.outcome().is_found());
        // Losing backends were either cancelled or finished on their own;
        // every entry still carries a well-formed result.
        for entry in &run.entries {
            assert!(entry.run.outcome.evals() <= 5 * 5_000 + 10_000);
        }
    }

    #[test]
    fn portfolio_without_solutions_reports_best_residual() {
        let wd = FnWeakDistance::new(1, vec![Interval::symmetric(10.0)], |x: &[f64]| {
            x[0].abs() + 2.0
        });
        let run = minimize_weak_distance_adaptive(
            &wd,
            &AnalysisConfig::quick(3).with_rounds(1).with_max_evals(3_000),
            &[BackendKind::BasinHopping, BackendKind::RandomSearch],
        );
        match run.outcome() {
            Outcome::NotFound { best_value, .. } => {
                assert!((best_value - 2.0).abs() < 1e-9, "best = {best_value}");
            }
            Outcome::Found { input, .. } => panic!("spurious solution {input:?}"),
        }
    }

    #[test]
    fn adaptive_budget_is_one_run_not_n_runs() {
        // Zero-free: nothing terminates early, so the scheduler spends the
        // pool. Five backends with a full budget each would cost ~5x
        // rounds*max_evals; the adaptive pool is 1x (plus bounded
        // slice-granularity overshoot).
        let wd = wd_zero_free();
        let config = AnalysisConfig::quick(7).with_rounds(2).with_max_evals(4_000);
        let run = minimize_weak_distance_adaptive(&wd, &config, &BackendKind::all());
        let pool = 2 * 4_000;
        let total = run.outcome().evals();
        assert!(total > pool / 2, "scheduler under-spent: {total}");
        // Overshoot bound: one scheduler round of slices plus per-arm
        // checkpoint overshoot (a basin-hopping hop, a DE generation).
        assert!(total < 2 * pool, "scheduler overspent: {total}");
    }

    #[test]
    fn adaptive_is_deterministic_across_parallelism() {
        let wd = wd_zero_free();
        let base = AnalysisConfig::quick(13).with_rounds(2).with_max_evals(3_000);
        let reference = minimize_weak_distance_adaptive(&wd, &base, &BackendKind::all());
        for threads in [2usize, 4, 8] {
            let run = minimize_weak_distance_adaptive(
                &wd,
                &base.clone().with_parallelism(threads),
                &BackendKind::all(),
            );
            assert_eq!(run.winner, reference.winner, "threads = {threads}");
            for (a, b) in run.entries.iter().zip(&reference.entries) {
                assert_eq!(a.backend, b.backend);
                assert_eq!(a.run.outcome, b.run.outcome, "threads = {threads}");
                assert_eq!(a.run.best, b.run.best, "threads = {threads}");
            }
        }
    }

    #[test]
    fn stepped_analysis_checkpoint_resume_is_invisible() {
        for backend in BackendKind::all() {
            let wd = wd_zero_free();
            let config = AnalysisConfig::quick(17)
                .with_backend(backend)
                .with_rounds(2)
                .with_max_evals(1_500)
                .recording(2);
            let mut straight = SteppedAnalysis::new(&wd, &config, CancelToken::new());
            while !straight.step(300) {}
            let mut resumed = SteppedAnalysis::new(&wd, &config, CancelToken::new());
            loop {
                let done = resumed.step(300);
                // Serialize, drop, rebuild: the continuation must not
                // notice the round trip.
                let ckpt = resumed.checkpoint();
                let text = serde_json::to_string(&ckpt).expect("render");
                let back = serde_json::from_str(&text).expect("parse");
                resumed = SteppedAnalysis::restore(&wd, &config, CancelToken::new(), &back)
                    .expect("restore");
                if done {
                    break;
                }
            }
            let a = straight.run();
            let b = resumed.run();
            assert_eq!(a.outcome, b.outcome, "{backend:?}");
            assert_eq!(a.best, b.best, "{backend:?}");
            assert_eq!(a.trace.samples(), b.trace.samples(), "{backend:?}");
        }
    }

    #[test]
    fn adaptive_portfolio_checkpoint_resume_is_invisible() {
        let wd = wd_zero_free();
        let config = AnalysisConfig::quick(19).with_rounds(2).with_max_evals(3_000);
        let backends = BackendKind::all();
        let reference = minimize_weak_distance_adaptive(&wd, &config, &backends);
        let cancel = CancelToken::new();
        let mut portfolio = AdaptivePortfolio::new(&wd, &config, &backends, &cancel);
        loop {
            let ran = portfolio.round(1);
            let ckpt = portfolio.checkpoint();
            let text = serde_json::to_string(&ckpt).expect("render");
            let back: AdaptiveCheckpoint = serde_json::from_str(&text).expect("parse");
            portfolio = AdaptivePortfolio::restore(&wd, &config, &backends, &cancel, &back)
                .expect("restore");
            if !ran {
                break;
            }
        }
        portfolio.finalize();
        let run = portfolio.into_run();
        assert_eq!(run.winner, reference.winner);
        for (a, b) in run.entries.iter().zip(&reference.entries) {
            assert_eq!(a.backend, b.backend);
            assert_eq!(a.run.outcome, b.run.outcome, "{:?}", a.backend);
            assert_eq!(a.run.best, b.run.best, "{:?}", a.backend);
        }
    }

    #[test]
    fn adaptive_portfolio_checkpoint_resume_with_early_hit() {
        // A findable zero: the resume path must also reproduce the
        // first-hit cancellation fan-out exactly.
        let wd = wd_two_zeros();
        let config = AnalysisConfig::quick(2).with_rounds(2);
        let backends = BackendKind::all();
        let reference = minimize_weak_distance_adaptive(&wd, &config, &backends);
        let cancel = CancelToken::new();
        let mut portfolio = AdaptivePortfolio::new(&wd, &config, &backends, &cancel);
        while portfolio.round(1) {
            let ckpt = portfolio.checkpoint();
            portfolio =
                AdaptivePortfolio::restore(&wd, &config, &backends, &cancel, &ckpt)
                    .expect("restore");
        }
        portfolio.finalize();
        let run = portfolio.into_run();
        assert_eq!(run.winner, reference.winner);
        for (a, b) in run.entries.iter().zip(&reference.entries) {
            assert_eq!(a.run.outcome, b.run.outcome, "{:?}", a.backend);
            assert_eq!(a.run.best, b.run.best, "{:?}", a.backend);
        }
        assert!(run.entries[run.winner].run.outcome.is_found());
    }

    #[test]
    fn restore_rejects_mismatched_backend_lists() {
        let wd = wd_zero_free();
        let config = AnalysisConfig::quick(3).with_rounds(1).with_max_evals(500);
        let backends = [BackendKind::RandomSearch, BackendKind::BasinHopping];
        let cancel = CancelToken::new();
        let mut portfolio = AdaptivePortfolio::new(&wd, &config, &backends, &cancel);
        portfolio.round(1);
        let ckpt = portfolio.checkpoint();
        // Wrong arm count.
        assert!(AdaptivePortfolio::restore(
            &wd,
            &config,
            &[BackendKind::RandomSearch],
            &cancel,
            &ckpt
        )
        .is_none());
        // Right count, wrong backend in slot 0: the state tag mismatch
        // is caught by the backend restore.
        assert!(AdaptivePortfolio::restore(
            &wd,
            &config,
            &[BackendKind::DifferentialEvolution, BackendKind::BasinHopping],
            &cancel,
            &ckpt
        )
        .is_none());
    }

    /// Regression: `restore` copied `last_leader` without a check, and
    /// `leader()` then indexed past the arm list and panicked. A leader
    /// that names no arm is rejected like any other mismatch.
    #[test]
    fn restore_rejects_an_out_of_range_leader() {
        let wd = wd_zero_free();
        let config = AnalysisConfig::quick(3).with_rounds(1).with_max_evals(500);
        let backends = [BackendKind::RandomSearch, BackendKind::BasinHopping];
        let cancel = CancelToken::new();
        let mut portfolio = AdaptivePortfolio::new(&wd, &config, &backends, &cancel);
        portfolio.round(1);
        let mut ckpt = portfolio.checkpoint();
        for leader in [2, 99] {
            ckpt.last_leader = Some(leader);
            assert!(
                AdaptivePortfolio::restore(&wd, &config, &backends, &cancel, &ckpt).is_none(),
                "leader {leader}"
            );
        }
        // The last arm is still a valid leader.
        ckpt.last_leader = Some(1);
        let restored =
            AdaptivePortfolio::restore(&wd, &config, &backends, &cancel, &ckpt).expect("restore");
        assert_eq!(restored.leader(), Some(BackendKind::BasinHopping));
    }

    #[test]
    fn progress_accessors_report_scheduler_state() {
        let wd = wd_zero_free();
        let config = AnalysisConfig::quick(23).with_rounds(2).with_max_evals(2_000);
        let backends = [BackendKind::RandomSearch, BackendKind::BasinHopping];
        let cancel = CancelToken::new();
        let mut portfolio = AdaptivePortfolio::new(&wd, &config, &backends, &cancel);
        assert!(portfolio.leader().is_none());
        assert_eq!(portfolio.evals_spent(), 0);
        assert!(!portfolio.is_done());
        assert!(portfolio.round(1));
        assert!(portfolio.leader().is_some());
        assert!(portfolio.evals_spent() > 0);
        assert!(portfolio.best_value().is_finite());
        assert_eq!(portfolio.backends(), &backends);
        while portfolio.round(1) {}
        assert!(portfolio.is_done());
        assert!(!portfolio.found());
    }

    /// A plateau-shaped weak distance over a wide domain (±1e8, so
    /// starting points are drawn log-uniformly and rarely land near a
    /// large-magnitude `c`): a funnel guiding toward `c`, a flat shelf
    /// of radius `shelf` around it (where relative improvement — the
    /// bandit's reward — dies), and a hidden zero basin of radius
    /// `basin` placed *off-centre* at `c + 0.8 * shelf`, away from both
    /// the funnel vertex (where Brent's parabolic fits aim exactly) and
    /// the spread of local-search strand points. `basin = 0.0` removes
    /// the zero (the control: nothing to find, same shape).
    fn wd_plateau(c: f64, shelf: f64, basin: f64) -> impl WeakDistance {
        FnWeakDistance::new(1, vec![Interval::symmetric(1.0e8)], move |x: &[f64]| {
            let d = (x[0] - c).abs();
            if basin > 0.0 && (x[0] - (c + 0.8 * shelf)).abs() <= basin {
                0.0
            } else if d <= shelf {
                0.5
            } else {
                0.5 + (d - shelf) / 1.0e8
            }
        })
    }

    /// Escalation settings matched to [`wd_plateau`]: fire after two
    /// quiet rounds, and tighten to a ±1500 window (1.5e-5 of the ±1e8
    /// box) — wide enough to contain the off-centre basin from any
    /// incumbent stranded on the shelf, narrow enough that the restart
    /// sampler covers it densely.
    fn escalating_config(seed: u64) -> AnalysisConfig {
        AnalysisConfig::quick(seed)
            .with_rounds(2)
            .with_max_evals(6_000)
            .with_escalation(
                crate::driver::EscalationConfig::default()
                    .with_threshold(0.25)
                    .with_patience(2)
                    .with_tighten(1.5e-5),
            )
    }

    #[test]
    fn plateau_triggers_escalation_and_finds_the_hidden_basin() {
        // Seed 41 is a verified rescue: the pure adaptive policy
        // exhausts its pool without ever hitting the off-centre basin,
        // while the escalated run fires once and finds it.
        let wd = wd_plateau(8.7654321e6, 500.0, 1.0);
        let config = escalating_config(41);
        let cancel = CancelToken::new();
        let mut portfolio = AdaptivePortfolio::new(&wd, &config, &BackendKind::all(), &cancel);
        let mut handoffs = 0usize;
        while portfolio.round(1) {
            if portfolio.take_handoff().is_some() {
                handoffs += 1;
            }
        }
        portfolio.finalize();
        let escalations = portfolio.escalations();
        assert!(escalations > 0, "the shelf never triggered an escalation");
        assert_eq!(handoffs, escalations, "every event publishes one handoff");
        let run = portfolio.into_run();
        // Two arms per event, labelled after what they run: the Powell
        // polish and the model-free sampling restart.
        assert_eq!(run.entries.len(), 5 + 2 * escalations);
        assert_eq!(run.entries[5].backend, BackendKind::Powell);
        assert_eq!(run.entries[6].backend, BackendKind::RandomSearch);
        assert!(
            run.outcome().is_found(),
            "escalated run missed the basin: {:?}",
            run.outcome()
        );
        // The pure policy misses the basin on the same seed — the
        // escalation is what found it, not the base arms.
        let pure = AnalysisConfig::quick(41).with_rounds(2).with_max_evals(6_000);
        let control = minimize_weak_distance_adaptive(&wd, &pure, &BackendKind::all());
        assert!(
            !control.outcome().is_found(),
            "workload too easy: the pure policy found the basin too"
        );
    }

    #[test]
    fn escalation_handoff_describes_the_tightened_region() {
        let wd = wd_plateau(8.7654321e6, 500.0, 0.0);
        let config = escalating_config(41);
        let cancel = CancelToken::new();
        let mut portfolio = AdaptivePortfolio::new(&wd, &config, &BackendKind::all(), &cancel);
        let mut handoff = None;
        while portfolio.round(1) {
            if let Some(h) = portfolio.take_handoff() {
                handoff = Some(h);
                break;
            }
        }
        let h = handoff.expect("plateau fires a handoff");
        assert_eq!(h.ordinal, 0);
        assert_eq!(h.bounds.dim(), 1);
        assert!(h.bounds.contains(&h.incumbent), "incumbent outside its box");
        // Tightened to 1.5e-5 of the full ±1e8 box: 3000 wide, around
        // the incumbent the funnel pulled onto the shelf.
        let (lo, hi) = h.bounds.limit(0);
        assert!(hi - lo <= 3000.0 + 1e-6, "box not tightened: [{lo}, {hi}]");
        assert!(
            (h.incumbent[0] - 8.7654321e6).abs() <= 600.0,
            "incumbent {:?} never descended the funnel",
            h.incumbent
        );
        // Taking the handoff is idempotent.
        assert!(portfolio.take_handoff().is_none());
    }

    #[test]
    fn escalation_is_deterministic_across_parallelism() {
        let wd = wd_plateau(8.7654321e6, 500.0, 1.0);
        let config = escalating_config(42);
        let reference =
            minimize_weak_distance_adaptive(&wd, &config, &BackendKind::all());
        // Seed 42 escalates: the comparison must cover spawned arms.
        assert!(reference.entries.len() > 5, "run never escalated");
        for threads in [2usize, 8] {
            let run = minimize_weak_distance_adaptive(
                &wd,
                &config.clone().with_parallelism(threads),
                &BackendKind::all(),
            );
            assert_eq!(run.winner, reference.winner, "threads = {threads}");
            assert_eq!(run.entries.len(), reference.entries.len());
            for (a, b) in run.entries.iter().zip(&reference.entries) {
                assert_eq!(a.backend, b.backend);
                assert_eq!(a.run.outcome, b.run.outcome, "threads = {threads}");
                assert_eq!(a.run.best, b.run.best, "threads = {threads}");
            }
        }
    }

    #[test]
    fn escalation_checkpoint_resume_is_invisible() {
        // Kill+restore every round through JSON, across the escalation
        // event itself: the continuation must replay bit-identically,
        // including the spawned arms.
        let wd = wd_plateau(8.7654321e6, 500.0, 0.0);
        let config = escalating_config(43);
        let backends = BackendKind::all();
        let reference = minimize_weak_distance_adaptive(&wd, &config, &backends);
        let cancel = CancelToken::new();
        let mut portfolio = AdaptivePortfolio::new(&wd, &config, &backends, &cancel);
        loop {
            let ran = portfolio.round(1);
            let ckpt = portfolio.checkpoint();
            let text = serde_json::to_string(&ckpt).expect("render");
            let back: AdaptiveCheckpoint = serde_json::from_str(&text).expect("parse");
            portfolio = AdaptivePortfolio::restore(&wd, &config, &backends, &cancel, &back)
                .expect("restore");
            if !ran {
                break;
            }
        }
        assert!(portfolio.escalations() > 0, "run never escalated");
        // The handoff survives the round trips until somebody takes it.
        assert!(portfolio.take_handoff().is_some());
        portfolio.finalize();
        let run = portfolio.into_run();
        assert_eq!(run.winner, reference.winner);
        assert_eq!(run.entries.len(), reference.entries.len());
        for (a, b) in run.entries.iter().zip(&reference.entries) {
            assert_eq!(a.backend, b.backend);
            assert_eq!(a.run.outcome, b.run.outcome, "{:?}", a.backend);
            assert_eq!(a.run.best, b.run.best, "{:?}", a.backend);
        }
    }

    #[test]
    fn restore_rejects_corrupt_escalation_specs() {
        let wd = wd_plateau(0.0, 5.0, 0.0);
        let config = escalating_config(44);
        let backends = [BackendKind::RandomSearch, BackendKind::BasinHopping];
        let cancel = CancelToken::new();
        let mut portfolio = AdaptivePortfolio::new(&wd, &config, &backends, &cancel);
        while portfolio.escalations() == 0 && portfolio.round(1) {}
        assert!(portfolio.escalations() > 0);
        let ckpt = portfolio.checkpoint();
        assert!(ckpt.escalation.is_some());
        // Unknown spec kind.
        let mut bad = ckpt.clone();
        bad.escalation.as_mut().unwrap().specs[0].kind = "warp".to_string();
        assert!(AdaptivePortfolio::restore(&wd, &config, &backends, &cancel, &bad).is_none());
        // Inverted box limits.
        let mut bad = ckpt.clone();
        let spec = &mut bad.escalation.as_mut().unwrap().specs[0];
        std::mem::swap(&mut spec.lo, &mut spec.hi);
        assert!(AdaptivePortfolio::restore(&wd, &config, &backends, &cancel, &bad).is_none());
        // Escalation record dropped: the arm count no longer adds up.
        let mut bad = ckpt.clone();
        bad.escalation = None;
        assert!(AdaptivePortfolio::restore(&wd, &config, &backends, &cancel, &bad).is_none());
        // The untouched checkpoint still restores.
        assert!(AdaptivePortfolio::restore(&wd, &config, &backends, &cancel, &ckpt).is_some());
    }

    /// Regression (PR 10): leader selection ordered `(score, tiebreak)`
    /// tuples with `partial_cmp().expect(..)` — statistics whose bit
    /// patterns decode to NaN (a corrupt or adversarial checkpoint)
    /// could surface NaN scores and panic the scheduler. `total_cmp`
    /// keeps the comparison total; the poisoned arm just loses.
    #[test]
    fn nan_reward_in_restored_stats_cannot_panic_the_scheduler() {
        let wd = wd_zero_free();
        let config = AnalysisConfig::quick(45).with_rounds(2).with_max_evals(2_000);
        let backends = [BackendKind::RandomSearch, BackendKind::BasinHopping];
        let cancel = CancelToken::new();
        let mut portfolio = AdaptivePortfolio::new(&wd, &config, &backends, &cancel);
        portfolio.round(1);
        let mut ckpt = portfolio.checkpoint();
        // Poison both arms: NaN rewards and NaN play counts.
        for stat in &mut ckpt.stats {
            stat.mean_reward = f64::NAN.to_bits();
            stat.plays = f64::NAN.to_bits();
            stat.seen = true;
        }
        let run = |ckpt: &AdaptiveCheckpoint| {
            let mut p = AdaptivePortfolio::restore(&wd, &config, &backends, &cancel, ckpt)
                .expect("restore");
            while p.round(1) {}
            p.finalize();
            p.into_run()
        };
        let a = run(&ckpt);
        let b = run(&ckpt);
        // No panic, and the poisoned continuation is still deterministic.
        assert_eq!(a.winner, b.winner);
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.run.outcome, y.run.outcome);
            assert_eq!(x.run.best, y.run.best);
        }
    }

    #[test]
    fn pre_cancelled_adaptive_reports_cleanly() {
        let wd = wd_zero_free();
        let cancel = CancelToken::new();
        cancel.cancel();
        // BasinHopping's first slice pauses right after its start phase,
        // before any cancellation check — the finalization loop must keep
        // stepping until every arm actually observes the token.
        let run = minimize_weak_distance_adaptive_cancellable(
            &wd,
            &AnalysisConfig::quick(1).with_rounds(3),
            &[
                BackendKind::BasinHopping,
                BackendKind::DifferentialEvolution,
                BackendKind::RandomSearch,
            ],
            &cancel,
        );
        assert_eq!(run.entries.len(), 3);
        for entry in &run.entries {
            assert_eq!(
                entry.run.best.termination,
                wdm_mo::Termination::Cancelled,
                "{:?}",
                entry.backend
            );
        }
        // The scheduler never granted a slice; arms observed the
        // cancellation in the finalization steps and spent almost nothing.
        assert!(run.outcome().evals() < 5_000, "evals = {}", run.outcome().evals());
    }
}
