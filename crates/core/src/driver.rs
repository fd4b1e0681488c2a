//! The generic weak-distance-minimization driver (Algorithm 2), with an
//! optional parallel execution mode.
//!
//! # One restart loop
//!
//! [`minimize_weak_distance`] is a [`SteppedAnalysis`] run to completion:
//! the independent minimization rounds of Algorithm 3 step 4, merged one
//! by one by the same incremental merge the adaptive portfolio and the
//! analysis service slice. When [`AnalysisConfig::parallelism`] > 1 the
//! rounds are first sharded across that many worker threads, and
//! determinism is preserved exactly:
//!
//! * every round's seed is derived from the root seed by a SplitMix64-style
//!   bijective mix ([`derive_round_seed`]), independent of scheduling;
//! * rounds are *merged in round order*, stopping at the first round whose
//!   minimum reached zero — precisely the rounds a sequential run would
//!   have executed — so the reported [`Outcome`] (witness, best value,
//!   evaluation count and even the recorded sampling trace) is bit-identical
//!   for any thread count, including 1 and the sequential path;
//! * once some round finds a zero, all *later* rounds are cancelled through
//!   their [`CancelToken`]s (their results are discarded by the merge, so
//!   cancelling them cannot change the outcome — it only saves work).
//!
//! # Batched evaluation
//!
//! The driver hands the weak distance to the backends through
//! [`WeakDistanceObjective`], whose `eval_batch` forwards to
//! [`WeakDistance::eval_batch`]: population backends (Differential
//! Evolution evaluates each generation as one batch, random search each
//! sampling chunk) therefore reach the analysis instances' batched program
//! sessions — and the `fpir` interpreter's batch-interpret mode — without
//! any driver-level plumbing. Batching never changes results: every batch
//! path in the stack is bit-identical to its scalar loop.
//!
//! [`WeakDistanceObjective`]: crate::weak_distance::WeakDistanceObjective

use crate::adaptive::SteppedAnalysis;
use crate::weak_distance::WeakDistance;
use fp_runtime::{KernelPolicy, OptPolicy};
use wdm_mo::{
    BasinHopping, CancelToken, DifferentialEvolution, MinimizeResult, MultiStart, Powell,
    RandomSearch, SamplingTrace, SteppedMinimizer,
};

/// Which MO backend Algorithm 2 uses (Section 4.1 treats the backend as an
/// interchangeable black box; Table 1 compares three of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Basin hopping (the paper's default).
    BasinHopping,
    /// Differential Evolution.
    DifferentialEvolution,
    /// Powell's method from a random starting point.
    Powell,
    /// Repeated Nelder–Mead from random starting points.
    MultiStart,
    /// Pure random sampling (the Fig. 7 degenerate baseline).
    RandomSearch,
}

impl BackendKind {
    /// All backends, in the order of Table 1 plus the two baselines.
    pub fn all() -> [BackendKind; 5] {
        [
            BackendKind::BasinHopping,
            BackendKind::DifferentialEvolution,
            BackendKind::Powell,
            BackendKind::MultiStart,
            BackendKind::RandomSearch,
        ]
    }

    /// Display name matching the paper's Table 1.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::BasinHopping => "Basinhopping",
            BackendKind::DifferentialEvolution => "Differential E.",
            BackendKind::Powell => "Powell",
            BackendKind::MultiStart => "MultiStart",
            BackendKind::RandomSearch => "RandomSearch",
        }
    }

    /// Builds the backend as a resumable stepped run — what the restart
    /// loop ([`SteppedAnalysis`]) steps and the adaptive portfolio
    /// scheduler ([`crate::adaptive`]) reallocates budget through. Runs are
    /// bit-identical to [`wdm_mo::GlobalMinimizer`] runs however they are
    /// sliced, and every backend checkpoints at its pauses.
    pub fn build_stepped(self) -> Box<dyn SteppedMinimizer> {
        match self {
            BackendKind::BasinHopping => Box::new(BasinHopping::default()),
            BackendKind::DifferentialEvolution => Box::new(DifferentialEvolution::default()),
            BackendKind::Powell => Box::new(Powell::default()),
            BackendKind::MultiStart => Box::new(MultiStart::default()),
            BackendKind::RandomSearch => Box::new(RandomSearch::default()),
        }
    }
}

/// Plateau-escalation policy of the adaptive portfolio
/// ([`crate::adaptive`]): when the recency-weighted improvement across
/// every live arm stays below `threshold` for `patience` consecutive
/// scheduler rounds, the scheduler escalates — a focused local-polish
/// arm (Powell/Brent started at the incumbent) and a bound-tightened
/// restart arm join the portfolio, drawing from the same evaluation
/// pool, and a handoff describing the tightened region is published for
/// satisfiability-shaped drivers to route to `wdm_xsat` mid-run.
/// Escalation decisions are pure functions of the slice history, so the
/// determinism and checkpoint contracts of the portfolio are preserved.
#[derive(Debug, Clone, PartialEq)]
pub struct EscalationConfig {
    /// An escalation round counts as a plateau round when no live arm's
    /// recency-weighted mean reward reaches this value.
    pub threshold: f64,
    /// Consecutive plateau rounds required before escalating.
    pub patience: usize,
    /// Maximum number of escalation events per run (each event adds two
    /// arms).
    pub max_escalations: usize,
    /// Width of the tightened search box around the incumbent, as a
    /// fraction of each dimension's full width (see
    /// [`wdm_mo::Bounds::tightened_around`]).
    pub tighten: f64,
}

impl Default for EscalationConfig {
    fn default() -> Self {
        EscalationConfig {
            threshold: 0.01,
            patience: 4,
            max_escalations: 2,
            tighten: 0.05,
        }
    }
}

impl EscalationConfig {
    /// Sets the plateau reward threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Sets the plateau patience, in scheduler rounds.
    pub fn with_patience(mut self, patience: usize) -> Self {
        self.patience = patience.max(1);
        self
    }

    /// Sets the maximum number of escalation events.
    pub fn with_max_escalations(mut self, max_escalations: usize) -> Self {
        self.max_escalations = max_escalations;
        self
    }

    /// Sets the tightening fraction of the escalated search box.
    pub fn with_tighten(mut self, tighten: f64) -> Self {
        self.tighten = tighten;
        self
    }
}

/// Configuration of one analysis run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisConfig {
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Objective-evaluation budget per minimization round.
    pub max_evals: usize,
    /// Number of independent minimization rounds (each from fresh random
    /// starting points, as in Algorithm 3 step 4).
    pub rounds: usize,
    /// The MO backend.
    pub backend: BackendKind,
    /// Record the sampling sequence (needed for the figure harnesses).
    pub record_samples: bool,
    /// Keep every `sample_stride`-th sample when recording.
    pub sample_stride: u64,
    /// Number of worker threads used to shard the minimization rounds,
    /// and to step the arms of an adaptive portfolio
    /// ([`crate::adaptive`]) within each scheduler round. `0` and `1` both
    /// mean "run sequentially". The outcome is bit-identical for every
    /// value — parallelism only changes wall-clock time.
    pub parallelism: usize,
    /// Which batch backend the weak distances request from the program
    /// under analysis ([`Analyzable::batch_executor`]): under
    /// [`KernelPolicy::Auto`] eligible `fpir` modules evaluate batches on
    /// the lanewise SoA kernel. Like `parallelism`, the policy never
    /// changes outcomes — every backend is bit-identical — only throughput.
    ///
    /// [`Analyzable::batch_executor`]: fp_runtime::Analyzable::batch_executor
    /// [`KernelPolicy::Auto`]: fp_runtime::KernelPolicy::Auto
    pub kernel_policy: KernelPolicy,
    /// Whether the weak distances may run a target-specialized
    /// (translation-validated, [`Analyzable::specialize`]) variant of the
    /// program under analysis. Like `kernel_policy`, the policy never
    /// changes outcomes — a specialized program is only kept when it is
    /// proved to produce a bit-identical observed event stream — only
    /// per-evaluation cost.
    ///
    /// [`Analyzable::specialize`]: fp_runtime::Analyzable::specialize
    pub opt_policy: OptPolicy,
    /// Plateau-triggered hybrid escalation of the adaptive portfolio
    /// ([`crate::adaptive`]); `None` (the default) disables escalation
    /// and reproduces the pre-escalation scheduler bit for bit.
    pub escalation: Option<EscalationConfig>,
}

impl AnalysisConfig {
    /// A quick configuration for unit tests and examples.
    pub fn quick(seed: u64) -> Self {
        AnalysisConfig {
            seed,
            max_evals: 20_000,
            rounds: 3,
            backend: BackendKind::BasinHopping,
            record_samples: false,
            sample_stride: 1,
            parallelism: 1,
            kernel_policy: KernelPolicy::Auto,
            opt_policy: OptPolicy::Auto,
            escalation: None,
        }
    }

    /// A thorough configuration for the experiment harnesses.
    pub fn thorough(seed: u64) -> Self {
        AnalysisConfig {
            seed,
            max_evals: 200_000,
            rounds: 10,
            backend: BackendKind::BasinHopping,
            record_samples: false,
            sample_stride: 1,
            parallelism: 1,
            kernel_policy: KernelPolicy::Auto,
            opt_policy: OptPolicy::Auto,
            escalation: None,
        }
    }

    /// Sets the backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the per-round evaluation budget.
    pub fn with_max_evals(mut self, max_evals: usize) -> Self {
        self.max_evals = max_evals;
        self
    }

    /// Sets the number of rounds.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Enables sample recording with the given stride.
    pub fn recording(mut self, stride: u64) -> Self {
        self.record_samples = true;
        self.sample_stride = stride.max(1);
        self
    }

    /// Sets the number of worker threads sharding the rounds and stepping
    /// portfolio arms (`<= 1` means sequential). Does not change the
    /// outcome, only the wall-clock time.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the kernel policy the weak distances pass to
    /// [`Analyzable::batch_executor`](fp_runtime::Analyzable::batch_executor).
    /// Does not change the outcome — only which (bit-identical) batch
    /// backend evaluates the program.
    pub fn with_kernel_policy(mut self, kernel_policy: KernelPolicy) -> Self {
        self.kernel_policy = kernel_policy;
        self
    }

    /// Sets the specialization policy the weak distances pass to
    /// [`Analyzable::specialize`](fp_runtime::Analyzable::specialize).
    /// Does not change the outcome — a specialized program is kept only
    /// when translation validation proves its observed behavior
    /// bit-identical — only per-evaluation cost.
    pub fn with_opt_policy(mut self, opt_policy: OptPolicy) -> Self {
        self.opt_policy = opt_policy;
        self
    }

    /// Enables plateau-triggered hybrid escalation in the adaptive
    /// portfolio ([`crate::adaptive`]).
    pub fn with_escalation(mut self, escalation: EscalationConfig) -> Self {
        self.escalation = Some(escalation);
        self
    }

    /// Decorrelates this configuration's restart stream from the root seed:
    /// offset 0 leaves the seed unchanged, every other offset derives a
    /// distinct stream. The adaptive portfolio gives each arm its own
    /// offset so the arms do not all retrace the same starting points.
    pub fn with_seed_offset(mut self, offset: u64) -> Self {
        if offset > 0 {
            // Offsets map far away from the small round indices used by
            // derive_round_seed inside a run, so streams cannot overlap.
            self.seed = derive_round_seed(self.seed, u64::MAX - offset);
        }
        self
    }
}

/// The result of a floating-point analysis problem in the sense of
/// Definition 2.1: either an element of `S`, or "not found".
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A solution was found: the weak distance reached zero at `input`.
    Found {
        /// The solution input.
        input: Vec<f64>,
        /// Number of objective evaluations spent.
        evals: usize,
    },
    /// No solution was found within the budget; the best (smallest) weak
    /// distance value and where it was attained are reported. By
    /// Limitation 3 this does *not* prove that `S` is empty.
    NotFound {
        /// Best weak-distance value observed.
        best_value: f64,
        /// Input attaining the best value.
        best_input: Vec<f64>,
        /// Number of objective evaluations spent.
        evals: usize,
    },
}

impl Outcome {
    /// Returns `true` if a solution was found.
    pub fn is_found(&self) -> bool {
        matches!(self, Outcome::Found { .. })
    }

    /// Extracts the solution input, if any.
    pub fn into_input(self) -> Option<Vec<f64>> {
        match self {
            Outcome::Found { input, .. } => Some(input),
            Outcome::NotFound { .. } => None,
        }
    }

    /// Number of objective evaluations spent.
    pub fn evals(&self) -> usize {
        match self {
            Outcome::Found { evals, .. } | Outcome::NotFound { evals, .. } => *evals,
        }
    }
}

/// The raw result of minimizing a weak distance: the driver outcome plus the
/// backend's result and the recorded sampling trace.
#[derive(Debug, Clone)]
pub struct MinimizationRun {
    /// The Definition 2.1 outcome.
    pub outcome: Outcome,
    /// The best backend result across rounds.
    pub best: MinimizeResult,
    /// The recorded sampling sequence (empty unless recording was enabled).
    pub trace: SamplingTrace,
}

impl MinimizationRun {
    /// Returns `true` when this run was pruned by static analysis
    /// ([`statically_pruned_run`]) instead of being minimized.
    pub fn statically_pruned(&self) -> bool {
        self.best.termination == wdm_mo::Termination::StaticallyUnreachable
    }
}

/// The zero-cost run reported when static analysis proved a target
/// unreachable over the search domain: no minimizer runs, no evaluation is
/// charged, and the best result carries
/// [`Termination::StaticallyUnreachable`](wdm_mo::Termination::StaticallyUnreachable)
/// so reports can tell a pruned target from a budget-exhausted miss.
/// Pruning only ever fires on a proof (the interval analysis classifies a
/// target `Unreachable` only when no domain point can reach it), so
/// replacing the minimization with this constant never loses a solution.
pub fn statically_pruned_run(best_value: f64) -> MinimizationRun {
    MinimizationRun {
        outcome: Outcome::NotFound {
            best_value,
            best_input: Vec::new(),
            evals: 0,
        },
        best: MinimizeResult::new(
            Vec::new(),
            best_value,
            0,
            wdm_mo::Termination::StaticallyUnreachable,
        ),
        trace: SamplingTrace::with_stride(1),
    }
}

/// Derives the seed of round (shard) `round` from the root seed by a
/// SplitMix64-style finalizer (Stafford's Mix13 constants).
///
/// The mix is a bijection of `u64` applied to `root + (round + 1) * γ` with
/// odd γ, so for a fixed root seed, distinct round indices can never
/// collide — every shard of a parallel run gets a distinct, statistically
/// independent seed, and the derivation does not depend on which thread
/// runs the shard.
pub fn derive_round_seed(root: u64, round: u64) -> u64 {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut z = root.wrapping_add(round.wrapping_add(1).wrapping_mul(GAMMA));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Algorithm 2: minimizes `wd` with the configured backend and budget.
///
/// The weak distance reaching exactly zero means a solution of the
/// underlying problem has been found (Theorem 3.3); a strictly positive
/// minimum is reported as "not found" (which, by Limitation 3, is not a
/// proof of emptiness).
///
/// With [`AnalysisConfig::parallelism`] > 1 the independent rounds are
/// sharded across worker threads; the result is bit-identical to the
/// sequential run (see the module documentation).
pub fn minimize_weak_distance(wd: &dyn WeakDistance, config: &AnalysisConfig) -> MinimizationRun {
    minimize_weak_distance_cancellable(wd, config, &CancelToken::new())
}

/// [`minimize_weak_distance`] with an external cancellation token: the run
/// stops at the next objective evaluation once `cancel` fires, and starts no
/// further round.
pub fn minimize_weak_distance_cancellable(
    wd: &dyn WeakDistance,
    config: &AnalysisConfig,
    cancel: &CancelToken,
) -> MinimizationRun {
    let mut analysis = SteppedAnalysis::new(wd, config, cancel.clone());
    if config.parallelism.min(config.rounds) > 1 {
        analysis.run_rounds_sharded(config.parallelism);
    }
    while !analysis.step(usize::MAX) {}
    analysis.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weak_distance::FnWeakDistance;
    use fp_runtime::Interval;

    fn wd_two_zeros() -> impl WeakDistance {
        FnWeakDistance::new(1, vec![Interval::symmetric(1.0e4)], |x: &[f64]| {
            (x[0] - 1.0).abs() * (x[0] + 3.0).abs()
        })
    }

    #[test]
    fn finds_a_zero_with_default_backend() {
        let run = minimize_weak_distance(&wd_two_zeros(), &AnalysisConfig::quick(1));
        match run.outcome {
            Outcome::Found { input, .. } => {
                let x = input[0];
                assert!(x == 1.0 || x == -3.0, "x = {x}");
            }
            Outcome::NotFound { best_value, .. } => panic!("not found, best = {best_value}"),
        }
    }

    #[test]
    fn reports_not_found_for_positive_minimum() {
        // W(x) = |x| + 1 has minimum 1 > 0: S is empty.
        let wd = FnWeakDistance::new(1, vec![Interval::symmetric(100.0)], |x: &[f64]| {
            x[0].abs() + 1.0
        });
        let run = minimize_weak_distance(&wd, &AnalysisConfig::quick(2).with_rounds(1));
        match run.outcome {
            Outcome::NotFound { best_value, .. } => {
                assert!((best_value - 1.0).abs() < 1e-6, "best = {best_value}");
            }
            Outcome::Found { input, .. } => panic!("spurious solution {input:?}"),
        }
        assert!(!run.outcome.is_found());
        assert!(run.outcome.evals() > 0);
    }

    #[test]
    fn every_backend_solves_the_easy_problem() {
        // |x - 3| over a modest range: every backend should reach ~0, and the
        // exact-zero guarantee holds at least for basin hopping.
        for backend in BackendKind::all() {
            let wd = FnWeakDistance::new(1, vec![Interval::symmetric(50.0)], |x: &[f64]| {
                (x[0] - 3.0).abs()
            });
            let cfg = AnalysisConfig::quick(7).with_backend(backend).with_rounds(2);
            let run = minimize_weak_distance(&wd, &cfg);
            assert!(
                run.best.value < 0.5,
                "{} best = {}",
                backend.name(),
                run.best.value
            );
        }
    }

    #[test]
    fn sampling_trace_is_recorded_when_requested() {
        let run = minimize_weak_distance(
            &wd_two_zeros(),
            &AnalysisConfig::quick(3).with_rounds(1).recording(2),
        );
        assert!(!run.trace.is_empty());
        assert!(run.trace.total_seen() >= run.trace.len() as u64);
    }

    #[test]
    fn outcome_helpers() {
        let found = Outcome::Found {
            input: vec![1.0],
            evals: 10,
        };
        assert!(found.is_found());
        assert_eq!(found.clone().into_input(), Some(vec![1.0]));
        assert_eq!(found.evals(), 10);
        let not = Outcome::NotFound {
            best_value: 0.5,
            best_input: vec![0.0],
            evals: 20,
        };
        assert_eq!(not.clone().into_input(), None);
        assert_eq!(not.evals(), 20);
    }

    #[test]
    fn parallel_rounds_match_sequential_bit_for_bit() {
        // A weak distance with no zero: every round runs to completion, so
        // the merge must charge all of them identically at any thread count.
        let wd = FnWeakDistance::new(1, vec![Interval::symmetric(100.0)], |x: &[f64]| {
            x[0].abs() + 0.5
        });
        let base = AnalysisConfig::quick(41).with_rounds(6).with_max_evals(4_000);
        let sequential = minimize_weak_distance(&wd, &base);
        for threads in [2, 3, 8] {
            let parallel =
                minimize_weak_distance(&wd, &base.clone().with_parallelism(threads));
            assert_eq!(parallel.outcome, sequential.outcome, "threads = {threads}");
            assert_eq!(parallel.best, sequential.best, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_rounds_find_solutions_too() {
        let base = AnalysisConfig::quick(9).with_rounds(4);
        let sequential = minimize_weak_distance(&wd_two_zeros(), &base);
        let parallel =
            minimize_weak_distance(&wd_two_zeros(), &base.clone().with_parallelism(4));
        assert_eq!(parallel.outcome, sequential.outcome);
    }

    #[test]
    fn parallel_recording_reproduces_the_sequential_trace() {
        let wd = FnWeakDistance::new(1, vec![Interval::symmetric(50.0)], |x: &[f64]| {
            x[0].abs() + 1.0
        });
        let base = AnalysisConfig::quick(5)
            .with_rounds(3)
            .with_max_evals(2_000)
            .recording(2);
        let sequential = minimize_weak_distance(&wd, &base);
        let parallel = minimize_weak_distance(&wd, &base.clone().with_parallelism(3));
        assert_eq!(parallel.trace.len(), sequential.trace.len());
        assert_eq!(parallel.trace.total_seen(), sequential.trace.total_seen());
        assert_eq!(parallel.trace.samples(), sequential.trace.samples());
    }

    #[test]
    fn derived_round_seeds_are_distinct_and_scheduling_free() {
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..2_000u64 {
            assert!(seen.insert(derive_round_seed(123, round)), "round {round}");
        }
        assert_eq!(derive_round_seed(7, 3), derive_round_seed(7, 3));
        assert_ne!(derive_round_seed(7, 3), derive_round_seed(8, 3));
    }

    #[test]
    fn external_cancellation_stops_the_run_quickly() {
        let wd = FnWeakDistance::new(1, vec![Interval::symmetric(100.0)], |x: &[f64]| {
            x[0].abs() + 1.0
        });
        let cancel = wdm_mo::CancelToken::new();
        cancel.cancel();
        let config = AnalysisConfig::quick(1).with_rounds(3).with_max_evals(100_000);
        let run = minimize_weak_distance_cancellable(&wd, &config, &cancel);
        // A pre-cancelled run spends almost nothing (only the evaluations a
        // backend performs before its first stop check).
        assert!(run.outcome.evals() < 5_000, "evals = {}", run.outcome.evals());
    }

    /// Regression (PR 5): a cancelled run used to launch every remaining
    /// restart round anyway; each round burned evaluations before
    /// observing the token, so a cancelled portfolio entry charged several
    /// rounds' worth of spurious work and its eval count drifted from what
    /// the objective actually saw. A cancelled run now stops between
    /// rounds, and the charged count equals the objective-observed count.
    #[test]
    fn cancelled_run_does_not_start_further_rounds() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let count = AtomicU64::new(0);
        let wd = FnWeakDistance::new(1, vec![Interval::symmetric(100.0)], |x: &[f64]| {
            count.fetch_add(1, Ordering::Relaxed);
            x[0].abs() + 1.0
        });
        let cancel = CancelToken::new();
        cancel.cancel();

        let one_round = minimize_weak_distance_cancellable(
            &wd,
            &AnalysisConfig::quick(1).with_rounds(1).with_max_evals(100_000),
            &cancel,
        );
        let counted_one = count.swap(0, Ordering::Relaxed);
        assert_eq!(one_round.outcome.evals() as u64, counted_one);

        for parallelism in [1usize, 4] {
            let five_rounds = minimize_weak_distance_cancellable(
                &wd,
                &AnalysisConfig::quick(1)
                    .with_rounds(5)
                    .with_max_evals(100_000)
                    .with_parallelism(parallelism),
                &cancel,
            );
            let counted = count.swap(0, Ordering::Relaxed);
            // Charged == objective-observed (nothing leaks past the merge)…
            assert_eq!(five_rounds.outcome.evals() as u64, counted);
            // …and rounds 1..4 never started: the 5-round cancelled run is
            // exactly the 1-round cancelled run.
            assert_eq!(five_rounds.outcome, one_round.outcome, "parallelism {parallelism}");
            assert_eq!(five_rounds.best, one_round.best, "parallelism {parallelism}");
        }
    }

    /// The same accounting invariant through the batched (Differential
    /// Evolution) path: with the stop pending at batch entry, the
    /// objective sees exactly the one sample the scalar post-check loop
    /// evaluates per round — and only round 0 runs.
    #[test]
    fn cancelled_batched_run_charges_exactly_what_the_objective_saw() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let count = AtomicU64::new(0);
        let wd = FnWeakDistance::new(1, vec![Interval::symmetric(100.0)], |x: &[f64]| {
            count.fetch_add(1, Ordering::Relaxed);
            x[0].abs() + 1.0
        });
        let cancel = CancelToken::new();
        cancel.cancel();
        let run = minimize_weak_distance_cancellable(
            &wd,
            &AnalysisConfig::quick(2)
                .with_rounds(4)
                .with_backend(BackendKind::DifferentialEvolution),
            &cancel,
        );
        let counted = count.load(Ordering::Relaxed);
        assert_eq!(run.outcome.evals() as u64, counted);
        // One pre-cancelled batch evaluates exactly one sample.
        assert_eq!(run.outcome.evals(), 1);
        assert_eq!(run.best.termination, wdm_mo::Termination::Cancelled);
    }

    #[test]
    fn backend_names_match_table1() {
        assert_eq!(BackendKind::BasinHopping.name(), "Basinhopping");
        assert_eq!(BackendKind::DifferentialEvolution.name(), "Differential E.");
        assert_eq!(BackendKind::Powell.name(), "Powell");
        assert_eq!(BackendKind::all().len(), 5);
    }
}
