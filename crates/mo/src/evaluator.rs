//! Bookkeeping shared by all backends: evaluation counting, best tracking,
//! sample recording and target/budget stopping — for one point at a time
//! ([`Evaluator::eval`]) or for whole candidate batches
//! ([`Evaluator::eval_batch`]).
//!
//! The evaluator is public because it is the seam a batched (SIMD/GPU)
//! objective backend plugs into: backends hand it candidate points, and it
//! owns clamping, trace recording, incumbent updates and stop conditions,
//! guaranteeing that the batched path is **bit-identical** to the scalar
//! one (same values, same evaluation count, same incumbent, same recorded
//! trace) — a guarantee the workspace-level batch equivalence proptests
//! pin down.

use crate::result::Termination;
use crate::sampling::SampleSink;
use crate::{better, Problem};

/// How many points the batched path hands to [`Objective::eval_batch`]
/// (crate::Objective::eval_batch) at once. Chunking bounds the clamped-copy
/// rows the evaluator keeps and keeps wasted evaluations small when a stop
/// condition fires mid-batch. Sized to one full fpir kernel wave
/// (`fpir::kernel::WAVE_LANES`), so minimizer-driven batches reach the
/// lanewise backend at its design width; equivalence with the scalar loop
/// holds at any chunk size (the batch-equivalence proptests pin it).
const BATCH_CHUNK: usize = 256;

/// The portable bookkeeping of an [`Evaluator`], detached from the
/// problem/sink borrows so a stepped backend can carry it across budget
/// slices ([`Evaluator::resume`] / [`Evaluator::suspend`]). Resuming with
/// a suspended state is bit-identical to never having suspended.
#[derive(Debug, Clone)]
pub struct EvaluatorState {
    evals: usize,
    best_x: Vec<f64>,
    best_value: f64,
    has_best: bool,
    target_hit: bool,
}

impl EvaluatorState {
    /// The state of a fresh evaluator for a `dim`-dimensional objective.
    pub fn fresh(dim: usize) -> Self {
        EvaluatorState {
            evals: 0,
            best_x: vec![f64::NAN; dim],
            best_value: f64::INFINITY,
            has_best: false,
            target_hit: false,
        }
    }

    /// Evaluations charged so far.
    pub fn evals(&self) -> usize {
        self.evals
    }

    /// Best value seen so far (`f64::INFINITY` before the first eval).
    pub fn best_value(&self) -> f64 {
        self.best_value
    }

    /// Best point seen so far.
    pub fn best(&self) -> (Vec<f64>, f64) {
        (self.best_x.clone(), self.best_value)
    }

    /// Serializable snapshot of this state (floats as raw bit patterns, so
    /// NaN incumbents and signed zeros survive the JSON round trip).
    pub fn checkpoint(&self) -> crate::checkpoint::EvalCkpt {
        crate::checkpoint::EvalCkpt {
            evals: self.evals,
            best_x: crate::checkpoint::bits_of(&self.best_x),
            best_value: self.best_value.to_bits(),
            has_best: self.has_best,
            target_hit: self.target_hit,
        }
    }

    /// Rebuilds a state from a [`checkpoint`](EvaluatorState::checkpoint)
    /// snapshot, bit-exactly.
    pub fn from_checkpoint(ckpt: &crate::checkpoint::EvalCkpt) -> Self {
        EvaluatorState {
            evals: ckpt.evals,
            best_x: crate::checkpoint::floats_of(&ckpt.best_x),
            best_value: f64::from_bits(ckpt.best_value),
            has_best: ckpt.has_best,
            target_hit: ckpt.target_hit,
        }
    }
}

/// Tracks evaluations for one backend run.
///
/// The canonical scalar shape every backend follows is
///
/// ```ignore
/// ev.eval(&x);
/// if ev.should_stop() { break; }
/// ```
///
/// i.e. stop conditions are checked *after* each evaluation.
/// [`Evaluator::eval_batch`] reproduces exactly that loop over a batch of
/// points, stopping right after the sample at which the scalar loop would
/// have stopped.
pub struct Evaluator<'a, 'b> {
    problem: &'a Problem<'a>,
    sink: &'b mut dyn SampleSink,
    evals: usize,
    max_evals: usize,
    best_x: Vec<f64>,
    best_value: f64,
    has_best: bool,
    target_hit: bool,
    /// The clamped copy of an out-of-bounds point [`Evaluator::eval`]
    /// evaluates; sized on the first evaluation and reused, so later scalar
    /// evaluations never allocate.
    scratch: Vec<f64>,
    /// The clamped copies of the chunk [`Evaluator::eval_batch`] evaluates,
    /// and their values. Rows are added as chunks grow and never dropped,
    /// so once the widest chunk has been seen, batches never allocate.
    rows: Vec<Vec<f64>>,
    values: Vec<f64>,
}

impl<'a, 'b> Evaluator<'a, 'b> {
    /// Creates an evaluator for one backend run over `problem`, recording
    /// every evaluation into `sink`.
    pub fn new(problem: &'a Problem<'a>, sink: &'b mut dyn SampleSink) -> Self {
        Evaluator::resume(
            problem,
            sink,
            EvaluatorState::fresh(problem.objective.dim()),
        )
    }

    /// Recreates an evaluator from a [`suspend`](Evaluator::suspend)ed
    /// state. The problem must be the one the state was built against
    /// (same objective, bounds, target, budget, cancel token); the stepped
    /// backends uphold this by passing the identical problem to every
    /// slice.
    pub fn resume(
        problem: &'a Problem<'a>,
        sink: &'b mut dyn SampleSink,
        state: EvaluatorState,
    ) -> Self {
        Evaluator {
            problem,
            sink,
            evals: state.evals,
            max_evals: problem.max_evals,
            best_x: state.best_x,
            best_value: state.best_value,
            has_best: state.has_best,
            target_hit: state.target_hit,
            scratch: Vec::new(),
            rows: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Lowers the budget to at most `max_evals` evaluations: the per-call
    /// budget of a local search. The problem's own budget still applies,
    /// and a run that suspends must re-apply the same cap on resume.
    pub fn capped(mut self, max_evals: usize) -> Self {
        self.max_evals = self.max_evals.min(max_evals);
        self
    }

    /// Detaches the bookkeeping so a stepped backend can pause here and
    /// [`resume`](Evaluator::resume) in a later slice.
    pub fn suspend(self) -> EvaluatorState {
        EvaluatorState {
            evals: self.evals,
            best_x: self.best_x,
            best_value: self.best_value,
            has_best: self.has_best,
            target_hit: self.target_hit,
        }
    }

    /// [`Evaluator::new`] in buffers lent by a backend that runs many
    /// searches in a round: `incumbent` becomes the fresh incumbent (its
    /// contents are replaced, its capacity kept) and `scratch` the clamp
    /// scratch, so a search that starts here allocates nothing once the
    /// buffers have grown. [`Evaluator::into_best`] gives them back.
    pub(crate) fn lent(
        problem: &'a Problem<'a>,
        sink: &'b mut dyn SampleSink,
        mut incumbent: Vec<f64>,
        scratch: Vec<f64>,
    ) -> Self {
        incumbent.clear();
        incumbent.resize(problem.objective.dim(), f64::NAN);
        let fresh = EvaluatorState {
            best_x: incumbent,
            ..EvaluatorState::fresh(0)
        };
        Evaluator {
            scratch,
            ..Evaluator::resume(problem, sink, fresh)
        }
    }

    /// Ends the run: moves the best point out instead of cloning it, and
    /// hands the clamp scratch back to `scratch` for the next search.
    pub(crate) fn into_best(self, scratch: &mut Vec<f64>) -> (Vec<f64>, f64) {
        *scratch = self.scratch;
        (self.best_x, self.best_value)
    }

    /// Evaluates the objective at `x` (clamped into the bounds), records the
    /// sample and updates the incumbent.
    ///
    /// Clamping returns an in-bounds point unchanged (−0.0 included), so
    /// such a point is evaluated, recorded and kept in place; only a point
    /// outside the bounds or with a NaN coordinate is copied and clamped.
    pub fn eval(&mut self, x: &[f64]) -> f64 {
        if self.problem.bounds.contains(x) {
            if self.scratch.capacity() < x.len() {
                // Size the scratch on the first evaluation whichever path
                // it takes, so a later out-of-bounds point does not
                // allocate.
                self.scratch.reserve(x.len());
            }
            return self.eval_clamped(x);
        }
        let mut clamped = std::mem::take(&mut self.scratch);
        clamped.clear();
        clamped.extend_from_slice(x);
        self.problem.bounds.clamp(&mut clamped);
        let value = self.eval_clamped(&clamped);
        self.scratch = clamped;
        value
    }

    /// Evaluates, records and keeps a point already inside the bounds.
    fn eval_clamped(&mut self, clamped: &[f64]) -> f64 {
        let value = self.problem.objective.eval(clamped);
        self.sink.record(self.evals as u64, clamped, value);
        self.evals += 1;
        self.note(clamped, value);
        value
    }

    /// Evaluates a batch of candidate points through
    /// [`Objective::eval_batch`](crate::Objective::eval_batch), chunked so
    /// the budget is never exceeded, and replays the scalar bookkeeping per
    /// sample in order: clamping, trace recording, evaluation counting,
    /// incumbent updates and target detection are bit-identical to calling
    /// [`Evaluator::eval`] in a loop with a `should_stop` post-check.
    ///
    /// Replaces the contents of `out` with the values of the *processed*
    /// samples and returns their count: processing stops right after the
    /// sample at which the scalar loop would have stopped (target reached,
    /// budget exhausted, or cancellation observed), so a short count means
    /// the remaining points were never charged — exactly as if the scalar
    /// loop had broken there. Like the scalar post-check loop, a non-empty
    /// batch always processes at least one sample; callers check
    /// [`Evaluator::should_stop`] before submitting a batch, as the scalar
    /// backends do before each `eval`.
    pub fn eval_batch(&mut self, xs: &[Vec<f64>], out: &mut Vec<f64>) -> usize {
        out.clear();
        let mut processed = 0usize;
        let mut rows = std::mem::take(&mut self.rows);
        let mut values = std::mem::take(&mut self.values);
        while processed < xs.len() {
            // The scalar loop checks stop conditions after each evaluation,
            // never before the first one.
            if processed > 0 && self.should_stop() {
                break;
            }
            // Samples past the point where the scalar loop stops must not
            // reach the objective at all when the stop is already known:
            // they would be uncharged and unrecorded here, but a stateful
            // objective (an instrumented program session, an evaluation
            // counter) would still see their side effects. A stop condition
            // pending at chunk start — stale target hit, exhausted budget,
            // cancellation — means the scalar loop evaluates exactly one
            // more sample, so the chunk is capped at 1. Only a stop that
            // *arises inside* the chunk can still over-evaluate its tail,
            // and those extra evaluations are discarded before any
            // recording or charging below.
            let budget = if self.should_stop() {
                1
            } else {
                self.remaining().max(1)
            };
            let chunk = BATCH_CHUNK.min(xs.len() - processed).min(budget);
            if rows.len() < chunk {
                rows.resize_with(chunk, Vec::new);
            }
            let clamped = &mut rows[..chunk];
            for (row, x) in clamped.iter_mut().zip(&xs[processed..processed + chunk]) {
                row.clone_from(x);
                self.problem.bounds.clamp(row);
            }
            self.problem.objective.eval_batch(clamped, &mut values);
            // How far into the chunk the scalar loop would have gone: it
            // stops right after the sample that reaches the target,
            // exhausts the budget, or observes cancellation. Samples past
            // that point stay uncharged and unrecorded.
            let mut take = 0usize;
            while take < chunk {
                take += 1;
                // `self.target_hit` covers a target already reached before
                // this batch (the scalar post-check loop would stop after
                // one more sample); the fresh per-sample check covers a
                // target reached inside the chunk.
                if self.target_hit
                    || self.problem.target_reached(values[take - 1])
                    || self.evals + take >= self.max_evals
                    || self.problem.is_cancelled()
                {
                    break;
                }
            }
            self.sink
                .record_batch(self.evals as u64, &clamped[..take], &values[..take]);
            for (x, &value) in clamped[..take].iter().zip(&values[..take]) {
                self.evals += 1;
                self.note(x, value);
                out.push(value);
            }
            processed += take;
            if take < chunk {
                break;
            }
        }
        self.rows = rows;
        self.values = values;
        processed
    }

    /// Folds one evaluated sample into the incumbent and target state.
    fn note(&mut self, clamped: &[f64], value: f64) {
        if better(value, self.best_value) || !self.has_best {
            self.best_value = value;
            self.best_x.clear();
            self.best_x.extend_from_slice(clamped);
            self.has_best = true;
        }
        if self.problem.target_reached(value) {
            self.target_hit = true;
        }
    }

    /// Number of evaluations so far.
    pub fn evals(&self) -> usize {
        self.evals
    }

    /// Whether the run must stop (target reached, budget exhausted, or the
    /// run was cancelled externally).
    pub fn should_stop(&self) -> bool {
        self.target_hit || self.evals >= self.max_evals || self.problem.is_cancelled()
    }

    /// Whether the run was cancelled externally.
    pub fn cancelled(&self) -> bool {
        self.problem.is_cancelled()
    }

    /// Classifies why a finished run stopped, falling back to `fallback`
    /// when no stop condition fired (the algorithm converged or ran out of
    /// iterations on its own).
    pub fn termination(&self, fallback: Termination) -> Termination {
        if self.target_hit {
            Termination::TargetReached
        } else if self.cancelled() {
            Termination::Cancelled
        } else if self.budget_exhausted() {
            Termination::BudgetExhausted
        } else {
            fallback
        }
    }

    /// Whether the target value has been reached.
    pub fn target_hit(&self) -> bool {
        self.target_hit
    }

    /// Whether the evaluation budget is exhausted.
    pub fn budget_exhausted(&self) -> bool {
        self.evals >= self.max_evals
    }

    /// Remaining evaluations before the budget is exhausted.
    pub fn remaining(&self) -> usize {
        self.max_evals.saturating_sub(self.evals)
    }

    /// Best point seen so far.
    pub fn best(&self) -> (Vec<f64>, f64) {
        (self.best_x.clone(), self.best_value)
    }
}

impl std::fmt::Debug for Evaluator<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Evaluator")
            .field("evals", &self.evals)
            .field("max_evals", &self.max_evals)
            .field("best_value", &self.best_value)
            .field("target_hit", &self.target_hit)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bounds, FnObjective, NoTrace, SamplingTrace};

    #[test]
    fn evaluator_tracks_best_and_counts() {
        let f = FnObjective::new(1, |x: &[f64]| (x[0] - 2.0).abs());
        let p = Problem::new(&f, Bounds::symmetric(1, 10.0)).with_target(0.0);
        let mut trace = SamplingTrace::new();
        let mut ev = Evaluator::new(&p, &mut trace);
        assert_eq!(ev.eval(&[0.0]), 2.0);
        assert_eq!(ev.eval(&[3.0]), 1.0);
        assert!(!ev.should_stop());
        assert_eq!(ev.eval(&[2.0]), 0.0);
        assert!(ev.target_hit());
        assert!(ev.should_stop());
        let (x, v) = ev.best();
        assert_eq!(x, vec![2.0]);
        assert_eq!(v, 0.0);
        assert_eq!(ev.evals(), 3);
        assert_eq!(trace.len(), 3);
    }

    #[test]
    fn evaluator_clamps_out_of_bounds_points() {
        let f = FnObjective::new(1, |x: &[f64]| x[0]);
        let p = Problem::new(&f, Bounds::symmetric(1, 1.0));
        let mut sink = NoTrace;
        let mut ev = Evaluator::new(&p, &mut sink);
        // 100 is clamped to 1 before evaluation.
        assert_eq!(ev.eval(&[100.0]), 1.0);
    }

    #[test]
    fn evaluator_keeps_first_point_even_when_nan() {
        // A NaN first value must still install an incumbent (previously the
        // `best_x[0].is_nan()` check did this; the flag must preserve it).
        let f = FnObjective::new(1, |x: &[f64]| if x[0] < 0.5 { f64::NAN } else { x[0] });
        let p = Problem::new(&f, Bounds::symmetric(1, 10.0));
        let mut sink = NoTrace;
        let mut ev = Evaluator::new(&p, &mut sink);
        ev.eval(&[0.0]);
        let (x, v) = ev.best();
        assert_eq!(x, vec![0.0]);
        assert!(v.is_nan());
        // A finite value replaces the NaN incumbent.
        ev.eval(&[2.0]);
        let (x, v) = ev.best();
        assert_eq!(x, vec![2.0]);
        assert_eq!(v, 2.0);
    }

    #[test]
    fn evaluator_cancellation_stops_the_run() {
        use crate::CancelToken;
        let f = FnObjective::new(1, |x: &[f64]| x[0]);
        let token = CancelToken::new();
        let p = Problem::new(&f, Bounds::symmetric(1, 1.0)).with_cancel(token.clone());
        let mut sink = NoTrace;
        let mut ev = Evaluator::new(&p, &mut sink);
        ev.eval(&[0.0]);
        assert!(!ev.should_stop());
        token.cancel();
        assert!(ev.should_stop());
        assert!(ev.cancelled());
        assert_eq!(
            ev.termination(Termination::Converged),
            Termination::Cancelled
        );
    }

    #[test]
    fn evaluator_budget() {
        let f = FnObjective::new(1, |x: &[f64]| x[0]);
        let p = Problem::new(&f, Bounds::symmetric(1, 1.0)).with_max_evals(2);
        let mut sink = NoTrace;
        let mut ev = Evaluator::new(&p, &mut sink);
        ev.eval(&[0.0]);
        assert!(!ev.budget_exhausted());
        assert_eq!(ev.remaining(), 1);
        ev.eval(&[0.0]);
        assert!(ev.budget_exhausted());
        assert!(ev.should_stop());
        assert_eq!(ev.remaining(), 0);
    }

    /// Runs the canonical scalar post-check loop over `xs`.
    fn scalar_reference(
        problem: &Problem<'_>,
        xs: &[Vec<f64>],
        trace: &mut SamplingTrace,
    ) -> (Vec<f64>, usize, (Vec<f64>, f64)) {
        let mut ev = Evaluator::new(problem, trace);
        let mut values = Vec::new();
        for x in xs {
            values.push(ev.eval(x));
            if ev.should_stop() {
                break;
            }
        }
        (values, ev.evals(), ev.best())
    }

    fn assert_batch_matches_scalar(problem: &Problem<'_>, xs: &[Vec<f64>]) {
        let mut scalar_trace = SamplingTrace::new();
        let (scalar_values, scalar_evals, scalar_best) =
            scalar_reference(problem, xs, &mut scalar_trace);

        let mut batch_trace = SamplingTrace::new();
        let mut ev = Evaluator::new(problem, &mut batch_trace);
        let mut values = Vec::new();
        let processed = ev.eval_batch(xs, &mut values);

        assert_eq!(values, scalar_values);
        assert_eq!(processed, scalar_evals);
        assert_eq!(ev.evals(), scalar_evals);
        assert_eq!(ev.best(), scalar_best);
        assert_eq!(batch_trace.samples(), scalar_trace.samples());
        assert_eq!(batch_trace.total_seen(), scalar_trace.total_seen());
    }

    #[test]
    fn eval_batch_matches_scalar_loop_across_chunk_boundaries() {
        let f = FnObjective::new(1, |x: &[f64]| (x[0] - 7.0).abs());
        let p = Problem::new(&f, Bounds::symmetric(1, 100.0));
        // More points than one chunk, including out-of-bounds points.
        let xs: Vec<Vec<f64>> = (0..150).map(|i| vec![i as f64 * 3.0 - 120.0]).collect();
        assert_batch_matches_scalar(&p, &xs);
    }

    #[test]
    fn eval_batch_stops_mid_batch_on_budget() {
        let f = FnObjective::new(1, |x: &[f64]| x[0]);
        let p = Problem::new(&f, Bounds::symmetric(1, 1000.0)).with_max_evals(10);
        let xs: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64]).collect();
        assert_batch_matches_scalar(&p, &xs);
    }

    #[test]
    fn eval_batch_stops_mid_batch_on_target() {
        let f = FnObjective::new(1, |x: &[f64]| (x[0] - 5.0).abs());
        let p = Problem::new(&f, Bounds::symmetric(1, 1000.0)).with_target(0.0);
        let xs: Vec<Vec<f64>> = (0..90).map(|i| vec![i as f64]).collect();
        // The scalar loop stops right after x = 5 (sample index 5).
        assert_batch_matches_scalar(&p, &xs);
    }

    #[test]
    fn eval_batch_with_precancelled_token_processes_one_sample() {
        use crate::CancelToken;
        let f = FnObjective::new(1, |x: &[f64]| x[0]);
        let token = CancelToken::new();
        token.cancel();
        let p = Problem::new(&f, Bounds::symmetric(1, 10.0)).with_cancel(token);
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        // Like the scalar post-check loop, exactly one sample is evaluated.
        assert_batch_matches_scalar(&p, &xs);
        let mut sink = NoTrace;
        let mut ev = Evaluator::new(&p, &mut sink);
        let mut out = Vec::new();
        assert_eq!(ev.eval_batch(&xs, &mut out), 1);
    }

    #[test]
    fn eval_batch_after_target_already_hit_processes_one_sample() {
        // A stale target_hit at batch entry must behave like the scalar
        // post-check loop: evaluate exactly one more sample, then stop.
        let f = FnObjective::new(1, |x: &[f64]| x[0].abs());
        let p = Problem::new(&f, Bounds::symmetric(1, 1000.0)).with_target(0.5);
        let mut sink = NoTrace;
        let mut ev = Evaluator::new(&p, &mut sink);
        ev.eval(&[0.0]); // hits the target
        assert!(ev.target_hit());
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 + 1.0]).collect();
        let mut out = Vec::new();
        assert_eq!(ev.eval_batch(&xs, &mut out), 1);
        assert_eq!(ev.evals(), 2);
        // The incumbent stays the target hit, not a later sample.
        assert_eq!(ev.best().1, 0.0);
    }

    /// Regression: with a stop condition already pending at batch entry
    /// (stale target hit or cancellation), `eval_batch` used to evaluate a
    /// whole chunk through the objective and then discard all but one
    /// sample — uncharged and unrecorded, but the objective itself (an
    /// instrumented program session, an eval counter) still saw the tail's
    /// side effects. The objective must now see exactly as many
    /// evaluations as the scalar post-check loop performs.
    #[test]
    fn eval_batch_does_not_over_evaluate_with_stop_pending() {
        use crate::CountingObjective;
        let f = FnObjective::new(1, |x: &[f64]| x[0].abs());
        let counted = CountingObjective::new(&f);
        let p = Problem::new(&counted, Bounds::symmetric(1, 1000.0)).with_target(0.5);
        let mut sink = NoTrace;
        let mut ev = Evaluator::new(&p, &mut sink);
        ev.eval(&[0.0]); // hits the target
        assert!(ev.target_hit());
        assert_eq!(counted.count(), 1);
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 + 1.0]).collect();
        let mut out = Vec::new();
        assert_eq!(ev.eval_batch(&xs, &mut out), 1);
        // The scalar loop evaluates exactly one more sample; so must the
        // objective have.
        assert_eq!(counted.count(), 2, "tail samples leaked to the objective");
    }

    /// Same invariant for a pre-cancelled run.
    #[test]
    fn eval_batch_does_not_over_evaluate_when_cancelled() {
        use crate::{CancelToken, CountingObjective};
        let f = FnObjective::new(1, |x: &[f64]| x[0]);
        let counted = CountingObjective::new(&f);
        let token = CancelToken::new();
        token.cancel();
        let p = Problem::new(&counted, Bounds::symmetric(1, 10.0)).with_cancel(token);
        let mut sink = NoTrace;
        let mut ev = Evaluator::new(&p, &mut sink);
        let xs: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64]).collect();
        let mut out = Vec::new();
        assert_eq!(ev.eval_batch(&xs, &mut out), 1);
        assert_eq!(counted.count(), 1, "tail samples leaked to the objective");
    }

    #[test]
    fn suspend_resume_is_invisible() {
        let f = FnObjective::new(1, |x: &[f64]| (x[0] - 2.0).abs());
        let p = Problem::new(&f, Bounds::symmetric(1, 10.0)).with_target(0.0);
        let xs: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 - 4.0]).collect();

        // Uninterrupted reference.
        let mut trace_a = SamplingTrace::new();
        let mut ev = Evaluator::new(&p, &mut trace_a);
        for x in &xs {
            ev.eval(x);
        }
        let (ref_best, ref_evals, ref_hit) = (ev.best(), ev.evals(), ev.target_hit());

        // Suspend/resume after every sample.
        let mut trace_b = SamplingTrace::new();
        let mut state = EvaluatorState::fresh(1);
        assert_eq!(state.evals(), 0);
        assert!(state.best_value().is_infinite());
        for x in &xs {
            let mut ev = Evaluator::resume(&p, &mut trace_b, state);
            ev.eval(x);
            state = ev.suspend();
        }
        assert_eq!(state.evals(), ref_evals);
        assert_eq!(state.best(), ref_best);
        assert_eq!(state.best_value().to_bits(), ref_best.1.to_bits());
        assert_eq!(trace_b.samples(), trace_a.samples());
        let ev = Evaluator::resume(&p, &mut trace_b, state);
        assert_eq!(ev.target_hit(), ref_hit);
    }

    #[test]
    fn eval_batch_on_empty_input_is_a_no_op() {
        let f = FnObjective::new(1, |x: &[f64]| x[0]);
        let p = Problem::new(&f, Bounds::symmetric(1, 1.0));
        let mut sink = NoTrace;
        let mut ev = Evaluator::new(&p, &mut sink);
        let mut out = vec![1.0];
        assert_eq!(ev.eval_batch(&[], &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(ev.evals(), 0);
    }
}
