//! Observers that consume runtime events.
//!
//! A weak distance in this workspace is, operationally, an [`Observer`] that
//! folds the event stream of one program execution into the value of the
//! instrumented variable `w` (Section 5 of the paper). This module provides
//! the observer trait itself plus generally useful observers: a null
//! observer, a full trace recorder, an event counter, branch-coverage
//! bookkeeping and an observer combinator.

use crate::event::{BranchEvent, BranchId, Event, OpEvent};
use crate::probe::ProbeControl;
use std::collections::{BTreeMap, BTreeSet};

/// Receives the runtime events of one execution of an analysed program.
///
/// Both callbacks return a [`ProbeControl`]; returning
/// [`ProbeControl::Stop`] asks the program to terminate early, mirroring the
/// `if (w == 0) return;` injected by the paper's overflow instrumentation
/// (Algorithm 3 step 2).
pub trait Observer {
    /// Called after each instrumented floating-point operation.
    fn on_op(&mut self, _ev: &OpEvent) -> ProbeControl {
        ProbeControl::Continue
    }

    /// Called at each instrumented conditional branch, before it is taken.
    fn on_branch(&mut self, _ev: &BranchEvent) -> ProbeControl {
        ProbeControl::Continue
    }
}

/// An observer that ignores every event.
///
/// # Example
///
/// ```
/// use fp_runtime::{Ctx, NullObserver};
/// let mut obs = NullObserver;
/// let mut ctx = Ctx::new(&mut obs);
/// assert_eq!(ctx.op(0, fp_runtime::FpOp::Add, 1.0 + 2.0), 3.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Records the full event stream of an execution.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    events: Vec<Event>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// All recorded events, in program order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Only the branch events, in program order.
    pub fn branches(&self) -> impl Iterator<Item = &BranchEvent> {
        self.events.iter().filter_map(|e| match e {
            Event::Branch(b) => Some(b),
            Event::Op(_) => None,
        })
    }

    /// Only the operation events, in program order.
    pub fn ops(&self) -> impl Iterator<Item = &OpEvent> {
        self.events.iter().filter_map(|e| match e {
            Event::Op(o) => Some(o),
            Event::Branch(_) => None,
        })
    }

    /// The branch path of the execution: each executed branch site paired
    /// with the direction taken. This is the `π` of path reachability
    /// (Instance 2).
    pub fn path(&self) -> Vec<(BranchId, bool)> {
        self.branches().map(|b| (b.id, b.taken)).collect()
    }

    /// Clears the recorded events so the recorder can be reused.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Observer for TraceRecorder {
    fn on_op(&mut self, ev: &OpEvent) -> ProbeControl {
        self.events.push(Event::Op(*ev));
        ProbeControl::Continue
    }

    fn on_branch(&mut self, ev: &BranchEvent) -> ProbeControl {
        self.events.push(Event::Branch(*ev));
        ProbeControl::Continue
    }
}

/// Counts operations and branches without storing them.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingObserver {
    /// Number of operation events seen.
    pub ops: usize,
    /// Number of branch events seen.
    pub branches: usize,
}

impl CountingObserver {
    /// Creates a counter with both counts at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for CountingObserver {
    fn on_op(&mut self, _ev: &OpEvent) -> ProbeControl {
        self.ops += 1;
        ProbeControl::Continue
    }

    fn on_branch(&mut self, _ev: &BranchEvent) -> ProbeControl {
        self.branches += 1;
        ProbeControl::Continue
    }
}

/// Accumulates branch coverage across many executions: which `(site,
/// direction)` pairs have been exercised, and how many times each boundary
/// condition `lhs == rhs` was hit exactly.
///
/// This is the bookkeeping needed by Instance 4 (branch-coverage testing)
/// and by the GNU `sin` case study (Table 2's `hits` row).
#[derive(Debug, Clone, Default)]
pub struct BranchCoverage {
    covered: BTreeSet<(BranchId, bool)>,
    boundary_hits: BTreeMap<BranchId, u64>,
    executions: BTreeMap<BranchId, u64>,
}

impl BranchCoverage {
    /// Creates empty coverage bookkeeping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if the branch `id` has been observed taking direction
    /// `dir`.
    pub fn is_covered(&self, id: BranchId, dir: bool) -> bool {
        self.covered.contains(&(id, dir))
    }

    /// The set of covered `(site, direction)` pairs.
    pub fn covered(&self) -> &BTreeSet<(BranchId, bool)> {
        &self.covered
    }

    /// Number of executions in which branch `id`'s condition held with
    /// equality (`lhs == rhs`), i.e. a boundary condition was triggered.
    pub fn boundary_hits(&self, id: BranchId) -> u64 {
        self.boundary_hits.get(&id).copied().unwrap_or(0)
    }

    /// Number of distinct branch sites whose boundary condition has been hit
    /// at least once.
    pub fn boundary_conditions_hit(&self) -> usize {
        self.boundary_hits.values().filter(|&&n| n > 0).count()
    }

    /// Total number of times branch `id` was executed (either direction).
    pub fn executions(&self, id: BranchId) -> u64 {
        self.executions.get(&id).copied().unwrap_or(0)
    }

    /// Number of `(site, direction)` pairs covered.
    pub fn covered_count(&self) -> usize {
        self.covered.len()
    }
}

impl Observer for BranchCoverage {
    fn on_branch(&mut self, ev: &BranchEvent) -> ProbeControl {
        self.covered.insert((ev.id, ev.taken));
        *self.executions.entry(ev.id).or_insert(0) += 1;
        if ev.lhs == ev.rhs {
            *self.boundary_hits.entry(ev.id).or_insert(0) += 1;
        }
        ProbeControl::Continue
    }
}

/// Forwards every event to two observers; requests a stop as soon as either
/// of them does.
pub struct MultiObserver<'a> {
    first: &'a mut dyn Observer,
    second: &'a mut dyn Observer,
}

impl std::fmt::Debug for MultiObserver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiObserver").finish_non_exhaustive()
    }
}

impl<'a> MultiObserver<'a> {
    /// Combines two observers.
    pub fn new(first: &'a mut dyn Observer, second: &'a mut dyn Observer) -> Self {
        MultiObserver { first, second }
    }
}

impl Observer for MultiObserver<'_> {
    fn on_op(&mut self, ev: &OpEvent) -> ProbeControl {
        let a = self.first.on_op(ev);
        let b = self.second.on_op(ev);
        a.combine(b)
    }

    fn on_branch(&mut self, ev: &BranchEvent) -> ProbeControl {
        let a = self.first.on_branch(ev);
        let b = self.second.on_branch(ev);
        a.combine(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Cmp, FpOp, OpId};

    fn op(id: u32, v: f64) -> OpEvent {
        OpEvent {
            id: OpId(id),
            op: FpOp::Mul,
            value: v,
        }
    }

    fn br(id: u32, lhs: f64, rhs: f64, taken: bool) -> BranchEvent {
        BranchEvent {
            id: BranchId(id),
            lhs,
            cmp: Cmp::Le,
            rhs,
            taken,
        }
    }

    #[test]
    fn trace_recorder_keeps_program_order() {
        let mut rec = TraceRecorder::new();
        rec.on_op(&op(0, 1.0));
        rec.on_branch(&br(0, 1.0, 2.0, true));
        rec.on_op(&op(1, 3.0));
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.ops().count(), 2);
        assert_eq!(rec.branches().count(), 1);
        assert_eq!(rec.path(), vec![(BranchId(0), true)]);
        rec.clear();
        assert!(rec.is_empty());
    }

    #[test]
    fn counting_observer_counts() {
        let mut c = CountingObserver::new();
        c.on_op(&op(0, 1.0));
        c.on_op(&op(1, 2.0));
        c.on_branch(&br(0, 1.0, 2.0, true));
        assert_eq!(c.ops, 2);
        assert_eq!(c.branches, 1);
    }

    #[test]
    fn branch_coverage_tracks_directions_and_boundaries() {
        let mut cov = BranchCoverage::new();
        cov.on_branch(&br(0, 1.0, 2.0, true));
        cov.on_branch(&br(0, 3.0, 2.0, false));
        cov.on_branch(&br(1, 5.0, 5.0, true));
        assert!(cov.is_covered(BranchId(0), true));
        assert!(cov.is_covered(BranchId(0), false));
        assert!(!cov.is_covered(BranchId(1), false));
        assert_eq!(cov.covered_count(), 3);
        assert_eq!(cov.boundary_hits(BranchId(1)), 1);
        assert_eq!(cov.boundary_hits(BranchId(0)), 0);
        assert_eq!(cov.boundary_conditions_hit(), 1);
        assert_eq!(cov.executions(BranchId(0)), 2);
    }

    #[test]
    fn multi_observer_combines_stop_requests() {
        struct Stopper;
        impl Observer for Stopper {
            fn on_op(&mut self, _ev: &OpEvent) -> ProbeControl {
                ProbeControl::Stop
            }
        }
        let mut a = CountingObserver::new();
        let mut b = Stopper;
        let mut multi = MultiObserver::new(&mut a, &mut b);
        assert_eq!(multi.on_op(&op(0, 1.0)), ProbeControl::Stop);
        assert_eq!(
            multi.on_branch(&br(0, 1.0, 2.0, true)),
            ProbeControl::Continue
        );
        assert_eq!(a.ops, 1);
    }
}
