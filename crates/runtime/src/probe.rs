//! The probe context used by hand-instrumented programs.
//!
//! A program port (for instance the `mini-gsl` Bessel function) receives a
//! [`Ctx`] and reports each floating-point operation and branch comparison
//! through it. The context forwards the events to the active [`Observer`]
//! and keeps track of early-termination requests, mirroring the
//! `if (w == 0) return;` statements injected by the paper's
//! instrumentation.

use crate::event::{BranchEvent, BranchId, Cmp, FpOp, OpEvent, OpId};
use crate::recorder::Observer;

/// Whether an instrumented program should keep executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeControl {
    /// Keep executing.
    Continue,
    /// Terminate the execution as soon as convenient.
    Stop,
}

impl ProbeControl {
    /// Combines two control decisions: stop wins.
    pub fn combine(self, other: ProbeControl) -> ProbeControl {
        if self == ProbeControl::Stop || other == ProbeControl::Stop {
            ProbeControl::Stop
        } else {
            ProbeControl::Continue
        }
    }
}

/// Probe context handed to an instrumented program for one execution.
///
/// # Example
///
/// ```
/// use fp_runtime::{Cmp, Ctx, FpOp, TraceRecorder};
///
/// fn prog(x: f64, ctx: &mut Ctx<'_>) -> f64 {
///     let y = ctx.op(0, FpOp::Mul, x * x);
///     if ctx.branch(0, y, Cmp::Le, 4.0) {
///         y - 1.0
///     } else {
///         y
///     }
/// }
///
/// let mut rec = TraceRecorder::new();
/// let mut ctx = Ctx::new(&mut rec);
/// assert_eq!(prog(1.0, &mut ctx), 0.0);
/// assert_eq!(rec.ops().count(), 1);
/// assert_eq!(rec.branches().count(), 1);
/// ```
pub struct Ctx<'a> {
    observer: &'a mut dyn Observer,
    stopped: bool,
    ops_executed: u64,
    branches_executed: u64,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("stopped", &self.stopped)
            .field("ops_executed", &self.ops_executed)
            .field("branches_executed", &self.branches_executed)
            .finish_non_exhaustive()
    }
}

impl<'a> Ctx<'a> {
    /// Creates a probe context that forwards events to `observer`.
    pub fn new(observer: &'a mut dyn Observer) -> Self {
        Ctx {
            observer,
            stopped: false,
            ops_executed: 0,
            branches_executed: 0,
        }
    }

    /// Reports a floating-point operation with site id `id`, kind `op` and
    /// computed value `value`, and returns the value unchanged so probes can
    /// be inserted inline: `let t = ctx.op(1, FpOp::Mul, 4.0 * nu);`.
    pub fn op(&mut self, id: u32, op: FpOp, value: f64) -> f64 {
        self.ops_executed += 1;
        let ev = OpEvent {
            id: OpId(id),
            op,
            value,
        };
        if self.observer.on_op(&ev) == ProbeControl::Stop {
            self.stopped = true;
        }
        value
    }

    /// Reports a conditional branch with site id `id` comparing
    /// `lhs cmp rhs`, and returns the truth value of the comparison so the
    /// probe can be used directly as the branch condition.
    pub fn branch(&mut self, id: u32, lhs: f64, cmp: Cmp, rhs: f64) -> bool {
        self.branches_executed += 1;
        let taken = cmp.eval(lhs, rhs);
        let ev = BranchEvent {
            id: BranchId(id),
            lhs,
            cmp,
            rhs,
            taken,
        };
        if self.observer.on_branch(&ev) == ProbeControl::Stop {
            self.stopped = true;
        }
        taken
    }

    /// Returns `true` once any observer has requested early termination.
    ///
    /// Instrumented programs with expensive tails should poll this and
    /// return early when it is set; the analyses remain correct (but slower)
    /// if a program ignores it.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// Number of operation events reported so far.
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Number of branch events reported so far.
    pub fn branches_executed(&self) -> u64 {
        self.branches_executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{NullObserver, TraceRecorder};

    #[test]
    fn op_returns_value_and_counts() {
        let mut obs = NullObserver;
        let mut ctx = Ctx::new(&mut obs);
        assert_eq!(ctx.op(0, FpOp::Add, 2.5), 2.5);
        assert_eq!(ctx.op(1, FpOp::Mul, -1.0), -1.0);
        assert_eq!(ctx.ops_executed(), 2);
        assert!(!ctx.stopped());
    }

    #[test]
    fn branch_returns_comparison_result() {
        let mut obs = NullObserver;
        let mut ctx = Ctx::new(&mut obs);
        assert!(ctx.branch(0, 1.0, Cmp::Lt, 2.0));
        assert!(!ctx.branch(1, 3.0, Cmp::Lt, 2.0));
        assert_eq!(ctx.branches_executed(), 2);
    }

    #[test]
    fn stop_request_is_latched() {
        struct StopAfterFirst {
            seen: usize,
        }
        impl Observer for StopAfterFirst {
            fn on_op(&mut self, _ev: &OpEvent) -> ProbeControl {
                self.seen += 1;
                if self.seen >= 1 {
                    ProbeControl::Stop
                } else {
                    ProbeControl::Continue
                }
            }
        }
        let mut obs = StopAfterFirst { seen: 0 };
        let mut ctx = Ctx::new(&mut obs);
        ctx.op(0, FpOp::Add, 1.0);
        assert!(ctx.stopped());
        // Still latched after further events.
        ctx.branch(0, 1.0, Cmp::Lt, 2.0);
        assert!(ctx.stopped());
    }

    #[test]
    fn probe_control_combine() {
        use ProbeControl::*;
        assert_eq!(Continue.combine(Continue), Continue);
        assert_eq!(Continue.combine(Stop), Stop);
        assert_eq!(Stop.combine(Continue), Stop);
        assert_eq!(Stop.combine(Stop), Stop);
    }

    #[test]
    fn events_reach_observer_with_correct_payload() {
        let mut rec = TraceRecorder::new();
        let mut ctx = Ctx::new(&mut rec);
        ctx.op(7, FpOp::Div, 0.5);
        ctx.branch(3, 5.0, Cmp::Ge, 4.0);
        let ops: Vec<_> = rec.ops().collect();
        assert_eq!(ops[0].id, OpId(7));
        assert_eq!(ops[0].value, 0.5);
        let brs: Vec<_> = rec.branches().collect();
        assert_eq!(brs[0].id, BranchId(3));
        assert!(brs[0].taken);
    }
}
