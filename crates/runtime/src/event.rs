//! Runtime events emitted by instrumented floating-point programs.
//!
//! An analysed program is viewed as a stream of [`Event`]s: one [`OpEvent`]
//! per executed floating-point operation that carries a static site label
//! ([`OpId`]) and the computed value, and one [`BranchEvent`] per executed
//! conditional branch carrying the two comparison operands, the comparison
//! operator and the direction actually taken.

use std::fmt;

/// Identifier of a static floating-point operation site.
///
/// In the paper's terminology this is the label `l` of an IR instruction
/// (Section 4.4): "each FP operation corresponds to exactly one instruction".
///
/// # Example
///
/// ```
/// use fp_runtime::OpId;
/// let l1 = OpId(1);
/// assert_eq!(l1.index(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u32);

impl OpId {
    /// Returns the raw index of the site.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl From<u32> for OpId {
    fn from(i: u32) -> Self {
        OpId(i)
    }
}

/// Identifier of a static conditional-branch site.
///
/// # Example
///
/// ```
/// use fp_runtime::BranchId;
/// assert_eq!(BranchId(3).to_string(), "b3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BranchId(pub u32);

impl BranchId {
    /// Returns the raw index of the site.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for BranchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl From<u32> for BranchId {
    fn from(i: u32) -> Self {
        BranchId(i)
    }
}

/// Kind of a floating-point operation observed at an [`OpId`] site.
///
/// The set mirrors the elementary operations counted by the paper's overflow
/// detection (`+`, `-`, `*`, `/`) plus the library calls that appear in the
/// benchmarks (`sqrt`, `pow`, trigonometric functions, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FpOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
    /// Power.
    Pow,
    /// Exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Tangent.
    Tan,
    /// Floor.
    Floor,
    /// Any other operation.
    Other,
}

impl FpOp {
    /// Returns `true` for the four elementary arithmetic operations that the
    /// paper's overflow detection instruments (Section 4.4).
    ///
    /// # Example
    ///
    /// ```
    /// use fp_runtime::FpOp;
    /// assert!(FpOp::Mul.is_elementary());
    /// assert!(!FpOp::Sqrt.is_elementary());
    /// ```
    pub fn is_elementary(self) -> bool {
        matches!(self, FpOp::Add | FpOp::Sub | FpOp::Mul | FpOp::Div)
    }
}

impl fmt::Display for FpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FpOp::Add => "+",
            FpOp::Sub => "-",
            FpOp::Mul => "*",
            FpOp::Div => "/",
            FpOp::Neg => "neg",
            FpOp::Abs => "abs",
            FpOp::Sqrt => "sqrt",
            FpOp::Pow => "pow",
            FpOp::Exp => "exp",
            FpOp::Log => "log",
            FpOp::Sin => "sin",
            FpOp::Cos => "cos",
            FpOp::Tan => "tan",
            FpOp::Floor => "floor",
            FpOp::Other => "op",
        };
        f.write_str(s)
    }
}

/// Comparison operator of a branch condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `lhs < rhs`
    Lt,
    /// `lhs <= rhs`
    Le,
    /// `lhs > rhs`
    Gt,
    /// `lhs >= rhs`
    Ge,
    /// `lhs == rhs`
    Eq,
    /// `lhs != rhs`
    Ne,
}

impl Cmp {
    /// Evaluates the comparison on two doubles.
    ///
    /// # Example
    ///
    /// ```
    /// use fp_runtime::Cmp;
    /// assert!(Cmp::Le.eval(1.0, 1.0));
    /// assert!(!Cmp::Lt.eval(1.0, 1.0));
    /// ```
    pub fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Eq => lhs == rhs,
            Cmp::Ne => lhs != rhs,
        }
    }

    /// Returns the comparison with operands swapped (`a < b` becomes `b > a`).
    pub fn swap(self) -> Cmp {
        match self {
            Cmp::Lt => Cmp::Gt,
            Cmp::Le => Cmp::Ge,
            Cmp::Gt => Cmp::Lt,
            Cmp::Ge => Cmp::Le,
            Cmp::Eq => Cmp::Eq,
            Cmp::Ne => Cmp::Ne,
        }
    }

    /// Returns the negated comparison (`a < b` becomes `a >= b`).
    pub fn negate(self) -> Cmp {
        match self {
            Cmp::Lt => Cmp::Ge,
            Cmp::Le => Cmp::Gt,
            Cmp::Gt => Cmp::Le,
            Cmp::Ge => Cmp::Lt,
            Cmp::Eq => Cmp::Ne,
            Cmp::Ne => Cmp::Eq,
        }
    }

    /// Korel-style branch distance: a nonnegative value that is zero exactly
    /// when `lhs cmp rhs` holds (ignoring the open/closed distinction, see
    /// [`Cmp::distance_strict`]).
    ///
    /// This is the `(a <= b) ? 0 : a - b` shape injected by the paper's path
    /// reachability instrumentation (Fig. 4).
    pub fn distance(self, lhs: f64, rhs: f64) -> f64 {
        if self.eval(lhs, rhs) {
            return 0.0;
        }
        match self {
            Cmp::Lt | Cmp::Le => lhs - rhs,
            Cmp::Gt | Cmp::Ge => rhs - lhs,
            Cmp::Eq => (lhs - rhs).abs(),
            Cmp::Ne => 1.0,
        }
    }

    /// Branch distance that additionally adds a small positive offset for
    /// strict comparisons so that the distance is strictly positive whenever
    /// the comparison does not hold even if `lhs == rhs`.
    pub fn distance_strict(self, lhs: f64, rhs: f64) -> f64 {
        if self.eval(lhs, rhs) {
            return 0.0;
        }
        let base = match self {
            Cmp::Lt | Cmp::Le => lhs - rhs,
            Cmp::Gt | Cmp::Ge => rhs - lhs,
            Cmp::Eq => (lhs - rhs).abs(),
            Cmp::Ne => 1.0,
        };
        match self {
            Cmp::Lt | Cmp::Gt => base + f64::MIN_POSITIVE,
            _ => base,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Eq => "==",
            Cmp::Ne => "!=",
        };
        f.write_str(s)
    }
}

/// Static description of a floating-point operation site.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSite {
    /// Site identifier.
    pub id: OpId,
    /// Operation kind.
    pub op: FpOp,
    /// Human-readable label, typically the source expression
    /// (e.g. `"double mu = 4.0 * nu*nu"`).
    pub label: String,
}

impl OpSite {
    /// Creates a new operation site description.
    pub fn new(id: u32, op: FpOp, label: impl Into<String>) -> Self {
        OpSite {
            id: OpId(id),
            op,
            label: label.into(),
        }
    }
}

impl fmt::Display for OpSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.id, self.op, self.label)
    }
}

/// Static description of a conditional-branch site.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchSite {
    /// Site identifier.
    pub id: BranchId,
    /// The comparison operator of the branch condition.
    pub cmp: Cmp,
    /// Human-readable label, typically the source condition
    /// (e.g. `"k < 0x3e500000"`).
    pub label: String,
}

impl BranchSite {
    /// Creates a new branch site description.
    pub fn new(id: u32, cmp: Cmp, label: impl Into<String>) -> Self {
        BranchSite {
            id: BranchId(id),
            cmp,
            label: label.into(),
        }
    }
}

impl fmt::Display for BranchSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.id, self.cmp, self.label)
    }
}

/// A floating-point operation executed at runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpEvent {
    /// The operation site.
    pub id: OpId,
    /// Operation kind.
    pub op: FpOp,
    /// The value assigned by the operation (the paper's assignee `a`).
    pub value: f64,
}

impl OpEvent {
    /// Returns `true` if the operation overflowed, i.e. produced a
    /// non-finite value or a value whose magnitude reaches `f64::MAX`.
    ///
    /// # Example
    ///
    /// ```
    /// use fp_runtime::{FpOp, OpEvent, OpId};
    /// let ev = OpEvent { id: OpId(0), op: FpOp::Mul, value: f64::INFINITY };
    /// assert!(ev.overflowed());
    /// ```
    pub fn overflowed(&self) -> bool {
        !self.value.is_finite() || self.value.abs() >= f64::MAX
    }
}

/// A conditional branch executed at runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchEvent {
    /// The branch site.
    pub id: BranchId,
    /// Left operand of the comparison.
    pub lhs: f64,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right operand of the comparison.
    pub rhs: f64,
    /// Whether the true (then) direction was taken.
    pub taken: bool,
}

impl BranchEvent {
    /// The boundary residual `|lhs - rhs|` used by boundary value analysis
    /// (Fig. 3 of the paper): zero exactly on the boundary condition.
    /// Equal infinities are on the boundary too, although their
    /// difference is NaN.
    pub fn boundary_residual(&self) -> f64 {
        if self.lhs == self.rhs {
            0.0
        } else {
            (self.lhs - self.rhs).abs()
        }
    }

    /// Branch distance towards forcing this branch in direction `dir`.
    ///
    /// Uses the strict variant so that an unsatisfied strict comparison at a
    /// tie (`lhs == rhs`) still yields a positive distance; otherwise an
    /// infeasible requirement could spuriously reach distance zero.
    pub fn distance_to(&self, dir: bool) -> f64 {
        let cmp = if dir { self.cmp } else { self.cmp.negate() };
        cmp.distance_strict(self.lhs, self.rhs)
    }
}

/// Any runtime event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A floating-point operation was executed.
    Op(OpEvent),
    /// A conditional branch was executed.
    Branch(BranchEvent),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval_all_operators() {
        assert!(Cmp::Lt.eval(1.0, 2.0));
        assert!(!Cmp::Lt.eval(2.0, 2.0));
        assert!(Cmp::Le.eval(2.0, 2.0));
        assert!(Cmp::Gt.eval(3.0, 2.0));
        assert!(Cmp::Ge.eval(2.0, 2.0));
        assert!(Cmp::Eq.eval(2.0, 2.0));
        assert!(Cmp::Ne.eval(2.0, 3.0));
    }

    #[test]
    fn cmp_negate_is_involution_on_truth() {
        let cases = [
            (Cmp::Lt, 1.0, 2.0),
            (Cmp::Le, 2.0, 2.0),
            (Cmp::Gt, 5.0, 2.0),
            (Cmp::Ge, 2.0, 7.0),
            (Cmp::Eq, 2.0, 2.0),
            (Cmp::Ne, 1.0, 2.0),
        ];
        for (cmp, a, b) in cases {
            assert_ne!(cmp.eval(a, b), cmp.negate().eval(a, b), "{cmp} on {a},{b}");
            assert_eq!(cmp.negate().negate(), cmp);
        }
    }

    #[test]
    fn cmp_swap_swaps_operands() {
        assert_eq!(Cmp::Lt.swap(), Cmp::Gt);
        assert!(Cmp::Lt.eval(1.0, 2.0));
        assert!(Cmp::Lt.swap().eval(2.0, 1.0));
    }

    #[test]
    fn distance_zero_iff_satisfied() {
        assert_eq!(Cmp::Le.distance(1.0, 2.0), 0.0);
        assert!(Cmp::Le.distance(3.0, 2.0) > 0.0);
        assert_eq!(Cmp::Eq.distance(2.0, 2.0), 0.0);
        assert!(Cmp::Eq.distance(2.0, 2.5) > 0.0);
        assert_eq!(Cmp::Ne.distance(2.0, 2.5), 0.0);
        assert!(Cmp::Ne.distance(2.0, 2.0) > 0.0);
    }

    #[test]
    fn distance_strict_positive_at_tie() {
        // `a < b` violated with a == b: plain distance is 0, strict is positive.
        assert_eq!(Cmp::Lt.distance(2.0, 2.0), 0.0);
        assert!(Cmp::Lt.distance_strict(2.0, 2.0) > 0.0);
    }

    #[test]
    fn branch_event_residual_and_direction() {
        let ev = BranchEvent {
            id: BranchId(0),
            lhs: 3.0,
            cmp: Cmp::Le,
            rhs: 1.0,
            taken: false,
        };
        assert_eq!(ev.boundary_residual(), 2.0);
        assert_eq!(ev.distance_to(false), 0.0);
        assert_eq!(ev.distance_to(true), 2.0);
    }

    #[test]
    fn op_event_overflow_detection() {
        let fin = OpEvent {
            id: OpId(0),
            op: FpOp::Add,
            value: 1.0e300,
        };
        assert!(!fin.overflowed());
        let inf = OpEvent {
            id: OpId(0),
            op: FpOp::Mul,
            value: -f64::INFINITY,
        };
        assert!(inf.overflowed());
        let nan = OpEvent {
            id: OpId(0),
            op: FpOp::Div,
            value: f64::NAN,
        };
        assert!(nan.overflowed());
        let max = OpEvent {
            id: OpId(0),
            op: FpOp::Mul,
            value: f64::MAX,
        };
        assert!(max.overflowed());
    }

    #[test]
    fn display_formats() {
        assert_eq!(OpId(4).to_string(), "l4");
        assert_eq!(BranchId(2).to_string(), "b2");
        assert_eq!(Cmp::Le.to_string(), "<=");
        assert_eq!(FpOp::Mul.to_string(), "*");
        let site = OpSite::new(1, FpOp::Mul, "mu = 4.0 * nu");
        assert!(site.to_string().contains("mu = 4.0 * nu"));
    }
}
