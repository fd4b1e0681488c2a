//! The constraint language: expressions, atoms, clauses and CNF formulas.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::Arc;

/// A floating-point expression over variables `x0, x1, ...`.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A variable, by index.
    Var(usize),
    /// A constant.
    Const(f64),
    /// Negation.
    Neg(Arc<Expr>),
    /// Absolute value.
    Abs(Arc<Expr>),
    /// Square root.
    Sqrt(Arc<Expr>),
    /// Sine.
    Sin(Arc<Expr>),
    /// Addition.
    Add(Arc<Expr>, Arc<Expr>),
    /// Subtraction.
    Sub(Arc<Expr>, Arc<Expr>),
    /// Multiplication.
    Mul(Arc<Expr>, Arc<Expr>),
    /// Division.
    Div(Arc<Expr>, Arc<Expr>),
}

impl Expr {
    /// The variable `x_i`.
    pub fn var(i: usize) -> Expr {
        Expr::Var(i)
    }

    /// A constant expression.
    pub fn constant(v: f64) -> Expr {
        Expr::Const(v)
    }

    /// Absolute value.
    pub fn abs(self) -> Expr {
        Expr::Abs(Arc::new(self))
    }

    /// Square root.
    pub fn sqrt(self) -> Expr {
        Expr::Sqrt(Arc::new(self))
    }

    /// Sine.
    pub fn sin(self) -> Expr {
        Expr::Sin(Arc::new(self))
    }

    /// Evaluates the expression under an assignment (IEEE-754 binary64
    /// semantics, round-to-nearest — simply Rust's `f64` arithmetic).
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range of the assignment.
    pub fn eval(&self, assignment: &[f64]) -> f64 {
        match self {
            Expr::Var(i) => assignment[*i],
            Expr::Const(v) => *v,
            Expr::Neg(e) => -e.eval(assignment),
            Expr::Abs(e) => e.eval(assignment).abs(),
            Expr::Sqrt(e) => e.eval(assignment).sqrt(),
            Expr::Sin(e) => e.eval(assignment).sin(),
            Expr::Add(a, b) => a.eval(assignment) + b.eval(assignment),
            Expr::Sub(a, b) => a.eval(assignment) - b.eval(assignment),
            Expr::Mul(a, b) => a.eval(assignment) * b.eval(assignment),
            Expr::Div(a, b) => a.eval(assignment) / b.eval(assignment),
        }
    }

    /// The largest variable index mentioned, plus one (0 if none).
    pub fn num_vars(&self) -> usize {
        match self {
            Expr::Var(i) => i + 1,
            Expr::Const(_) => 0,
            Expr::Neg(e) | Expr::Abs(e) | Expr::Sqrt(e) | Expr::Sin(e) => e.num_vars(),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.num_vars().max(b.num_vars())
            }
        }
    }
}

impl Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Arc::new(self), Arc::new(rhs))
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Arc::new(self), Arc::new(rhs))
    }
}

impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Arc::new(self), Arc::new(rhs))
    }
}

impl Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Arc::new(self), Arc::new(rhs))
    }
}

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Neg(Arc::new(self))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(i) => write!(f, "x{i}"),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::Abs(e) => write!(f, "|{e}|"),
            Expr::Sqrt(e) => write!(f, "sqrt({e})"),
            Expr::Sin(e) => write!(f, "sin({e})"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
        }
    }
}

/// A binary comparison relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl Rel {
    /// Evaluates the relation.
    pub fn holds(self, a: f64, b: f64) -> bool {
        match self {
            Rel::Lt => a < b,
            Rel::Le => a <= b,
            Rel::Gt => a > b,
            Rel::Ge => a >= b,
            Rel::Eq => a == b,
            Rel::Ne => a != b,
        }
    }
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rel::Lt => "<",
            Rel::Le => "<=",
            Rel::Gt => ">",
            Rel::Ge => ">=",
            Rel::Eq => "==",
            Rel::Ne => "!=",
        };
        f.write_str(s)
    }
}

/// An atom: a comparison between two expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    /// Left expression.
    pub lhs: Expr,
    /// The relation.
    pub rel: Rel,
    /// Right expression.
    pub rhs: Expr,
}

macro_rules! atom_ctor {
    ($name:ident, $rel:expr, $doc:literal) => {
        #[doc = $doc]
        pub fn $name(lhs: Expr, rhs: Expr) -> Atom {
            Atom {
                lhs,
                rel: $rel,
                rhs,
            }
        }
    };
}

impl Atom {
    atom_ctor!(lt, Rel::Lt, "`lhs < rhs`");
    atom_ctor!(le, Rel::Le, "`lhs <= rhs`");
    atom_ctor!(gt, Rel::Gt, "`lhs > rhs`");
    atom_ctor!(ge, Rel::Ge, "`lhs >= rhs`");
    atom_ctor!(eq, Rel::Eq, "`lhs == rhs`");
    atom_ctor!(ne, Rel::Ne, "`lhs != rhs`");

    /// Evaluates the atom under an assignment.
    pub fn holds(&self, assignment: &[f64]) -> bool {
        self.rel
            .holds(self.lhs.eval(assignment), self.rhs.eval(assignment))
    }

    /// The largest variable index mentioned, plus one.
    pub fn num_vars(&self) -> usize {
        self.lhs.num_vars().max(self.rhs.num_vars())
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.rel, self.rhs)
    }
}

/// A clause: a disjunction of atoms.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Clause {
    /// The atoms of the disjunction.
    pub atoms: Vec<Atom>,
}

impl Clause {
    /// Creates an empty (unsatisfiable) clause.
    pub fn new() -> Self {
        Clause { atoms: Vec::new() }
    }

    /// Adds an atom to the disjunction.
    pub fn or(mut self, atom: Atom) -> Self {
        self.atoms.push(atom);
        self
    }

    /// Evaluates the clause.
    pub fn holds(&self, assignment: &[f64]) -> bool {
        self.atoms.iter().any(|a| a.holds(assignment))
    }
}

impl From<Atom> for Clause {
    fn from(atom: Atom) -> Self {
        Clause { atoms: vec![atom] }
    }
}

/// A CNF formula: a conjunction of clauses over `num_vars` variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Cnf {
    /// The clauses of the conjunction.
    pub clauses: Vec<Clause>,
    num_vars: usize,
}

impl Cnf {
    /// Creates a formula over `num_vars` variables with no clauses
    /// (trivially satisfiable).
    pub fn new(num_vars: usize) -> Self {
        Cnf {
            clauses: Vec::new(),
            num_vars,
        }
    }

    /// Adds a clause.
    pub fn and(mut self, clause: Clause) -> Self {
        self.clauses.push(clause);
        self
    }

    /// Overrides the declared number of variables.
    pub fn with_num_vars(mut self, n: usize) -> Self {
        self.num_vars = n;
        self
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars.max(
            self.clauses
                .iter()
                .flat_map(|c| c.atoms.iter().map(Atom::num_vars))
                .max()
                .unwrap_or(0),
        )
    }

    /// Evaluates the formula: `true` iff every clause holds.
    pub fn holds(&self, assignment: &[f64]) -> bool {
        self.clauses.iter().all(|c| c.holds(assignment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expression_evaluation_is_ieee() {
        let e = (Expr::var(0) + Expr::constant(0.2)) * Expr::var(1);
        assert_eq!(e.eval(&[0.1, 2.0]), (0.1 + 0.2) * 2.0);
        assert_eq!(e.num_vars(), 2);
        let k = Expr::constant(2.0).sqrt();
        assert_eq!(k.eval(&[]), 2.0_f64.sqrt());
        assert_eq!((-Expr::var(0)).eval(&[3.0]), -3.0);
        assert_eq!(Expr::var(0).abs().eval(&[-3.0]), 3.0);
        assert_eq!(Expr::var(0).sin().eval(&[1.0]), 1.0_f64.sin());
        assert_eq!(
            (Expr::var(0) / Expr::constant(0.0)).eval(&[1.0]),
            f64::INFINITY
        );
    }

    #[test]
    fn atoms_clauses_and_cnf_evaluate() {
        let a = Atom::lt(Expr::var(0), Expr::constant(1.0));
        assert!(a.holds(&[0.5]));
        assert!(!a.holds(&[1.5]));
        let clause = Clause::from(a).or(Atom::gt(Expr::var(0), Expr::constant(10.0)));
        assert!(clause.holds(&[20.0]));
        assert!(!clause.holds(&[5.0]));
        let cnf = Cnf::new(1)
            .and(clause)
            .and(Clause::from(Atom::ge(Expr::var(0), Expr::constant(0.0))));
        assert!(cnf.holds(&[0.5]));
        assert!(!cnf.holds(&[-1.0]));
        assert_eq!(cnf.num_vars(), 1);
    }

    #[test]
    fn motivating_constraint_of_section1() {
        // x < 1 ∧ x + 1 >= 2 is satisfied by 0.999…9 under round-to-nearest.
        let x = Expr::var(0);
        let cnf = Cnf::new(1)
            .and(Clause::from(Atom::lt(x.clone(), Expr::constant(1.0))))
            .and(Clause::from(Atom::ge(
                x + Expr::constant(1.0),
                Expr::constant(2.0),
            )));
        assert!(cnf.holds(&[0.999_999_999_999_999_9]));
        assert!(!cnf.holds(&[0.5]));
        assert!(!cnf.holds(&[1.0]));
    }

    #[test]
    fn display_forms() {
        let a = Atom::le(Expr::var(1) * Expr::constant(2.0), Expr::constant(4.0));
        assert_eq!(a.to_string(), "(x1 * 2) <= 4");
        assert_eq!(Rel::Ne.to_string(), "!=");
    }

    #[test]
    fn empty_clause_is_false_and_empty_cnf_is_true() {
        assert!(!Clause::new().holds(&[1.0]));
        assert!(Cnf::new(1).holds(&[1.0]));
    }
}
