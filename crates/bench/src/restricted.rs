//! A wrapper restricting the search domain of a benchmark program.

use fp_runtime::{Analyzable, BranchId, BranchSite, Ctx, Interval, OpId, OpSite, Reachability};

/// Wraps an [`Analyzable`] program, overriding its search domain (used by
/// the GNU `sin` study to search the positive and negative half-lines
/// separately, which is how Table 2 distinguishes the `+` and `-` boundary
/// values of each condition).
///
/// The three reachability hooks forward the inner program's
/// [`Reachability::Unreachable`] answers, and only those, when the box lies
/// inside the inner program's search domain: narrowing the domain keeps a
/// proof that no input reaches a target, but it can drop the witness of a
/// `Reachable` answer, and widening it can reach what the proof excluded
/// (`Interval::new` accepts infinite endpoints). Every other answer is
/// [`Reachability::Unknown`].
#[derive(Debug, Clone)]
pub struct Restricted<P> {
    inner: P,
    domain: Vec<Interval>,
    /// Whether `domain` lies inside the inner program's search domain.
    narrows: bool,
}

impl<P: Analyzable> Restricted<P> {
    /// Restricts `inner` to the given box.
    ///
    /// # Panics
    ///
    /// Panics if the arity does not match.
    pub fn new(inner: P, domain: Vec<Interval>) -> Self {
        assert_eq!(domain.len(), inner.num_inputs(), "domain arity mismatch");
        let narrows = inner
            .search_domain()
            .iter()
            .zip(&domain)
            .all(|(wide, narrow)| wide.lo() <= narrow.lo() && narrow.hi() <= wide.hi());
        Restricted {
            inner,
            domain,
            narrows,
        }
    }

    fn forward(&self, answer: Reachability) -> Reachability {
        if self.narrows && answer.is_unreachable() {
            Reachability::Unreachable
        } else {
            Reachability::Unknown
        }
    }
}

impl<P: Analyzable> Analyzable for Restricted<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn search_domain(&self) -> Vec<Interval> {
        self.domain.clone()
    }

    fn op_sites(&self) -> Vec<OpSite> {
        self.inner.op_sites()
    }

    fn branch_sites(&self) -> Vec<BranchSite> {
        self.inner.branch_sites()
    }

    fn execute(&self, input: &[f64], ctx: &mut Ctx<'_>) -> Option<f64> {
        self.inner.execute(input, ctx)
    }

    fn branch_side_reachability(&self, site: BranchId, taken: bool) -> Reachability {
        self.forward(self.inner.branch_side_reachability(site, taken))
    }

    fn branch_boundary_reachability(&self, site: BranchId) -> Reachability {
        self.forward(self.inner.branch_boundary_reachability(site))
    }

    fn op_site_reachability(&self, site: OpId) -> Reachability {
        self.forward(self.inner.op_site_reachability(site))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_runtime::{NullObserver, TraceRecorder};
    use mini_gsl::glibc_sin::GlibcSin;
    use mini_gsl::toy::Fig2Program;
    use Reachability::{Unknown, Unreachable};

    #[test]
    fn overrides_domain_only() {
        let r = Restricted::new(Fig2Program::new(), vec![Interval::new(0.0, 5.0)]);
        assert_eq!(r.search_domain()[0].lo(), 0.0);
        assert_eq!(r.num_inputs(), 1);
        assert_eq!(r.branch_sites().len(), 2);
        assert_eq!(r.run(&[0.5], &mut NullObserver), Some(0.5));
    }

    /// `[0, +∞]` reaches past the finite doubles `GlibcSin`'s proof
    /// covers: x = +∞ meets the boundary of `k < 0x7ff00000`, so the proof
    /// is not forwarded. Each finite half-line forwards it.
    #[test]
    fn forwards_the_sin_proof_only_from_a_box_inside_the_domain() {
        let last = BranchId(4);
        let wide = Restricted::new(GlibcSin::new(), vec![Interval::new(0.0, f64::INFINITY)]);
        assert_eq!(wide.branch_boundary_reachability(last), Unknown);
        assert_eq!(wide.branch_side_reachability(last, false), Unknown);
        let mut rec = TraceRecorder::new();
        wide.run(&[f64::INFINITY], &mut rec);
        let hit = rec.branches().any(|ev| ev.id == last && ev.lhs == ev.rhs);
        assert!(hit, "x = +inf meets k == 0x7ff00000");

        for half in [Interval::new(0.0, f64::MAX), Interval::new(-f64::MAX, 0.0)] {
            let narrow = Restricted::new(GlibcSin::new(), vec![half]);
            assert_eq!(narrow.branch_boundary_reachability(last), Unreachable);
            assert_eq!(narrow.branch_side_reachability(last, false), Unreachable);
            // `Reachable` answers are not forwarded.
            assert_eq!(narrow.branch_boundary_reachability(BranchId(0)), Unknown);
            assert_eq!(narrow.branch_side_reachability(last, true), Unknown);
        }
    }

    /// All three hooks forward, from an `fpir` module whose op site 0 sits
    /// on the untakeable then side of `|x| + 1 < 0`.
    #[test]
    fn forwards_every_hook_only_from_a_box_inside_the_domain() {
        use fpir::ir::{BinOp, UnOp};
        let mut mb = fpir::ModuleBuilder::new();
        let mut f = mb.function("guarded", 1);
        let x = f.param(0);
        let one = f.constant(1.0);
        let zero = f.constant(0.0);
        let a = f.un(UnOp::Abs, x, None);
        let y = f.bin(BinOp::Add, a, one, None);
        let dead = f.new_block();
        let live = f.new_block();
        f.cond_br(Some(0), y, fp_runtime::Cmp::Lt, zero, dead, live);
        f.switch_to(dead);
        let d = f.bin(BinOp::Mul, y, y, Some(0));
        f.ret(Some(d));
        f.switch_to(live);
        f.ret(Some(y));
        f.finish();
        let program = fpir::ModuleProgram::new(mb.build(), "guarded")
            .expect("entry exists")
            .with_domain(vec![Interval::symmetric(1.0e4)]);
        let hooks = |r: &Restricted<&fpir::ModuleProgram>| {
            [
                r.branch_side_reachability(BranchId(0), true),
                r.branch_boundary_reachability(BranchId(0)),
                r.op_site_reachability(OpId(0)),
            ]
        };
        let narrow = Restricted::new(&program, vec![Interval::new(0.0, 10.0)]);
        assert_eq!(hooks(&narrow), [Unreachable; 3]);
        let wide = Restricted::new(&program, vec![Interval::symmetric(1.0e5)]);
        assert_eq!(hooks(&wide), [Unknown; 3]);
    }
}
