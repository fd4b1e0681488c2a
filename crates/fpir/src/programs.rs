//! IR versions of the example programs used throughout the paper.

use crate::builder::ModuleBuilder;
use crate::ir::{BinOp, Module, UnOp};
use fp_runtime::Cmp;

/// Fig. 2 of the paper:
///
/// ```c
/// void Prog(double x) {
///     if (x <= 1.0) x++;
///     double y = x * x;
///     if (y <= 4.0) x--;
/// }
/// ```
///
/// The function is built as `prog` returning the final `x`. Branch site 0 is
/// `x <= 1.0`, branch site 1 is `y <= 4.0`; op sites 0..=2 are the three
/// arithmetic operations.
pub fn fig2_program() -> Module {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.function("prog", 1);
    let x0 = f.param(0);
    let one = f.constant(1.0);
    let four = f.constant(4.0);
    let x = f.copy(x0);

    let inc_bb = f.new_block();
    let after_first = f.new_block();
    f.cond_br(Some(0), x, Cmp::Le, one, inc_bb, after_first);

    f.switch_to(inc_bb);
    let xp = f.bin(BinOp::Add, x, one, Some(0));
    f.assign(x, xp);
    f.jump(after_first);

    f.switch_to(after_first);
    let y = f.bin(BinOp::Mul, x, x, Some(1));
    let dec_bb = f.new_block();
    let exit = f.new_block();
    f.cond_br(Some(1), y, Cmp::Le, four, dec_bb, exit);

    f.switch_to(dec_bb);
    let xm = f.bin(BinOp::Sub, x, one, Some(2));
    f.assign(x, xm);
    f.jump(exit);

    f.switch_to(exit);
    f.ret(Some(x));
    f.finish();
    mb.build()
}

/// Fig. 1(a) of the paper:
///
/// ```c
/// void Prog(double x) {
///     if (x < 1) { x = x + 1; assert(x < 2); }
/// }
/// ```
///
/// The assertion is modelled as a second conditional branch (site 1); the
/// function returns 1.0 when the assertion holds on the taken path and 0.0
/// when it is violated, making assertion failures observable.
pub fn fig1a_program() -> Module {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.function("prog", 1);
    let x0 = f.param(0);
    let one = f.constant(1.0);
    let two = f.constant(2.0);
    let ok = f.constant(1.0);
    let fail = f.constant(0.0);
    let x = f.copy(x0);

    let then_bb = f.new_block();
    let exit_ok = f.new_block();
    f.cond_br(Some(0), x, Cmp::Lt, one, then_bb, exit_ok);

    f.switch_to(then_bb);
    let xp = f.bin(BinOp::Add, x, one, Some(0));
    f.assign(x, xp);
    let assert_ok = f.new_block();
    let assert_fail = f.new_block();
    f.cond_br(Some(1), x, Cmp::Lt, two, assert_ok, assert_fail);
    f.switch_to(assert_ok);
    f.ret(Some(ok));
    f.switch_to(assert_fail);
    f.ret(Some(fail));

    f.switch_to(exit_ok);
    f.ret(Some(ok));
    f.finish();
    mb.build()
}

/// Fig. 1(b) of the paper: as [`fig1a_program`] but with `x = x + tan(x)`,
/// the variant SMT solvers struggle with because `tan` is not standardized.
pub fn fig1b_program() -> Module {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.function("prog", 1);
    let x0 = f.param(0);
    let one = f.constant(1.0);
    let two = f.constant(2.0);
    let ok = f.constant(1.0);
    let fail = f.constant(0.0);
    let x = f.copy(x0);

    let then_bb = f.new_block();
    let exit_ok = f.new_block();
    f.cond_br(Some(0), x, Cmp::Lt, one, then_bb, exit_ok);

    f.switch_to(then_bb);
    let t = f.un(UnOp::Tan, x, Some(0));
    let xp = f.bin(BinOp::Add, x, t, Some(1));
    f.assign(x, xp);
    let assert_ok = f.new_block();
    let assert_fail = f.new_block();
    f.cond_br(Some(1), x, Cmp::Lt, two, assert_ok, assert_fail);
    f.switch_to(assert_ok);
    f.ret(Some(ok));
    f.switch_to(assert_fail);
    f.ret(Some(fail));

    f.switch_to(exit_ok);
    f.ret(Some(ok));
    f.finish();
    mb.build()
}

/// The Section 5.2 example `void Prog(double x){ if (x == 0) ...; }` used to
/// illustrate Limitation 2 (a naively constructed weak distance `w += x*x`
/// underflows to zero for tiny nonzero `x`).
pub fn eq_zero_program() -> Module {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.function("prog", 1);
    let x = f.param(0);
    let zero = f.constant(0.0);
    let hit = f.new_block();
    let miss = f.new_block();
    f.cond_br(Some(0), x, Cmp::Eq, zero, hit, miss);
    f.switch_to(hit);
    let one = f.constant(1.0);
    f.ret(Some(one));
    f.switch_to(miss);
    f.ret(Some(zero));
    f.finish();
    mb.build()
}

/// A straight-line polynomial evaluation with one guarded comparison at the
/// end: `prog(x) = |p(x)| where p is a degree-`degree` Horner chain`, every
/// multiply-add pair carrying an instrumentation site (like an
/// overflow-instrumented numeric kernel). The single conditional branch
/// compares the result against 1 with both successors returning, so the
/// program has no loops and no calls — the best case for the lanewise
/// kernel backend.
pub fn horner_program(degree: usize) -> Module {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.function("prog", 1);
    let x = f.param(0);
    let mut acc = f.constant(1.0);
    let mut site = 0u32;
    for i in 0..degree {
        // Alternate small coefficients so intermediate values stay finite
        // over wide input ranges.
        let c = f.constant(if i % 2 == 0 { 0.5 } else { -0.25 });
        let m = f.bin(BinOp::Mul, acc, x, Some(site));
        let a = f.bin(BinOp::Add, m, c, Some(site + 1));
        site += 2;
        acc = a;
    }
    let absval = f.un(UnOp::Abs, acc, Some(site));
    let one = f.constant(1.0);
    let small = f.new_block();
    let large = f.new_block();
    f.cond_br(Some(0), absval, Cmp::Le, one, small, large);
    f.switch_to(small);
    f.ret(Some(absval));
    f.switch_to(large);
    let inv = f.bin(BinOp::Div, one, absval, None);
    f.ret(Some(inv));
    f.finish();
    mb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::ModuleProgram;
    use crate::validate::validate;
    use fp_runtime::{Analyzable, NullObserver, TraceRecorder};

    #[test]
    fn all_example_programs_validate() {
        for m in [
            fig2_program(),
            fig1a_program(),
            fig1b_program(),
            eq_zero_program(),
            horner_program(8),
        ] {
            assert_eq!(validate(&m), Ok(()));
        }
    }

    #[test]
    fn horner_program_is_kernel_eligible_and_bounded() {
        let p = ModuleProgram::new(horner_program(12), "prog").unwrap();
        assert!(p.kernel_eligible());
        let v = p.run(&[0.75], &mut NullObserver).unwrap();
        assert!(v.is_finite() && (0.0..=1.0).contains(&v), "v = {v}");
        let mut rec = TraceRecorder::new();
        p.run(&[2.0], &mut rec);
        assert_eq!(rec.ops().count(), 12 * 2 + 1);
        assert_eq!(rec.branches().count(), 1);
    }

    #[test]
    fn fig2_semantics_match_the_paper() {
        let p = ModuleProgram::new(fig2_program(), "prog").unwrap();
        // x = 0.5: both branches taken, result 0.5 + 1 - 1 = 0.5.
        assert_eq!(p.run(&[0.5], &mut NullObserver), Some(0.5));
        // x = 3: no branch taken.
        assert_eq!(p.run(&[3.0], &mut NullObserver), Some(3.0));
        // x = -3: first branch taken (x becomes -2), y = 4 <= 4 so second taken.
        assert_eq!(p.run(&[-3.0], &mut NullObserver), Some(-3.0));
        // x = 1.5: first branch not taken, y = 2.25 <= 4 so second taken.
        assert_eq!(p.run(&[1.5], &mut NullObserver), Some(0.5));
    }

    #[test]
    fn fig2_branch_events_expose_boundary_residuals() {
        let p = ModuleProgram::new(fig2_program(), "prog").unwrap();
        let mut rec = TraceRecorder::new();
        p.run(&[2.0], &mut rec);
        let branches: Vec<_> = rec.branches().collect();
        assert_eq!(branches.len(), 2);
        // x = 2: |x - 1| = 1 at the first branch, y = 4 so |y - 4| = 0 at the second.
        assert_eq!(branches[0].boundary_residual(), 1.0);
        assert_eq!(branches[1].boundary_residual(), 0.0);
    }

    #[test]
    fn fig1a_assertion_fails_for_the_motivating_input() {
        let p = ModuleProgram::new(fig1a_program(), "prog").unwrap();
        // The counterexample of Section 1: 0.9999999999999999 + 1 rounds to 2.
        assert_eq!(
            p.run(&[0.999_999_999_999_999_9], &mut NullObserver),
            Some(0.0)
        );
        // An ordinary input satisfies the assertion.
        assert_eq!(p.run(&[0.5], &mut NullObserver), Some(1.0));
        // Inputs >= 1 never reach the assertion.
        assert_eq!(p.run(&[1.5], &mut NullObserver), Some(1.0));
    }

    #[test]
    fn fig1b_uses_tan() {
        let p = ModuleProgram::new(fig1b_program(), "prog").unwrap();
        let mut rec = TraceRecorder::new();
        p.run(&[0.5], &mut rec);
        assert!(
            rec.ops().any(|o| o.op == fp_runtime::FpOp::Tan),
            "tan site not observed"
        );
    }

    #[test]
    fn eq_zero_program_distinguishes_zero() {
        let p = ModuleProgram::new(eq_zero_program(), "prog").unwrap();
        assert_eq!(p.run(&[0.0], &mut NullObserver), Some(1.0));
        assert_eq!(p.run(&[1.0e-200], &mut NullObserver), Some(0.0));
    }
}
