//! The native Glibc `sin` port's reachability answers, cross-checked
//! against the `fpir` interval analysis of a twin: an `fpir` module with
//! the same comparison chain over its parameter `k ∈ [0, 0x7fef_ffff]`,
//! the high words of the finite doubles.

use wdm::gsl::glibc_sin::{double_from_high_word, high_word, GlibcSin, K_THRESHOLDS};
use wdm::ir::{ModuleBuilder, ModuleProgram};
use wdm::runtime::{Analyzable, BranchEvent, BranchId, Cmp, Interval, Reachability, TraceRecorder};

/// `prog(k)`: `if k < c_0 {..} else if k < c_1 {..} .. else {..}`, with
/// branch site `i` comparing against `K_THRESHOLDS[i]`.
fn twin() -> ModuleProgram {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.function("prog", 1);
    let k = f.param(0);
    for (site, &c) in K_THRESHOLDS.iter().enumerate() {
        let threshold = f.constant(f64::from(c));
        let then_bb = f.new_block();
        let else_bb = f.new_block();
        f.cond_br(Some(site as u32), k, Cmp::Lt, threshold, then_bb, else_bb);
        f.switch_to(then_bb);
        f.ret(Some(k));
        f.switch_to(else_bb);
    }
    f.ret(None);
    f.finish();
    ModuleProgram::new(mb.build(), "prog")
        .expect("entry exists")
        .with_domain(vec![Interval::new(0.0, f64::from(high_word(f64::MAX)))])
}

/// The then-side, else-side and boundary answers of `site`.
fn answers(program: &dyn Analyzable, site: BranchId) -> [Reachability; 3] {
    [
        program.branch_side_reachability(site, true),
        program.branch_side_reachability(site, false),
        program.branch_boundary_reachability(site),
    ]
}

/// The interval analysis proves no boundary reachable, and no side off
/// the path every execution takes, so each native `Reachable` answer (a
/// witness the port's unit tests execute) reads `Unknown` there. With
/// that, the two agree on all 5 sites × {then, else, boundary}: the same
/// `Unreachable` proofs, and nothing else decided.
#[test]
fn the_fpir_twin_gives_the_same_answers_as_the_native_port() {
    let (twin, native) = (twin(), GlibcSin::new());
    let mut unreachable = 0;
    for site in 0..GlibcSin::NUM_BRANCHES {
        let site = BranchId(site);
        let want = answers(&native, site).map(|answer| match answer {
            Reachability::Reachable => Reachability::Unknown,
            decided => decided,
        });
        assert_eq!(answers(&twin, site), want, "site {}", site.0);
        unreachable += want.iter().filter(|a| a.is_unreachable()).count();
    }
    assert_eq!(unreachable, 2, "the else side and boundary of site 4");
}

/// Every branch event, bit for bit.
fn events(program: &dyn Analyzable, input: f64) -> Vec<(u32, u64, Cmp, u64, bool)> {
    let mut rec = TraceRecorder::new();
    program.run(&[input], &mut rec);
    rec.branches()
        .map(
            |&BranchEvent {
                 id,
                 lhs,
                 cmp,
                 rhs,
                 taken,
             }| { (id.0, lhs.to_bits(), cmp, rhs.to_bits(), taken) },
        )
        .collect()
}

/// Fed `high_word(x)`, the twin emits the native port's branch events bit
/// for bit: on both neighbours of every threshold, on ±0, ±f64::MAX and
/// the infinities, and on seeded samples of every bit pattern.
#[test]
fn the_fpir_twin_emits_the_native_branch_events_on_the_high_word() {
    let (twin, native) = (twin(), GlibcSin::new());
    let mut inputs = vec![
        0.0,
        -0.0,
        f64::MAX,
        -f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for &c in &K_THRESHOLDS {
        let at = double_from_high_word(c);
        for x in [at.next_down(), at, at.next_up()] {
            inputs.extend([x, -x]);
        }
    }
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    for _ in 0..4_096 {
        // xorshift64* over the raw bit patterns.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        inputs.push(f64::from_bits(state.wrapping_mul(0x2545_f491_4f6c_dd1d)));
    }
    for x in inputs {
        if x.is_nan() {
            continue;
        }
        let native_events = events(&native, x);
        assert!(!native_events.is_empty());
        assert_eq!(
            events(&twin, f64::from(high_word(x))),
            native_events,
            "x = {x:e}"
        );
    }
}
