//! Golden search trajectories: fixed-seed minimizations whose every
//! recorded sample (index, point bits, value bits) and final result fold
//! into one 64-bit digest, pinned to a recorded constant.
//!
//! The equivalence suites compare two paths of the same build (batch vs
//! scalar, sliced vs unsliced, traced vs untraced); these digests pin the
//! trajectories themselves across changes. A change that only reuses
//! buffers on the evaluation hot path must leave every digest unchanged. A
//! change that alters a search on purpose (a new comparator, a new
//! proposal) updates the constants in the same change and says why.

use std::collections::BTreeSet;
use wdm::core::boundary::{BoundaryMode, BoundaryWeakDistance};
use wdm::core::driver::BackendKind;
use wdm::core::overflow::OverflowWeakDistance;
use wdm::core::weak_distance::{FnWeakDistance, WeakDistance, WeakDistanceObjective};
use wdm::gsl::bessel::BesselKnuScaled;
use wdm::gsl::glibc_sin::GlibcSin;
use wdm::mo::basinhopping::LocalSearch;
use wdm::mo::{
    BasinHopping, GlobalMinimizer, LocalMinimizer, MinimizeResult, NelderMead, Powell, Problem,
    SampleSink, UlpSearch,
};
use wdm::runtime::{BranchId, Interval, OpId};
use wdm::xsat::{Atom, Clause, Cnf, CnfWeakDistance, Expr};

/// Evaluation budget of every golden run.
const BUDGET: usize = 3_000;

/// FNV-1a over the little-endian bytes of 64-bit words; doubles as the
/// sample sink, so nothing is buffered.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds the final result and returns the digest.
    fn finish(mut self, r: &MinimizeResult) -> u64 {
        for xi in &r.x {
            self.word(xi.to_bits());
        }
        self.word(r.value.to_bits());
        self.word(r.evals as u64);
        for b in format!("{:?}", r.termination).bytes() {
            self.word(u64::from(b));
        }
        self.0
    }
}

impl SampleSink for Digest {
    fn record(&mut self, index: u64, x: &[f64], value: f64) {
        self.word(index);
        for xi in x {
            self.word(xi.to_bits());
        }
        self.word(value.to_bits());
    }
}

/// The four pinned objectives, each with a start point for the local
/// minimizers.
fn objectives() -> Vec<(&'static str, Box<dyn WeakDistance>, Vec<f64>)> {
    // The sin branch `k < 0x419921fb` (|x| near 1.05e8).
    let sin_single =
        BoundaryWeakDistance::new(GlibcSin).with_mode(BoundaryMode::Single(BranchId(3)));
    // The Bessel overflow round that tracks only the first site, `4 * nu`
    // (every later site is already handled).
    let skip: BTreeSet<OpId> = (1..BesselKnuScaled::NUM_OPS).map(OpId).collect();
    let bessel = OverflowWeakDistance::new(BesselKnuScaled::new(), skip);
    // (x0 * x1 == 7) ∧ (x0 - x1 >= 1.5 ∨ sin(x0) <= -0.5)
    let cnf = Cnf::new(2)
        .and(Clause::from(Atom::eq(
            Expr::var(0) * Expr::var(1),
            Expr::constant(7.0),
        )))
        .and(
            Clause::new()
                .or(Atom::ge(Expr::var(0) - Expr::var(1), Expr::constant(1.5)))
                .or(Atom::le(Expr::var(0).sin(), Expr::constant(-0.5))),
        );
    let xsat = CnfWeakDistance::new(cnf);
    // NaN on the left half of the box (sqrt of a negative).
    let nan_half = FnWeakDistance::new(2, vec![Interval::symmetric(16.0); 2], |x: &[f64]| {
        (x[0].sqrt() - 3.0).abs() + (x[1] - 0.5).abs()
    });
    vec![
        ("sin_single", Box::new(sin_single), vec![3.0e7]),
        ("bessel_overflow", Box::new(bessel), vec![2.0e307, 3.0]),
        ("xsat_cnf", Box::new(xsat), vec![1.0, -2.0]),
        ("nan_half", Box::new(nan_half), vec![-1.0, 2.0]),
    ]
}

/// Runs `f` on every objective's weak-distance problem and digests it.
fn digests(
    label: &str,
    mut f: impl FnMut(&Problem<'_>, &[f64], &mut Digest) -> MinimizeResult,
) -> Vec<(String, u64)> {
    objectives()
        .iter()
        .map(|(name, wd, x0)| {
            let objective = WeakDistanceObjective::new(wd.as_ref());
            let problem = Problem::new(&objective, objective.bounds())
                .with_target(0.0)
                .with_max_evals(BUDGET);
            let mut digest = Digest::new();
            let result = f(&problem, x0, &mut digest);
            (format!("{label}/{name}"), digest.finish(&result))
        })
        .collect()
}

/// Compares every digest with its golden constant, listing all mismatches
/// (in paste-able form) before failing.
fn check(actual: Vec<(String, u64)>, golden: &[(&str, u64)]) {
    let names: Vec<&str> = actual.iter().map(|(n, _)| n.as_str()).collect();
    let golden_names: Vec<&str> = golden.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, golden_names, "golden table out of date");
    let mismatches: Vec<String> = actual
        .iter()
        .zip(golden)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, got), (_, want))| format!("(\"{name}\", {got}), // was {want}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "search trajectories changed:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn every_backend_kind_reproduces_its_trajectory() {
    let mut actual = Vec::new();
    for kind in BackendKind::all() {
        let backend = kind.build_stepped();
        actual.extend(digests(kind.name(), |problem, _, sink| {
            backend.minimize(problem, 0x5eed, sink)
        }));
    }
    check(actual, GOLDEN_BACKENDS);
}

#[test]
fn basin_hopping_reproduces_its_trajectory_with_each_local_search() {
    let mut actual = Vec::new();
    for (label, local) in [
        ("bh+nelder_mead", LocalSearch::NelderMead),
        ("bh+powell", LocalSearch::Powell),
        ("bh+none", LocalSearch::None),
    ] {
        let bh = BasinHopping::default()
            .with_local_search(local)
            .with_local_max_evals(200);
        actual.extend(digests(label, |problem, _, sink| {
            bh.minimize(problem, 0xb45e, sink)
        }));
    }
    check(actual, GOLDEN_BASIN_HOPPING);
}

#[test]
fn local_minimizers_reproduce_their_trajectories() {
    let mut actual = Vec::new();
    let locals: [(&str, &dyn LocalMinimizer); 3] = [
        ("nelder_mead", &NelderMead::default()),
        ("ulp", &UlpSearch::default()),
        ("powell", &Powell::default()),
    ];
    for (label, local) in locals {
        actual.extend(digests(label, |problem, x0, sink| {
            local.minimize_from(problem, x0, 2_000, sink)
        }));
    }
    check(actual, GOLDEN_LOCAL);
}

const GOLDEN_BACKENDS: &[(&str, u64)] = &[
    ("Basinhopping/sin_single", 639065657205409418),
    ("Basinhopping/bessel_overflow", 10041475799104119626),
    ("Basinhopping/xsat_cnf", 10763511781252897309),
    ("Basinhopping/nan_half", 17333950276016582060),
    ("Differential E./sin_single", 11880912990982773940),
    ("Differential E./bessel_overflow", 13112534067273771104),
    ("Differential E./xsat_cnf", 13291260371153495374),
    ("Differential E./nan_half", 10297187717553507297),
    ("Powell/sin_single", 3264013089393786999),
    ("Powell/bessel_overflow", 15663235190846008953),
    ("Powell/xsat_cnf", 15663235190846008953),
    ("Powell/nan_half", 1062112272653279921),
    ("MultiStart/sin_single", 879090484655431297),
    ("MultiStart/bessel_overflow", 15070670535360087827),
    ("MultiStart/xsat_cnf", 3937208727534500890),
    ("MultiStart/nan_half", 9994197837205352515),
    ("RandomSearch/sin_single", 10110093376753394797),
    ("RandomSearch/bessel_overflow", 15649862834641361723),
    ("RandomSearch/xsat_cnf", 2066973553621154899),
    ("RandomSearch/nan_half", 14783179602033553097),
];

const GOLDEN_BASIN_HOPPING: &[(&str, u64)] = &[
    ("bh+nelder_mead/sin_single", 17711050129768871452),
    ("bh+nelder_mead/bessel_overflow", 9099147842684192483),
    ("bh+nelder_mead/xsat_cnf", 11867921015427906077),
    ("bh+nelder_mead/nan_half", 13789942200940638270),
    ("bh+powell/sin_single", 5450555129935336830),
    ("bh+powell/bessel_overflow", 10041673509886648421),
    ("bh+powell/xsat_cnf", 6994508160539936053),
    ("bh+powell/nan_half", 9319793804102824390),
    ("bh+none/sin_single", 8960867928856428540),
    ("bh+none/bessel_overflow", 1444389712233581219),
    ("bh+none/xsat_cnf", 14017177857871046929),
    ("bh+none/nan_half", 5964338872152006913),
];

const GOLDEN_LOCAL: &[(&str, u64)] = &[
    ("nelder_mead/sin_single", 2373986886462853484),
    ("nelder_mead/bessel_overflow", 17336067098881152284),
    ("nelder_mead/xsat_cnf", 6290208086690902391),
    ("nelder_mead/nan_half", 8795147506503385930),
    ("ulp/sin_single", 9645011300887642233),
    ("ulp/bessel_overflow", 14962862551745185056),
    ("ulp/xsat_cnf", 1684395441915121824),
    ("ulp/nan_half", 14721250558281296821),
    ("powell/sin_single", 1548865438916625548),
    ("powell/bessel_overflow", 8408320735718151826),
    ("powell/xsat_cnf", 3397893877599361078),
    ("powell/nan_half", 3754325809227989460),
];
