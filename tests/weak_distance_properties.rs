//! Property-based tests of the weak-distance axioms (Definition 3.1) and of
//! the core data-structure invariants, using proptest.

use proptest::prelude::*;
use std::collections::BTreeSet;
use wdm::core::boundary::{BoundaryMode, BoundaryWeakDistance};
use wdm::core::path::PathWeakDistance;
use wdm::core::site_bits::SiteBits;
use wdm::core::weak_distance::WeakDistance;
use wdm::gsl::glibc_sin::GlibcSin;
use wdm::gsl::toy::Fig2Program;
use wdm::mo::ulp::{from_ordered, to_ordered, ulp_distance};
use wdm::runtime::{BranchId, Cmp};
use wdm::xsat::{Atom, Clause, Cnf, CnfWeakDistance, Expr};

/// A key from one of five regions picked by `raw`: small dense ids, both
/// sides of [`SiteBits::CAP`], the top of the `u32` op ids (`u32::MAX`
/// included), the top of the `2·id + dir` branch keys, and anywhere below
/// that.
fn site_key(raw: u64) -> u64 {
    let v = raw >> 3;
    let top_branch_key = 2 * u64::from(u32::MAX) + 1;
    match raw % 5 {
        0 => v % 128,
        1 => SiteBits::CAP - 4 + v % 8,
        2 => u64::from(u32::MAX) - v % 4,
        3 => top_branch_key - v % 4,
        _ => v % (top_branch_key + 1),
    }
}

proptest! {
    /// The overflow and coverage targets' bitset answers membership
    /// exactly as a `BTreeSet` does, for every key region, members and
    /// their neighbours alike.
    #[test]
    fn site_bits_membership_equals_btreeset_membership(
        raw in proptest::collection::vec(any::<u64>(), 0..48),
        probes in proptest::collection::vec(any::<u64>(), 1..48),
    ) {
        let keys: Vec<u64> = raw.iter().map(|&r| site_key(r)).collect();
        let set: BTreeSet<u64> = keys.iter().copied().collect();
        let bits = SiteBits::new(keys.iter().copied());
        prop_assert_eq!(bits.len(), set.len());
        prop_assert_eq!(bits.is_empty(), set.is_empty());
        let probes = keys.iter().copied().chain(probes.iter().map(|&r| site_key(r)));
        for key in probes {
            for k in [key.saturating_sub(1), key, key.saturating_add(1)] {
                prop_assert_eq!(bits.contains(k), set.contains(&k), "key {}", k);
            }
        }
    }

    /// Definition 3.1(a): boundary weak distances are nonnegative everywhere.
    #[test]
    fn boundary_weak_distance_is_nonnegative(x in -1.0e6..1.0e6f64) {
        let wd = BoundaryWeakDistance::new(Fig2Program::new());
        prop_assert!(wd.eval(&[x]) >= 0.0);
        let characteristic = BoundaryWeakDistance::new(Fig2Program::new())
            .with_mode(BoundaryMode::Characteristic);
        prop_assert!(characteristic.eval(&[x]) >= 0.0);
    }

    /// Definition 3.1(b,c) for path reachability on Fig. 2: the weak distance
    /// is zero exactly on the inputs whose execution takes the required path.
    #[test]
    fn path_weak_distance_zero_iff_path_taken(x in -100.0..100.0f64) {
        let path = vec![(BranchId(0), true), (BranchId(1), true)];
        let wd = PathWeakDistance::new(Fig2Program::new(), path);
        let in_solution_space = (-3.0..=1.0).contains(&x);
        let value = wd.eval(&[x]);
        prop_assert_eq!(value == 0.0, in_solution_space, "x = {}, W = {}", x, value);
    }

    /// The Glibc sin boundary weak distance is nonnegative over the whole
    /// double range (including huge and tiny magnitudes).
    #[test]
    fn sin_boundary_weak_distance_nonnegative(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        prop_assume!(x.is_finite());
        let wd = BoundaryWeakDistance::new(GlibcSin::new());
        prop_assert!(wd.eval(&[x]) >= 0.0);
    }

    /// XSat distances: zero iff the formula holds under the assignment.
    #[test]
    fn cnf_distance_zero_iff_model(x in -50.0..50.0f64, y in -50.0..50.0f64) {
        let cnf = Cnf::new(2)
            .and(Clause::from(Atom::ge(Expr::var(0), Expr::constant(2.0)))
                .or(Atom::le(Expr::var(1), Expr::constant(-1.0))))
            .and(Clause::from(Atom::le(Expr::var(0), Expr::constant(40.0))));
        let wd = CnfWeakDistance::new(cnf.clone());
        let value = wd.eval(&[x, y]);
        prop_assert!(value >= 0.0);
        prop_assert_eq!(value == 0.0, cnf.holds(&[x, y]));
    }

    /// The ordered-integer encoding of doubles round-trips and is monotone.
    #[test]
    fn ulp_encoding_roundtrip_and_monotone(a in any::<f64>(), b in any::<f64>()) {
        prop_assume!(a.is_finite() && b.is_finite());
        prop_assert_eq!(from_ordered(to_ordered(a)).to_bits(), a.to_bits());
        if a < b {
            prop_assert!(to_ordered(a) < to_ordered(b));
        }
        prop_assert_eq!(ulp_distance(a, b), ulp_distance(b, a));
        prop_assert_eq!(ulp_distance(a, a), 0);
    }

    /// Korel branch distances are zero exactly when the comparison holds.
    #[test]
    fn branch_distance_zero_iff_satisfied(a in -1.0e3..1.0e3f64, b in -1.0e3..1.0e3f64) {
        for cmp in [Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge, Cmp::Eq, Cmp::Ne] {
            let d = cmp.distance_strict(a, b);
            prop_assert!(d >= 0.0);
            prop_assert_eq!(d == 0.0, cmp.eval(a, b), "{} {} {}", a, cmp, b);
        }
    }
}
