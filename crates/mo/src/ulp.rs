//! ULP-space search: exact-zero polishing.
//!
//! Weak distances must reach *exactly* zero for the reduction guarantee of
//! Theorem 3.3 to fire, but a generic numerical minimizer typically stops a
//! few ULPs away from the true minimum point. [`UlpSearch`] performs a
//! compass search over the *ordered-integer representation* of the inputs:
//! every step moves a coordinate by a power-of-two number of ULPs, so the
//! search can traverse both astronomically large and denormal-small
//! distances, and — because the lattice of doubles is exactly the search
//! space — it can land on the exact minimizing float (e.g. `x == 1.0` for
//! the weak distance `|x - 1.0|`).
//!
//! The same integer view of doubles is used by XSat's ULP metric
//! (Section 7 of the paper); [`to_ordered`]/[`from_ordered`] and
//! [`ulp_distance`] are therefore also re-used by the `wdm-xsat` crate.

use crate::evaluator::Evaluator;
use crate::result::{MinimizeResult, Termination};
use crate::sampling::SampleSink;
use crate::{LocalMinimizer, Problem};

/// Maps a double to an ordered 64-bit integer: the mapping is monotone with
/// respect to the numeric order of finite doubles, and adjacent doubles map
/// to adjacent integers.
///
/// NaN is mapped to the largest value so it sorts after everything.
///
/// # Example
///
/// ```
/// use wdm_mo::ulp::{from_ordered, to_ordered};
/// assert!(to_ordered(1.0) < to_ordered(1.0 + f64::EPSILON));
/// assert!(to_ordered(-1.0) < to_ordered(0.0));
/// assert_eq!(from_ordered(to_ordered(42.5)), 42.5);
/// ```
pub fn to_ordered(x: f64) -> u64 {
    if x.is_nan() {
        return u64::MAX;
    }
    let bits = x.to_bits();
    if bits & 0x8000_0000_0000_0000 == 0 {
        // Nonnegative: shift above all negative encodings.
        bits | 0x8000_0000_0000_0000
    } else {
        // Negative: reverse order.
        !bits
    }
}

/// Inverse of [`to_ordered`] for values produced from finite doubles.
pub fn from_ordered(o: u64) -> f64 {
    if o & 0x8000_0000_0000_0000 != 0 {
        f64::from_bits(o & 0x7fff_ffff_ffff_ffff)
    } else {
        f64::from_bits(!o)
    }
}

/// Number of representable doubles strictly between `a` and `b` plus one
/// (i.e. the ULP distance used by XSat for equality atoms); zero iff
/// `a == b` bit-for-bit under the ordered mapping.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    let oa = to_ordered(a);
    let ob = to_ordered(b);
    oa.abs_diff(ob)
}

/// Compass search over the ULP lattice.
///
/// From the starting point, repeatedly tries moving each coordinate by
/// `±2^k` ULPs with `k` sweeping from `max_shift` down to 0, accepting any
/// improvement, until a full sweep yields no improvement or the budget is
/// exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UlpSearch {
    /// Largest power-of-two ULP step tried (`2^max_shift` ULPs).
    pub max_shift: u32,
    /// Maximum number of full sweeps.
    pub max_sweeps: usize,
}

impl Default for UlpSearch {
    fn default() -> Self {
        UlpSearch {
            max_shift: 52,
            max_sweeps: 8,
        }
    }
}

impl UlpSearch {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    fn step(x: f64, shift: u32, up: bool) -> f64 {
        let o = to_ordered(x);
        let delta = 1u64 << shift;
        let no = if up {
            o.saturating_add(delta)
        } else {
            o.saturating_sub(delta)
        };
        let v = from_ordered(no.min(to_ordered(f64::MAX)).max(to_ordered(-f64::MAX)));
        if v.is_nan() {
            x
        } else {
            v
        }
    }
}

impl LocalMinimizer for UlpSearch {
    fn minimize_from(
        &self,
        problem: &Problem<'_>,
        x0: &[f64],
        max_evals: usize,
        sink: &mut dyn SampleSink,
    ) -> MinimizeResult {
        if let Some(invalid) = crate::reject_invalid(problem) {
            return invalid;
        }
        let mut ev = Evaluator::new(problem, sink).capped(max_evals);
        let mut x = problem.bounds.clamped(x0);
        let mut fx = ev.eval(&x);
        // The trial point: equal to `x` between trials, so each trial only
        // moves coordinate `i` and puts it back.
        let mut y = x.clone();

        'sweeps: for _ in 0..self.max_sweeps {
            let mut improved = false;
            let mut shift = self.max_shift as i64;
            while shift >= 0 {
                for i in 0..x.len() {
                    for up in [true, false] {
                        if ev.should_stop() {
                            break 'sweeps;
                        }
                        let moved = Self::step(x[i], shift as u32, up);
                        if moved == x[i] {
                            continue;
                        }
                        y[i] = moved;
                        let fy = ev.eval(&y);
                        if crate::better(fy, fx) {
                            problem.bounds.clamp(&mut y);
                            x.copy_from_slice(&y);
                            fx = fy;
                            improved = true;
                        } else {
                            y[i] = x[i];
                        }
                    }
                }
                shift -= 1;
            }
            if !improved || ev.should_stop() {
                break;
            }
        }

        let (bx, bv) = ev.best();
        let (x, fx) = if crate::better(bv, fx) {
            (bx, bv)
        } else {
            (x, fx)
        };
        let termination = ev.termination(Termination::Converged);
        MinimizeResult::new(x, fx, ev.evals(), termination)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bounds, FnObjective, NoTrace};

    #[test]
    fn ordered_mapping_is_monotone() {
        let vals = [
            -f64::MAX,
            -1.0e10,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0e300,
            f64::MAX,
        ];
        for w in vals.windows(2) {
            assert!(to_ordered(w[0]) <= to_ordered(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn ordered_roundtrip() {
        for &v in &[
            0.0,
            -0.0,
            1.5,
            -2.25,
            1.0e-300,
            -1.0e300,
            f64::MAX,
            -f64::MAX,
        ] {
            let r = from_ordered(to_ordered(v));
            assert_eq!(r.to_bits(), v.to_bits(), "roundtrip of {v}");
        }
    }

    #[test]
    fn ulp_distance_properties() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(1.0, 1.0 + f64::EPSILON), 1);
        assert_eq!(ulp_distance(1.0 + f64::EPSILON, 1.0), 1);
        assert!(ulp_distance(0.0, 1.0) > 1_000_000);
        // -0.0 and 0.0 are adjacent in the ordered encoding.
        assert_eq!(ulp_distance(-0.0, 0.0), 1);
    }

    #[test]
    fn finds_exact_zero_of_absolute_distance() {
        let f = FnObjective::new(1, |x: &[f64]| (x[0] - 1.0).abs());
        let p = Problem::new(&f, Bounds::symmetric(1, 1.0e6)).with_target(0.0);
        // Start a little off the solution, as a numeric minimizer would leave us.
        let r = UlpSearch::default().minimize_from(&p, &[1.0000000003], 100_000, &mut NoTrace);
        assert_eq!(r.value, 0.0);
        assert_eq!(r.x[0], 1.0);
        assert_eq!(r.termination, Termination::TargetReached);
    }

    #[test]
    fn polishes_two_dimensional_kink() {
        let f = FnObjective::new(2, |x: &[f64]| (x[0] - 2.0).abs() + (x[1] + 3.0).abs());
        let p = Problem::new(&f, Bounds::symmetric(2, 1.0e6)).with_target(0.0);
        let r = UlpSearch::default().minimize_from(&p, &[2.1, -2.9], 300_000, &mut NoTrace);
        assert_eq!(r.value, 0.0, "x = {:?}", r.x);
    }

    #[test]
    fn respects_budget() {
        let f = FnObjective::new(1, |x: &[f64]| x[0].abs());
        let p = Problem::new(&f, Bounds::symmetric(1, 10.0));
        let r = UlpSearch::default().minimize_from(&p, &[5.0], 50, &mut NoTrace);
        assert!(r.evals <= 51);
    }

    #[test]
    fn step_moves_by_powers_of_two_ulps() {
        let x = 1.0;
        let up1 = UlpSearch::step(x, 0, true);
        assert_eq!(ulp_distance(x, up1), 1);
        let up8 = UlpSearch::step(x, 3, true);
        assert_eq!(ulp_distance(x, up8), 8);
        let down = UlpSearch::step(x, 0, false);
        assert!(down < x);
    }
}
