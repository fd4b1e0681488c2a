//! Closed intervals of doubles used to describe search domains.

use std::fmt;

/// A closed interval `[lo, hi]` of doubles.
///
/// Intervals describe the box over which the mathematical-optimization
/// backend samples starting points. The paper's benchmarks use very wide
/// domains (up to the whole binary64 range) because overflow-triggering
/// inputs often have magnitudes near `1e308`.
///
/// An endpoint may be infinite: `[0, +∞]` contains `+∞`, and
/// [`contains`](Interval::contains) and [`clamp`](Interval::clamp) of a
/// non-NaN value treat it like any other endpoint.
/// [`midpoint`](Interval::midpoint) and [`lerp`](Interval::lerp) first
/// pull an infinite endpoint in to `±f64::MAX` (the rule `wdm_mo::Bounds`
/// uses for its NaN fallback), so they stay finite and inside the
/// interval.
///
/// # Example
///
/// ```
/// use fp_runtime::Interval;
/// let iv = Interval::new(-2.0, 3.0);
/// assert!(iv.contains(0.0));
/// assert_eq!(iv.clamp(10.0), 3.0);
/// assert_eq!(iv.width(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Creates an interval from its two endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either endpoint is NaN.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "interval endpoint is NaN");
        assert!(
            lo <= hi,
            "interval lower bound {lo} exceeds upper bound {hi}"
        );
        Interval { lo, hi }
    }

    /// The whole finite binary64 range `[-f64::MAX, f64::MAX]`.
    pub fn whole() -> Self {
        Interval {
            lo: -f64::MAX,
            hi: f64::MAX,
        }
    }

    /// A symmetric interval `[-r, r]`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is negative or NaN.
    pub fn symmetric(r: f64) -> Self {
        assert!(r >= 0.0, "radius must be nonnegative");
        Interval { lo: -r, hi: r }
    }

    /// Lower endpoint.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width `hi - lo` (may be infinite for very wide intervals).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// The endpoints with an infinite one pulled in to `±f64::MAX`; a
    /// finite interval's endpoints, unchanged.
    fn finite_endpoints(&self) -> (f64, f64) {
        (self.lo.max(-f64::MAX), self.hi.min(f64::MAX))
    }

    /// Midpoint of the interval, computed without overflowing: finite, and
    /// inside the interval, even when an endpoint is infinite.
    pub fn midpoint(&self) -> f64 {
        let (lo, hi) = self.finite_endpoints();
        lo / 2.0 + hi / 2.0
    }

    /// Returns `true` if `x` lies in the interval (NaN is never contained).
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }

    /// Clamps `x` into the interval; NaN is mapped to the midpoint.
    pub fn clamp(&self, x: f64) -> f64 {
        if x.is_nan() {
            return self.midpoint();
        }
        x.clamp(self.lo, self.hi)
    }

    /// Linear interpolation: `t = 0` gives `lo`, `t = 1` gives `hi`, with
    /// an infinite endpoint pulled in to `±f64::MAX`, so the result is
    /// finite and inside the interval.
    ///
    /// Computed in a way that does not overflow for very wide intervals.
    pub fn lerp(&self, t: f64) -> f64 {
        let (lo, hi) = self.finite_endpoints();
        let v = lo * (1.0 - t) + hi * t;
        if v.is_nan() {
            return self.midpoint();
        }
        v.clamp(lo, hi)
    }
}

impl Default for Interval {
    fn default() -> Self {
        Interval::whole()
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_properties() {
        let iv = Interval::new(-1.0, 4.0);
        assert_eq!(iv.lo(), -1.0);
        assert_eq!(iv.hi(), 4.0);
        assert_eq!(iv.width(), 5.0);
        assert_eq!(iv.midpoint(), 1.5);
        assert!(iv.contains(-1.0));
        assert!(iv.contains(4.0));
        assert!(!iv.contains(4.1));
        assert!(!iv.contains(f64::NAN));
    }

    #[test]
    fn clamp_and_lerp() {
        let iv = Interval::new(0.0, 10.0);
        assert_eq!(iv.clamp(-5.0), 0.0);
        assert_eq!(iv.clamp(5.0), 5.0);
        assert_eq!(iv.clamp(50.0), 10.0);
        assert_eq!(iv.clamp(f64::NAN), 5.0);
        assert_eq!(iv.lerp(0.0), 0.0);
        assert_eq!(iv.lerp(1.0), 10.0);
        assert_eq!(iv.lerp(0.5), 5.0);
    }

    #[test]
    fn whole_interval_does_not_overflow() {
        let iv = Interval::whole();
        assert!(iv.midpoint().is_finite());
        assert!(iv.contains(1.0e308));
        assert!(iv.lerp(0.5).is_finite());
    }

    /// Regression: with an infinite endpoint the midpoint was `±∞` or NaN
    /// (−∞/2 + ∞/2), so `clamp(NaN)` returned NaN and `lerp` was NaN for
    /// every `t` over `(−∞, ∞)`.
    #[test]
    fn infinite_endpoints_keep_midpoint_clamp_and_lerp_finite() {
        let inf = f64::INFINITY;
        let cases = [
            (Interval::new(-inf, inf), 0.0, -f64::MAX, f64::MAX),
            (Interval::new(0.0, inf), f64::MAX / 2.0, 0.0, f64::MAX),
            (Interval::new(-inf, 0.0), -f64::MAX / 2.0, -f64::MAX, 0.0),
        ];
        for (iv, mid, first, last) in cases {
            assert_eq!(iv.midpoint(), mid, "{iv}");
            assert_eq!(iv.clamp(f64::NAN), mid, "{iv}");
            assert_eq!(iv.lerp(0.0), first, "{iv}");
            assert_eq!(iv.lerp(1.0), last, "{iv}");
            assert_eq!(iv.lerp(f64::NAN), mid, "{iv}");
            for t in [0.0, 0.25, 0.5, 0.75, 1.0, -1.0, 2.0] {
                let v = iv.lerp(t);
                assert!(v.is_finite() && iv.contains(v), "{iv}: lerp({t}) = {v}");
            }
            // A non-NaN value still clamps against the infinite endpoint.
            assert_eq!(iv.clamp(inf), inf.clamp(iv.lo(), iv.hi()), "{iv}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_inverted_bounds() {
        let _ = Interval::new(1.0, 0.0);
    }

    #[test]
    fn symmetric_constructor() {
        let iv = Interval::symmetric(2.5);
        assert_eq!(iv.lo(), -2.5);
        assert_eq!(iv.hi(), 2.5);
    }
}
