//! Box constraints and starting-point sampling.
//!
//! Overflow detection looks for inputs with magnitudes up to `1e308`, while
//! boundary value analysis of `sin` looks for inputs as small as `1e-8`.
//! Uniform sampling over such a wide box would almost never produce small
//! magnitudes, so [`Bounds::sample`] draws magnitudes *log-uniformly* (a
//! uniformly random exponent) which roughly matches sampling floating-point
//! numbers uniformly by representation — the behaviour the paper's random
//! starting points rely on.

use rand::Rng;
use std::fmt;

/// A per-dimension box `[lo_i, hi_i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    limits: Vec<(f64, f64)>,
    /// Per dimension, `log10` of the largest finite magnitude it admits:
    /// the top of the wide-range sampler's exponent range, worked out once
    /// here rather than on every sample.
    max_exps: Vec<f64>,
}

impl Bounds {
    /// Creates bounds from explicit per-dimension limits.
    ///
    /// # Panics
    ///
    /// Panics if any `lo > hi` or any endpoint is NaN.
    pub fn new(limits: Vec<(f64, f64)>) -> Self {
        for &(lo, hi) in &limits {
            assert!(!lo.is_nan() && !hi.is_nan(), "bound endpoint is NaN");
            assert!(lo <= hi, "lower bound {lo} exceeds upper bound {hi}");
        }
        let max_exps = limits
            .iter()
            .map(|&(lo, hi)| lo.abs().max(hi.abs()).min(f64::MAX).log10())
            .collect();
        Bounds { limits, max_exps }
    }

    /// Symmetric bounds `[-r, r]` in every dimension.
    pub fn symmetric(dim: usize, r: f64) -> Self {
        Bounds::new(vec![(-r, r); dim])
    }

    /// The whole finite binary64 box in every dimension.
    pub fn whole(dim: usize) -> Self {
        Bounds::new(vec![(-f64::MAX, f64::MAX); dim])
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.limits.len()
    }

    /// The `(lo, hi)` pair of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn limit(&self, i: usize) -> (f64, f64) {
        self.limits[i]
    }

    /// All limits.
    pub fn limits(&self) -> &[(f64, f64)] {
        &self.limits
    }

    /// Clamps `x` into the box in place; NaN components are replaced by a
    /// **finite** in-bounds fallback.
    ///
    /// The fallback is the midpoint of the dimension with each infinite
    /// endpoint first pulled in to the finite binary64 range: the naive
    /// `lo / 2 + hi / 2` is itself non-finite for half-bounded
    /// (`±inf` endpoint gives `±inf`) and unbounded (`-inf/2 + inf/2` is
    /// NaN) dimensions, which would silently feed non-finite points to the
    /// objective.
    pub fn clamp(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.dim());
        for (xi, &(lo, hi)) in x.iter_mut().zip(&self.limits) {
            if xi.is_nan() {
                let lo_finite = lo.max(-f64::MAX);
                let hi_finite = hi.min(f64::MAX);
                *xi = lo_finite / 2.0 + hi_finite / 2.0;
            } else {
                *xi = xi.clamp(lo, hi);
            }
        }
    }

    /// Returns a clamped copy of `x`.
    pub fn clamped(&self, x: &[f64]) -> Vec<f64> {
        let mut y = x.to_vec();
        self.clamp(&mut y);
        y
    }

    /// Returns `true` if `x` lies inside the box.
    pub fn contains(&self, x: &[f64]) -> bool {
        x.len() == self.dim()
            && x.iter()
                .zip(&self.limits)
                .all(|(&xi, &(lo, hi))| xi >= lo && xi <= hi)
    }

    /// Draws a random point. Narrow dimensions (width below `1e6`) are
    /// sampled uniformly; wide dimensions are sampled with a log-uniform
    /// magnitude so that tiny and huge floats are both reachable.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut x = Vec::with_capacity(self.dim());
        self.sample_into(rng, &mut x);
        x
    }

    /// Replaces the contents of `x` with a random point: the same draws, in
    /// the same order, as [`Bounds::sample`], into a buffer the caller
    /// reuses, so batch samplers never allocate per point.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, x: &mut Vec<f64>) {
        x.clear();
        x.extend(
            self.limits
                .iter()
                .zip(&self.max_exps)
                .map(|(&(lo, hi), &max_exp)| Self::sample_dim(rng, lo, hi, max_exp)),
        );
    }

    /// Draws a random value for dimension `i` alone, with the same
    /// narrow-uniform / wide-log-uniform rule as [`Bounds::sample`].
    /// Differential Evolution uses this to repair non-finite mutant
    /// components by resampling them from the bounds.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sample_component<R: Rng + ?Sized>(&self, rng: &mut R, i: usize) -> f64 {
        let (lo, hi) = self.limits[i];
        Self::sample_dim(rng, lo, hi, self.max_exps[i])
    }

    /// One draw in `[lo, hi]`; `max_exp` is the dimension's entry of
    /// `max_exps`.
    fn sample_dim<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64, max_exp: f64) -> f64 {
        let width = hi - lo;
        if width.is_finite() && width <= 1.0e6 {
            return lo + rng.gen::<f64>() * width;
        }
        // Wide range: pick a sign permitted by the bounds, then a
        // log-uniform magnitude up to the largest representable endpoint.
        // Exponents from 1e-10 up to the bound magnitude.
        let exp = -10.0 + rng.gen::<f64>() * (max_exp + 10.0);
        let mag = 10.0_f64.powf(exp);
        let candidate = if lo >= 0.0 {
            mag
        } else if hi <= 0.0 {
            -mag
        } else if rng.gen::<bool>() {
            mag
        } else {
            -mag
        };
        candidate.clamp(lo, hi)
    }
}

impl fmt::Display for Bounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bounds[")?;
        for (i, (lo, hi)) in self.limits.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "[{lo}, {hi}]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;

    #[test]
    fn construction_and_accessors() {
        let b = Bounds::new(vec![(-1.0, 2.0), (0.0, 5.0)]);
        assert_eq!(b.dim(), 2);
        assert_eq!(b.limit(0), (-1.0, 2.0));
        assert_eq!(b.limits().len(), 2);
        assert!(b.contains(&[0.0, 3.0]));
        assert!(!b.contains(&[3.0, 3.0]));
        assert!(!b.contains(&[0.0]));
    }

    #[test]
    fn clamp_handles_nan_and_out_of_range() {
        let b = Bounds::symmetric(3, 1.0);
        let mut x = vec![5.0, f64::NAN, -7.0];
        b.clamp(&mut x);
        assert_eq!(x, vec![1.0, 0.0, -1.0]);
        assert_eq!(b.clamped(&[0.5, 0.5, 0.5]), vec![0.5, 0.5, 0.5]);
    }

    /// Regression: the NaN fallback used to be the raw midpoint
    /// `lo / 2 + hi / 2`, which is `±inf` for half-bounded dimensions and
    /// NaN for unbounded ones — silently feeding non-finite points to the
    /// objective. The fallback must be finite and inside the box for every
    /// permitted bound shape.
    #[test]
    fn clamp_nan_fallback_is_finite_for_infinite_limits() {
        let shapes = [
            (f64::NEG_INFINITY, f64::INFINITY), // unbounded: was NaN
            (0.0, f64::INFINITY),               // half-bounded: was +inf
            (f64::NEG_INFINITY, 5.0),           // half-bounded: was -inf
            (-f64::MAX, f64::MAX),              // whole finite range
            (1.0e308, f64::INFINITY),           // huge one-sided
        ];
        for &(lo, hi) in &shapes {
            let b = Bounds::new(vec![(lo, hi)]);
            let mut x = vec![f64::NAN];
            b.clamp(&mut x);
            assert!(
                x[0].is_finite(),
                "NaN fallback for [{lo}, {hi}] is {}",
                x[0]
            );
            assert!(
                x[0] >= lo && x[0] <= hi,
                "fallback {} escaped [{lo}, {hi}]",
                x[0]
            );
        }
        // Non-NaN components still clamp against infinite limits as before.
        let b = Bounds::new(vec![(0.0, f64::INFINITY)]);
        let mut x = vec![-3.0];
        b.clamp(&mut x);
        assert_eq!(x, vec![0.0]);
        let mut x = vec![1.0e300];
        b.clamp(&mut x);
        assert_eq!(x, vec![1.0e300]);
    }

    #[test]
    fn sample_stays_in_narrow_bounds() {
        let b = Bounds::new(vec![(-2.0, 3.0), (10.0, 11.0)]);
        let mut rng = rng_from_seed(1);
        for _ in 0..200 {
            let x = b.sample(&mut rng);
            assert!(b.contains(&x), "sample {x:?} escaped bounds");
        }
    }

    #[test]
    fn sample_covers_magnitudes_in_wide_bounds() {
        let b = Bounds::whole(1);
        let mut rng = rng_from_seed(2);
        let mut small = false;
        let mut large = false;
        let mut negative = false;
        for _ in 0..2000 {
            let x = b.sample(&mut rng)[0];
            assert!(b.contains(&[x]));
            if x.abs() < 1.0 {
                small = true;
            }
            if x.abs() > 1.0e100 {
                large = true;
            }
            if x < 0.0 {
                negative = true;
            }
        }
        assert!(small, "never sampled a small magnitude");
        assert!(large, "never sampled a large magnitude");
        assert!(negative, "never sampled a negative value");
    }

    #[test]
    fn sample_respects_one_sided_bounds() {
        let b = Bounds::new(vec![(0.0, f64::MAX)]);
        let mut rng = rng_from_seed(3);
        for _ in 0..500 {
            assert!(b.sample(&mut rng)[0] >= 0.0);
        }
    }

    #[test]
    fn sample_into_makes_the_draws_of_sample() {
        // Narrow, wide two-sided and wide one-sided dimensions: each takes
        // a different number of draws per component.
        let b = Bounds::new(vec![(-2.0, 3.0), (-f64::MAX, f64::MAX), (0.0, 1.0e300)]);
        let (mut fresh, mut reused) = (rng_from_seed(5), rng_from_seed(5));
        let mut x = vec![f64::NAN; 7];
        for _ in 0..200 {
            b.sample_into(&mut reused, &mut x);
            let expected = b.sample(&mut fresh);
            assert_eq!(
                crate::checkpoint::bits_of(&x),
                crate::checkpoint::bits_of(&expected)
            );
        }
    }

    /// The exponent range is worked out once per dimension; the draws are
    /// those of the sampler that took `log10` on every sample.
    #[test]
    fn wide_samples_are_those_of_a_per_sample_log10() {
        fn per_sample(rng: &mut impl Rng, lo: f64, hi: f64) -> f64 {
            let width = hi - lo;
            if width.is_finite() && width <= 1.0e6 {
                return lo + rng.gen::<f64>() * width;
            }
            let max_exp = lo.abs().max(hi.abs()).min(f64::MAX).log10();
            let mag = 10.0_f64.powf(-10.0 + rng.gen::<f64>() * (max_exp + 10.0));
            let candidate = if lo >= 0.0 {
                mag
            } else if hi <= 0.0 {
                -mag
            } else if rng.gen::<bool>() {
                mag
            } else {
                -mag
            };
            candidate.clamp(lo, hi)
        }
        let b = Bounds::new(vec![
            (-f64::MAX, f64::MAX),
            (0.0, 1.0e300),
            (f64::NEG_INFINITY, -3.0),
            (-2.0, 3.0),
            (-1.0e7, f64::INFINITY),
        ]);
        let (mut rng, mut reference) = (rng_from_seed(6), rng_from_seed(6));
        let mut x = Vec::new();
        for _ in 0..500 {
            b.sample_into(&mut rng, &mut x);
            for (xi, &(lo, hi)) in x.iter().zip(b.limits()) {
                assert_eq!(xi.to_bits(), per_sample(&mut reference, lo, hi).to_bits());
            }
        }
    }

    #[test]
    fn sample_component_stays_in_its_dimension() {
        let b = Bounds::new(vec![(-2.0, 3.0), (0.0, f64::MAX)]);
        let mut rng = rng_from_seed(4);
        for _ in 0..300 {
            let x0 = b.sample_component(&mut rng, 0);
            let x1 = b.sample_component(&mut rng, 1);
            assert!((-2.0..=3.0).contains(&x0), "x0 = {x0}");
            assert!(x1 >= 0.0 && x1.is_finite(), "x1 = {x1}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_inverted_bounds() {
        let _ = Bounds::new(vec![(1.0, 0.0)]);
    }
}
