//! One-dimensional minimization: bracketing plus Brent's method.
//!
//! Powell's method performs a sequence of line searches; each line search is
//! a one-dimensional minimization along a direction. This module provides
//! the classic golden-section bracketing routine and Brent's
//! parabolic-interpolation minimizer (Powell 1964, Brent 1973).

/// Result of a one-dimensional minimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineMin {
    /// Location of the minimum along the line parameter.
    pub t: f64,
    /// Function value at the minimum.
    pub value: f64,
    /// Number of function evaluations used.
    pub evals: usize,
}

const GOLD: f64 = 1.618_033_988_749_895;
const TINY: f64 = 1.0e-20;

/// Brackets a minimum of `f` starting from the interval `[a, b]`.
///
/// Returns `(a, b, c)` with `a < b < c` (or the reverse ordering) such that
/// `f(b) <= f(a)` and `f(b) <= f(c)`, along with the number of evaluations
/// used. The expansion is capped at `max_evals` evaluations, in which case
/// the last triple examined is returned even if it does not bracket.
pub fn bracket<F: FnMut(f64) -> f64>(
    mut a: f64,
    mut b: f64,
    f: &mut F,
    max_evals: usize,
) -> (f64, f64, f64, usize) {
    let mut evals = 0;
    let mut eval = |x: f64, evals: &mut usize| {
        *evals += 1;
        let v = f(x);
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };
    let mut fa = eval(a, &mut evals);
    let mut fb = eval(b, &mut evals);
    if fb > fa {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = b + GOLD * (b - a);
    let mut fc = eval(c, &mut evals);
    while fb > fc && evals < max_evals {
        // Parabolic extrapolation, limited to a maximum magnification.
        let r = (b - a) * (fb - fc);
        let q = (b - c) * (fb - fa);
        // The parabola degenerates when the three points are (numerically)
        // collinear: guard the denominator with TINY, carrying the sign of
        // `q - r`. The sign of a *zero* carries no information, and
        // `(-0.0).signum()` is -1 (and `NAN.signum()` is NaN, reachable
        // when infinite objective values make `q - r` an inf - inf), so a
        // zero or NaN difference is treated as positive — the classic
        // `SIGN(max(|q-r|, TINY), q-r)` behavior.
        let qr = q - r;
        let guarded = qr.abs().max(TINY);
        let denom = 2.0 * if qr < 0.0 { -guarded } else { guarded };
        let mut u = b - ((b - c) * q - (b - a) * r) / denom;
        if u.is_nan() {
            // Fully degenerate step (non-finite q or r): fall back to the
            // default golden-ratio expansion past c.
            u = c + GOLD * (c - b);
        }
        let ulim = b + 100.0 * (c - b);
        let mut fu;
        if (b - u) * (u - c) > 0.0 {
            // Parabolic u between b and c.
            fu = eval(u, &mut evals);
            if fu < fc {
                return (b, u, c, evals);
            } else if fu > fb {
                return (a, b, u, evals);
            }
            u = c + GOLD * (c - b);
            fu = eval(u, &mut evals);
        } else if (c - u) * (u - ulim) > 0.0 {
            // Parabolic u between c and its allowed limit.
            fu = eval(u, &mut evals);
            if fu < fc {
                b = c;
                c = u;
                fb = fc;
                fc = fu;
                u = c + GOLD * (c - b);
                fu = eval(u, &mut evals);
            }
            // When `fu >= fc`, keep the already-computed `fu` for the shift
            // below instead of evaluating the same point a second time.
        } else if (u - ulim) * (ulim - c) >= 0.0 {
            u = ulim;
            fu = eval(u, &mut evals);
        } else {
            u = c + GOLD * (c - b);
            fu = eval(u, &mut evals);
        }
        a = b;
        b = c;
        c = u;
        fa = fb;
        fb = fc;
        fc = fu;
    }
    (a, b, c, evals)
}

/// Brent's method on the bracket `(a, b, c)` (with `f(b)` below both ends).
///
/// `tol` is the relative tolerance on the location of the minimum;
/// `max_iters` bounds the number of iterations.
pub fn brent<F: FnMut(f64) -> f64>(
    ax: f64,
    bx: f64,
    cx: f64,
    f: &mut F,
    tol: f64,
    max_iters: usize,
) -> LineMin {
    let mut evals = 0;
    let mut eval = |x: f64, evals: &mut usize| {
        *evals += 1;
        let v = f(x);
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };
    const CGOLD: f64 = 0.381_966_011_250_105;
    let zeps = f64::EPSILON * 1.0e-3;
    let (mut a, mut b) = if ax < cx { (ax, cx) } else { (cx, ax) };
    let mut x = bx;
    let mut w = bx;
    let mut v = bx;
    let mut fx = eval(x, &mut evals);
    let mut fw = fx;
    let mut fv = fx;
    let mut d: f64 = 0.0;
    let mut e: f64 = 0.0;
    for _ in 0..max_iters {
        let xm = 0.5 * (a + b);
        let tol1 = tol * x.abs() + zeps;
        let tol2 = 2.0 * tol1;
        if (x - xm).abs() <= tol2 - 0.5 * (b - a) {
            break;
        }
        let mut use_golden = true;
        if e.abs() > tol1 {
            // Parabolic fit through x, v, w.
            let r = (x - w) * (fx - fv);
            let mut q = (x - v) * (fx - fw);
            let mut p = (x - v) * q - (x - w) * r;
            q = 2.0 * (q - r);
            if q > 0.0 {
                p = -p;
            }
            q = q.abs();
            let etemp = e;
            e = d;
            if p.abs() < (0.5 * q * etemp).abs() && p > q * (a - x) && p < q * (b - x) {
                d = p / q;
                let u = x + d;
                if u - a < tol2 || b - u < tol2 {
                    d = tol1.copysign(xm - x);
                }
                use_golden = false;
            }
        }
        if use_golden {
            e = if x >= xm { a - x } else { b - x };
            d = CGOLD * e;
        }
        let u = if d.abs() >= tol1 {
            x + d
        } else {
            x + tol1.copysign(d)
        };
        let fu = eval(u, &mut evals);
        if fu <= fx {
            if u >= x {
                a = x;
            } else {
                b = x;
            }
            v = w;
            w = x;
            x = u;
            fv = fw;
            fw = fx;
            fx = fu;
        } else {
            if u < x {
                a = u;
            } else {
                b = u;
            }
            if fu <= fw || w == x {
                v = w;
                w = u;
                fv = fw;
                fw = fu;
            } else if fu <= fv || v == x || v == w {
                v = u;
                fv = fu;
            }
        }
    }
    LineMin {
        t: x,
        value: fx,
        evals,
    }
}

/// Convenience: bracket from `[t0, t1]` and then run Brent's method.
pub fn line_minimize<F: FnMut(f64) -> f64>(
    t0: f64,
    t1: f64,
    f: &mut F,
    tol: f64,
    max_evals: usize,
) -> LineMin {
    let (a, b, c, bracket_evals) = bracket(t0, t1, f, max_evals / 2);
    let mut m = brent(a, b, c, f, tol, max_evals / 2);
    m.evals += bracket_evals;
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brent_finds_parabola_minimum() {
        let mut f = |t: f64| (t - 3.5) * (t - 3.5) + 1.0;
        let m = line_minimize(0.0, 1.0, &mut f, 1e-10, 500);
        assert!((m.t - 3.5).abs() < 1e-6, "t = {}", m.t);
        assert!((m.value - 1.0).abs() < 1e-10);
        assert!(m.evals > 0);
    }

    #[test]
    fn brent_handles_absolute_value_kink() {
        let mut f = |t: f64| (t + 2.0).abs();
        let m = line_minimize(0.0, 1.0, &mut f, 1e-12, 500);
        assert!((m.t + 2.0).abs() < 1e-6, "t = {}", m.t);
        assert!(m.value < 1e-6);
    }

    #[test]
    fn brent_handles_nan_regions() {
        // NaN outside [0, 10] must not poison the search.
        let mut f = |t: f64| {
            if !(0.0..=10.0).contains(&t) {
                f64::NAN
            } else {
                (t - 4.0) * (t - 4.0)
            }
        };
        let m = line_minimize(1.0, 2.0, &mut f, 1e-9, 500);
        assert!((m.t - 4.0).abs() < 1e-4, "t = {}", m.t);
    }

    #[test]
    fn bracket_expands_downhill() {
        let mut f = |t: f64| (t - 100.0) * (t - 100.0);
        let (a, b, c, _) = bracket(0.0, 1.0, &mut f, 200);
        let fb = f(b);
        assert!(fb <= f(a) && fb <= f(c), "bracket ({a}, {b}, {c}) invalid");
    }

    /// The reference bracketer: the same downhill loop but *only*
    /// golden-ratio expansion steps — no parabolic extrapolation, so none
    /// of the degenerate-denominator paths exist. Used as the oracle for
    /// the hardening tests below.
    fn golden_reference_bracket<F: FnMut(f64) -> f64>(
        mut a: f64,
        mut b: f64,
        f: &mut F,
        max_evals: usize,
    ) -> (f64, f64, f64, usize) {
        let mut evals = 0;
        let mut eval = |x: f64, evals: &mut usize| {
            *evals += 1;
            let v = f(x);
            if v.is_nan() {
                f64::INFINITY
            } else {
                v
            }
        };
        let mut fa = eval(a, &mut evals);
        let mut fb = eval(b, &mut evals);
        if fb > fa {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
        let mut c = b + GOLD * (b - a);
        let mut fc = eval(c, &mut evals);
        while fb > fc && evals < max_evals {
            let u = c + GOLD * (c - b);
            let fu = eval(u, &mut evals);
            a = b;
            b = c;
            c = u;
            fa = fb;
            fb = fc;
            fc = fu;
        }
        let _ = fa;
        (a, b, c, evals)
    }

    /// Regression for the `(c-u)*(u-ulim)` branch: when the parabolic
    /// probe `u` beyond `c` comes back with `fu >= fc`, the already
    /// computed `fu` must be reused for the shift — the pre-fix code
    /// evaluated the very same point a second time (double-charging the
    /// budget and, for side-effecting objectives, doubling their side
    /// effects).
    #[test]
    fn bracket_does_not_reevaluate_a_rejected_parabolic_probe() {
        // Descending slowly over [0, c], then a plateau above f(c): the
        // parabola through (0, 10), (1, 9), (c, ~8.38) has its minimum
        // just beyond c, and the probe value 9.0 rejects it (fu >= fc).
        let mut inputs: Vec<f64> = Vec::new();
        let mut f = |t: f64| {
            inputs.push(t);
            if t > 2.618_034 {
                9.0
            } else if t > 1.0 {
                9.0 - 0.383 * (t - 1.0)
            } else {
                10.0 - t
            }
        };
        let (a, b, c, evals) = bracket(0.0, 1.0, &mut f, 100);
        // f(0), f(1), f(c0), f(u) — and nothing evaluated twice.
        assert_eq!(evals, 4, "rejected parabolic probe was re-evaluated");
        assert_eq!(inputs.len(), evals);
        for pair in inputs.windows(2) {
            assert_ne!(pair[0], pair[1], "same point evaluated twice in a row");
        }
        // The returned triple still brackets the plateau edge.
        let fb = 9.0 - 0.383 * (b - 1.0);
        assert!(b > 1.0 && b <= 2.618_034);
        assert!(
            fb <= 10.0 - a.min(1.0) && fb <= 9.0,
            "({a}, {b}, {c}) invalid"
        );
    }

    /// On a flat plateau (`fa == fb == fc` after the NaN mapping) and on
    /// plateaus of infinite values, the parabolic denominator degenerates
    /// (`q - r` is a signed zero or NaN). The hardened step must keep every
    /// probe point finite and behave like the golden-section-only
    /// reference: same number of evaluations, same final triple.
    #[test]
    fn bracket_on_flat_and_nan_plateaus_stays_finite() {
        // Entirely flat.
        let mut inputs: Vec<f64> = Vec::new();
        let mut flat = |t: f64| {
            inputs.push(t);
            7.0
        };
        let (a, b, c, evals) = bracket(0.0, 1.0, &mut flat, 64);
        assert!(a.is_finite() && b.is_finite() && c.is_finite());
        assert_eq!(evals, 3);
        assert!(inputs.iter().all(|t| t.is_finite()));

        // NaN plateau on both starting points (mapped to +inf): the loop
        // expands downhill once the finite region is reached; no probe may
        // ever be non-finite.
        let mut inputs: Vec<f64> = Vec::new();
        let mut nan_edge = |t: f64| {
            inputs.push(t);
            if t < 2.0 {
                f64::NAN
            } else {
                (t - 30.0) * (t - 30.0)
            }
        };
        let (a, b, c, _) = bracket(0.0, 1.0, &mut nan_edge, 200);
        assert!(inputs.iter().all(|t| t.is_finite()), "non-finite probe");
        let check = |t: f64| {
            let v = if t < 2.0 {
                f64::NAN
            } else {
                (t - 30.0) * (t - 30.0)
            };
            if v.is_nan() {
                f64::INFINITY
            } else {
                v
            }
        };
        let fb = check(b);
        assert!(fb <= check(a) && fb <= check(c), "({a}, {b}, {c}) invalid");
    }

    /// Property: across a family of shaped objectives (quadratics,
    /// plateaus, NaN pockets, steps), whenever the golden-section-only
    /// reference finds a valid bracket within budget, the production
    /// bracketer must too — and never probe a non-finite point.
    #[test]
    fn bracket_matches_golden_reference_validity_on_shaped_functions() {
        let shaped = |kind: u8, shift: f64| {
            move |t: f64| match kind % 6 {
                0 => (t - shift) * (t - shift),
                1 => (t - shift).abs(),
                2 => 5.0, // flat plateau
                3 => {
                    if (t - shift).abs() < 1.0 {
                        f64::NAN
                    } else {
                        (t - shift).abs()
                    }
                }
                4 => {
                    if t < shift {
                        10.0 - t
                    } else {
                        1.0 // step plateau
                    }
                }
                _ => ((t - shift) * 0.25).sin() + 1.5,
            }
        };
        for kind in 0u8..6 {
            for (i, shift) in [-40.0, -3.0, 0.0, 2.5, 17.0, 90.0].iter().enumerate() {
                let mut probes: Vec<f64> = Vec::new();
                let base = shaped(kind, *shift);
                let mut traced = |t: f64| {
                    probes.push(t);
                    base(t)
                };
                let (a, b, c, evals) = bracket(0.0, 1.0, &mut traced, 200);
                assert!(
                    probes.iter().all(|t| t.is_finite()),
                    "kind {kind} shift {shift} probed a non-finite point"
                );
                assert!(evals <= 200 + 1, "kind {kind} case {i} blew the cap");
                let mut reference = shaped(kind, *shift);
                let (_, rb, _, revals) = golden_reference_bracket(0.0, 1.0, &mut reference, 200);
                if revals < 200 {
                    // The reference bracketed within budget; the production
                    // bracketer must have found a valid bracket as well.
                    let nan_safe = |t: f64| {
                        let v = base(t);
                        if v.is_nan() {
                            f64::INFINITY
                        } else {
                            v
                        }
                    };
                    let fb = nan_safe(b);
                    assert!(
                        fb <= nan_safe(a) && fb <= nan_safe(c),
                        "kind {kind} shift {shift}: ({a}, {b}, {c}) does not bracket \
                         (reference bracketed at {rb})"
                    );
                }
            }
        }
    }

    #[test]
    fn bracket_respects_eval_cap() {
        let mut count = 0usize;
        let mut f = |t: f64| {
            count += 1;
            -t // monotonically decreasing: never brackets
        };
        let _ = bracket(0.0, 1.0, &mut f, 50);
        assert!(count <= 60, "used {count} evaluations");
    }
}
