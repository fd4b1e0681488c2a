//! The Nelder–Mead search on a flat simplex with a rank permutation,
//! checked against a reference: a verbatim copy of the loop it replaced,
//! which kept a `Vec<Vec<f64>>` simplex and re-sorted it physically every
//! iteration, and whose evaluator copied and clamped every point.
//!
//! Every recorded sample (index, point bits, value bits) and the result
//! must match on 1 000 seeded cases: dimensions 1–5; quadratic, NaN-half,
//! ±∞-valued and plateau objectives; starts at 0, ±f64::MAX and random
//! points; whole and narrow bounds; budgets 1–2 000; with and without a
//! target. The golden digests pin only a few fixed seeds.

use wdm::mo::evaluator::Evaluator;
use wdm::mo::{
    Bounds, FnObjective, LocalMinimizer, MinimizeResult, NelderMead, Problem, SampleSink,
    Termination,
};

/// One recorded evaluation: index, point bits and value bits.
type Sample = (u64, Vec<u64>, u64);

/// Keeps every sample bit for bit.
#[derive(Default)]
struct Recorder(Vec<Sample>);

impl SampleSink for Recorder {
    fn record(&mut self, index: u64, x: &[f64], value: f64) {
        self.0.push((
            index,
            x.iter().map(|v| v.to_bits()).collect(),
            value.to_bits(),
        ));
    }
}

/// The reference search: the Nelder–Mead loop as it was before the flat
/// simplex, line for line, over an evaluator that copies and clamps every
/// point before evaluating it.
fn reference_minimize(
    nm: &NelderMead,
    problem: &Problem<'_>,
    x0: &[f64],
    max_evals: usize,
    sink: &mut dyn SampleSink,
) -> MinimizeResult {
    let mut ev = Evaluator::new(problem, sink).capped(max_evals);
    let mut clamped = Vec::new();
    // The evaluator clamped a copy of every point; a clamped point is in
    // bounds, so today's evaluator takes it as it is.
    let mut eval = |ev: &mut Evaluator<'_, '_>, x: &[f64]| {
        clamped.clear();
        clamped.extend_from_slice(x);
        problem.bounds.clamp(&mut clamped);
        ev.eval(&clamped)
    };

    let n = x0.len();
    let mut simplex: Vec<Vec<f64>> = Vec::new();
    simplex.resize_with(n + 1, Vec::new);
    for v in simplex.iter_mut() {
        v.clear();
        v.extend_from_slice(x0);
    }
    for (i, v) in simplex[1..].iter_mut().enumerate() {
        if v[i] == 0.0 {
            v[i] = nm.initial_scale.max(1.0e-4);
        } else {
            v[i] *= 1.0 + nm.initial_scale;
            if v[i] == x0[i] {
                v[i] = x0[i] + nm.initial_scale;
            }
        }
    }
    let mut values: Vec<f64> = simplex.iter().map(|v| eval(&mut ev, v)).collect();
    let mut order: Vec<usize> = Vec::new();
    let mut sorted = simplex.clone();
    let mut sorted_values = values.clone();
    let mut centroid = vec![0.0; n];
    let mut reflect = vec![0.0; n];
    let mut expand = vec![0.0; n];
    let mut contract = vec![0.0; n];

    for _ in 0..nm.max_iters {
        if ev.should_stop() {
            break;
        }
        // Order the simplex by value (NaN last).
        order.clear();
        order.extend(0..=n);
        order.sort_by(|&a, &b| {
            values[a]
                .partial_cmp(&values[b])
                .unwrap_or(std::cmp::Ordering::Greater)
        });
        for ((vertex, value), &i) in sorted
            .iter_mut()
            .zip(sorted_values.iter_mut())
            .zip(order.iter())
        {
            vertex.copy_from_slice(&simplex[i]);
            *value = values[i];
        }
        std::mem::swap(&mut simplex, &mut sorted);
        std::mem::swap(&mut values, &mut sorted_values);

        let spread = (values[n] - values[0]).abs();
        if spread.is_finite() && spread <= nm.f_tol {
            break;
        }

        // Centroid of all points but the worst.
        centroid.fill(0.0);
        for v in simplex.iter().take(n) {
            for (c, vi) in centroid.iter_mut().zip(v) {
                *c += vi / n as f64;
            }
        }

        let worst = &simplex[n];
        for ((r, c), w) in reflect.iter_mut().zip(centroid.iter()).zip(worst) {
            *r = c + nm.alpha * (c - w);
        }
        let f_reflect = eval(&mut ev, &reflect);

        if f_reflect < values[0] {
            // Try expansion.
            for ((e, c), w) in expand.iter_mut().zip(centroid.iter()).zip(worst) {
                *e = c + nm.gamma * nm.alpha * (c - w);
            }
            let f_expand = eval(&mut ev, &expand);
            if f_expand < f_reflect {
                simplex[n].copy_from_slice(&expand);
                values[n] = f_expand;
            } else {
                simplex[n].copy_from_slice(&reflect);
                values[n] = f_reflect;
            }
        } else if f_reflect < values[n - 1] {
            simplex[n].copy_from_slice(&reflect);
            values[n] = f_reflect;
        } else {
            // Contraction (outside if the reflected point improved on the
            // worst vertex, inside otherwise).
            let towards: &[f64] = if f_reflect < values[n] {
                &reflect
            } else {
                worst
            };
            let f_towards = if f_reflect < values[n] {
                f_reflect
            } else {
                values[n]
            };
            for ((k, c), t) in contract.iter_mut().zip(centroid.iter()).zip(towards) {
                *k = c + nm.rho * (t - c);
            }
            let f_contract = eval(&mut ev, &contract);
            if f_contract < f_towards {
                simplex[n].copy_from_slice(&contract);
                values[n] = f_contract;
            } else {
                // Shrink towards the best vertex, in place: each
                // coordinate depends only on its own old value.
                let (best, rest) = simplex.split_at_mut(1);
                for (vertex, value) in rest.iter_mut().zip(&mut values[1..]) {
                    for (s, b) in vertex.iter_mut().zip(&best[0]) {
                        *s = b + nm.sigma * (*s - b);
                    }
                    *value = eval(&mut ev, vertex);
                    if ev.should_stop() {
                        break;
                    }
                }
            }
        }
    }
    let (x, value) = ev.best();
    let termination = ev.termination(Termination::Converged);
    MinimizeResult::new(x, value, ev.evals(), termination)
}

/// SplitMix64: the cases' seeded source of bits.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A signed value whose magnitude spans 1e-3 to 1e3.
    fn moderate(&mut self) -> f64 {
        let sign = if self.next() & 1 == 0 { 1.0 } else { -1.0 };
        sign * 10.0_f64.powf(6.0 * self.unit() - 3.0)
    }
}

/// The weak-distance shapes the search meets.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// A weighted quadratic bowl around a center.
    Quadratic,
    /// The bowl, NaN where the first coordinate is below the center.
    NanHalf,
    /// The bowl, `+∞` and `−∞` on two slabs.
    Infinite,
    /// A staircase of flat steps.
    Plateau,
}

fn objective(shape: Shape, center: Vec<f64>) -> impl Fn(&[f64]) -> f64 + Send + Sync {
    move |x: &[f64]| {
        let bowl: f64 = x
            .iter()
            .zip(&center)
            .enumerate()
            .map(|(i, (xi, ci))| (i + 1) as f64 * (xi - ci) * (xi - ci))
            .sum();
        match shape {
            Shape::Quadratic => bowl,
            Shape::NanHalf if x[0] < center[0] => f64::NAN,
            Shape::NanHalf => bowl,
            Shape::Infinite if x[0] > center[0] + 2.0 => f64::INFINITY,
            Shape::Infinite if x[0] < center[0] - 50.0 => f64::NEG_INFINITY,
            Shape::Infinite => bowl,
            Shape::Plateau => x
                .iter()
                .zip(&center)
                .map(|(xi, ci)| ((xi - ci) / 0.75).floor().abs())
                .sum(),
        }
    }
}

/// One case: the flat search and the reference record the same samples
/// and return the same result.
fn check_case(case: u64) {
    let mut rng = Rng(case.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x5DEE_CE66_D1CE_4E5B);
    let dim = 1 + rng.below(5) as usize;
    let shape = [
        Shape::Quadratic,
        Shape::NanHalf,
        Shape::Infinite,
        Shape::Plateau,
    ][rng.below(4) as usize];
    let center: Vec<f64> = (0..dim).map(|_| rng.moderate()).collect();
    let bounds = if rng.below(2) == 0 {
        Bounds::whole(dim)
    } else {
        Bounds::new(
            (0..dim)
                .map(|_| {
                    let lo = rng.moderate();
                    (lo, lo + 1.0e-3 + 10.0 * rng.unit())
                })
                .collect(),
        )
    };
    let x0: Vec<f64> = (0..dim)
        .map(|_| match rng.below(4) {
            0 => 0.0,
            1 => f64::MAX,
            2 => -f64::MAX,
            _ => rng.moderate(),
        })
        .collect();
    let budget = match rng.below(3) {
        0 => 1 + rng.below(10) as usize,
        1 => 1 + rng.below(200) as usize,
        _ => 1 + rng.below(2_000) as usize,
    };
    let nm = NelderMead {
        max_iters: if rng.below(4) == 0 {
            rng.below(40) as usize
        } else {
            2_000
        },
        ..NelderMead::default()
    };
    let f = FnObjective::new(dim, objective(shape, center));
    let mut problem = Problem::new(&f, bounds.clone());
    if rng.below(2) == 0 {
        problem = problem.with_target(rng.unit() * 1.0e-2);
    }

    let mut expected = Recorder::default();
    let reference = reference_minimize(&nm, &problem, &x0, budget, &mut expected);
    let mut got = Recorder::default();
    let flat = nm.minimize_from(&problem, &x0, budget, &mut got);

    let limits = bounds.limits();
    let what = format!("case {case}: {shape:?}, bounds {limits:?}, x0 {x0:?}, budget {budget}");
    assert_eq!(got.0.len(), expected.0.len(), "{what}: sample counts");
    for (g, e) in got.0.iter().zip(&expected.0) {
        assert_eq!(g, e, "{what}: first differing sample");
    }
    let bits = |r: &MinimizeResult| {
        (
            r.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r.value.to_bits(),
            r.evals,
            r.termination,
        )
    };
    assert_eq!(bits(&flat), bits(&reference), "{what}: results");
}

#[test]
fn flat_simplex_matches_the_reference_loop_sample_for_sample() {
    for case in 0..1_000 {
        check_case(case);
    }
}
