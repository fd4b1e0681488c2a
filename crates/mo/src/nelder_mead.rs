//! The Nelder–Mead downhill-simplex method.
//!
//! A derivative-free local search well suited to the piecewise-smooth,
//! possibly discontinuous weak distances produced by the reduction. It is
//! the default local step inside [`BasinHopping`](crate::BasinHopping).

use crate::evaluator::Evaluator;
use crate::result::{MinimizeResult, Termination};
use crate::sampling::SampleSink;
use crate::{GlobalMinimizer, LocalMinimizer, Problem};

/// Configuration of the Nelder–Mead simplex search.
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMead {
    /// Reflection coefficient (standard value 1).
    pub alpha: f64,
    /// Expansion coefficient (standard value 2).
    pub gamma: f64,
    /// Contraction coefficient (standard value 0.5).
    pub rho: f64,
    /// Shrink coefficient (standard value 0.5).
    pub sigma: f64,
    /// Relative size of the initial simplex around the starting point.
    pub initial_scale: f64,
    /// Convergence tolerance on the spread of function values.
    pub f_tol: f64,
    /// Maximum number of iterations (reflection steps).
    pub max_iters: usize,
}

/// The buffers of one Nelder–Mead search: the simplex, its values, the
/// sort order, the sorted copy, the centroid and the trial points. Every
/// search rewrites them in place, so a stepped backend that runs many
/// searches in a round (basin hopping's hops, multi-start's starts) lends
/// one workspace to all of them instead of allocating per search. It is
/// scratch, not state: checkpoints leave it out.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    simplex: Vec<Vec<f64>>,
    values: Vec<f64>,
    order: Vec<usize>,
    sorted: Vec<Vec<f64>>,
    sorted_values: Vec<f64>,
    centroid: Vec<f64>,
    reflect: Vec<f64>,
    expand: Vec<f64>,
    contract: Vec<f64>,
}

impl Default for NelderMead {
    fn default() -> Self {
        NelderMead {
            alpha: 1.0,
            gamma: 2.0,
            rho: 0.5,
            sigma: 0.5,
            initial_scale: 0.1,
            f_tol: 1.0e-12,
            max_iters: 2_000,
        }
    }
}

impl NelderMead {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the maximum number of iterations.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Builds the initial simplex around `x0` into `simplex`.
    ///
    /// The i-th extra vertex displaces coordinate i by `initial_scale`
    /// relatively (or absolutely when the coordinate is zero), matching the
    /// usual practice for functions whose coordinates span many orders of
    /// magnitude.
    fn initial_simplex(&self, x0: &[f64], simplex: &mut Vec<Vec<f64>>) {
        simplex.resize_with(x0.len() + 1, Vec::new);
        for v in simplex.iter_mut() {
            v.clear();
            v.extend_from_slice(x0);
        }
        for (i, v) in simplex[1..].iter_mut().enumerate() {
            if v[i] == 0.0 {
                v[i] = self.initial_scale.max(1.0e-4);
            } else {
                v[i] *= 1.0 + self.initial_scale;
                if v[i] == x0[i] {
                    v[i] = x0[i] + self.initial_scale;
                }
            }
        }
    }

    fn run(&self, ev: &mut Evaluator<'_, '_>, x0: &[f64], ws: &mut Workspace) -> (Vec<f64>, f64) {
        let n = x0.len();
        // The loop rewrites every buffer in place, so it never allocates.
        let Workspace {
            simplex,
            values,
            order,
            sorted,
            sorted_values,
            centroid,
            reflect,
            expand,
            contract,
        } = ws;
        self.initial_simplex(x0, simplex);
        values.clear();
        values.extend(simplex.iter().map(|v| ev.eval(v)));
        sorted.clone_from(simplex);
        sorted_values.clone_from(values);
        for point in [&mut *centroid, &mut *reflect, &mut *expand, &mut *contract] {
            point.clear();
            point.resize(n, 0.0);
        }

        for _ in 0..self.max_iters {
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
            std::mem::swap(simplex, sorted);
            std::mem::swap(values, sorted_values);

            let spread = (values[n] - values[0]).abs();
            if spread.is_finite() && spread <= self.f_tol {
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
                *r = c + self.alpha * (c - w);
            }
            let f_reflect = ev.eval(reflect);

            if f_reflect < values[0] {
                // Try expansion.
                for ((e, c), w) in expand.iter_mut().zip(centroid.iter()).zip(worst) {
                    *e = c + self.gamma * self.alpha * (c - w);
                }
                let f_expand = ev.eval(expand);
                if f_expand < f_reflect {
                    simplex[n].copy_from_slice(expand);
                    values[n] = f_expand;
                } else {
                    simplex[n].copy_from_slice(reflect);
                    values[n] = f_reflect;
                }
            } else if f_reflect < values[n - 1] {
                simplex[n].copy_from_slice(reflect);
                values[n] = f_reflect;
            } else {
                // Contraction (outside if the reflected point improved on the
                // worst vertex, inside otherwise).
                let towards: &[f64] = if f_reflect < values[n] {
                    reflect
                } else {
                    worst
                };
                let f_towards = if f_reflect < values[n] {
                    f_reflect
                } else {
                    values[n]
                };
                for ((k, c), t) in contract.iter_mut().zip(centroid.iter()).zip(towards) {
                    *k = c + self.rho * (t - c);
                }
                let f_contract = ev.eval(contract);
                if f_contract < f_towards {
                    simplex[n].copy_from_slice(contract);
                    values[n] = f_contract;
                } else {
                    // Shrink towards the best vertex, in place: each
                    // coordinate depends only on its own old value.
                    let (best, rest) = simplex.split_at_mut(1);
                    for (vertex, value) in rest.iter_mut().zip(&mut values[1..]) {
                        for (s, b) in vertex.iter_mut().zip(&best[0]) {
                            *s = b + self.sigma * (*s - b);
                        }
                        *value = ev.eval(vertex);
                        if ev.should_stop() {
                            break;
                        }
                    }
                }
            }
        }
        ev.best()
    }
}

impl NelderMead {
    /// [`LocalMinimizer::minimize_from`] in the buffers of `workspace`.
    pub(crate) fn minimize_in(
        &self,
        problem: &Problem<'_>,
        x0: &[f64],
        max_evals: usize,
        sink: &mut dyn SampleSink,
        workspace: &mut Workspace,
    ) -> MinimizeResult {
        if let Some(invalid) = crate::reject_invalid(problem) {
            return invalid;
        }
        // Respect both the problem budget and the per-call budget.
        let mut ev = Evaluator::new(problem, sink).capped(max_evals);
        let (x, value) = self.run(&mut ev, x0, workspace);
        let termination = ev.termination(Termination::Converged);
        MinimizeResult::new(x, value, ev.evals(), termination)
    }
}

impl LocalMinimizer for NelderMead {
    fn minimize_from(
        &self,
        problem: &Problem<'_>,
        x0: &[f64],
        max_evals: usize,
        sink: &mut dyn SampleSink,
    ) -> MinimizeResult {
        self.minimize_in(problem, x0, max_evals, sink, &mut Workspace::default())
    }
}

impl GlobalMinimizer for NelderMead {
    fn minimize(
        &self,
        problem: &Problem<'_>,
        _seed: u64,
        sink: &mut dyn SampleSink,
    ) -> MinimizeResult {
        let x0: Vec<f64> = problem
            .bounds
            .limits()
            .iter()
            .map(|&(lo, hi)| lo / 2.0 + hi / 2.0)
            .collect();
        self.minimize_from(problem, &x0, problem.max_evals, sink)
    }

    fn backend_name(&self) -> &'static str {
        "NelderMead"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_functions::{rosenbrock, sphere};
    use crate::{Bounds, FnObjective, NoTrace};

    #[test]
    fn minimizes_sphere() {
        let f = FnObjective::new(3, sphere);
        let p = Problem::new(&f, Bounds::symmetric(3, 10.0));
        let r = NelderMead::default().minimize_from(&p, &[4.0, -3.0, 2.0], 20_000, &mut NoTrace);
        assert!(r.value < 1e-8, "value = {}", r.value);
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let f = FnObjective::new(2, rosenbrock);
        let p = Problem::new(&f, Bounds::symmetric(2, 10.0)).with_max_evals(100_000);
        let r = NelderMead::default().with_max_iters(20_000).minimize_from(
            &p,
            &[-1.2, 1.0],
            100_000,
            &mut NoTrace,
        );
        assert!(r.value < 1e-6, "value = {}", r.value);
        assert!((r.x[0] - 1.0).abs() < 1e-2);
        assert!((r.x[1] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn minimizes_nonsmooth_absolute_value() {
        let f = FnObjective::new(1, |x: &[f64]| (x[0] - 2.5).abs());
        let p = Problem::new(&f, Bounds::symmetric(1, 100.0)).with_target(1e-10);
        let r = NelderMead::default().minimize_from(&p, &[90.0], 10_000, &mut NoTrace);
        assert!(r.value < 1e-6, "value = {}", r.value);
    }

    #[test]
    fn stops_at_target() {
        let f = FnObjective::new(1, |x: &[f64]| x[0].abs());
        let p = Problem::new(&f, Bounds::symmetric(1, 10.0)).with_target(0.5);
        let r = NelderMead::default().minimize_from(&p, &[3.0], 10_000, &mut NoTrace);
        assert_eq!(r.termination, Termination::TargetReached);
        assert!(r.value <= 0.5);
    }

    #[test]
    fn respects_eval_budget() {
        let f = FnObjective::new(2, sphere);
        let p = Problem::new(&f, Bounds::symmetric(2, 10.0));
        let r = NelderMead::default().minimize_from(&p, &[5.0, 5.0], 30, &mut NoTrace);
        assert!(r.evals <= 30);
    }

    #[test]
    fn global_interface_runs_from_midpoint() {
        let f = FnObjective::new(2, sphere);
        let p = Problem::new(&f, Bounds::new(vec![(-2.0, 6.0), (-6.0, 2.0)]));
        let r = NelderMead::default().minimize(&p, 0, &mut NoTrace);
        assert!(r.value < 1e-6);
        assert_eq!(NelderMead::default().backend_name(), "NelderMead");
    }

    #[test]
    fn initial_simplex_handles_zero_coordinates() {
        let nm = NelderMead::default();
        let mut s = Vec::new();
        nm.initial_simplex(&[0.0, 1.0], &mut s);
        assert_eq!(s.len(), 3);
        assert_ne!(s[1][0], 0.0);
        assert_ne!(s[2][1], 1.0);
    }
}
