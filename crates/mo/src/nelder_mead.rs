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
/// rank order, the centroid and the trial points, plus the evaluator's
/// incumbent and clamp scratch. Every search rewrites them in place, so a
/// stepped backend that runs many searches in a round (basin hopping's
/// hops, multi-start's starts) lends one workspace to all of them instead
/// of allocating per search, and gives back the result buffer each hop or
/// start discards ([`Workspace::recycle`]). It is scratch, not state:
/// checkpoints leave it out.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// The n + 1 vertices, slot-major: slot `s` holds coordinates
    /// `s * n..(s + 1) * n`. A vertex stays in its slot until it is replaced.
    simplex: Vec<f64>,
    /// The value of the vertex in each slot.
    values: Vec<f64>,
    /// The slots in rank order, best first.
    rank: Vec<usize>,
    centroid: Vec<f64>,
    reflect: Vec<f64>,
    expand: Vec<f64>,
    contract: Vec<f64>,
    /// The buffer the next search's incumbent is built in: a result point
    /// an earlier hop or start discarded, or empty.
    incumbent: Vec<f64>,
    /// The evaluator's clamp scratch, kept between searches.
    scratch: Vec<f64>,
}

impl Workspace {
    /// Takes back the point of a result the caller no longer needs, so the
    /// next search builds its incumbent in it instead of allocating.
    pub(crate) fn recycle(&mut self, x: Vec<f64>) {
        self.incumbent = x;
    }
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

    /// Builds the initial simplex around `x0` into `simplex`, one vertex
    /// after another.
    ///
    /// The i-th extra vertex displaces coordinate i by `initial_scale`
    /// relatively (or absolutely when the coordinate is zero), matching the
    /// usual practice for functions whose coordinates span many orders of
    /// magnitude.
    fn initial_simplex(&self, x0: &[f64], simplex: &mut Vec<f64>) {
        let n = x0.len();
        simplex.clear();
        for _ in 0..=n {
            simplex.extend_from_slice(x0);
        }
        for (i, &x0i) in x0.iter().enumerate() {
            let v = &mut simplex[(i + 1) * n + i];
            if *v == 0.0 {
                *v = self.initial_scale.max(1.0e-4);
            } else {
                *v *= 1.0 + self.initial_scale;
                if *v == x0i {
                    *v = x0i + self.initial_scale;
                }
            }
        }
    }

    /// Runs the search from `x0`; the evaluator keeps the best point.
    ///
    /// The vertices are never reordered: a rank permutation orders the
    /// slots, the worst slot takes each accepted trial point, and a shrink
    /// rewrites the slots in rank order. So an iteration copies no vertex, and the
    /// float operations, their order and the evaluations are those of a
    /// simplex physically re-sorted every iteration.
    fn run(&self, ev: &mut Evaluator<'_, '_>, x0: &[f64], ws: &mut Workspace) {
        let n = x0.len();
        let at = |slot: usize| slot * n..(slot + 1) * n;
        // The loop rewrites every buffer in place, so it never allocates.
        let Workspace {
            simplex,
            values,
            rank,
            centroid,
            reflect,
            expand,
            contract,
            ..
        } = ws;
        self.initial_simplex(x0, simplex);
        values.clear();
        values.extend((0..=n).map(|slot| ev.eval(&simplex[at(slot)])));
        rank.clear();
        rank.extend(0..=n);
        for point in [&mut *centroid, &mut *reflect, &mut *expand, &mut *contract] {
            point.clear();
            point.resize(n, 0.0);
        }

        for _ in 0..self.max_iters {
            if ev.should_stop() {
                break;
            }
            // Rank the slots by value. With a NaN value the comparator is
            // not a total order, so NaN is not always ranked last; a fix
            // moves the search. `rank` enters in the previous order, so the
            // sort compares the same values in the same sequence as sorting
            // `0..=n` over a simplex re-sorted in place, and returns the
            // same order.
            rank.sort_by(|&a, &b| {
                values[a]
                    .partial_cmp(&values[b])
                    .unwrap_or(std::cmp::Ordering::Greater)
            });
            let (best, worst) = (rank[0], rank[n]);

            let spread = (values[worst] - values[best]).abs();
            if spread.is_finite() && spread <= self.f_tol {
                break;
            }

            // Centroid of all points but the worst, summed in rank order.
            centroid.fill(0.0);
            for &slot in &rank[..n] {
                for (c, vi) in centroid.iter_mut().zip(&simplex[at(slot)]) {
                    *c += vi / n as f64;
                }
            }

            let worst_vertex = &simplex[at(worst)];
            for ((r, c), w) in reflect.iter_mut().zip(centroid.iter()).zip(worst_vertex) {
                *r = c + self.alpha * (c - w);
            }
            let f_reflect = ev.eval(reflect);

            if f_reflect < values[best] {
                // Try expansion.
                for ((e, c), w) in expand.iter_mut().zip(centroid.iter()).zip(worst_vertex) {
                    *e = c + self.gamma * self.alpha * (c - w);
                }
                let f_expand = ev.eval(expand);
                if f_expand < f_reflect {
                    simplex[at(worst)].copy_from_slice(expand);
                    values[worst] = f_expand;
                } else {
                    simplex[at(worst)].copy_from_slice(reflect);
                    values[worst] = f_reflect;
                }
            } else if f_reflect < values[rank[n - 1]] {
                simplex[at(worst)].copy_from_slice(reflect);
                values[worst] = f_reflect;
            } else {
                // Contraction (outside if the reflected point improved on the
                // worst vertex, inside otherwise).
                let towards: &[f64] = if f_reflect < values[worst] {
                    reflect
                } else {
                    worst_vertex
                };
                let f_towards = if f_reflect < values[worst] {
                    f_reflect
                } else {
                    values[worst]
                };
                for ((k, c), t) in contract.iter_mut().zip(centroid.iter()).zip(towards) {
                    *k = c + self.rho * (t - c);
                }
                let f_contract = ev.eval(contract);
                if f_contract < f_towards {
                    simplex[at(worst)].copy_from_slice(contract);
                    values[worst] = f_contract;
                } else {
                    // Shrink towards the best vertex, in rank order and in
                    // place: each coordinate depends only on its own old
                    // value.
                    for &slot in &rank[1..] {
                        for j in 0..n {
                            let b = simplex[best * n + j];
                            let s = &mut simplex[slot * n + j];
                            *s = b + self.sigma * (*s - b);
                        }
                        values[slot] = ev.eval(&simplex[at(slot)]);
                        if ev.should_stop() {
                            break;
                        }
                    }
                }
            }
        }
    }

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
        let incumbent = std::mem::take(&mut workspace.incumbent);
        let scratch = std::mem::take(&mut workspace.scratch);
        let mut ev = Evaluator::lent(problem, sink, incumbent, scratch).capped(max_evals);
        self.run(&mut ev, x0, workspace);
        let termination = ev.termination(Termination::Converged);
        let evals = ev.evals();
        let (x, value) = ev.into_best(&mut workspace.scratch);
        MinimizeResult::new(x, value, evals, termination)
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
        let vertices: Vec<&[f64]> = s.chunks_exact(2).collect();
        assert_eq!(vertices.len(), 3);
        assert_ne!(vertices[1][0], 0.0);
        assert_ne!(vertices[2][1], 1.0);
    }
}
