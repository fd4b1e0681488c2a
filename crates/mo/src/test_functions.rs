//! Classic optimization test functions used by unit tests.

/// Sphere function: `sum x_i^2`, minimum 0 at the origin.
///
/// # Example
///
/// ```
/// assert_eq!(wdm_mo::test_functions::sphere(&[3.0, 4.0]), 25.0);
/// ```
pub fn sphere(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

/// Rosenbrock's banana function (any dimension >= 2), minimum 0 at
/// `(1, ..., 1)`.
pub fn rosenbrock(x: &[f64]) -> f64 {
    x.windows(2)
        .map(|w| {
            let a = 1.0 - w[0];
            let b = w[1] - w[0] * w[0];
            a * a + 100.0 * b * b
        })
        .sum()
}

/// Rastrigin's highly multimodal function, minimum 0 at the origin.
pub fn rastrigin(x: &[f64]) -> f64 {
    let n = x.len() as f64;
    10.0 * n
        + x.iter()
            .map(|v| v * v - 10.0 * (2.0 * std::f64::consts::PI * v).cos())
            .sum::<f64>()
}

/// Ackley's function, minimum 0 at the origin.
pub fn ackley(x: &[f64]) -> f64 {
    let n = x.len() as f64;
    let sum_sq: f64 = x.iter().map(|v| v * v).sum();
    let sum_cos: f64 = x
        .iter()
        .map(|v| (2.0 * std::f64::consts::PI * v).cos())
        .sum();
    -20.0 * (-0.2 * (sum_sq / n).sqrt()).exp() - (sum_cos / n).exp() + 20.0 + std::f64::consts::E
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minima_are_where_expected() {
        assert_eq!(sphere(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(rosenbrock(&[1.0, 1.0, 1.0]), 0.0);
        assert!(rastrigin(&[0.0, 0.0]).abs() < 1e-12);
        assert!(ackley(&[0.0, 0.0]).abs() < 1e-12);
    }

    #[test]
    fn values_away_from_minima_are_positive() {
        assert!(sphere(&[1.0]) > 0.0);
        assert!(rosenbrock(&[0.0, 0.0]) > 0.0);
        assert!(rastrigin(&[0.5, 0.5]) > 0.0);
        assert!(ackley(&[1.0, -1.0]) > 0.0);
    }
}
