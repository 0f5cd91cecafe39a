//! Log–log regression for scaling-shape checks.
//!
//! The paper's claims are asymptotic (`Õ(√(n·t_mix/Φ))` messages, etc.),
//! so the harness validates *exponents*: fit `log y = a·log x + b` over a
//! parameter sweep and compare the slope `a` against the predicted power,
//! with a tolerance absorbing the polylog factors (each scenario's
//! "Reproduction criterion" report states its tolerance, e.g. `scaling`'s
//! ±0.35).

/// Result of an ordinary-least-squares fit on `(ln x, ln y)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerFit {
    /// Fitted exponent (slope in log–log space).
    pub exponent: f64,
    /// Fitted multiplier `e^b`.
    pub coefficient: f64,
    /// Coefficient of determination in log–log space.
    pub r_squared: f64,
}

/// Fits `y ≈ coefficient · x^exponent` over strictly positive samples.
///
/// # Panics
///
/// Panics if fewer than two points are given or any coordinate is not
/// strictly positive — both are harness bugs, not data conditions.
///
/// # Examples
///
/// ```
/// use ale_lab::fit::power_fit;
/// let pts: Vec<(f64, f64)> = (1..=6).map(|i| {
///     let x = (1 << i) as f64;
///     (x, 3.0 * x * x)
/// }).collect();
/// let fit = power_fit(&pts);
/// assert!((fit.exponent - 2.0).abs() < 1e-9);
/// assert!((fit.coefficient - 3.0).abs() < 1e-6);
/// assert!(fit.r_squared > 0.999);
/// ```
pub fn power_fit(points: &[(f64, f64)]) -> PowerFit {
    assert!(points.len() >= 2, "need at least two points to fit");
    assert!(
        points.iter().all(|&(x, y)| x > 0.0 && y > 0.0),
        "power fits need strictly positive data"
    );
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    // Relative degeneracy test: all-equal x's cancel to rounding noise.
    let slope = if denom.abs() <= 1e-12 * (n * sxx).abs().max(1e-300) {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    };
    let intercept = (sy - slope * sx) / n;

    let mean_y = sy / n;
    let ss_tot: f64 = logs.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = logs
        .iter()
        .map(|p| (p.1 - (slope * p.0 + intercept)).powi(2))
        .sum();
    let r_squared = if ss_tot < 1e-30 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };

    PowerFit {
        exponent: slope,
        coefficient: intercept.exp(),
        r_squared,
    }
}

/// Convenience check: is the fitted exponent within `tol` of `expected`?
pub fn exponent_close(fit: &PowerFit, expected: f64, tol: f64) -> bool {
    (fit.exponent - expected).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_linear_law() {
        let pts: Vec<(f64, f64)> = (1..=8).map(|i| (i as f64, 5.0 * i as f64)).collect();
        let f = power_fit(&pts);
        assert!((f.exponent - 1.0).abs() < 1e-9);
        assert!((f.coefficient - 5.0).abs() < 1e-6);
    }

    #[test]
    fn fits_square_root_law() {
        let pts: Vec<(f64, f64)> = (1..=10)
            .map(|i| {
                let x = (i * i * 100) as f64;
                (x, 2.0 * x.sqrt())
            })
            .collect();
        let f = power_fit(&pts);
        assert!((f.exponent - 0.5).abs() < 1e-9);
        assert!(exponent_close(&f, 0.5, 0.01));
        assert!(!exponent_close(&f, 1.0, 0.1));
    }

    #[test]
    fn noisy_data_has_lower_r2_but_close_slope() {
        // y = x^1.5 with multiplicative "noise" alternating ±20%.
        let pts: Vec<(f64, f64)> = (1..=12)
            .map(|i| {
                let x = (1 << i) as f64;
                let noise = if i % 2 == 0 { 1.2 } else { 0.8 };
                (x, x.powf(1.5) * noise)
            })
            .collect();
        let f = power_fit(&pts);
        assert!((f.exponent - 1.5).abs() < 0.05, "exponent {}", f.exponent);
        assert!(f.r_squared > 0.98);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn rejects_single_point() {
        power_fit(&[(1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn rejects_nonpositive() {
        power_fit(&[(1.0, 1.0), (0.0, 2.0)]);
    }

    #[test]
    fn constant_data_degenerate_slope() {
        let f = power_fit(&[(2.0, 7.0), (2.0, 7.0), (2.0, 7.0)]);
        assert_eq!(f.exponent, 0.0);
    }
}
