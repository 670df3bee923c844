//! Least-squares fitting of round counts against candidate scaling laws.
//!
//! The evaluation's central quantitative claim is about *shape*: the
//! reconstructed algorithm's rounds should grow like `log log n` while
//! Name-Dropper grows like `log² n` and pointer doubling like `log n`.
//! This module fits `y = a + b·f(n)` for each candidate `f` and ranks
//! models by R², turning the scaling claim into a measured verdict
//! (figure F1).

use std::fmt;

/// A candidate scaling law `f(n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingModel {
    /// `f(n) = 1` (constant rounds).
    Constant,
    /// `f(n) = log₂ log₂ n`.
    LogLog,
    /// `f(n) = log₂ n`.
    Log,
    /// `f(n) = (log₂ n)²`.
    LogSquared,
    /// `f(n) = n`.
    Linear,
}

impl ScalingModel {
    /// All candidate models, simplest first.
    pub fn all() -> [ScalingModel; 5] {
        [
            ScalingModel::Constant,
            ScalingModel::LogLog,
            ScalingModel::Log,
            ScalingModel::LogSquared,
            ScalingModel::Linear,
        ]
    }

    /// Evaluates `f(n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (the logarithmic models need `log log n > 0`;
    /// sweeps start at `n = 4` anyway).
    pub fn basis(self, n: f64) -> f64 {
        assert!(n >= 2.0, "scaling models are defined for n >= 2");
        match self {
            ScalingModel::Constant => 1.0,
            ScalingModel::LogLog => n.log2().log2(),
            ScalingModel::Log => n.log2(),
            ScalingModel::LogSquared => n.log2() * n.log2(),
            ScalingModel::Linear => n,
        }
    }
}

impl fmt::Display for ScalingModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalingModel::Constant => "O(1)",
            ScalingModel::LogLog => "O(log log n)",
            ScalingModel::Log => "O(log n)",
            ScalingModel::LogSquared => "O(log^2 n)",
            ScalingModel::Linear => "O(n)",
        };
        f.write_str(s)
    }
}

/// The result of fitting `y = a + b·f(n)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitResult {
    /// The scaling law fitted.
    pub model: ScalingModel,
    /// Intercept.
    pub a: f64,
    /// Slope.
    pub b: f64,
    /// Coefficient of determination in `[−∞, 1]`; 1 is a perfect fit.
    pub r2: f64,
}

impl fmt::Display for FitResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} : y = {:.2} + {:.3}·f(n), R² = {:.4}",
            self.model, self.a, self.b, self.r2
        )
    }
}

/// Fits `y = a + b·f(n)` by ordinary least squares.
///
/// # Panics
///
/// Panics if the inputs differ in length or contain fewer than 2 points.
pub fn fit_model(model: ScalingModel, ns: &[f64], ys: &[f64]) -> FitResult {
    assert_eq!(ns.len(), ys.len(), "mismatched fit inputs");
    assert!(ns.len() >= 2, "need at least two points to fit");
    let xs: Vec<f64> = ns.iter().map(|&n| model.basis(n)).collect();
    let count = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / count;
    let mean_y = ys.iter().sum::<f64>() / count;
    let sxx: f64 = xs.iter().map(|x| (x - mean_x).powi(2)).sum();
    let sxy: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let (a, b) = if sxx.abs() < 1e-12 {
        // Degenerate basis (constant model): intercept only.
        (mean_y, 0.0)
    } else {
        let b = sxy / sxx;
        (mean_y - b * mean_x, b)
    };
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (y - (a + b * x)).powi(2))
        .sum();
    let ss_tot: f64 = ys.iter().map(|y| (y - mean_y).powi(2)).sum();
    let r2 = if ss_tot.abs() < 1e-12 {
        // Flat data: perfectly explained by any intercept.
        if ss_res.abs() < 1e-9 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    };
    FitResult { model, a, b, r2 }
}

/// Fits every candidate model and returns them best-R² first. Ties
/// (within 1e-9) are broken in favour of the simpler model, so flat data
/// reports `O(1)` rather than an arbitrary zero-slope law.
pub fn best_fit(ns: &[f64], ys: &[f64]) -> Vec<FitResult> {
    let mut fits: Vec<FitResult> = ScalingModel::all()
        .into_iter()
        .map(|m| fit_model(m, ns, ys))
        .collect();
    // `all()` is ordered simplest-first and the sort is stable.
    fits.sort_by(|x, y| {
        y.r2.partial_cmp(&x.r2)
            .expect("R² is never NaN")
            .then(std::cmp::Ordering::Equal)
    });
    fits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns() -> Vec<f64> {
        (4..=16).map(|k| (1u64 << k) as f64).collect()
    }

    #[test]
    fn recovers_exact_log_law() {
        let n = ns();
        let y: Vec<f64> = n.iter().map(|&x| 3.0 + 2.0 * x.log2()).collect();
        let fit = fit_model(ScalingModel::Log, &n, &y);
        assert!((fit.a - 3.0).abs() < 1e-9);
        assert!((fit.b - 2.0).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recovers_exact_loglog_law() {
        let n = ns();
        let y: Vec<f64> = n.iter().map(|&x| 1.0 + 5.0 * x.log2().log2()).collect();
        let best = &best_fit(&n, &y)[0];
        assert_eq!(best.model, ScalingModel::LogLog);
        assert!((best.r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distinguishes_log_squared_from_log() {
        let n = ns();
        let y: Vec<f64> = n.iter().map(|&x| x.log2() * x.log2()).collect();
        let best = &best_fit(&n, &y)[0];
        assert_eq!(best.model, ScalingModel::LogSquared);
        let log_fit = fit_model(ScalingModel::Log, &n, &y);
        assert!(log_fit.r2 < best.r2);
    }

    #[test]
    fn flat_data_prefers_constant() {
        let n = ns();
        let y = vec![33.0; n.len()];
        let best = &best_fit(&n, &y)[0];
        assert_eq!(best.model, ScalingModel::Constant);
        assert_eq!(best.a, 33.0);
        assert_eq!(best.r2, 1.0);
    }

    #[test]
    fn noisy_log_still_wins() {
        let n = ns();
        // ±1 alternating noise on a log law.
        let y: Vec<f64> = n
            .iter()
            .enumerate()
            .map(|(i, &x)| 2.0 * x.log2() + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let best = &best_fit(&n, &y)[0];
        assert_eq!(best.model, ScalingModel::Log);
        assert!(best.r2 > 0.95);
    }

    #[test]
    fn display_is_informative() {
        let n = ns();
        let y: Vec<f64> = n.iter().map(|&x| x.log2()).collect();
        let s = fit_model(ScalingModel::Log, &n, &y).to_string();
        assert!(s.contains("O(log n)"));
        assert!(s.contains("R²"));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_point_rejected() {
        fit_model(ScalingModel::Log, &[4.0], &[1.0]);
    }
}
