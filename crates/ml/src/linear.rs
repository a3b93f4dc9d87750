//! Bayesian ridge regression (evidence maximization), an ingredient of
//! the IRPA ensemble baseline.

use crate::features::Regressor;
use crate::linalg::{cholesky_solve, dot, normal_equations};

/// Bayesian ridge regression: the L2 penalty and noise precision are
/// learned from the data by iterating the evidence-approximation updates
/// (MacKay), instead of being fixed hyper-parameters.
#[derive(Clone, Debug)]
pub struct BayesianRidge {
    /// Maximum evidence iterations.
    pub max_iter: usize,
    weights: Vec<f64>,
    intercept: f64,
    /// Learned weight precision.
    pub alpha: f64,
    /// Learned noise precision.
    pub beta: f64,
}

impl BayesianRidge {
    /// A model with default iteration budget.
    pub fn new() -> Self {
        BayesianRidge {
            max_iter: 30,
            weights: Vec::new(),
            intercept: 0.0,
            alpha: 1.0,
            beta: 1.0,
        }
    }
}

impl Default for BayesianRidge {
    fn default() -> Self {
        Self::new()
    }
}

impl Regressor for BayesianRidge {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len());
        if x.is_empty() {
            self.weights.clear();
            self.intercept = 0.0;
            return;
        }
        let n = x.len() as f64;
        let d = x[0].len();
        let y_mean = y.iter().sum::<f64>() / n;
        let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
        let x_mean: Vec<f64> = (0..d)
            .map(|j| x.iter().map(|r| r[j]).sum::<f64>() / n)
            .collect();
        let xc: Vec<Vec<f64>> = x
            .iter()
            .map(|r| r.iter().zip(&x_mean).map(|(v, m)| v - m).collect())
            .collect();

        let mut alpha = 1.0f64;
        let mut beta = 1.0f64;
        let mut w = vec![0.0; d];
        for _ in 0..self.max_iter {
            let (a_mat, b_vec) = normal_equations(&xc, &yc, alpha / beta.max(1e-12));
            let Some(new_w) = cholesky_solve(&a_mat, &b_vec) else {
                break;
            };
            w = new_w;
            // Effective number of parameters γ ≈ d·(β·s)/(α + β·s) is
            // approximated cheaply with the weight/residual balance.
            let rss: f64 = xc
                .iter()
                .zip(&yc)
                .map(|(r, t)| (t - dot(&w, r)).powi(2))
                .sum();
            let wtw: f64 = dot(&w, &w);
            let gamma = d as f64 - alpha * d as f64 / (alpha + beta * n / d.max(1) as f64);
            let new_alpha = gamma.max(1e-3) / wtw.max(1e-12);
            let new_beta = (n - gamma).max(1e-3) / rss.max(1e-12);
            let done =
                (new_alpha - alpha).abs() / alpha < 1e-4 && (new_beta - beta).abs() / beta < 1e-4;
            alpha = new_alpha.clamp(1e-8, 1e8);
            beta = new_beta.clamp(1e-8, 1e8);
            if done {
                break;
            }
        }
        self.alpha = alpha;
        self.beta = beta;
        self.weights = w;
        self.intercept = y_mean - dot(&self.weights, &x_mean);
    }

    fn predict(&self, q: &[f64]) -> f64 {
        if self.weights.is_empty() {
            return self.intercept;
        }
        self.intercept + dot(&self.weights, q)
    }

    fn name(&self) -> &'static str {
        "BayesianRidge"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::rng::{normal, stream_rng};

    fn linear_data(n: usize, noise: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = stream_rng(seed, 0);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![normal(&mut rng, 0.0, 1.0), normal(&mut rng, 0.0, 1.0)])
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| 3.0 * r[0] - 2.0 * r[1] + 5.0 + normal(&mut rng, 0.0, noise))
            .collect();
        (x, y)
    }

    #[test]
    fn bayesian_ridge_close_to_truth() {
        let (x, y) = linear_data(400, 0.5, 3);
        let mut m = BayesianRidge::new();
        m.fit(&x, &y);
        assert!((m.predict(&[1.0, 0.0]) - 8.0).abs() < 0.4);
        assert!((m.predict(&[0.0, 1.0]) - 3.0).abs() < 0.4);
        assert!(m.alpha > 0.0 && m.beta > 0.0);
    }

    #[test]
    fn empty_fit_is_safe() {
        let mut b = BayesianRidge::new();
        b.fit(&[], &[]);
        assert_eq!(b.predict(&[1.0]), 0.0);
    }
}
