//! Feature scaling and the common regressor interface.

/// A trainable regression model over dense feature vectors.
pub trait Regressor {
    /// Fit the model to `(x, y)` pairs. `x` rows must share a length.
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]);
    /// Predict the target for one feature vector.
    fn predict(&self, x: &[f64]) -> f64;
    /// Model name for reports.
    fn name(&self) -> &'static str;
}

/// Standardizes features to zero mean and unit variance.
///
/// Constant features get unit scale so they pass through unchanged rather
/// than dividing by zero.
#[derive(Clone, Debug, Default)]
pub struct StandardScaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl StandardScaler {
    /// Fit to the rows of `x`.
    pub fn fit(x: &[Vec<f64>]) -> Self {
        let n = x.len().max(1) as f64;
        let d = x.first().map(|r| r.len()).unwrap_or(0);
        let mut mean = vec![0.0; d];
        for row in x {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; d];
        for row in x {
            for ((v, m), x) in var.iter_mut().zip(&mean).zip(row) {
                *v += (x - m) * (x - m);
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        StandardScaler { mean, std }
    }

    /// Transform one row.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(&self.mean)
            .zip(&self.std)
            .map(|((x, m), s)| (x - m) / s)
            .collect()
    }

    /// Transform a batch of rows.
    pub fn transform_all(&self, x: &[Vec<f64>]) -> Vec<Vec<f64>> {
        x.iter().map(|r| self.transform(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_to_zero_mean_unit_var() {
        let x = vec![vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]];
        let sc = StandardScaler::fit(&x);
        let t = sc.transform_all(&x);
        let mean0: f64 = t.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        assert!(mean0.abs() < 1e-12);
        let var0: f64 = t.iter().map(|r| r[0] * r[0]).sum::<f64>() / 3.0;
        assert!((var0 - 1.0).abs() < 1e-12);
        // Constant feature passes through shifted only.
        assert!(t.iter().all(|r| r[1].abs() < 1e-12));
    }

    #[test]
    fn empty_input_is_harmless() {
        let sc = StandardScaler::fit(&[]);
        assert!(sc.transform(&[]).is_empty());
    }
}
