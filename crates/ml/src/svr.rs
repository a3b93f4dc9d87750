//! ε-insensitive Support Vector Regression with an RBF kernel.
//!
//! The dual problem in `β = α − α*` is
//!
//! ```text
//! max  yᵀβ − ε‖β‖₁ − ½ βᵀKβ     s.t.  Σβ = 0,  |βᵢ| ≤ C
//! ```
//!
//! solved here by proximal projected gradient ascent: a gradient step on
//! the smooth part, soft-thresholding for the `ε‖β‖₁` term, then
//! alternating projection onto the box and the `Σβ = 0` hyperplane. For
//! the small per-cluster training sets of the runtime-estimation framework
//! (tens to hundreds of samples) this converges quickly and needs no
//! working-set machinery.
//!
//! HPC jobs recur, so most training rows are bitwise copies of another
//! row, and copies have identical kernel rows: the fit builds the Gram over
//! the `u` distinct rows and computes `K·β` as `K_u · (Σ_group β)` read back
//! through the group index — `u² + n` per iteration instead of `n²`, the
//! same iterates. With all rows distinct `u = n` and nothing changes.

use crate::features::Regressor;
use crate::linalg::{
    dot_abs_unrolled, linear_gram, rbf_gram, sq_dist, sum_unrolled, sym_matvec, Matrix,
};

/// Kernel choice for [`Svr`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kernel {
    /// `exp(-gamma · ‖a − b‖²)`.
    Rbf {
        /// Bandwidth; use ~`1/d` for standardized features.
        gamma: f64,
    },
    /// Plain dot product.
    Linear,
}

impl Kernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match *self {
            Kernel::Rbf { gamma } => (-gamma * sq_dist(a, b)).exp(),
            Kernel::Linear => crate::linalg::dot(a, b),
        }
    }
}

/// ε-SVR model.
///
/// The fitted state is collapsed and pruned: one row per distinct training
/// row, carrying its copies' summed dual coefficient, and only where that
/// sum is non-zero — so `predict` is `O(#SV · d)` rather than `O(n · d)`.
#[derive(Clone, Debug)]
pub struct Svr {
    /// Box constraint (regularization strength).
    pub c: f64,
    /// Width of the ε-insensitive tube.
    pub epsilon: f64,
    /// Kernel as configured (`gamma ≤ 0` on RBF means auto `1/d`).
    /// Never mutated by `fit`; the resolved kernel lives in
    /// `fitted_kernel`.
    pub kernel: Kernel,
    /// Gradient iterations.
    pub max_iter: usize,
    /// Summed dual coefficient of each retained support row.
    beta: Vec<f64>,
    bias: f64,
    /// Distinct support rows, flat row-major.
    x: Matrix,
    /// Kernel with auto-gamma resolved against the training dimension.
    fitted_kernel: Kernel,
    fitted: bool,
}

impl Svr {
    /// An RBF SVR with sensible defaults for standardized features:
    /// `C = 10`, `ε = 0.1`, `γ = 1/d` (resolved at fit time).
    pub fn default_rbf() -> Self {
        Svr {
            c: 10.0,
            epsilon: 0.1,
            kernel: Kernel::Rbf { gamma: 0.0 }, // 0.0 = auto (1/d)
            max_iter: 300,
            beta: Vec::new(),
            bias: 0.0,
            x: Matrix::zeros(0, 0),
            fitted_kernel: Kernel::Rbf { gamma: 0.0 },
            fitted: false,
        }
    }

    /// Replace the kernel (builder style).
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Replace `C` and `ε` (builder style).
    pub fn with_params(mut self, c: f64, epsilon: f64) -> Self {
        self.c = c;
        self.epsilon = epsilon;
        self
    }

    /// Whether the model has been fitted. Tracked explicitly: a pruned
    /// model may legitimately end up with zero support vectors and a zero
    /// bias (e.g. a constant-zero target) and must still report fitted.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Number of distinct support rows: exactly the rows that survived
    /// pruning and that `predict` evaluates.
    pub fn support_vectors(&self) -> usize {
        self.beta.len()
    }

    /// Fitted bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    fn resolve_kernel(&self, d: usize) -> Kernel {
        match self.kernel {
            Kernel::Rbf { gamma } if gamma <= 0.0 => Kernel::Rbf {
                gamma: 1.0 / d.max(1) as f64,
            },
            k => k,
        }
    }
}

/// Below this magnitude a (summed) dual coefficient is treated as zero
/// and its row dropped from the fitted model.
const PRUNE_TOL: f64 = 1e-12;

impl Regressor for Svr {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len());
        let n = x.len();
        self.fitted = true;
        if n == 0 {
            self.bias = 0.0;
            self.x = Matrix::zeros(0, 0);
            self.beta.clear();
            return;
        }
        let d = x[0].len();
        let kernel = self.resolve_kernel(d);
        self.fitted_kernel = kernel;

        // Flat Gram matrix over the distinct rows only; RBF entries come
        // from precomputed squared norms instead of explicit distance loops.
        let (mut xu, group) = Matrix::from_distinct_rows(x);
        let u = xu.rows();
        let k = match kernel {
            Kernel::Rbf { gamma } => rbf_gram(&xu, gamma),
            Kernel::Linear => linear_gram(&xu),
        };
        // Lipschitz bound on the gradient of the smooth part: ‖K‖∞ of the
        // full n×n Gram, i.e. row sums weighted by group size.
        let mut count = vec![0.0; u];
        for &g in &group {
            count[g] += 1.0;
        }
        let row_sums = k.iter_rows().map(|row| dot_abs_unrolled(row, &count));
        let eta = 1.0 / row_sums.fold(1e-9, f64::max);

        let mut beta = vec![0.0; n];
        let mut new_beta = vec![0.0; n];
        let mut group_beta = vec![0.0; u]; // Σ β over each group
        let mut kb = vec![0.0; u]; // K_u · group_beta; (K·β)ᵢ = kb[group[i]]
        for _ in 0..self.max_iter {
            // Gradient step on the smooth part + soft threshold for ε‖β‖₁.
            for i in 0..n {
                let z = beta[i] + eta * (y[i] - kb[group[i]]);
                new_beta[i] = soft_threshold(z, eta * self.epsilon);
            }
            // Project onto {Σβ = 0} ∩ box by a few alternating rounds.
            // (The unrolled sum reassociates the mean vs the reference —
            // covered by the same 1e-9 drift budget as the dot products.)
            for _ in 0..4 {
                let mean = sum_unrolled(&new_beta) / n as f64;
                for b in &mut new_beta {
                    *b = (*b - mean).clamp(-self.c, self.c);
                }
            }
            let mut delta = 0.0;
            group_beta.fill(0.0);
            for ((nb, ob), &g) in new_beta.iter().zip(&mut beta).zip(&group) {
                delta += (nb - *ob).abs();
                *ob = *nb;
                group_beta[g] += nb;
            }
            // The projection moves every coefficient every iteration, so
            // K·β is recomputed whole, via the symmetric half-traffic product.
            sym_matvec(&k, &group_beta, &mut kb);
            if delta < 1e-8 * n as f64 {
                break;
            }
        }

        // Bias from free support vectors; fall back to mean residual.
        let mut b_sum = 0.0;
        let mut b_cnt = 0usize;
        for i in 0..n {
            if beta[i].abs() > 1e-7 && beta[i].abs() < self.c - 1e-7 {
                b_sum += y[i] - kb[group[i]] - self.epsilon * beta[i].signum();
                b_cnt += 1;
            }
        }
        self.bias = if b_cnt > 0 {
            b_sum / b_cnt as f64
        } else {
            (0..n).map(|i| y[i] - kb[group[i]]).sum::<f64>() / n as f64
        };

        // Store one row per group, and only where the summed coefficient
        // is non-zero, so predict never revisits copies or zeros.
        xu.retain_rows(|g| group_beta[g].abs() > PRUNE_TOL);
        group_beta.retain(|b| b.abs() > PRUNE_TOL);
        self.beta = group_beta;
        self.x = xu;
    }

    fn predict(&self, q: &[f64]) -> f64 {
        let mut acc = self.bias;
        for (xi, bi) in self.x.iter_rows().zip(&self.beta) {
            acc += bi * self.fitted_kernel.eval(xi, q);
        }
        acc
    }

    fn name(&self) -> &'static str {
        "SVR"
    }
}

/// Soft threshold, branchless so the gradient pass auto-vectorizes:
/// `(|z| − t)₊` with `z`'s sign restored is bit-identical to the branchy
/// three-case form (`|z|−t` equals `z−t` or `−(z+t)` exactly, and IEEE
/// round-to-nearest commutes with negation).
fn soft_threshold(z: f64, t: f64) -> f64 {
    (z.abs() - t).max(0.0).copysign(z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::rng::{normal, stream_rng};

    #[test]
    fn fits_linear_function_with_rbf() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 30.0 - 1.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] + 0.5).collect();
        let mut m = Svr::default_rbf();
        m.fit(&x, &y);
        for (xi, yi) in x.iter().zip(&y) {
            let p = m.predict(xi);
            assert!((p - yi).abs() < 0.25, "pred {p} vs {yi}");
        }
    }

    #[test]
    fn fits_nonlinear_function() {
        let mut rng = stream_rng(5, 0);
        let x: Vec<Vec<f64>> = (0..120).map(|i| vec![i as f64 / 20.0 - 3.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| (r[0]).sin() + normal(&mut rng, 0.0, 0.02))
            .collect();
        let mut m = Svr {
            kernel: Kernel::Rbf { gamma: 2.0 },
            ..Svr::default_rbf()
        };
        m.fit(&x, &y);
        let mse: f64 = x
            .iter()
            .zip(&y)
            .map(|(xi, yi)| (m.predict(xi) - yi).powi(2))
            .sum::<f64>()
            / x.len() as f64;
        assert!(mse < 0.05, "mse {mse}");
    }

    #[test]
    fn tube_ignores_small_noise() {
        // Constant target with noise smaller than epsilon: prediction is
        // near the constant and uses few support vectors.
        let mut rng = stream_rng(6, 0);
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 10.0]).collect();
        let y: Vec<f64> = (0..50).map(|_| 3.0 + normal(&mut rng, 0.0, 0.02)).collect();
        let mut m = Svr::default_rbf();
        m.fit(&x, &y);
        assert!((m.predict(&[2.5]) - 3.0).abs() < 0.15);
    }

    #[test]
    fn empty_fit_predicts_zero() {
        let mut m = Svr::default_rbf();
        m.fit(&[], &[]);
        assert_eq!(m.predict(&[1.0]), 0.0);
    }

    #[test]
    fn single_point_predicts_its_value() {
        let mut m = Svr::default_rbf();
        m.fit(&[vec![1.0, 2.0]], &[7.0]);
        assert!((m.predict(&[1.0, 2.0]) - 7.0).abs() < 0.2);
    }

    #[test]
    fn linear_kernel_works() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 10.0, 1.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| 1.5 * r[0] - 0.7).collect();
        let mut m = Svr {
            kernel: Kernel::Linear,
            ..Svr::default_rbf()
        };
        m.fit(&x, &y);
        assert!((m.predict(&[2.0, 1.0]) - 2.3).abs() < 0.3);
    }
}
