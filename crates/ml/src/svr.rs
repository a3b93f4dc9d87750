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
//! alternating projection onto the box and the `Σβ = 0` hyperplane. The
//! per-cluster training sets of the runtime-estimation framework are small
//! (tens to hundreds of samples), so no working-set machinery is needed,
//! but the solver does not stop early: it spends its `max_iter` budget,
//! and the budget defines the model. Over the 1,237 fits of one benchmark
//! `sched_predict` pass (mean n 131, mean 24 distinct rows) a fit runs
//! 297.0 of its 300 iterations on average and 14 stop early; capping at
//! 250 moves the training predictions by 2.4e-3 on average (0.57 at most,
//! in log-runtime).
//!
//! HPC jobs recur, so most training rows are bitwise copies of another
//! row, and copies have identical kernel rows: the fit builds the Gram over
//! the `u` distinct rows and computes `K·β` as `K_u · (Σ_group β)` read back
//! through the group index — `u² + n` per iteration instead of `n²`, the
//! same iterates. With all rows distinct `u = n` and nothing changes. What
//! stays `O(n)` per iteration — gradient step, four projection rounds, the
//! commit — runs as five fused passes, four lanes wide (see `DualPasses`).

use crate::features::Regressor;
use crate::linalg::{
    dot_abs_unrolled, linear_gram, rbf_gram, sq_dist, svr_commit_quads, svr_gradient_quads,
    svr_project_quads, sym_matvec, Matrix,
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
        self.fit_lanes(x, y, true);
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

impl Svr {
    /// [`Regressor::fit`], with the per-sample passes on the AVX2 kernels
    /// when `wide` and the CPU has them. Both paths give the same bits.
    fn fit_lanes(&mut self, x: &[Vec<f64>], y: &[f64], wide: bool) {
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

        // `f64::clamp`'s own precondition, checked once: the AVX2 clamp
        // would not panic on a negative or NaN `C`.
        assert!(-self.c <= self.c, "C must be non-negative, got {}", self.c);
        let passes = DualPasses {
            y,
            group: &group,
            eta,
            threshold: eta * self.epsilon,
            c: self.c,
            wide,
        };
        let mut beta = vec![0.0; n];
        let mut new_beta = vec![0.0; n];
        let mut group_beta = vec![0.0; u]; // Σ β over each group
        let mut kb = vec![0.0; u]; // K_u · group_beta; (K·β)ᵢ = kb[group[i]]
        for _ in 0..self.max_iter {
            // Gradient step on the smooth part + soft threshold for ε‖β‖₁,
            // then four alternating rounds of projection onto {Σβ = 0} and
            // the box, each round's mean from the previous pass's sum.
            let mut sum = passes.gradient(&beta, &kb, &mut new_beta);
            for _ in 0..3 {
                sum = passes.project(&mut new_beta, sum / n as f64);
            }
            group_beta.fill(0.0);
            let delta = passes.commit(&mut new_beta, &mut beta, sum / n as f64, &mut group_beta);
            // The projection moves every coefficient every iteration, so
            // K·β is recomputed whole, via the symmetric half-traffic product.
            sym_matvec(&k, &group_beta, &mut kb);
            if converged(delta, &new_beta) {
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
}

/// The per-sample half of one solver iteration as five passes over `n`:
/// gradient step + soft threshold + Σ, three rounds of clamp + Σ, and a
/// last clamp that commits β, its group sums and `|Δβ|`. Every Σ is
/// [`update_sum`]'s four-lane order (lane `i mod 4` below `n/4·4`, a
/// serial tail, then `(s0+s1)+(s2+s3)+t`), the order the ten unfused
/// passes summed in, so each mean is the one they computed. `wide` runs
/// the quads on the AVX2 kernels, with the same bits.
struct DualPasses<'a> {
    y: &'a [f64],
    group: &'a [usize],
    eta: f64,
    /// `η·ε`, the soft threshold.
    threshold: f64,
    c: f64,
    /// Whether to run the quads on the AVX2 kernels where the CPU has them.
    wide: bool,
}

impl DualPasses<'_> {
    /// `out = soft(β + η·(y − K·β))`; returns `Σ out`.
    fn gradient(&self, beta: &[f64], kb: &[f64], out: &mut [f64]) -> f64 {
        let (y, group, eta, t) = (self.y, self.group, self.eta, self.threshold);
        let quads = self
            .wide
            .then(|| svr_gradient_quads(beta, y, kb, group, eta, t, out))
            .flatten();
        update_sum(out, quads, |i, _| {
            soft_threshold(beta[i] + eta * (y[i] - kb[group[i]]), t)
        })
    }

    /// `buf = (buf − mean).clamp(−C, C)`; returns `Σ buf`.
    fn project(&self, buf: &mut [f64], mean: f64) -> f64 {
        let c = self.c;
        let quads = self.wide.then(|| svr_project_quads(buf, mean, c)).flatten();
        update_sum(buf, quads, |_, b| (b - mean).clamp(-c, c))
    }

    /// The last round: `v = (buf − mean).clamp(−C, C)` becomes β and is
    /// added into `group_beta`, and `buf` keeps `|v − β_old|`. Returns
    /// `Σ buf` in four lanes, which [`converged`] reconciles with the
    /// serial `Σ|Δβ|` the stop test is defined by.
    fn commit(&self, buf: &mut [f64], beta: &mut [f64], mean: f64, group_beta: &mut [f64]) -> f64 {
        let (group, c) = (self.group, self.c);
        let quads = self
            .wide
            .then(|| svr_commit_quads(buf, beta, mean, c, group, group_beta))
            .flatten();
        update_sum(buf, quads, |i, b| {
            let v = (b - mean).clamp(-c, c);
            let d = (v - beta[i]).abs();
            beta[i] = v;
            group_beta[group[i]] += v;
            d
        })
    }
}

/// `buf[i] = f(i, buf[i])` in index order for every `i` a kernel did not
/// cover, returning the four-lane sum of the new `buf` accumulated on the
/// way: lane `i mod 4` below `n/4·4`, a serial tail `t`, then
/// `(s0+s1)+(s2+s3)+t`. `quads` is the kernel's four lane sums when it
/// has already done every `i < n/4·4`.
fn update_sum(
    buf: &mut [f64],
    quads: Option<[f64; 4]>,
    mut f: impl FnMut(usize, f64) -> f64,
) -> f64 {
    let n4 = buf.len() / 4 * 4;
    let mut s = quads.unwrap_or([0.0; 4]);
    if quads.is_none() {
        for (q, chunk) in buf[..n4].chunks_exact_mut(4).enumerate() {
            for (l, (b, sl)) in chunk.iter_mut().zip(&mut s).enumerate() {
                *b = f(4 * q + l, *b);
                *sl += *b;
            }
        }
    }
    let mut t = 0.0;
    for (i, b) in buf.iter_mut().enumerate().skip(n4) {
        *b = f(i, *b);
        t += *b;
    }
    (s[0] + s[1]) + (s[2] + s[3]) + t
}

/// The stop test `Σ|Δβ| < 1e-8·n`, decided as the serial sum of
/// `abs_delta` in index order decides it. `lanes` sums the same `n`
/// non-negative terms in four lanes; each sum is within `(n+2)·ε/2`
/// relative of the exact one, so where `lanes` is more than `4(n+1)·ε`
/// relative from the limit the serial sum lies on the same side, and only
/// a near tie pays for computing it.
fn converged(lanes: f64, abs_delta: &[f64]) -> bool {
    let n = abs_delta.len();
    let limit = 1e-8 * n as f64;
    if (lanes - limit).abs() > 4.0 * (n + 1) as f64 * f64::EPSILON * limit {
        return lanes < limit;
    }
    abs_delta.iter().fold(0.0, |s, d| s + d) < limit
}

/// Soft threshold as `(|z| − t)₊` with `z`'s sign restored: the
/// operations the AVX2 gradient kernel does with `andnot`/`max`/`or`, so
/// the scalar tail and the portable path give the kernel's bits. It is
/// also bit-identical to the branchy three-case form (`|z|−t` equals
/// `z−t` or `−(z+t)` exactly, and IEEE round-to-nearest commutes with
/// negation).
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

    /// The four-lane sum the unfused passes took each mean with.
    fn sum_unrolled(a: &[f64]) -> f64 {
        let quads = a.len() / 4 * 4;
        let (a4, tail) = a.split_at(quads);
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        for c in a4.chunks_exact(4) {
            s0 += c[0];
            s1 += c[1];
            s2 += c[2];
            s3 += c[3];
        }
        let mut t = 0.0;
        for x in tail {
            t += x;
        }
        (s0 + s1) + (s2 + s3) + t
    }

    /// The fit as it was before its per-sample passes were fused: ten
    /// passes an iteration and the serial `Σ|Δβ|` stop test.
    fn oracle_fit(template: &Svr, x: &[Vec<f64>], y: &[f64]) -> Svr {
        let mut m = template.clone();
        let n = x.len();
        m.fitted = true;
        if n == 0 {
            return m;
        }
        let kernel = m.resolve_kernel(x[0].len());
        m.fitted_kernel = kernel;
        let (mut xu, group) = Matrix::from_distinct_rows(x);
        let u = xu.rows();
        let k = match kernel {
            Kernel::Rbf { gamma } => rbf_gram(&xu, gamma),
            Kernel::Linear => linear_gram(&xu),
        };
        let mut count = vec![0.0; u];
        for &g in &group {
            count[g] += 1.0;
        }
        let row_sums = k.iter_rows().map(|row| dot_abs_unrolled(row, &count));
        let eta = 1.0 / row_sums.fold(1e-9, f64::max);
        let mut beta = vec![0.0; n];
        let mut new_beta = vec![0.0; n];
        let mut group_beta = vec![0.0; u];
        let mut kb = vec![0.0; u];
        for _ in 0..m.max_iter {
            for i in 0..n {
                let z = beta[i] + eta * (y[i] - kb[group[i]]);
                new_beta[i] = soft_threshold(z, eta * m.epsilon);
            }
            for _ in 0..4 {
                let mean = sum_unrolled(&new_beta) / n as f64;
                for b in &mut new_beta {
                    *b = (*b - mean).clamp(-m.c, m.c);
                }
            }
            let mut delta = 0.0;
            group_beta.fill(0.0);
            for ((nb, ob), &g) in new_beta.iter().zip(&mut beta).zip(&group) {
                delta += (nb - *ob).abs();
                *ob = *nb;
                group_beta[g] += nb;
            }
            sym_matvec(&k, &group_beta, &mut kb);
            if delta < 1e-8 * n as f64 {
                break;
            }
        }
        let mut b_sum = 0.0;
        let mut b_cnt = 0usize;
        for i in 0..n {
            if beta[i].abs() > 1e-7 && beta[i].abs() < m.c - 1e-7 {
                b_sum += y[i] - kb[group[i]] - m.epsilon * beta[i].signum();
                b_cnt += 1;
            }
        }
        m.bias = if b_cnt > 0 {
            b_sum / b_cnt as f64
        } else {
            (0..n).map(|i| y[i] - kb[group[i]]).sum::<f64>() / n as f64
        };
        xu.retain_rows(|g| group_beta[g].abs() > PRUNE_TOL);
        group_beta.retain(|b| b.abs() > PRUNE_TOL);
        m.beta = group_beta;
        m.x = xu;
        m
    }

    /// `sizes.len()` distinct 2-D rows, row `j` repeated `sizes[j]` times,
    /// cut to the first `n` samples and shuffled, each copy with its own
    /// target.
    fn duplicate_heavy(sizes: &[usize], n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        use rand::RngExt;
        let mut rng = stream_rng(seed, 0x5F);
        let mut samples: Vec<(Vec<f64>, f64)> = Vec::new();
        for &size in sizes {
            let row = vec![normal(&mut rng, 0.0, 0.3), normal(&mut rng, 0.0, 0.3)];
            let centre = (3.0 * row[0]).sin() + row[1];
            for _ in 0..size {
                samples.push((row.clone(), centre + normal(&mut rng, 0.0, 0.3)));
            }
        }
        samples.truncate(n);
        for i in (1..samples.len()).rev() {
            samples.swap(i, rng.random_range(0..=i));
        }
        samples.into_iter().unzip()
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Both the AVX2 and the portable passes give the oracle's
            /// model to the bit, on every `n mod 4`.
            #[test]
            fn fused_passes_match_the_per_pass_oracle_bit_for_bit(
                sizes in prop::collection::vec(1usize..=40, 1..30),
                n in 1usize..=200,
                gamma in prop::sample::select(&[0.5f64, 30.0]),
                c in prop::sample::select(&[10.0f64, 30.0]),
                seed in 0u64..1000,
            ) {
                let (x, y) = duplicate_heavy(&sizes, n, seed);
                let template = Svr::default_rbf()
                    .with_kernel(Kernel::Rbf { gamma })
                    .with_params(c, 0.05);
                let want = oracle_fit(&template, &x, &y);
                let fresh = [vec![-0.4, 0.1], vec![0.0, 0.0], vec![0.35, -0.2]];
                for wide in [false, true] {
                    let mut got = template.clone();
                    got.fit_lanes(&x, &y, wide);
                    prop_assert_eq!(got.bias().to_bits(), want.bias().to_bits(), "wide={}", wide);
                    prop_assert_eq!(got.support_vectors(), want.support_vectors());
                    for q in x.iter().chain(&fresh) {
                        prop_assert_eq!(
                            got.predict(q).to_bits(),
                            want.predict(q).to_bits(),
                            "wide={} q={:?}", wide, q
                        );
                    }
                }
            }
        }
    }

    /// Where the serial `Σ|Δβ|` lies one ulp either side of `1e-8·n` and
    /// the four-lane sum of the same terms on the other side, the serial
    /// sum decides the stop test.
    #[test]
    fn stop_test_near_a_tie_follows_the_serial_sum() {
        let ulps = |x: f64, k: i64| f64::from_bits((x.to_bits() as i64 + k) as u64);
        let limit = |n: f64| 1e-8 * n;
        let ulp = |n: f64| ulps(limit(n), 1) - limit(n);
        // n = 4: serially each sub-half-ulp term rounds away; the lanes add
        // two of them first and round up to the limit.
        let below = vec![
            ulps(limit(4.0), -1),
            0.375 * ulp(4.0),
            0.375 * ulp(4.0),
            0.375 * ulp(4.0),
        ];
        // n = 8: serially each just-over-half-ulp term rounds up, seven
        // times; the lanes pair six of them and round up only four times.
        let mut above = vec![0.5625 * ulp(8.0); 8];
        above[0] = ulps(limit(8.0), -6);
        for (terms, serial_stops) in [(below, true), (above, false)] {
            let limit = limit(terms.len() as f64);
            let serial = terms.iter().fold(0.0, |s, d| s + d);
            assert_eq!(serial, ulps(limit, if serial_stops { -1 } else { 1 }));
            let lanes = update_sum(&mut terms.clone(), None, |_, d| d);
            assert_eq!(
                lanes < limit,
                !serial_stops,
                "the lane sum alone decides wrongly"
            );
            assert_eq!(converged(lanes, &terms), serial_stops);
        }
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
