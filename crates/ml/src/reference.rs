//! Pre-optimization reference implementations of the kernel-method hot
//! paths, preserved verbatim from before the flat-matrix refactor, and the
//! equivalence tests that hold the optimized [`crate::Svr`] and
//! [`crate::KMeans`] within `1e-9` of them on the same inputs (the flat
//! Gram construction reorders floating point, so bit-equality is not
//! expected, but the algorithms are contractions and the drift stays
//! tiny). The module is compiled for tests only.
//!
//! Do not "fix" or optimize this module: its value is being a faithful
//! snapshot of the original `Vec<Vec<f64>>` algorithms.

use crate::linalg::sq_dist;
use crate::svr::Kernel;
use rand::rngs::StdRng;
use rand::RngExt;
use simclock::rng::{stream_rng, weighted_index};

/// The original ε-SVR fit: `Vec<Vec<f64>>` kernel matrix, full `O(n²)`
/// `K·β` recompute every iteration, no support-vector pruning.
#[derive(Clone, Debug)]
pub struct RefSvr {
    /// Box constraint.
    pub c: f64,
    /// Tube width.
    pub epsilon: f64,
    /// Kernel (gamma ≤ 0 on RBF means auto `1/d`, as in the main model).
    pub kernel: Kernel,
    /// Gradient iterations.
    pub max_iter: usize,
    beta: Vec<f64>,
    bias: f64,
    x: Vec<Vec<f64>>,
    fitted_kernel: Kernel,
}

impl RefSvr {
    /// Mirror of `Svr::default_rbf`.
    pub fn default_rbf() -> Self {
        RefSvr {
            c: 10.0,
            epsilon: 0.1,
            kernel: Kernel::Rbf { gamma: 0.0 },
            max_iter: 300,
            beta: Vec::new(),
            bias: 0.0,
            x: Vec::new(),
            fitted_kernel: Kernel::Rbf { gamma: 0.0 },
        }
    }

    fn resolve_kernel(&self, d: usize) -> Kernel {
        match self.kernel {
            Kernel::Rbf { gamma } if gamma <= 0.0 => Kernel::Rbf {
                gamma: 1.0 / d.max(1) as f64,
            },
            k => k,
        }
    }

    /// The original fit loop, kept structurally identical to the seed
    /// implementation (row-of-rows kernel matrix, dense recompute).
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len());
        let n = x.len();
        if n == 0 {
            self.bias = 0.0;
            self.x.clear();
            self.beta.clear();
            return;
        }
        let d = x[0].len();
        let kernel = self.resolve_kernel(d);
        self.fitted_kernel = kernel;

        let mut k = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..=i {
                let v = kernel_eval(kernel, &x[i], &x[j]);
                k[i][j] = v;
                k[j][i] = v;
            }
        }
        let l = k
            .iter()
            .map(|row| row.iter().map(|v| v.abs()).sum::<f64>())
            .fold(1e-9, f64::max);
        let eta = 1.0 / l;

        let mut beta = vec![0.0; n];
        let mut kb = vec![0.0; n];
        for _ in 0..self.max_iter {
            let mut new_beta: Vec<f64> = (0..n)
                .map(|i| {
                    let z = beta[i] + eta * (y[i] - kb[i]);
                    soft_threshold(z, eta * self.epsilon)
                })
                .collect();
            for _ in 0..4 {
                let mean: f64 = new_beta.iter().sum::<f64>() / n as f64;
                for b in &mut new_beta {
                    *b = (*b - mean).clamp(-self.c, self.c);
                }
            }
            let delta: f64 = beta.iter().zip(&new_beta).map(|(a, b)| (a - b).abs()).sum();
            beta = new_beta;
            for i in 0..n {
                kb[i] = crate::linalg::dot(&k[i], &beta);
            }
            if delta < 1e-8 * n as f64 {
                break;
            }
        }

        let mut b_sum = 0.0;
        let mut b_cnt = 0usize;
        for i in 0..n {
            if beta[i].abs() > 1e-7 && beta[i].abs() < self.c - 1e-7 {
                b_sum += y[i] - kb[i] - self.epsilon * beta[i].signum();
                b_cnt += 1;
            }
        }
        self.bias = if b_cnt > 0 {
            b_sum / b_cnt as f64
        } else {
            (0..n).map(|i| y[i] - kb[i]).sum::<f64>() / n as f64
        };
        self.beta = beta;
        self.x = x.to_vec();
    }

    /// The original predict: walks every training point, skipping
    /// near-zero coefficients at query time.
    pub fn predict(&self, q: &[f64]) -> f64 {
        let mut acc = self.bias;
        for (xi, bi) in self.x.iter().zip(&self.beta) {
            if bi.abs() > 1e-12 {
                acc += bi * kernel_eval(self.fitted_kernel, xi, q);
            }
        }
        acc
    }

    /// Fitted bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

fn kernel_eval(k: Kernel, a: &[f64], b: &[f64]) -> f64 {
    match k {
        Kernel::Rbf { gamma } => (-gamma * sq_dist(a, b)).exp(),
        Kernel::Linear => crate::linalg::dot(a, b),
    }
}

fn soft_threshold(z: f64, t: f64) -> f64 {
    if z > t {
        z - t
    } else if z < -t {
        z + t
    } else {
        0.0
    }
}

/// The original K-means fit: per-iteration `sq_dist` against row-of-rows
/// centroids, no cached norms. Seeding is identical to the optimized
/// model, so for the same seed both consume the same RNG stream.
#[derive(Clone, Debug)]
pub struct RefKMeans {
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances of every point to its centroid.
    pub inertia: f64,
    /// Assignment of each training point.
    pub labels: Vec<usize>,
}

impl RefKMeans {
    /// Mirror of the seed `KMeans::fit`.
    pub fn fit(points: &[Vec<f64>], k: usize, max_iter: usize, seed: u64) -> RefKMeans {
        assert!(!points.is_empty(), "cannot cluster zero points");
        let k = k.clamp(1, points.len());
        let mut rng = stream_rng(seed, 0x4B);
        let mut centroids = plus_plus_init(points, k, &mut rng);
        let mut labels = vec![0usize; points.len()];
        for _ in 0..max_iter {
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let nearest = nearest_centroid(p, &centroids).0;
                if labels[i] != nearest {
                    labels[i] = nearest;
                    changed = true;
                }
            }
            let d = points[0].len();
            let mut sums = vec![vec![0.0; d]; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for (p, &l) in points.iter().zip(&labels) {
                counts[l] += 1;
                for (s, v) in sums[l].iter_mut().zip(p) {
                    *s += v;
                }
            }
            for (c, (sum, count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
                if *count > 0 {
                    *c = sum.iter().map(|s| s / *count as f64).collect();
                }
            }
            if !changed {
                break;
            }
        }
        let inertia = points
            .iter()
            .zip(&labels)
            .map(|(p, &l)| sq_dist(p, &centroids[l]))
            .sum();
        RefKMeans {
            centroids,
            inertia,
            labels,
        }
    }
}

fn nearest_centroid(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = sq_dist(p, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

fn plus_plus_init(points: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.random_range(0..points.len())].clone());
    let mut d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= 0.0 {
            rng.random_range(0..points.len())
        } else {
            weighted_index(rng, &d2)
        };
        centroids.push(points[idx].clone());
        for (d, p) in d2.iter_mut().zip(points) {
            *d = d.min(sq_dist(p, centroids.last().expect("just pushed")));
        }
    }
    centroids
}

/// Equivalence of the flat-matrix kernel paths against the preserved
/// pre-refactor reference implementations (above).
///
/// The optimized SVR builds its Gram matrix with the squared-norm
/// expansion `‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b` over the distinct rows only and
/// computes `K·β` from per-group coefficient sums; both reorder floating
/// point relative to the reference, so these tests assert agreement within
/// `1e-9` rather than bit equality.
/// The projected-gradient iteration is non-expansive, which keeps the
/// per-iteration rounding differences from amplifying.
///
/// K-means keeps its seeding byte-identical and its update step in the
/// same accumulation order, so on well-separated data (no argmin
/// near-ties) labels must match exactly and centroids bit-for-bit.
#[cfg(test)]
mod tests {
    use super::{RefKMeans, RefSvr};
    use crate::features::Regressor;
    use crate::{KMeans, Kernel, Svr};
    use proptest::prelude::*;
    use rand::RngExt;
    use simclock::rng::{normal, stream_rng};

    /// Noisy samples of a smooth 2-D surface, the same shape of data the
    /// runtime estimator feeds its per-cluster SVRs.
    fn regression_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = stream_rng(seed, 0x51);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                vec![
                    t * 4.0 - 2.0 + normal(&mut rng, 0.0, 0.05),
                    (t * 9.0).sin() + normal(&mut rng, 0.0, 0.05),
                ]
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| (1.3 * r[0]).sin() + 0.4 * r[1] + normal(&mut rng, 0.0, 0.02))
            .collect();
        (x, y)
    }

    /// The estimator's real traffic: `reps.len()` distinct rows, row `j`
    /// occurring `reps[j]` times with a different target each time, shuffled.
    fn recurrent_data(reps: &[usize], seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let (rows, centre) = regression_data(reps.len(), seed);
        let mut rng = stream_rng(seed, 0x53);
        let mut samples: Vec<(Vec<f64>, f64)> = Vec::new();
        for ((row, c), &r) in rows.iter().zip(&centre).zip(reps) {
            for _ in 0..r {
                samples.push((row.clone(), c + normal(&mut rng, 0.0, 0.3)));
            }
        }
        for i in (1..samples.len()).rev() {
            samples.swap(i, rng.random_range(0..=i));
        }
        samples.into_iter().unzip()
    }

    /// Fit both models with the framework's `C` and `ε` and compare them on
    /// every training row and three fresh queries; the fast model must store
    /// no more than `distinct` rows.
    fn assert_matches_reference(x: &[Vec<f64>], y: &[f64], kernel: Kernel, distinct: usize) {
        let mut fast = Svr::default_rbf()
            .with_kernel(kernel)
            .with_params(30.0, 0.05);
        fast.fit(x, y);
        let mut reference = RefSvr::default_rbf();
        reference.kernel = kernel;
        reference.c = 30.0;
        reference.epsilon = 0.05;
        reference.fit(x, y);

        assert!(
            fast.support_vectors() <= distinct,
            "{} rows stored for {distinct} distinct",
            fast.support_vectors()
        );
        assert!((fast.bias() - reference.bias()).abs() < 1e-9);
        let fresh = [vec![-1.5, 0.3], vec![0.0, 0.0], vec![1.7, -0.8]];
        for q in x.iter().chain(&fresh) {
            let (a, b) = (fast.predict(q), reference.predict(q));
            assert!((a - b).abs() < 1e-9, "{kernel:?}: pred {a} vs {b}");
        }
    }

    /// Well-separated 2-D blobs so no point sits near an argmin tie.
    fn blob_data(per: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = stream_rng(seed, 0x52);
        let centers = [[0.0, 0.0], [12.0, 11.0], [-11.0, 9.0], [9.0, -12.0]];
        let mut pts = Vec::new();
        for c in &centers {
            for _ in 0..per {
                pts.push(vec![
                    c[0] + normal(&mut rng, 0.0, 0.6),
                    c[1] + normal(&mut rng, 0.0, 0.6),
                ]);
            }
        }
        pts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn svr_matches_reference(
            n in 20usize..140,
            seed in 0u64..1000,
            gamma in prop::sample::select(&[0.0f64, 0.5, 2.0, 30.0]),
        ) {
            let (x, y) = regression_data(n, seed);

            let mut fast = Svr::default_rbf()
                .with_kernel(Kernel::Rbf { gamma })
                .with_params(10.0, 0.1);
            fast.fit(&x, &y);

            let mut reference = RefSvr::default_rbf();
            reference.kernel = Kernel::Rbf { gamma };
            reference.fit(&x, &y);

            prop_assert!(
                (fast.bias() - reference.bias()).abs() < 1e-9,
                "bias {} vs {}", fast.bias(), reference.bias()
            );
            for q in x.iter().take(40) {
                let a = fast.predict(q);
                let b = reference.predict(q);
                prop_assert!((a - b).abs() < 1e-9, "pred {a} vs {b}");
            }
            // Off-sample queries too: pruning must not change predictions.
            for q in [[-1.5, 0.3], [0.0, 0.0], [1.7, -0.8]] {
                let a = fast.predict(&q);
                let b = reference.predict(&q);
                prop_assert!((a - b).abs() < 1e-9, "pred {a} vs {b}");
            }
        }

        #[test]
        fn svr_linear_kernel_matches_reference(
            n in 20usize..100,
            seed in 0u64..1000,
        ) {
            let (x, y) = regression_data(n, seed);

            let mut fast = Svr::default_rbf().with_kernel(Kernel::Linear);
            fast.fit(&x, &y);
            let mut reference = RefSvr::default_rbf();
            reference.kernel = Kernel::Linear;
            reference.fit(&x, &y);

            for q in x.iter().take(30) {
                let a = fast.predict(q);
                let b = reference.predict(q);
                prop_assert!((a - b).abs() < 1e-9, "pred {a} vs {b}");
            }
        }

        #[test]
        fn svr_matches_reference_on_recurrent_rows(
            reps in prop::collection::vec(1usize..=40, 2..10),
            seed in 0u64..1000,
        ) {
            let (x, y) = recurrent_data(&reps, seed);
            for kernel in [Kernel::Rbf { gamma: 30.0 }, Kernel::Linear] {
                assert_matches_reference(&x, &y, kernel, reps.len());
            }
        }

        #[test]
        fn kmeans_matches_reference_on_separated_data(
            per in 10usize..50,
            k in 2usize..6,
            seed in 0u64..1000,
        ) {
            let pts = blob_data(per, seed);
            let fast = KMeans::fit(&pts, k, 100, seed);
            let reference = RefKMeans::fit(&pts, k, 100, seed);

            prop_assert_eq!(&fast.labels, &reference.labels);
            prop_assert_eq!(fast.centroids.len(), reference.centroids.len());
            for (a, b) in fast.centroids.iter().zip(&reference.centroids) {
                for (ai, bi) in a.iter().zip(b) {
                    prop_assert!((ai - bi).abs() < 1e-9, "centroid {ai} vs {bi}");
                }
            }
            prop_assert!(
                (fast.inertia - reference.inertia).abs()
                    <= 1e-9 * reference.inertia.max(1.0)
            );
        }
    }

    /// The gamma the runtime-estimation framework uses (paper §V-B) on the
    /// exact configuration it uses — a direct spot check outside proptest.
    #[test]
    fn svr_matches_reference_at_framework_config() {
        let (x, y) = regression_data(200, 7);
        let mut fast = Svr::default_rbf()
            .with_kernel(Kernel::Rbf { gamma: 30.0 })
            .with_params(30.0, 0.05);
        fast.fit(&x, &y);
        let mut reference = RefSvr::default_rbf();
        reference.kernel = Kernel::Rbf { gamma: 30.0 };
        reference.c = 30.0;
        reference.epsilon = 0.05;
        reference.fit(&x, &y);
        for q in &x {
            assert!((fast.predict(q) - reference.predict(q)).abs() < 1e-9);
        }
    }

    /// The two ends of the grouping: one group holding every row, and one
    /// group per row (where the grouped fit is the dense fit).
    #[test]
    fn svr_matches_reference_at_all_identical_and_all_distinct_rows() {
        for reps in [vec![60], vec![1; 60]] {
            let (x, y) = recurrent_data(&reps, 11);
            for kernel in [Kernel::Rbf { gamma: 30.0 }, Kernel::Linear] {
                assert_matches_reference(&x, &y, kernel, reps.len());
            }
        }
    }

    /// Pruning keeps the model fitted even when every coefficient is zero.
    #[test]
    fn constant_zero_target_still_reports_fitted() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 10.0]).collect();
        let y = vec![0.0; 30];
        let mut m = Svr::default_rbf();
        assert!(!m.is_fitted());
        m.fit(&x, &y);
        assert!(m.is_fitted());
        assert!(m.predict(&[1.0]).abs() < 0.2);
    }
}
