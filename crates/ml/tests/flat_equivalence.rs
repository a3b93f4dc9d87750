//! Equivalence of the flat-matrix kernel paths against the preserved
//! pre-refactor reference implementations (`ml::reference`).
//!
//! The optimized SVR builds its Gram matrix with the squared-norm
//! expansion `‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b` over the distinct rows only and
//! computes `K·β` from per-group coefficient sums; both reorder floating
//! point relative to the reference, so these tests assert agreement within
//! `1e-9` rather than bit equality.
//! The projected-gradient iteration is non-expansive, which keeps the
//! per-iteration rounding differences from amplifying.
//!
//! K-means keeps its seeding byte-identical and its update step in the
//! same accumulation order, so on well-separated data (no argmin
//! near-ties) labels must match exactly and centroids bit-for-bit.

use ml::features::Regressor;
use ml::reference::{RefKMeans, RefSvr};
use ml::{KMeans, Kernel, Svr};
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
