//! Machine-readable performance report for the flat-kernel ML pipeline
//! and the estimator retrain.
//!
//! Times the preserved pre-optimization reference implementations
//! (`ml::reference`) against the optimized paths on identical inputs, on
//! this machine, and writes the results as JSON to `BENCH_PERF.json` at
//! the repository root (plus a human-readable table on stdout). Each
//! entry records best-of-N wall times in nanoseconds and the speedup
//! ratio, so CI or a reviewer can diff runs across commits.
//!
//! `--quick` shrinks repeat counts (for smoke runs); `--seed` varies the
//! synthetic workload. Exits non-zero when an SVR-fit or retrain row falls
//! below [`FLOOR`], so CI's smoke run gates the speedups it reports.

#![forbid(unsafe_code)]

use eslurm_bench::{f, obj, print_table, time_ns, write_bench, ExpArgs};
use estimate::{features, EstimatorConfig, RuntimeEstimator};
use ml::features::Regressor;
use ml::reference::{RefKMeans, RefSvr};
use ml::{KMeans, Kernel, StandardScaler, Svr};
use serde::Value;
use workload::{Job, TraceConfig};

/// Acceptance floor on the speedup of the [`GATED`] rows.
const FLOOR: f64 = 2.0;
const GATED: [&str; 4] = [
    "svr_fit_47",
    "svr_fit_200",
    "svr_fit_recurrent",
    "estimator_retrain_700",
];
const SVR_FIT_WHAT: &str =
    "RefSvr::fit (Vec<Vec> Gram over all rows, n^2 K*beta) vs Svr::fit (flat Gram over distinct rows, K*beta from group sums)";

struct Entry {
    name: &'static str,
    what: &'static str,
    baseline_ns: u64,
    optimized_ns: u64,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.optimized_ns.max(1) as f64
    }
}

fn window(jobs: &[Job]) -> (Vec<Vec<f64>>, Vec<f64>) {
    let x: Vec<Vec<f64>> = jobs.iter().map(features::features).collect();
    let y: Vec<f64> = jobs.iter().map(features::target).collect();
    (x, y)
}

/// The window as `RuntimeEstimator::retrain` prepares it: standardized,
/// weighted features and log-runtime targets.
fn prepared_window(jobs: &[Job]) -> (Vec<Vec<f64>>, Vec<f64>) {
    let (raw, y) = window(jobs);
    let scaler = StandardScaler::fit(&raw);
    let x = scaler
        .transform_all(&raw)
        .iter()
        .map(|r| features::apply_weights(r))
        .collect();
    (x, y)
}

/// The per-cluster model `estimate::framework` trains.
fn framework_svr() -> Svr {
    Svr::default_rbf()
        .with_kernel(Kernel::Rbf { gamma: 30.0 })
        .with_params(30.0, 0.05)
}

/// A `RefSvr` with `template`'s hyperparameters.
fn reference_of(template: &Svr) -> RefSvr {
    let mut m = RefSvr::default_rbf();
    (m.kernel, m.c, m.epsilon) = (template.kernel, template.c, template.epsilon);
    m
}

/// `RefSvr::fit` against `Svr::fit` on one training set, both configured
/// as `template`.
fn svr_fit_entry(
    name: &'static str,
    x: &[Vec<f64>],
    y: &[f64],
    template: &Svr,
    reps: usize,
) -> Entry {
    let baseline_ns = time_ns(
        || {
            let mut m = reference_of(template);
            m.fit(x, y);
            std::hint::black_box(m.bias());
        },
        reps,
    );
    let optimized_ns = time_ns(
        || {
            let mut m = template.clone();
            m.fit(x, y);
            std::hint::black_box(m.bias());
        },
        reps,
    );
    Entry {
        name,
        what: SVR_FIT_WHAT,
        baseline_ns,
        optimized_ns,
    }
}

/// The window recorded into a fresh estimator (which extracts each job's
/// features once), then one retrain on it.
fn record_and_retrain(jobs: &[Job]) -> usize {
    let mut est = RuntimeEstimator::new(EstimatorConfig::default());
    for j in jobs {
        est.record_completion(j);
    }
    est.retrain(jobs.last().expect("non-empty window").submit);
    est.current_k()
}

/// The seed's retrain, reconstructed end to end on the same inputs the
/// framework sees: feature extraction, scaling, weighting, reference
/// K-means, one reference SVR per cluster (framework hyperparameters),
/// and the warm-start back-test over the window.
fn reference_retrain(jobs: &[Job], k: usize, seed: u64) {
    let (x, y) = prepared_window(jobs);
    let km = RefKMeans::fit(&x, k, 60, seed);
    let kk = km.centroids.len();
    let mut sets: Vec<(Vec<Vec<f64>>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); kk];
    for ((xi, yi), &l) in x.iter().zip(&y).zip(&km.labels) {
        sets[l].0.push(xi.clone());
        sets[l].1.push(*yi);
    }
    let mut models = Vec::with_capacity(kk);
    for (cx, cy) in &sets {
        let mut m = reference_of(&framework_svr());
        m.fit(cx, cy);
        models.push(m);
    }
    let mut acc = 0.0;
    for (xi, &l) in x.iter().zip(&km.labels) {
        acc += models[l].predict(xi);
    }
    std::hint::black_box(acc);
}

fn main() {
    let args = ExpArgs::parse();
    let reps = args.scale(7, 3);
    let jobs = TraceConfig::small(800, args.seed).generate();
    let window_jobs: Vec<Job> = jobs[jobs.len() - 700..].to_vec();
    let (x, y) = window(&window_jobs);
    let mut entries = Vec::new();

    // SVR fit at one per-cluster size (~700/15) and at a whole window
    // (default model, raw features).
    for (name, n) in [("svr_fit_47", 47usize), ("svr_fit_200", 200)] {
        let default_rbf = Svr::default_rbf();
        entries.push(svr_fit_entry(name, &x[..n], &y[..n], &default_rbf, reps));
    }

    // SVR fit on the traffic the framework produces: the largest
    // per-cluster set of a 2000-job production-like window, framework
    // hyperparameters. Recurrent jobs make most of its rows copies.
    {
        let recurrent = TraceConfig::tianhe2a()
            .with_seed(args.seed)
            .shrunk_to(2000)
            .generate();
        let (rx, ry) = prepared_window(&recurrent);
        let labels = KMeans::fit(&rx, 15, 60, args.seed).labels;
        let largest = (0..15)
            .max_by_key(|&c| labels.iter().filter(|&&l| l == c).count())
            .expect("15 clusters");
        let (cx, cy): (Vec<Vec<f64>>, Vec<f64>) = rx
            .into_iter()
            .zip(ry)
            .zip(&labels)
            .filter(|(_, &l)| l == largest)
            .map(|(row, _)| row)
            .unzip();
        entries.push(svr_fit_entry(
            "svr_fit_recurrent",
            &cx,
            &cy,
            &framework_svr(),
            reps,
        ));
    }

    // SVR predict over a fitted model: distinct support rows vs full scan.
    {
        let (cx, cy) = (&x[..200], &y[..200]);
        let mut fast = Svr::default_rbf();
        fast.fit(cx, cy);
        let mut reference = RefSvr::default_rbf();
        reference.fit(cx, cy);
        let q = &x[300];
        let baseline = time_ns(
            || {
                for _ in 0..1000 {
                    std::hint::black_box(reference.predict(std::hint::black_box(q)));
                }
            },
            reps,
        );
        let optimized = time_ns(
            || {
                for _ in 0..1000 {
                    std::hint::black_box(fast.predict(std::hint::black_box(q)));
                }
            },
            reps,
        );
        entries.push(Entry {
            name: "svr_predict_1000q",
            what: "predict x1000: full training-set scan vs distinct, pruned support rows",
            baseline_ns: baseline,
            optimized_ns: optimized,
        });
    }

    // K-means at the framework's window size.
    {
        let baseline = time_ns(
            || {
                std::hint::black_box(RefKMeans::fit(&x, 15, 60, args.seed).inertia);
            },
            reps,
        );
        let optimized = time_ns(
            || {
                std::hint::black_box(KMeans::fit(&x, 15, 60, args.seed).inertia);
            },
            reps,
        );
        entries.push(Entry {
            name: "kmeans_700x15",
            what: "Lloyd iterations: per-point sq_dist vs flat matrix + cached centroid norms",
            baseline_ns: baseline,
            optimized_ns: optimized,
        });
    }

    // Full estimator retrain: the seed's reference pipeline vs the
    // optimized one, both timed from the window's jobs (feature extraction
    // included) to a trained model on one thread.
    {
        let baseline = time_ns(|| reference_retrain(&window_jobs, 15, args.seed), reps);
        let optimized = time_ns(
            || {
                std::hint::black_box(record_and_retrain(&window_jobs));
            },
            reps,
        );
        entries.push(Entry {
            name: "estimator_retrain_700",
            what: "features + retrain: reference vs grouped-Gram SVRs (fused passes), K-means and back-test per distinct row",
            baseline_ns: baseline,
            optimized_ns: optimized,
        });
    }

    // Human-readable table.
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.name.to_string(),
                format!("{:.3}", e.baseline_ns as f64 / 1e6),
                format!("{:.3}", e.optimized_ns as f64 / 1e6),
                format!("{}x", f(e.speedup(), 2)),
            ]
        })
        .collect();
    print_table(
        "perf report (best-of-N wall time)",
        &["bench", "baseline ms", "optimized ms", "speedup"],
        &rows,
    );

    // Machine-readable JSON at the repository root.
    let benches = entries.iter().map(|e| {
        obj([
            ("name", e.name.into()),
            ("what", e.what.into()),
            ("baseline_ns", e.baseline_ns.into()),
            ("optimized_ns", e.optimized_ns.into()),
            ("speedup", e.speedup().into()),
        ])
    });
    println!();
    write_bench(
        "PERF",
        "perf_report",
        &args,
        vec![("benches", Value::Array(benches.collect()))],
    );

    let below: Vec<String> = entries
        .iter()
        .filter(|e| GATED.contains(&e.name) && e.speedup() < FLOOR)
        .map(|e| format!("{} {:.2}x", e.name, e.speedup()))
        .collect();
    if !below.is_empty() {
        eprintln!("below the {FLOOR}x floor: {}", below.join(", "));
        std::process::exit(1);
    }
}
