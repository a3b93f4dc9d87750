//! The ESlurm job-runtime-estimation framework (paper §V, Fig. 6):
//! an **estimation model generator** (periodic K-means++ clustering of an
//! interest window + one SVR per cluster), a **real-time estimation
//! module** (cluster match → SVR → slack; fall back to the user estimate
//! unless the cluster's accuracy clears the gate), and a **record module**
//! (EA / AEA bookkeeping, Eqs. 4–5).

use crate::features::{apply_weights, features, target, untarget};
use ml::{KMeans, Regressor, StandardScaler, Svr};
use simclock::{SimSpan, SimTime};
use std::collections::VecDeque;
use workload::Job;

/// Configuration of the framework (paper defaults in parentheses).
#[derive(Clone, Debug)]
pub struct EstimatorConfig {
    /// Interest-window size in jobs (700).
    pub window: usize,
    /// Model regeneration period (15 h).
    pub retrain_every: SimSpan,
    /// Number of clusters; `None` = choose by the elbow method (15).
    pub k: Option<usize>,
    /// Slack multiplier α penalizing underestimation (1.05, Eq. 3).
    pub slack: f64,
    /// Use the model over a present user estimate only when the matched
    /// cluster's AEA exceeds this gate (0.90).
    pub aea_gate: f64,
    /// Seed for clustering.
    pub seed: u64,
    /// Worker threads for per-cluster SVR training during [`RuntimeEstimator::retrain`]
    /// (`0` = one per available core). SVR fitting is RNG-free, so the
    /// trained model is bit-identical for every thread count.
    pub train_threads: usize,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            window: 700,
            retrain_every: SimSpan::from_hours(15),
            k: Some(15),
            slack: 1.05,
            aea_gate: 0.90,
            seed: 0xE5,
            train_threads: 0,
        }
    }
}

/// Where an estimate came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EstimateSource {
    /// The framework's per-cluster model (possibly because the user gave
    /// no estimate).
    Model,
    /// The user's walltime request (model not trusted yet).
    User,
}

/// A runtime estimate with provenance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// The (slack-adjusted) estimated runtime.
    pub runtime: SimSpan,
    /// Which path produced it.
    pub source: EstimateSource,
    /// Cluster the job matched, if a model exists.
    pub cluster: Option<usize>,
}

/// Per-cluster accuracy bookkeeping (the record module).
#[derive(Clone, Debug, Default)]
struct ClusterRecord {
    ea_sum: f64,
    count: u64,
}

impl ClusterRecord {
    fn aea(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ea_sum / self.count as f64
        }
    }
}

struct ClusterModel {
    scaler: StandardScaler,
    kmeans: KMeans,
    models: Vec<Svr>,
    records: Vec<ClusterRecord>,
}

/// The complete framework.
///
/// ```
/// use estimate::{EstimatorConfig, RuntimeEstimator};
/// use workload::TraceConfig;
///
/// let history = TraceConfig::small(800, 3).generate();
/// let mut framework = RuntimeEstimator::new(EstimatorConfig::default());
/// for job in &history {
///     framework.record_completion(job); // the record module
/// }
/// framework.retrain(history.last().unwrap().submit); // the model generator
/// assert_eq!(framework.current_k(), 15); // paper default K
///
/// // The real-time module answers per submission.
/// let estimate = framework.estimate(&history[10]).unwrap();
/// assert!(estimate.runtime.as_secs() > 0);
/// ```
pub struct RuntimeEstimator {
    /// Configuration in force.
    pub config: EstimatorConfig,
    history: VecDeque<Job>,
    model: Option<ClusterModel>,
    last_train: Option<SimTime>,
    retrain_count: u64,
}

/// Estimation accuracy of one prediction (paper Eq. 4): min of the two
/// ratios, in `(0, 1]`, 1 = perfect.
pub fn estimation_accuracy(predicted_s: f64, actual_s: f64) -> f64 {
    let (p, r) = (predicted_s.max(1.0), actual_s.max(1.0));
    if p < r {
        p / r
    } else {
        r / p
    }
}

impl RuntimeEstimator {
    /// A fresh framework with the given configuration.
    pub fn new(config: EstimatorConfig) -> Self {
        RuntimeEstimator {
            config,
            history: VecDeque::new(),
            model: None,
            last_train: None,
            retrain_count: 0,
        }
    }

    /// Record module: a job completed; append it to the historical queue
    /// and update the AEA of the cluster that predicted it.
    pub fn record_completion(&mut self, job: &Job) {
        if let Some(m) = &mut self.model {
            let f = apply_weights(&m.scaler.transform(&features(job)));
            let c = m.kmeans.assign(&f);
            let predicted = untarget(m.models[c].predict(&f)) * self.config.slack;
            let ea = estimation_accuracy(predicted, job.actual_runtime.as_secs_f64());
            m.records[c].ea_sum += ea;
            m.records[c].count += 1;
        }
        // `retrain` is the only reader and takes the newest `window`.
        self.history.push_back(job.clone());
        while self.history.len() > self.config.window {
            self.history.pop_front();
        }
    }

    /// Estimation model generator: retrain if the period elapsed. Returns
    /// whether a retraining happened.
    pub fn maybe_retrain(&mut self, now: SimTime) -> bool {
        let due = match self.last_train {
            None => self.history.len() >= 30,
            Some(t) => now.since(t) >= self.config.retrain_every,
        };
        if !due || self.history.len() < 10 {
            return false;
        }
        self.retrain(now);
        true
    }

    /// Force a retrain on the current interest window.
    pub fn retrain(&mut self, now: SimTime) {
        let _mem = obs::tag_scope(obs::MemTag::Ml);
        let window: Vec<&Job> = self.history.iter().rev().take(self.config.window).collect();
        if window.len() < 10 {
            return;
        }
        let raw: Vec<Vec<f64>> = window.iter().map(|j| features(j)).collect();
        let scaler = StandardScaler::fit(&raw);
        let x: Vec<Vec<f64>> = scaler
            .transform_all(&raw)
            .iter()
            .map(|r| apply_weights(r))
            .collect();
        let y: Vec<f64> = window.iter().map(|j| target(j)).collect();

        let k = match self.config.k {
            Some(k) => k.min(x.len()),
            None => ml::elbow_k(&x, 20, self.config.seed),
        };
        let kmeans = KMeans::fit(&x, k, 60, self.config.seed + self.retrain_count);
        // Per-cluster SVRs use a much more local kernel than a global model
        // could afford: within a cluster the job-name feature must resolve
        // individual applications, and the small per-cluster sample keeps
        // the tight bandwidth from starving for data. This is where the
        // cluster-then-regress design earns its accuracy.
        let mut sets: Vec<(Vec<Vec<f64>>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); kmeans.k()];
        for ((xi, yi), &l) in x.iter().zip(&y).zip(&kmeans.labels) {
            sets[l].0.push(xi.clone());
            sets[l].1.push(*yi);
        }
        let models = train_cluster_models(&sets, self.config.train_threads);
        // Warm-start each cluster's accuracy record by back-testing on the
        // window itself, so the AEA gate has data from the first estimate.
        let mut records = vec![ClusterRecord::default(); kmeans.k()];
        for ((xi, yi), &l) in x.iter().zip(&y).zip(&kmeans.labels) {
            let predicted = untarget(models[l].predict(xi)) * self.config.slack;
            let ea = estimation_accuracy(predicted, untarget(*yi));
            records[l].ea_sum += ea;
            records[l].count += 1;
        }
        self.model = Some(ClusterModel {
            scaler,
            kmeans,
            models,
            records,
        });
        self.last_train = Some(now);
        self.retrain_count += 1;
    }

    /// Real-time estimation module: estimate the runtime of a newly
    /// submitted job.
    ///
    /// * no model yet → the user estimate (or `None` if absent);
    /// * user gave no estimate → the model's (slack-adjusted) estimate;
    /// * user gave one → the model only if the matched cluster's AEA
    ///   clears the gate.
    pub fn estimate(&self, job: &Job) -> Option<Estimate> {
        let model_est = self.model_estimate(job);
        match (model_est, job.user_estimate) {
            (None, None) => None,
            (None, Some(u)) => Some(Estimate {
                runtime: u,
                source: EstimateSource::User,
                cluster: None,
            }),
            (Some((m, c, _)), None) => Some(Estimate {
                runtime: m,
                source: EstimateSource::Model,
                cluster: Some(c),
            }),
            (Some((m, c, aea)), Some(u)) => {
                if aea > self.config.aea_gate {
                    Some(Estimate {
                        runtime: m,
                        source: EstimateSource::Model,
                        cluster: Some(c),
                    })
                } else {
                    Some(Estimate {
                        runtime: u,
                        source: EstimateSource::User,
                        cluster: Some(c),
                    })
                }
            }
        }
    }

    /// The raw model path: slack-adjusted SVR estimate, matched cluster,
    /// and the cluster's live AEA. `None` before the first training.
    pub fn model_estimate(&self, job: &Job) -> Option<(SimSpan, usize, f64)> {
        self.model.as_ref().map(|m| {
            let f = apply_weights(&m.scaler.transform(&features(job)));
            let c = m.kmeans.assign(&f);
            let secs = untarget(m.models[c].predict(&f)) * self.config.slack;
            (SimSpan::from_secs_f64(secs), c, m.records[c].aea())
        })
    }

    /// Average estimation accuracy across all clusters (job-weighted).
    pub fn overall_aea(&self) -> f64 {
        match &self.model {
            None => 0.0,
            Some(m) => {
                let (sum, count) = m
                    .records
                    .iter()
                    .fold((0.0, 0u64), |(s, c), r| (s + r.ea_sum, c + r.count));
                if count == 0 {
                    0.0
                } else {
                    sum / count as f64
                }
            }
        }
    }

    /// Number of retrainings performed.
    pub fn retrain_count(&self) -> u64 {
        self.retrain_count
    }

    /// Number of clusters in the current model (0 before first training).
    pub fn current_k(&self) -> usize {
        self.model.as_ref().map(|m| m.kmeans.k()).unwrap_or(0)
    }

    /// Per-cluster diagnostics of the current model: `(training samples,
    /// live AEA, SVR support vectors)` per cluster. Empty before training.
    pub fn cluster_diagnostics(&self) -> Vec<ClusterDiag> {
        let Some(m) = &self.model else {
            return Vec::new();
        };
        let mut counts = vec![0usize; m.kmeans.k()];
        for &l in &m.kmeans.labels {
            counts[l] += 1;
        }
        (0..m.kmeans.k())
            .map(|c| ClusterDiag {
                cluster: c,
                training_samples: counts[c],
                aea: m.records[c].aea(),
                support_vectors: m.models[c].support_vectors(),
            })
            .collect()
    }
}

/// Fit one SVR per cluster training set, concurrently.
///
/// Clusters are uneven (fit cost is quadratic in cluster size), so the
/// threads pull indices from a shared atomic counter instead of taking
/// fixed chunks: whichever thread finishes a small cluster immediately
/// picks up the next one. Each cluster's fit runs start-to-finish on one
/// thread and `Svr::fit` draws no randomness, so the resulting models are
/// bit-identical for every `threads` value — scheduling only decides
/// *who* computes each model, never *what* is computed.
fn train_cluster_models(sets: &[(Vec<Vec<f64>>, Vec<f64>)], threads: usize) -> Vec<Svr> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let template = Svr::default_rbf()
        .with_kernel(ml::Kernel::Rbf { gamma: 30.0 })
        .with_params(30.0, 0.05);
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
    .min(sets.len())
    .max(1);

    if threads == 1 {
        return sets
            .iter()
            .map(|(cx, cy)| {
                let mut m = template.clone();
                m.fit(cx, cy);
                m
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Svr>> = (0..sets.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let template = &template;
                s.spawn(move || {
                    let mut out: Vec<(usize, Svr)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= sets.len() {
                            break;
                        }
                        let mut m = template.clone();
                        m.fit(&sets[i].0, &sets[i].1);
                        out.push((i, m));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (i, m) in h.join().expect("SVR training thread panicked") {
                slots[i] = Some(m);
            }
        }
    });
    slots
        .into_iter()
        .map(|m| m.expect("every cluster trained"))
        .collect()
}

/// Diagnostics of one cluster of the estimation model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterDiag {
    /// Cluster index.
    pub cluster: usize,
    /// Interest-window samples the cluster's SVR was trained on.
    pub training_samples: usize,
    /// Live average estimation accuracy (Eq. 5).
    pub aea: f64,
    /// Distinct support rows stored by the cluster's SVR (recurrent jobs
    /// with identical features share one row).
    pub support_vectors: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::TraceConfig;

    fn train_on(jobs: &[Job], cfg: EstimatorConfig) -> RuntimeEstimator {
        let mut est = RuntimeEstimator::new(cfg);
        for j in jobs {
            est.record_completion(j);
        }
        est.retrain(jobs.last().map(|j| j.submit).unwrap_or(SimTime::ZERO));
        est
    }

    #[test]
    fn ea_formula_matches_eq4() {
        assert_eq!(estimation_accuracy(50.0, 100.0), 0.5);
        assert_eq!(estimation_accuracy(200.0, 100.0), 0.5);
        assert_eq!(estimation_accuracy(100.0, 100.0), 1.0);
    }

    #[test]
    fn no_model_passes_user_estimate_through() {
        let jobs = TraceConfig::small(50, 1).generate();
        let est = RuntimeEstimator::new(EstimatorConfig::default());
        let j = &jobs[0];
        let e = est.estimate(j);
        match j.user_estimate {
            Some(u) => {
                let e = e.unwrap();
                assert_eq!(e.source, EstimateSource::User);
                assert_eq!(e.runtime, u);
            }
            None => assert!(e.is_none()),
        }
    }

    #[test]
    fn model_beats_user_estimates_on_recurrent_workload() {
        let jobs = TraceConfig::small(1500, 5).generate();
        let (train, test) = jobs.split_at(1200);
        let est = train_on(train, EstimatorConfig::default());
        let mut model_ea = 0.0;
        let mut user_ea = 0.0;
        let mut n = 0.0;
        for j in test {
            let Some(e) = est.estimate(j) else { continue };
            let actual = j.actual_runtime.as_secs_f64();
            model_ea += estimation_accuracy(e.runtime.as_secs_f64(), actual);
            if let Some(u) = j.user_estimate {
                user_ea += estimation_accuracy(u.as_secs_f64(), actual);
                n += 1.0;
            }
        }
        model_ea /= n;
        user_ea /= n;
        assert!(
            model_ea > user_ea + 0.1,
            "model EA {model_ea:.3} should clearly beat user EA {user_ea:.3}"
        );
        assert!(model_ea > 0.6, "model EA {model_ea:.3}");
    }

    #[test]
    fn retrain_cadence_respects_period() {
        let jobs = TraceConfig::small(200, 2).generate();
        let mut est = RuntimeEstimator::new(EstimatorConfig::default());
        for j in &jobs {
            est.record_completion(j);
        }
        assert!(est.maybe_retrain(SimTime::from_secs(1000)));
        // Immediately again: not due.
        assert!(!est.maybe_retrain(SimTime::from_secs(2000)));
        // After 15 h: due.
        assert!(est.maybe_retrain(SimTime::from_secs(2000 + 15 * 3600)));
        assert_eq!(est.retrain_count(), 2);
    }

    #[test]
    fn configured_k_is_used() {
        let jobs = TraceConfig::small(900, 3).generate();
        let est = train_on(
            &jobs,
            EstimatorConfig {
                k: Some(15),
                ..Default::default()
            },
        );
        assert_eq!(est.current_k(), 15);
    }

    #[test]
    fn cluster_diagnostics_cover_the_window() {
        let jobs = TraceConfig::small(900, 8).generate();
        let est = train_on(&jobs, EstimatorConfig::default());
        let diags = est.cluster_diagnostics();
        assert_eq!(diags.len(), 15);
        let total: usize = diags.iter().map(|d| d.training_samples).sum();
        assert_eq!(total, 700, "window not fully assigned to clusters");
        for d in &diags {
            assert!(
                (0.0..=1.0).contains(&d.aea),
                "cluster {} AEA {}",
                d.cluster,
                d.aea
            );
        }
        // Untrained framework has no diagnostics.
        let fresh = RuntimeEstimator::new(EstimatorConfig::default());
        assert!(fresh.cluster_diagnostics().is_empty());
    }

    #[test]
    fn slack_scales_the_estimate() {
        let jobs = TraceConfig::small(800, 4).generate();
        let base = train_on(
            &jobs,
            EstimatorConfig {
                slack: 1.0,
                ..Default::default()
            },
        );
        let slacked = train_on(
            &jobs,
            EstimatorConfig {
                slack: 1.5,
                ..Default::default()
            },
        );
        // Find a job the model estimates for both.
        let mut j = jobs[10].clone();
        j.user_estimate = None;
        let a = base.estimate(&j).unwrap().runtime.as_secs_f64();
        let b = slacked.estimate(&j).unwrap().runtime.as_secs_f64();
        assert!((b / a - 1.5).abs() < 0.01, "slack ratio {}", b / a);
    }

    #[test]
    fn parallel_retrain_is_bit_identical_to_serial() {
        let jobs = TraceConfig::small(900, 12).generate();
        let serial = train_on(
            &jobs,
            EstimatorConfig {
                train_threads: 1,
                ..Default::default()
            },
        );
        for threads in [2, 4, 8] {
            let parallel = train_on(
                &jobs,
                EstimatorConfig {
                    train_threads: threads,
                    ..Default::default()
                },
            );
            assert_eq!(serial.current_k(), parallel.current_k());
            // Every model estimate must agree to the last bit: same
            // cluster match, same raw f64 prediction, same AEA.
            for j in &jobs {
                let a = serial.model_estimate(j).unwrap();
                let b = parallel.model_estimate(j).unwrap();
                assert_eq!(a, b, "threads={threads} diverged on job {:?}", j.id);
            }
            assert_eq!(
                serial.cluster_diagnostics(),
                parallel.cluster_diagnostics(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn history_beyond_the_window_never_reaches_a_retrain() {
        let cfg = EstimatorConfig {
            window: 300,
            ..Default::default()
        };
        let jobs = TraceConfig::small(900, 9).generate();
        let all = train_on(&jobs, cfg.clone());
        let tail = train_on(&jobs[600..], cfg);
        for j in &jobs {
            assert_eq!(all.model_estimate(j), tail.model_estimate(j));
        }
    }

    #[test]
    fn recurrent_window_stores_fewer_rows_than_jobs() {
        let jobs = TraceConfig::tianhe2a().shrunk_to(2000).generate();
        let est = train_on(
            &jobs,
            EstimatorConfig {
                window: 2000,
                ..Default::default()
            },
        );
        let diags = est.cluster_diagnostics();
        let trained: usize = diags.iter().map(|d| d.training_samples).sum();
        let stored: usize = diags.iter().map(|d| d.support_vectors).sum();
        assert_eq!(trained, 2000);
        assert!(stored < trained, "{stored} rows for {trained} jobs");
    }

    #[test]
    fn aea_gate_falls_back_to_user() {
        let jobs = TraceConfig::small(800, 6).generate();
        // Impossible gate: model is never trusted when the user estimated.
        let est = train_on(
            &jobs,
            EstimatorConfig {
                aea_gate: 2.0,
                ..Default::default()
            },
        );
        let j = jobs.iter().find(|j| j.user_estimate.is_some()).unwrap();
        assert_eq!(est.estimate(j).unwrap().source, EstimateSource::User);
        // Gate of zero: model always trusted.
        let est = train_on(
            &jobs,
            EstimatorConfig {
                aea_gate: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(est.estimate(j).unwrap().source, EstimateSource::Model);
    }
}
