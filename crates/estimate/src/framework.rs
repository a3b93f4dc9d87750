//! The ESlurm job-runtime-estimation framework (paper §V, Fig. 6):
//! an **estimation model generator** (periodic K-means++ clustering of an
//! interest window + one SVR per cluster), a **real-time estimation
//! module** (cluster match → SVR → slack; fall back to the user estimate
//! unless the cluster's accuracy clears the gate), and a **record module**
//! (EA / AEA bookkeeping, Eqs. 4–5).
//!
//! The real-time module and the record module ask one question of the
//! fitted model, `ClusterModel::predict`: scale and weight the raw
//! feature row, assign it to a cluster, and run that cluster's SVR. HPC
//! jobs recur (the paper finds 89.2 % resubmitted within 24 h), so most
//! rows have been asked before: on the `sched_predict` benchmark trace
//! 77 % of submit-time estimates and ≈ 98 % of completion-time
//! predictions repeat a row the same model already answered. Each model
//! therefore remembers its answer per raw row, keyed by the row's bits.
//! A prediction is a pure function of the row and the model, so the memo
//! changes no answer; it lives and dies with its model (a retrain starts
//! an empty one) and holds at most one entry per distinct row seen
//! between two retrains, so it needs no size bound of its own.

use crate::features::{feature_row, target, untarget, FEATURE_WEIGHTS, N_FEATURES};
use ml::linalg::Matrix;
use ml::{KMeans, Regressor, StandardScaler, Svr};
use simclock::{SimSpan, SimTime};
use std::collections::{HashMap, VecDeque};
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

/// One fitted generation of the model: everything a retrain replaces.
struct ClusterModel {
    scaler: StandardScaler,
    kmeans: KMeans,
    models: Vec<Svr>,
    records: Vec<ClusterRecord>,
    /// [`ClusterModel::predict`]'s answers by raw feature-row bits. The
    /// rows come from job fields in the input, so the map keeps the
    /// default (keyed) hasher.
    memo: HashMap<[u64; N_FEATURES], (usize, f64)>,
}

impl ClusterModel {
    /// The matched cluster and that cluster's SVR estimate in seconds,
    /// before slack, of one raw feature row: computed on the first ask,
    /// read from the memo after.
    fn predict(&mut self, raw: &[f64; N_FEATURES]) -> (usize, f64) {
        *self.memo.entry(raw.map(f64::to_bits)).or_insert_with(|| {
            let x = weighted(&self.scaler, raw);
            let c = self.kmeans.assign(&x);
            (c, untarget(self.models[c].predict(&x)))
        })
    }
}

/// `raw` standardized by `scaler`, then weighted by [`FEATURE_WEIGHTS`] in
/// place: the same two roundings per element as `apply_weights` after
/// `transform`, in one `Vec`.
fn weighted(scaler: &StandardScaler, raw: &[f64]) -> Vec<f64> {
    let mut x = scaler.transform(raw);
    for (v, w) in x.iter_mut().zip(FEATURE_WEIGHTS) {
        *v *= w;
    }
    x
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
    /// Raw feature rows and targets of the newest `window` completed jobs,
    /// newest first: the order `retrain` reads them in.
    rows: VecDeque<Vec<f64>>,
    targets: VecDeque<f64>,
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
            rows: VecDeque::new(),
            targets: VecDeque::new(),
            model: None,
            last_train: None,
            retrain_count: 0,
        }
    }

    /// Record module: a job completed; append it to the historical queue
    /// and update the AEA of the cluster that predicted it.
    pub fn record_completion(&mut self, job: &Job) {
        let raw = feature_row(job);
        if let Some(m) = &mut self.model {
            let (c, secs) = m.predict(&raw);
            let ea =
                estimation_accuracy(secs * self.config.slack, job.actual_runtime.as_secs_f64());
            m.records[c].ea_sum += ea;
            m.records[c].count += 1;
        }
        // `retrain` is the only reader and takes the newest `window`.
        self.rows.push_front(raw.to_vec());
        self.targets.push_front(target(job));
        self.rows.truncate(self.config.window);
        self.targets.truncate(self.config.window);
    }

    /// Estimation model generator: retrain if the period elapsed. Returns
    /// whether a retraining happened.
    pub fn maybe_retrain(&mut self, now: SimTime) -> bool {
        let due = match self.last_train {
            None => self.rows.len() >= 30,
            Some(t) => now.since(t) >= self.config.retrain_every,
        };
        if !due || self.rows.len() < 10 {
            return false;
        }
        self.retrain(now);
        true
    }

    /// Force a retrain on the current interest window.
    pub fn retrain(&mut self, now: SimTime) {
        let _mem = obs::tag_scope(obs::MemTag::Ml);
        let w = self.rows.len().min(self.config.window);
        if w < 10 {
            return;
        }
        let raw = &self.rows.make_contiguous()[..w];
        let y = &self.targets.make_contiguous()[..w];
        let scaler = StandardScaler::fit(raw);
        let x: Vec<Vec<f64>> = raw.iter().map(|r| weighted(&scaler, r)).collect();

        let k = match self.config.k {
            Some(k) => k.min(x.len()),
            None => ml::elbow_k(&x, 20, self.config.seed),
        };
        let kmeans = KMeans::fit(&x, k, 60, self.config.seed + self.retrain_count);
        // Copies of a row share its cluster and so its back-test
        // prediction below, which is made once per distinct row.
        let (distinct, group) = Matrix::from_distinct_rows(&x);
        // Per-cluster SVRs use a much more local kernel than a global model
        // could afford: within a cluster the job-name feature must resolve
        // individual applications, and the small per-cluster sample keeps
        // the tight bandwidth from starving for data. This is where the
        // cluster-then-regress design earns its accuracy.
        let mut sets: Vec<(Vec<Vec<f64>>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); kmeans.k()];
        for ((xi, &yi), &l) in x.into_iter().zip(y).zip(&kmeans.labels) {
            sets[l].0.push(xi);
            sets[l].1.push(yi);
        }
        let template = Svr::default_rbf()
            .with_kernel(ml::Kernel::Rbf { gamma: 30.0 })
            .with_params(30.0, 0.05);
        let models: Vec<Svr> = sets
            .iter()
            .map(|(cx, cy)| {
                let mut m = template.clone();
                m.fit(cx, cy);
                m
            })
            .collect();
        // Warm-start each cluster's accuracy record by back-testing on the
        // window itself, so the AEA gate has data from the first estimate.
        let mut predictions = vec![None; distinct.rows()];
        let mut records = vec![ClusterRecord::default(); kmeans.k()];
        for ((yi, &l), &g) in y.iter().zip(&kmeans.labels).zip(&group) {
            let predicted = *predictions[g].get_or_insert_with(|| {
                untarget(models[l].predict(distinct.row(g))) * self.config.slack
            });
            let ea = estimation_accuracy(predicted, untarget(*yi));
            records[l].ea_sum += ea;
            records[l].count += 1;
        }
        self.model = Some(ClusterModel {
            scaler,
            kmeans,
            models,
            records,
            memo: HashMap::new(),
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
    pub fn estimate(&mut self, job: &Job) -> Option<Estimate> {
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
    pub fn model_estimate(&mut self, job: &Job) -> Option<(SimSpan, usize, f64)> {
        let slack = self.config.slack;
        self.model.as_mut().map(|m| {
            let (c, secs) = m.predict(&feature_row(job));
            (SimSpan::from_secs_f64(secs * slack), c, m.records[c].aea())
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
    use crate::features::{apply_weights, features};
    use std::collections::HashSet;
    use workload::TraceConfig;

    /// The model's answer without the memo: scaler, then weights, then
    /// K-means assignment, then the cluster's SVR, each as its own step
    /// on the model's own fields.
    fn uncached(m: &ClusterModel, raw: &[f64]) -> (usize, f64) {
        let x = apply_weights(&m.scaler.transform(raw));
        let c = m.kmeans.assign(&x);
        (c, untarget(m.models[c].predict(&x)))
    }

    fn record_bits(r: &[ClusterRecord]) -> Vec<(u64, u64)> {
        r.iter().map(|c| (c.ea_sum.to_bits(), c.count)).collect()
    }

    fn row_bits(job: &Job) -> [u64; N_FEATURES] {
        feature_row(job).map(f64::to_bits)
    }

    /// The scheduler's call pattern: each submission may retrain and is
    /// then estimated, and jobs complete `LAG` submissions later. Every
    /// answer and every booked record must equal the uncached path's to
    /// the bit, across several retrains, and the memo must hold exactly
    /// one entry per distinct row the live model was asked about.
    #[test]
    fn memo_answers_like_an_uncached_model() {
        const LAG: usize = 40;
        let jobs = TraceConfig::small(1600, 12).generate();
        let span = jobs.last().unwrap().submit.since(jobs[0].submit);
        let cfg = EstimatorConfig {
            window: 300,
            retrain_every: SimSpan::from_micros(span.as_micros() / 6),
            ..Default::default()
        };
        let mut est = RuntimeEstimator::new(cfg.clone());
        let mut want_records = Vec::new();
        let mut asked: HashSet<[u64; N_FEATURES]> = HashSet::new();
        let (mut hits, mut queries) = (0usize, 0usize);
        for (i, job) in jobs.iter().enumerate() {
            if est.maybe_retrain(job.submit) {
                want_records = est.model.as_ref().unwrap().records.clone();
                asked.clear();
            }
            if let Some(m) = &est.model {
                let (c, secs) = uncached(m, &features(job));
                let runtime = SimSpan::from_secs_f64(secs * cfg.slack);
                let aea = want_records[c].aea();
                let want = match job.user_estimate {
                    Some(u) if aea <= cfg.aea_gate => Estimate {
                        runtime: u,
                        source: EstimateSource::User,
                        cluster: Some(c),
                    },
                    _ => Estimate {
                        runtime,
                        source: EstimateSource::Model,
                        cluster: Some(c),
                    },
                };
                hits += usize::from(!asked.insert(row_bits(job)));
                queries += 1;
                assert_eq!(est.estimate(job), Some(want), "estimate of job {i}");
                let got = est.model_estimate(job).unwrap();
                assert_eq!(got.0, runtime, "model_estimate of job {i}");
                assert_eq!((got.1, got.2.to_bits()), (c, aea.to_bits()));
            }
            let Some(done) = i.checked_sub(LAG).map(|d| &jobs[d]) else {
                continue;
            };
            if let Some(m) = &est.model {
                let (c, secs) = uncached(m, &features(done));
                let actual = done.actual_runtime.as_secs_f64();
                want_records[c].ea_sum += estimation_accuracy(secs * cfg.slack, actual);
                want_records[c].count += 1;
                hits += usize::from(!asked.insert(row_bits(done)));
                queries += 1;
            }
            est.record_completion(done);
            if let Some(m) = &est.model {
                assert_eq!(
                    record_bits(&m.records),
                    record_bits(&want_records),
                    "job {i}"
                );
                assert_eq!(m.memo.len(), asked.len(), "memo size after job {i}");
            }
        }
        assert!(est.retrain_count() >= 3, "{} retrains", est.retrain_count());
        assert!(
            hits * 2 > queries,
            "{hits} repeated rows of {queries} queries"
        );
    }

    /// A retrain starts the memo afresh: before and after one, the answer
    /// for a job the old model had memoized is what a fresh estimator
    /// trained on the same window (and K-means seed) answers.
    #[test]
    fn retrain_drops_the_memo() {
        let cfg = EstimatorConfig {
            window: 300,
            ..Default::default()
        };
        let jobs = TraceConfig::small(900, 13).generate();
        let probe = &jobs[450];
        let mut est = RuntimeEstimator::new(cfg.clone());
        for j in &jobs[..600] {
            est.record_completion(j);
        }
        est.retrain(jobs[599].submit);
        let before = est.estimate(probe);
        let mut fresh = train_on(&jobs[..600], cfg.clone());
        assert_eq!(before, fresh.estimate(probe));

        // The old model's memo now holds the probe and every completion.
        for j in &jobs[600..] {
            est.record_completion(j);
        }
        est.retrain(jobs[899].submit);
        let after = est.estimate(probe);
        let mut fresh = train_on(
            &jobs[600..],
            EstimatorConfig {
                seed: cfg.seed + 1,
                ..cfg
            },
        );
        assert_eq!(after, fresh.estimate(probe));
        assert_ne!(
            before.map(|e| e.runtime),
            after.map(|e| e.runtime),
            "the probe must tell the two models apart"
        );
    }

    /// Repeated rows share one entry: after a stream of estimates, the
    /// memo holds exactly one entry per distinct feature row queried.
    #[test]
    fn memo_holds_one_entry_per_distinct_row() {
        let jobs = TraceConfig::small(1200, 14).generate();
        let mut est = train_on(&jobs[..800], EstimatorConfig::default());
        assert!(est.model.as_ref().unwrap().memo.is_empty());
        let mut distinct = HashSet::new();
        for job in &jobs[800..] {
            est.estimate(job);
            distinct.insert(row_bits(job));
        }
        let memo = &est.model.as_ref().unwrap().memo;
        assert_eq!(memo.len(), distinct.len());
        assert!(memo.len() < 400, "{} distinct rows in 400 jobs", memo.len());
    }

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
        let mut est = RuntimeEstimator::new(EstimatorConfig::default());
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
        let mut est = train_on(train, EstimatorConfig::default());
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
        let mut base = train_on(
            &jobs,
            EstimatorConfig {
                slack: 1.0,
                ..Default::default()
            },
        );
        let mut slacked = train_on(
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
    fn history_beyond_the_window_never_reaches_a_retrain() {
        let cfg = EstimatorConfig {
            window: 300,
            ..Default::default()
        };
        let jobs = TraceConfig::small(900, 9).generate();
        let mut all = train_on(&jobs, cfg.clone());
        let mut tail = train_on(&jobs[600..], cfg);
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

    /// The warm-start back-test predicts once per distinct row; booking
    /// each job of the window with its own features and its own
    /// prediction gives the same records to the bit.
    #[test]
    fn back_test_books_every_job_as_its_own_prediction_would() {
        let jobs = TraceConfig::tianhe2a().shrunk_to(1000).generate();
        let est = train_on(
            &jobs,
            EstimatorConfig {
                window: 1000,
                ..Default::default()
            },
        );
        let m = est.model.as_ref().expect("trained");
        let mut want = vec![ClusterRecord::default(); m.kmeans.k()];
        for (job, &l) in jobs.iter().rev().zip(&m.kmeans.labels) {
            let x = apply_weights(&m.scaler.transform(&features(job)));
            let predicted = untarget(m.models[l].predict(&x)) * est.config.slack;
            want[l].ea_sum += estimation_accuracy(predicted, untarget(target(job)));
            want[l].count += 1;
        }
        assert_eq!(record_bits(&m.records), record_bits(&want));
    }

    #[test]
    fn aea_gate_falls_back_to_user() {
        let jobs = TraceConfig::small(800, 6).generate();
        // Impossible gate: model is never trusted when the user estimated.
        let mut est = train_on(
            &jobs,
            EstimatorConfig {
                aea_gate: 2.0,
                ..Default::default()
            },
        );
        let j = jobs.iter().find(|j| j.user_estimate.is_some()).unwrap();
        assert_eq!(est.estimate(j).unwrap().source, EstimateSource::User);
        // Gate of zero: model always trusted.
        let mut est = train_on(
            &jobs,
            EstimatorConfig {
                aea_gate: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(est.estimate(j).unwrap().source, EstimateSource::Model);
    }
}
