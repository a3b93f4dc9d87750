//! Runtime-prediction baselines compared in the paper's Fig. 11(b):
//! user estimates, plain SVM, RandomForest, Last-2 (Tsafrir et al.),
//! IRPA (Wu et al. — RF + SVR + Bayesian-ridge ensemble), TRIP (Fan et
//! al. — Tobit regression on censored runtimes), and PREP (Zhou et al. —
//! per-running-path clusters).
//!
//! All baselines share the [`RuntimePredictor`] interface: they observe
//! *completed* jobs and predict runtimes for newly submitted ones, with
//! periodic retraining like the ESlurm framework itself.

use crate::features::{features, target, untarget};
use crate::framework::{EstimatorConfig, RuntimeEstimator};
use ml::{BayesianRidge, CensoredSample, RandomForest, Regressor, StandardScaler, Svr, Tobit};
use simclock::{SimSpan, SimTime};
use std::collections::{HashMap, VecDeque};
use workload::Job;

/// A source of job-runtime predictions, evaluated by chronological replay.
pub trait RuntimePredictor {
    /// Display name (used in reports).
    fn name(&self) -> String;
    /// A job completed; learn from it.
    fn observe(&mut self, job: &Job);
    /// Retrain if a period elapsed (no-op for stateless predictors).
    fn maybe_retrain(&mut self, _now: SimTime) {}
    /// Predict the runtime of a newly submitted job (`None` = abstain).
    fn predict(&mut self, job: &Job) -> Option<SimSpan>;
}

/// The user's own walltime request.
#[derive(Default)]
pub struct UserEstimate;

impl RuntimePredictor for UserEstimate {
    fn name(&self) -> String {
        "User".into()
    }
    fn observe(&mut self, _job: &Job) {}
    fn predict(&mut self, job: &Job) -> Option<SimSpan> {
        job.user_estimate
    }
}

/// Last-2 (Tsafrir et al.): the average of the actual runtimes of the last
/// two jobs submitted by the same user.
#[derive(Default)]
pub struct Last2 {
    recent: HashMap<u32, VecDeque<f64>>,
}

impl RuntimePredictor for Last2 {
    fn name(&self) -> String {
        "Last-2".into()
    }
    fn observe(&mut self, job: &Job) {
        let q = self.recent.entry(job.user.0).or_default();
        q.push_back(job.actual_runtime.as_secs_f64());
        if q.len() > 2 {
            q.pop_front();
        }
    }
    fn predict(&mut self, job: &Job) -> Option<SimSpan> {
        let q = self.recent.get(&job.user.0)?;
        if q.is_empty() {
            return None;
        }
        Some(SimSpan::from_secs_f64(
            q.iter().sum::<f64>() / q.len() as f64,
        ))
    }
}

/// A sliding-window model over any [`Regressor`]: features are scaled, the
/// target is log-runtime, retraining is periodic. `SVM` and
/// `RandomForest` in Fig. 11(b) are instances of this.
pub struct WindowModel<R: Regressor> {
    label: String,
    window: usize,
    retrain_every: SimSpan,
    history: VecDeque<(Vec<f64>, f64)>,
    scaler: StandardScaler,
    model: R,
    fitted: bool,
    last_train: Option<SimTime>,
}

impl<R: Regressor> WindowModel<R> {
    /// Wrap `model` with a `window`-job sliding window.
    pub fn new(label: impl Into<String>, model: R, window: usize) -> Self {
        WindowModel {
            label: label.into(),
            window,
            retrain_every: SimSpan::from_hours(15),
            history: VecDeque::new(),
            scaler: StandardScaler::default(),
            model,
            fitted: false,
            last_train: None,
        }
    }

    fn retrain(&mut self, now: SimTime) {
        if self.history.len() < 10 {
            return;
        }
        let _mem = obs::tag_scope(obs::MemTag::Ml);
        let raw: Vec<Vec<f64>> = self.history.iter().map(|(f, _)| f.clone()).collect();
        self.scaler = StandardScaler::fit(&raw);
        let x = self.scaler.transform_all(&raw);
        let y: Vec<f64> = self.history.iter().map(|(_, t)| *t).collect();
        self.model.fit(&x, &y);
        self.fitted = true;
        self.last_train = Some(now);
    }
}

impl<R: Regressor> RuntimePredictor for WindowModel<R> {
    fn name(&self) -> String {
        self.label.clone()
    }
    fn observe(&mut self, job: &Job) {
        self.history.push_back((features(job), target(job)));
        while self.history.len() > self.window {
            self.history.pop_front();
        }
    }
    fn maybe_retrain(&mut self, now: SimTime) {
        let due = match self.last_train {
            None => self.history.len() >= 30,
            Some(t) => now.since(t) >= self.retrain_every,
        };
        if due {
            self.retrain(now);
        }
    }
    fn predict(&mut self, job: &Job) -> Option<SimSpan> {
        if !self.fitted {
            return None;
        }
        let f = self.scaler.transform(&features(job));
        Some(SimSpan::from_secs_f64(untarget(self.model.predict(&f))))
    }
}

/// The plain (unclustered) SVM baseline — also the "no clustering"
/// ablation of the ESlurm framework.
pub fn svm_baseline(window: usize) -> WindowModel<Svr> {
    // The hashed name feature needs a local kernel to be useful at all.
    WindowModel::new(
        "SVM",
        Svr::default_rbf().with_kernel(ml::Kernel::Rbf { gamma: 2.0 }),
        window,
    )
}

/// The RandomForest baseline.
pub fn forest_baseline(window: usize, seed: u64) -> WindowModel<RandomForest> {
    WindowModel::new("RandomForest", RandomForest::new(40, 10, seed), window)
}

/// IRPA (Wu et al.): an ensemble of random-forest, SVR, and Bayesian-ridge
/// regressors; predictions are averaged in log space.
pub struct Irpa {
    forest: WindowModel<RandomForest>,
    svr: WindowModel<Svr>,
    ridge: WindowModel<BayesianRidge>,
}

impl Irpa {
    /// Standard configuration.
    pub fn new(window: usize, seed: u64) -> Self {
        Irpa {
            forest: WindowModel::new("irpa-rf", RandomForest::new(40, 10, seed), window),
            svr: WindowModel::new(
                "irpa-svr",
                Svr::default_rbf().with_kernel(ml::Kernel::Rbf { gamma: 2.0 }),
                window,
            ),
            ridge: WindowModel::new("irpa-br", BayesianRidge::new(), window),
        }
    }
}

impl RuntimePredictor for Irpa {
    fn name(&self) -> String {
        "IRPA".into()
    }
    fn observe(&mut self, job: &Job) {
        self.forest.observe(job);
        self.svr.observe(job);
        self.ridge.observe(job);
    }
    fn maybe_retrain(&mut self, now: SimTime) {
        self.forest.maybe_retrain(now);
        self.svr.maybe_retrain(now);
        self.ridge.maybe_retrain(now);
    }
    fn predict(&mut self, job: &Job) -> Option<SimSpan> {
        let preds: Vec<f64> = [
            self.forest.predict(job),
            self.svr.predict(job),
            self.ridge.predict(job),
        ]
        .into_iter()
        .flatten()
        .map(|s| s.as_secs_f64().max(1.0).ln())
        .collect();
        if preds.is_empty() {
            return None;
        }
        let mean_log = preds.iter().sum::<f64>() / preds.len() as f64;
        Some(SimSpan::from_secs_f64(untarget(mean_log)))
    }
}

/// TRIP (Fan et al.): Tobit regression exploiting the right-censoring of
/// runtimes at the requested walltime.
pub struct Trip {
    window: usize,
    retrain_every: SimSpan,
    history: VecDeque<CensoredSample>,
    raw: VecDeque<Vec<f64>>,
    scaler: StandardScaler,
    model: Tobit,
    fitted: bool,
    last_train: Option<SimTime>,
}

impl Trip {
    /// Standard configuration.
    pub fn new(window: usize) -> Self {
        Trip {
            window,
            retrain_every: SimSpan::from_hours(15),
            history: VecDeque::new(),
            raw: VecDeque::new(),
            scaler: StandardScaler::default(),
            model: Tobit::new(),
            fitted: false,
            last_train: None,
        }
    }
}

impl RuntimePredictor for Trip {
    fn name(&self) -> String {
        "TRIP".into()
    }
    fn observe(&mut self, job: &Job) {
        // A job that ran into its walltime limit is censored: we only know
        // the runtime was at least the limit.
        let censored = job
            .user_estimate
            .map(|u| job.actual_runtime >= u)
            .unwrap_or(false);
        self.raw.push_back(features(job));
        self.history.push_back(CensoredSample {
            x: Vec::new(), // filled at retrain time, post scaling
            y: target(job),
            censored,
        });
        while self.history.len() > self.window {
            self.history.pop_front();
            self.raw.pop_front();
        }
    }
    fn maybe_retrain(&mut self, now: SimTime) {
        let due = match self.last_train {
            None => self.history.len() >= 30,
            Some(t) => now.since(t) >= self.retrain_every,
        };
        if !due || self.history.len() < 10 {
            return;
        }
        let raw: Vec<Vec<f64>> = self.raw.iter().cloned().collect();
        self.scaler = StandardScaler::fit(&raw);
        let data: Vec<CensoredSample> = self
            .history
            .iter()
            .zip(&raw)
            .map(|(s, r)| CensoredSample {
                x: self.scaler.transform(r),
                y: s.y,
                censored: s.censored,
            })
            .collect();
        self.model.fit_censored(&data);
        self.fitted = true;
        self.last_train = Some(now);
    }
    fn predict(&mut self, job: &Job) -> Option<SimSpan> {
        if !self.fitted {
            return None;
        }
        let f = self.scaler.transform(&features(job));
        Some(SimSpan::from_secs_f64(untarget(self.model.predict(&f))))
    }
}

/// PREP (Zhou et al.): jobs are grouped by their running path — here the
/// job name stands in for the script path — and each group gets its own
/// predictor (recency-weighted mean of the group's log-runtimes), with a
/// global forest as fallback for unseen paths.
pub struct Prep {
    per_path: HashMap<String, VecDeque<f64>>,
    keep: usize,
    fallback: WindowModel<RandomForest>,
}

impl Prep {
    /// Standard configuration.
    pub fn new(window: usize, seed: u64) -> Self {
        Prep {
            per_path: HashMap::new(),
            keep: 16,
            fallback: WindowModel::new("prep-fallback", RandomForest::new(30, 10, seed), window),
        }
    }
}

impl RuntimePredictor for Prep {
    fn name(&self) -> String {
        "PREP".into()
    }
    fn observe(&mut self, job: &Job) {
        let q = self.per_path.entry(job.name.clone()).or_default();
        q.push_back(target(job));
        if q.len() > self.keep {
            q.pop_front();
        }
        self.fallback.observe(job);
    }
    fn maybe_retrain(&mut self, now: SimTime) {
        self.fallback.maybe_retrain(now);
    }
    fn predict(&mut self, job: &Job) -> Option<SimSpan> {
        if let Some(q) = self.per_path.get(&job.name) {
            if !q.is_empty() {
                // Recency-weighted mean of the path's log-runtimes.
                let mut wsum = 0.0;
                let mut sum = 0.0;
                for (i, v) in q.iter().enumerate() {
                    let w = (i + 1) as f64;
                    wsum += w;
                    sum += w * v;
                }
                return Some(SimSpan::from_secs_f64(untarget(sum / wsum)));
            }
        }
        self.fallback.predict(job)
    }
}

/// The full ESlurm framework behind the common interface (for Fig. 11(b)
/// and the Table VIII slack sweep).
///
/// By default the predictor reports the framework's *model* estimates —
/// Fig. 11(b) is a model comparison. Construct with [`EslurmPredictor::gated`]
/// to reproduce the deployed behaviour, where the AEA gate may route a job
/// back to its user estimate (that is what the scheduler consumes).
pub struct EslurmPredictor {
    inner: RuntimeEstimator,
    gated: bool,
}

impl EslurmPredictor {
    /// Model-comparison mode: always answer with the model estimate.
    pub fn new(config: EstimatorConfig) -> Self {
        EslurmPredictor {
            inner: RuntimeEstimator::new(config),
            gated: false,
        }
    }

    /// Deployment mode: apply the AEA gate against user estimates.
    pub fn gated(config: EstimatorConfig) -> Self {
        EslurmPredictor {
            inner: RuntimeEstimator::new(config),
            gated: true,
        }
    }

    /// Access the wrapped framework.
    pub fn framework(&self) -> &RuntimeEstimator {
        &self.inner
    }
}

impl RuntimePredictor for EslurmPredictor {
    fn name(&self) -> String {
        "ESlurm".into()
    }
    fn observe(&mut self, job: &Job) {
        self.inner.record_completion(job);
    }
    fn maybe_retrain(&mut self, now: SimTime) {
        self.inner.maybe_retrain(now);
    }
    fn predict(&mut self, job: &Job) -> Option<SimSpan> {
        if self.gated {
            self.inner.estimate(job).map(|e| e.runtime)
        } else {
            self.inner
                .model_estimate(job)
                .map(|(s, _, _)| s)
                .or(job.user_estimate)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimTime;
    use workload::{JobId, TraceConfig, UserId};

    fn job(user: u32, runtime_s: u64, est_s: Option<u64>) -> Job {
        Job {
            id: JobId(0),
            name: "t".into(),
            user: UserId(user),
            nodes: 2,
            cores_per_node: 4,
            submit: SimTime::from_secs(100),
            user_estimate: est_s.map(SimSpan::from_secs),
            actual_runtime: SimSpan::from_secs(runtime_s),
        }
    }

    #[test]
    fn user_estimate_passthrough() {
        let mut p = UserEstimate;
        assert_eq!(
            p.predict(&job(1, 100, Some(300))),
            Some(SimSpan::from_secs(300))
        );
        assert_eq!(p.predict(&job(1, 100, None)), None);
    }

    #[test]
    fn last2_averages_last_two() {
        let mut p = Last2::default();
        assert_eq!(p.predict(&job(1, 0, None)), None);
        p.observe(&job(1, 100, None));
        p.observe(&job(1, 300, None));
        p.observe(&job(1, 500, None)); // 100 rolls out
        let pred = p.predict(&job(1, 0, None)).unwrap();
        assert_eq!(pred, SimSpan::from_secs(400));
        // Per-user separation.
        assert_eq!(p.predict(&job(2, 0, None)), None);
    }

    #[test]
    fn window_model_learns_trace() {
        let jobs = TraceConfig::small(600, 7).generate();
        let mut p = svm_baseline(400);
        for j in &jobs[..500] {
            p.observe(j);
        }
        p.maybe_retrain(SimTime::from_secs(1));
        let mut ea = 0.0;
        for j in &jobs[500..] {
            let pred = p.predict(j).unwrap().as_secs_f64();
            ea += crate::framework::estimation_accuracy(pred, j.actual_runtime.as_secs_f64());
        }
        ea /= 100.0;
        assert!(ea > 0.35, "SVM window EA {ea:.3}");
    }

    #[test]
    fn prep_uses_per_path_memory() {
        let mut p = Prep::new(100, 1);
        for _ in 0..5 {
            p.observe(&job(1, 1000, None));
        }
        let pred = p.predict(&job(1, 0, None)).unwrap().as_secs_f64();
        assert!((pred - 1000.0).abs() < 50.0, "pred {pred}");
    }

    #[test]
    fn trip_marks_censored_jobs() {
        let mut p = Trip::new(100);
        // Runtime hits the limit -> censored observation recorded.
        p.observe(&job(1, 300, Some(300)));
        p.observe(&job(1, 100, Some(300)));
        assert_eq!(p.history.len(), 2);
        assert!(p.history[0].censored);
        assert!(!p.history[1].censored);
    }

    #[test]
    fn irpa_combines_members() {
        let jobs = TraceConfig::small(500, 9).generate();
        let mut p = Irpa::new(300, 5);
        for j in &jobs[..400] {
            p.observe(j);
        }
        p.maybe_retrain(SimTime::from_secs(1));
        assert!(p.predict(&jobs[450]).is_some());
    }
}
