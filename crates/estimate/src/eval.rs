//! Chronological replay evaluation of runtime predictors (drives the
//! paper's Fig. 11(b) and Table VIII).
//!
//! Jobs are replayed in submission order. A predictor sees a completion
//! only once the job has actually finished (approximated as
//! `submit + runtime`, i.e. immediate start), predicts each new submission
//! *before* observing it, and is offered a retraining opportunity at every
//! submission instant.

use crate::baselines::RuntimePredictor;
use crate::framework::estimation_accuracy;
use std::collections::BinaryHeap;
use workload::Job;

/// Evaluation result for one predictor.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelReport {
    /// Predictor name.
    pub name: String,
    /// Average estimation accuracy (Eq. 4/5) over predicted jobs.
    pub aea: f64,
    /// Fraction of predicted jobs whose runtime was underestimated.
    pub underestimate_rate: f64,
    /// Fraction of jobs the predictor produced an estimate for.
    pub coverage: f64,
    /// Jobs replayed.
    pub jobs: usize,
    /// 10th percentile of signed error (prediction − actual), seconds.
    /// Negative values are underestimates.
    pub err_p10_s: f64,
    /// Median signed error, seconds.
    pub err_p50_s: f64,
    /// 90th percentile of signed error, seconds.
    pub err_p90_s: f64,
    /// Predicted jobs whose runtime was overestimated (or matched).
    pub overestimates: usize,
    /// Predicted jobs whose runtime was underestimated.
    pub underestimates: usize,
}

struct Completion {
    at: u64,
    idx: usize,
}

impl PartialEq for Completion {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.idx == other.idx
    }
}
impl Eq for Completion {}
impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at).then(other.idx.cmp(&self.idx)) // min-heap
    }
}

/// Replay `jobs` through `predictor`, scoring each prediction against the
/// ground-truth runtime. `warmup` initial jobs are replayed without being
/// scored (the predictor still learns from them).
pub fn evaluate(jobs: &[Job], predictor: &mut dyn RuntimePredictor, warmup: usize) -> ModelReport {
    let mut order: Vec<&Job> = jobs.iter().collect();
    order.sort_by_key(|j| j.submit);

    let mut pending: BinaryHeap<Completion> = BinaryHeap::new();
    let mut ea_sum = 0.0;
    let mut under = 0usize;
    let mut predicted = 0usize;
    let mut scored = 0usize;
    let mut errs: Vec<f64> = Vec::new();

    for (i, job) in order.iter().enumerate() {
        // Deliver completions that happened before this submission.
        let now = job.submit;
        while pending
            .peek()
            .map(|c| c.at <= now.as_micros())
            .unwrap_or(false)
        {
            let c = pending.pop().expect("peeked completion vanished");
            predictor.observe(order[c.idx]);
        }
        predictor.maybe_retrain(now);

        if i >= warmup {
            scored += 1;
            if let Some(p) = predictor.predict(job) {
                predicted += 1;
                let actual = job.actual_runtime;
                ea_sum += estimation_accuracy(p.as_secs_f64(), actual.as_secs_f64());
                errs.push(p.as_secs_f64() - actual.as_secs_f64());
                if p < actual {
                    under += 1;
                }
            }
        }

        pending.push(Completion {
            at: (job.submit + job.actual_runtime).as_micros(),
            idx: i,
        });
    }

    let (p10, p50, p90) = signed_error_percentiles(&mut errs);
    ModelReport {
        name: predictor.name(),
        aea: if predicted == 0 {
            0.0
        } else {
            ea_sum / predicted as f64
        },
        underestimate_rate: if predicted == 0 {
            0.0
        } else {
            under as f64 / predicted as f64
        },
        coverage: if scored == 0 {
            0.0
        } else {
            predicted as f64 / scored as f64
        },
        jobs: scored,
        err_p10_s: p10,
        err_p50_s: p50,
        err_p90_s: p90,
        overestimates: predicted - under,
        underestimates: under,
    }
}

/// The (p10, p50, p90) order statistics of a signed-error sample, by the
/// nearest-rank rule; sorts `errs` in place. Empty samples yield zeros.
/// Shared with the audit pipeline so `eslurm sched-report` accuracy
/// reconciles with [`evaluate`] on the same trace by construction.
pub fn signed_error_percentiles(errs: &mut [f64]) -> (f64, f64, f64) {
    if errs.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    errs.sort_by(f64::total_cmp);
    let n = errs.len();
    let pct = |q: f64| errs[(((n - 1) as f64) * q).round() as usize];
    (pct(0.10), pct(0.50), pct(0.90))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{svm_baseline, EslurmPredictor, Last2, UserEstimate};
    use crate::framework::EstimatorConfig;
    use simclock::SimSpan;
    use workload::TraceConfig;

    #[test]
    fn user_estimates_have_high_coverage_low_accuracy() {
        let jobs = TraceConfig::small(2000, 13).generate();
        let report = evaluate(&jobs, &mut UserEstimate, 100);
        assert!(report.coverage > 0.9);
        // Users systematically overestimate: accuracy well below 1, UR low.
        assert!(report.aea < 0.7, "user AEA {}", report.aea);
        assert!(report.underestimate_rate < 0.3);
    }

    #[test]
    fn eslurm_beats_user_and_last2() {
        let jobs = TraceConfig::small(3000, 14).generate();
        let user = evaluate(&jobs, &mut UserEstimate, 300);
        let mut l2 = Last2::default();
        let last2 = evaluate(&jobs, &mut l2, 300);
        let mut es = EslurmPredictor::new(EstimatorConfig::default());
        let eslurm = evaluate(&jobs, &mut es, 300);
        assert!(
            eslurm.aea > user.aea && eslurm.aea > last2.aea,
            "eslurm {:.3} vs user {:.3} vs last2 {:.3}",
            eslurm.aea,
            user.aea,
            last2.aea
        );
        assert!(eslurm.aea > 0.6, "eslurm AEA {:.3}", eslurm.aea);
    }

    #[test]
    fn svm_baseline_below_eslurm() {
        let jobs = TraceConfig::small(2500, 15).generate();
        let mut svm = svm_baseline(700);
        let svm_r = evaluate(&jobs, &mut svm, 300);
        let mut es = EslurmPredictor::new(EstimatorConfig::default());
        let es_r = evaluate(&jobs, &mut es, 300);
        assert!(
            es_r.aea > svm_r.aea,
            "clustered {:.3} should beat unclustered {:.3}",
            es_r.aea,
            svm_r.aea
        );
    }

    #[test]
    fn empty_trace_is_safe() {
        let report = evaluate(&[], &mut UserEstimate, 0);
        assert_eq!(report.jobs, 0);
        assert_eq!(report.aea, 0.0);
        assert_eq!(report.err_p50_s, 0.0);
        assert_eq!(report.overestimates + report.underestimates, 0);
    }

    #[test]
    fn signed_error_percentiles_pinned_on_fixed_trace() {
        use simclock::SimTime;
        use workload::{JobId, UserId};
        // Eleven jobs whose user estimates miss the actual runtime by
        // exactly −5 … +5 seconds, submitted a second apart.
        let jobs: Vec<Job> = (0..11)
            .map(|i| {
                let actual = 100i64;
                let delta = i as i64 - 5;
                Job {
                    id: JobId(i),
                    name: format!("j{i}"),
                    user: UserId(0),
                    nodes: 1,
                    cores_per_node: 1,
                    submit: SimTime::from_secs(i),
                    user_estimate: Some(SimSpan::from_secs((actual + delta) as u64)),
                    actual_runtime: SimSpan::from_secs(actual as u64),
                }
            })
            .collect();
        let report = evaluate(&jobs, &mut UserEstimate, 0);
        assert_eq!(report.jobs, 11);
        assert_eq!(report.err_p10_s, -4.0);
        assert_eq!(report.err_p50_s, 0.0);
        assert_eq!(report.err_p90_s, 4.0);
        assert_eq!(report.underestimates, 5);
        assert_eq!(report.overestimates, 6);
        assert!((report.underestimate_rate - 5.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_helper_is_nearest_rank() {
        assert_eq!(signed_error_percentiles(&mut []), (0.0, 0.0, 0.0));
        let mut one = vec![3.0];
        assert_eq!(signed_error_percentiles(&mut one), (3.0, 3.0, 3.0));
        let mut errs: Vec<f64> = (0..101).map(|i| i as f64).collect();
        assert_eq!(signed_error_percentiles(&mut errs), (10.0, 50.0, 90.0));
    }
}
