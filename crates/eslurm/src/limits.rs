//! The predictive walltime-limit policy: ESlurm's runtime-estimation
//! framework feeding the backfill scheduler (the +8.7 % utilization
//! contribution the paper attributes to runtime estimation in §VII-D).

use estimate::{EstimatorConfig, RuntimeEstimator};
use obs::audit::{EstSource, EstimateRef};
use sched::prelude::{LimitInfo, LimitPolicy};
use simclock::{SimSpan, SimTime};
use workload::Job;

/// Minimum limit handed to the scheduler.
const FLOOR: SimSpan = SimSpan::from_secs(120);
/// Kill-safety margin applied on top of model estimates: the job is killed
/// only beyond `MARGIN × estimate`, while backfill still plans with the
/// much tighter estimate than user requests provide.
const MARGIN: f64 = 2.0;
/// Floor for limits on jobs with no user estimate: a kill there is pure
/// waste, so the limit never drops below this even when the model predicts
/// a short run (still 4x tighter for planning than the 24 h partition
/// default it replaces).
const NO_USER_FLOOR: SimSpan = SimSpan::from_hours(6);
/// Limit used when neither a model nor a user estimate exists.
const DEFAULT_LIMIT: SimSpan = SimSpan::from_hours(24);

/// Walltime limits from the ESlurm estimation framework.
///
/// The deployed decision logic applies: the model estimate (slack-adjusted)
/// is used when the user gave no estimate or when the matched cluster's
/// AEA clears the gate; otherwise the user's request stands. A safety
/// floor prevents degenerate one-second limits.
pub struct PredictiveLimit {
    estimator: RuntimeEstimator,
    /// Jobs whose limit came from the model.
    pub model_limits: u64,
    /// Jobs whose limit came from the user request.
    pub user_limits: u64,
}

impl PredictiveLimit {
    /// A policy around a fresh estimation framework.
    pub fn new(config: EstimatorConfig) -> Self {
        PredictiveLimit {
            estimator: RuntimeEstimator::new(config),
            model_limits: 0,
            user_limits: 0,
        }
    }

    /// Access the wrapped framework (for inspecting AEA etc.).
    pub fn estimator(&self) -> &RuntimeEstimator {
        &self.estimator
    }
}

impl LimitPolicy for PredictiveLimit {
    fn limit(&mut self, job: &Job) -> SimSpan {
        self.limit_info(job).limit
    }

    fn limit_info(&mut self, job: &Job) -> LimitInfo {
        self.estimator.maybe_retrain(job.submit);
        match self.estimator.estimate(job) {
            Some(e) => {
                match e.source {
                    estimate::EstimateSource::Model => {
                        self.model_limits += 1;
                        // Never set a limit below the user's own request:
                        // a kill can then only happen where the user limit
                        // would have killed too, so the job-failure rate
                        // strictly improves while planning still benefits
                        // from the (usually much tighter) model estimate.
                        // Jobs submitted without any user estimate get a
                        // doubled margin: there is no user limit to fall
                        // back on, and a kill there is pure waste (the
                        // alternative was a 24 h partition default anyway).
                        let (user, margin) = match job.user_estimate {
                            Some(u) => (u, MARGIN),
                            None => (NO_USER_FLOOR, MARGIN * 2.0),
                        };
                        LimitInfo {
                            limit: e.runtime.mul_f64(margin).max(user).max(FLOOR),
                            est: EstimateRef::new(e.runtime.as_micros(), EstSource::Model)
                                .with_cluster(e.cluster.map(|c| c as u32)),
                        }
                    }
                    estimate::EstimateSource::User => {
                        self.user_limits += 1;
                        LimitInfo {
                            limit: e.runtime.max(FLOOR),
                            est: EstimateRef::new(e.runtime.as_micros(), EstSource::User),
                        }
                    }
                }
            }
            None => LimitInfo {
                limit: DEFAULT_LIMIT,
                est: EstimateRef::new(DEFAULT_LIMIT.as_micros(), EstSource::Default),
            },
        }
    }

    fn resubmit_info(&mut self, job: &Job, prev: LimitInfo, _attempt: u32) -> LimitInfo {
        if prev.est.source == EstSource::Model {
            // The model chronically underestimated this job: abandon it and
            // fall back to the user's request (or the partition default),
            // never below double the killed limit so the resubmission
            // ladder still terminates.
            let (fallback, source) = match job.user_estimate {
                Some(u) => (u, EstSource::User),
                None => (DEFAULT_LIMIT, EstSource::Default),
            };
            LimitInfo {
                limit: fallback.max(prev.limit * 2),
                est: EstimateRef::new(fallback.as_micros(), source),
            }
        } else {
            LimitInfo {
                limit: prev.limit * 2,
                est: prev.est,
            }
        }
    }

    fn on_complete(&mut self, job: &Job, _now: SimTime) {
        self.estimator.record_completion(job);
    }

    fn name(&self) -> String {
        "eslurm-predictive".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::prelude::{simulate, BackfillConfig, UserLimit};
    use workload::{JobId, TraceConfig, UserId};

    fn job(est: Option<u64>, actual: u64) -> Job {
        Job {
            id: JobId(0),
            name: "j".into(),
            user: UserId(0),
            nodes: 1,
            cores_per_node: 1,
            submit: SimTime::ZERO,
            user_estimate: est.map(SimSpan::from_secs),
            actual_runtime: SimSpan::from_secs(actual),
        }
    }

    #[test]
    fn resubmit_abandons_a_chronic_model_underestimate() {
        let mut policy = PredictiveLimit::new(EstimatorConfig::default());
        let prev = LimitInfo {
            limit: SimSpan::from_secs(100),
            est: EstimateRef::new(50_000_000, EstSource::Model).with_cluster(Some(3)),
        };
        // With a user estimate: fall back to the user's request.
        let next = policy.resubmit_info(&job(Some(900), 1000), prev, 1);
        assert_eq!(next.est.source, EstSource::User);
        assert_eq!(next.limit, SimSpan::from_secs(900));
        // Without one: fall back to the partition default.
        let next = policy.resubmit_info(&job(None, 1000), prev, 1);
        assert_eq!(next.est.source, EstSource::Default);
        assert_eq!(next.limit, DEFAULT_LIMIT);
        // The ladder never shrinks below double the killed limit.
        let prev_high = LimitInfo {
            limit: SimSpan::from_secs(600),
            ..prev
        };
        let next = policy.resubmit_info(&job(Some(900), 1000), prev_high, 1);
        assert_eq!(next.limit, SimSpan::from_secs(1200));
        // Non-model kills keep the classic doubling and attribution.
        let user_prev = LimitInfo {
            limit: SimSpan::from_secs(100),
            est: EstimateRef::new(100_000_000, EstSource::User),
        };
        let next = policy.resubmit_info(&job(Some(100), 1000), user_prev, 1);
        assert_eq!(next.est.source, EstSource::User);
        assert_eq!(next.limit, SimSpan::from_secs(200));
    }

    #[test]
    fn predictive_limits_learn_from_completions() {
        let jobs = TraceConfig::small(1200, 31).generate();
        let mut policy = PredictiveLimit::new(EstimatorConfig::default());
        let report = simulate(&jobs, &mut policy, &BackfillConfig::new(512));
        assert!(report.completed > 1000, "completed {}", report.completed);
        assert!(
            policy.model_limits + policy.user_limits > 0,
            "policy never produced a limit"
        );
        assert!(policy.model_limits > 0, "model never trusted");
    }

    #[test]
    fn predictive_wastes_less_reservation_than_user_limits() {
        // With heavy overestimation, user limits block backfill; the
        // predictive policy's tighter limits should not do worse on wait.
        let jobs = TraceConfig::small(2500, 33).generate();
        let cfg = BackfillConfig::new(128);
        let user = simulate(&jobs, &mut UserLimit::default(), &cfg);
        let mut policy = PredictiveLimit::new(EstimatorConfig::default());
        let predictive = simulate(&jobs, &mut policy, &cfg);
        assert!(
            predictive.avg_wait() <= user.avg_wait().mul_f64(1.1),
            "predictive wait {} vs user {}",
            predictive.avg_wait(),
            user.avg_wait()
        );
        // Kills stay bounded thanks to the slack + gate.
        assert!(
            (predictive.killed as f64) < 0.25 * jobs.len() as f64,
            "kills {}",
            predictive.killed
        );
    }
}
