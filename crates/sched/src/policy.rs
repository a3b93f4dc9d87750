//! Walltime-limit policies: where the scheduler's runtime estimates come
//! from.
//!
//! The backfill scheduler plans reservations using each job's walltime
//! limit; jobs exceeding their limit are killed (and resubmitted). A
//! [`LimitPolicy`] decides that limit at submission time — from the user's
//! request (classic RMs) or from a prediction framework (ESlurm; provided
//! by the `eslurm` crate so this crate stays ML-free).

use obs::audit::{EstSource, EstimateRef};
use simclock::{SimSpan, SimTime};
use workload::Job;

/// A walltime limit together with the estimate it was derived from — what
/// the decision audit log records against every scheduler action.
#[derive(Clone, Copy, Debug)]
pub struct LimitInfo {
    /// The enforced walltime limit.
    pub limit: SimSpan,
    /// The underlying runtime estimate (value + source + cluster).
    pub est: EstimateRef,
}

/// Source of walltime limits for the scheduler.
pub trait LimitPolicy {
    /// The walltime limit for a newly submitted job.
    fn limit(&mut self, job: &Job) -> SimSpan;

    /// The walltime limit with estimate provenance. The default wraps
    /// [`LimitPolicy::limit`] and attributes it to the user's request (or
    /// the partition default when the user gave none) — exactly the
    /// [`UserLimit`] behaviour; estimate-backed policies override this.
    fn limit_info(&mut self, job: &Job) -> LimitInfo {
        let limit = self.limit(job);
        let source = if job.user_estimate.is_some() {
            EstSource::User
        } else {
            EstSource::Default
        };
        LimitInfo {
            limit,
            est: EstimateRef::new(limit.as_micros(), source),
        }
    }

    /// The limit for a job resubmitted after a kill at `prev.limit`.
    /// The default doubles the previous limit and keeps its estimate
    /// attribution — the classic resubmission ladder. Estimate-backed
    /// policies override this to abandon a chronic underestimator.
    fn resubmit_info(&mut self, _job: &Job, prev: LimitInfo, _attempt: u32) -> LimitInfo {
        LimitInfo {
            limit: prev.limit * 2,
            est: prev.est,
        }
    }

    /// A job completed (successfully) — learning hook.
    fn on_complete(&mut self, _job: &Job, _now: SimTime) {}

    /// Policy name for reports.
    fn name(&self) -> String;
}

/// Use the user's walltime request, or a partition default when absent
/// (how Slurm, LSF, SGE, Torque, and OpenPBS behave).
pub struct UserLimit {
    /// Limit applied when the user gave none.
    pub default: SimSpan,
}

impl Default for UserLimit {
    /// A 24-hour partition default.
    fn default() -> Self {
        UserLimit {
            default: SimSpan::from_hours(24),
        }
    }
}

impl LimitPolicy for UserLimit {
    fn limit(&mut self, job: &Job) -> SimSpan {
        job.user_estimate.unwrap_or(self.default)
    }

    fn name(&self) -> String {
        "user-limit".into()
    }
}

/// An oracle policy: the exact runtime (useful as an upper bound in
/// ablations — no backfill planning error, no kills).
pub struct OracleLimit;

impl LimitPolicy for OracleLimit {
    fn limit(&mut self, job: &Job) -> SimSpan {
        // A hair above the actual runtime so the job is never killed.
        job.actual_runtime + SimSpan::from_secs(1)
    }

    fn limit_info(&mut self, job: &Job) -> LimitInfo {
        LimitInfo {
            limit: self.limit(job),
            est: EstimateRef::new(job.actual_runtime.as_micros(), EstSource::Oracle),
        }
    }

    fn name(&self) -> String {
        "oracle-limit".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{JobId, UserId};

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
    fn user_limit_prefers_request() {
        let mut p = UserLimit::default();
        assert_eq!(p.limit(&job(Some(500), 100)), SimSpan::from_secs(500));
        assert_eq!(p.limit(&job(None, 100)), SimSpan::from_hours(24));
    }

    #[test]
    fn oracle_never_kills() {
        let mut p = OracleLimit;
        let j = job(Some(50), 100);
        assert!(p.limit(&j) > j.actual_runtime);
    }

    #[test]
    fn default_limit_info_attributes_user_or_default() {
        let mut p = UserLimit::default();
        let info = p.limit_info(&job(Some(500), 100));
        assert_eq!(info.limit, SimSpan::from_secs(500));
        assert_eq!(info.est.source, EstSource::User);
        assert_eq!(info.est.value_us, SimSpan::from_secs(500).as_micros());

        let info = p.limit_info(&job(None, 100));
        assert_eq!(info.est.source, EstSource::Default);
        assert_eq!(info.limit, SimSpan::from_hours(24));
    }

    #[test]
    fn default_resubmit_doubles_and_keeps_attribution() {
        let mut p = UserLimit::default();
        let first = p.limit_info(&job(Some(10), 100));
        let second = p.resubmit_info(&job(Some(10), 100), first, 1);
        assert_eq!(second.limit, SimSpan::from_secs(20));
        assert_eq!(second.est, first.est);
    }

    #[test]
    fn oracle_limit_info_reports_oracle_source() {
        let mut p = OracleLimit;
        let j = job(Some(50), 100);
        let info = p.limit_info(&j);
        assert_eq!(info.est.source, EstSource::Oracle);
        assert_eq!(info.est.value_us, j.actual_runtime.as_micros());
    }
}
