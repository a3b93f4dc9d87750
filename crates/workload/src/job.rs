//! The job model.
//!
//! Field choices mirror what an RM sees at submission time (the paper's
//! Table IV features) plus the two ground-truth quantities the evaluation
//! needs: the user-supplied walltime estimate and the actual runtime.

use serde::{DeError, Deserialize, Serialize, Value};
use simclock::{SimSpan, SimTime};

/// Identifier of a job. IDs are assigned in submission order, which is what
/// makes the paper's "job correlation vs. ID gap" analysis (Fig. 5c)
/// meaningful.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct JobId(pub u64);

/// Identifier of a user account.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UserId(pub u32);

// Newtype ids serialize as their bare numbers (the offline serde stub has
// no derive macro, so these impls are written out).
impl Serialize for JobId {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for JobId {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        u64::from_value(v).map(JobId)
    }
}

impl Serialize for UserId {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for UserId {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        u32::from_value(v).map(UserId)
    }
}

/// One batch job as recorded in a workload trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Submission-order id.
    pub id: JobId,
    /// Job (script) name, e.g. `cfd_sim.14`.
    pub name: String,
    /// Owning user.
    pub user: UserId,
    /// Nodes requested.
    pub nodes: u32,
    /// Cores per node requested.
    pub cores_per_node: u32,
    /// Submission time.
    pub submit: SimTime,
    /// Walltime limit supplied by the user (`None` when omitted).
    pub user_estimate: Option<SimSpan>,
    /// Ground-truth runtime the job needs when run to completion.
    pub actual_runtime: SimSpan,
}

impl Serialize for Job {
    fn to_value(&self) -> Value {
        let mut m = std::collections::BTreeMap::new();
        m.insert("id".to_string(), self.id.to_value());
        m.insert("name".to_string(), self.name.to_value());
        m.insert("user".to_string(), self.user.to_value());
        m.insert("nodes".to_string(), self.nodes.to_value());
        m.insert("cores_per_node".to_string(), self.cores_per_node.to_value());
        m.insert("submit".to_string(), self.submit.to_value());
        m.insert("user_estimate".to_string(), self.user_estimate.to_value());
        m.insert("actual_runtime".to_string(), self.actual_runtime.to_value());
        Value::Object(m)
    }
}

impl Deserialize for Job {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Job {
            id: serde::field(v, "id")?,
            name: serde::field(v, "name")?,
            user: serde::field(v, "user")?,
            nodes: serde::field(v, "nodes")?,
            cores_per_node: serde::field(v, "cores_per_node")?,
            submit: serde::field(v, "submit")?,
            user_estimate: serde::field(v, "user_estimate")?,
            actual_runtime: serde::field(v, "actual_runtime")?,
        })
    }
}

/// The trace horizon, in µs: a loaded job's submit time plus the longer of
/// its runtime and its estimate may not pass 2^53 µs (about 285 years),
/// where every time is still exact in an `f64` and a simulation's sums
/// over it stay far inside `u64`.
pub(crate) const MAX_TRACE_US: u64 = 1 << 53;

impl Job {
    /// `Err` naming the field that takes the job past [`MAX_TRACE_US`]:
    /// `submit` itself, or the longer of `actual_runtime` and
    /// `user_estimate` added to it.
    pub(crate) fn check_horizon(&self) -> Result<(), String> {
        let submit = self.submit.as_micros();
        if submit > MAX_TRACE_US {
            return Err(format!(
                "submit {submit} µs is past the 2^53 µs trace horizon"
            ));
        }
        let (field, span) = match self.user_estimate {
            Some(e) if e > self.actual_runtime => ("user_estimate", e),
            _ => ("actual_runtime", self.actual_runtime),
        };
        if span.as_micros() > MAX_TRACE_US - submit {
            return Err(format!(
                "submit + {field} = {submit} + {} µs is past the 2^53 µs trace horizon",
                span.as_micros()
            ));
        }
        Ok(())
    }

    /// Total cores requested.
    pub fn cores(&self) -> u64 {
        self.nodes as u64 * self.cores_per_node as u64
    }

    /// Submission hour-of-day in `[0, 24)` (the Table IV feature).
    pub fn submit_hour(&self) -> u32 {
        ((self.submit.as_secs() / 3600) % 24) as u32
    }

    /// Estimation accuracy `P = t_s / t_r` of the user estimate (Fig. 5a);
    /// `None` when the user gave no estimate. `P > 1` is overestimation.
    pub fn user_p(&self) -> Option<f64> {
        self.user_estimate
            .map(|e| e.as_secs_f64() / self.actual_runtime.as_secs_f64().max(1.0))
    }

    /// The paper's correlation criterion: two jobs are correlated when they
    /// share a name, request the same resources, and have similar runtimes
    /// (within a factor of two).
    pub fn correlated_with(&self, other: &Job) -> bool {
        if self.name != other.name
            || self.nodes != other.nodes
            || self.cores_per_node != other.cores_per_node
        {
            return false;
        }
        let a = self.actual_runtime.as_secs_f64().max(1.0);
        let b = other.actual_runtime.as_secs_f64().max(1.0);
        let ratio = if a > b { a / b } else { b / a };
        ratio <= 2.0
    }
}

/// A stable numeric code for a job name (used as the SWF "executable
/// number").
pub fn name_code(name: &str) -> u32 {
    let mut h: u32 = 2166136261;
    for b in name.as_bytes() {
        h ^= *b as u32;
        h = h.wrapping_mul(16777619);
    }
    h >> 8 // keep it positive and readable in SWF files
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(name: &str, nodes: u32, runtime_s: u64, submit_s: u64) -> Job {
        Job {
            id: JobId(0),
            name: name.to_string(),
            user: UserId(1),
            nodes,
            cores_per_node: 12,
            submit: SimTime::from_secs(submit_s),
            user_estimate: Some(SimSpan::from_secs(2 * runtime_s)),
            actual_runtime: SimSpan::from_secs(runtime_s),
        }
    }

    #[test]
    fn cores_and_hour() {
        let j = job("a", 4, 100, 3600 * 26 + 120);
        assert_eq!(j.cores(), 48);
        assert_eq!(j.submit_hour(), 2);
    }

    #[test]
    fn p_is_overestimation_ratio() {
        let j = job("a", 1, 100, 0);
        assert!((j.user_p().unwrap() - 2.0).abs() < 1e-9);
        let mut no_est = j.clone();
        no_est.user_estimate = None;
        assert!(no_est.user_p().is_none());
    }

    #[test]
    fn correlation_criterion() {
        let a = job("cfd", 8, 1000, 0);
        assert!(a.correlated_with(&job("cfd", 8, 1500, 50)));
        assert!(
            !a.correlated_with(&job("cfd", 8, 2500, 50)),
            "runtime too far"
        );
        assert!(
            !a.correlated_with(&job("cfd", 16, 1000, 50)),
            "different nodes"
        );
        assert!(
            !a.correlated_with(&job("bio", 8, 1000, 50)),
            "different name"
        );
    }

    #[test]
    fn trace_round_trips_through_json() {
        let j = job("cfd.7", 128, 7200, 86_400);
        let s = serde_json::to_string(&j).unwrap();
        let back: Job = serde_json::from_str(&s).unwrap();
        assert_eq!(j, back);
    }
}
