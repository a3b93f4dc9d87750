//! The two job-level workloads, `sched_predict` and `sched_backfill`: a
//! Tianhe-2A-like trace through `sched::simulate` under EASY backfill,
//! with walltime limits from the estimation framework or from the user.

use crate::pass::{ensure, Pass, Stopwatch, Violation};
use crate::replay;
use crate::stats::Fnv;
use crate::trace::{CallStats, Tracer};
use eslurm::PredictiveLimit;
use estimate::EstimatorConfig;
use obs::audit::{AuditReport, DecisionLog};
use rand::RngExt;
use sched::prelude::{simulate, BackfillConfig, LimitInfo, LimitPolicy, ScheduleReport, UserLimit};
use simclock::rng::stream_rng;
use simclock::{SimSpan, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use workload::{Job, JobId, TraceConfig};

/// Frozen parameters of a job-level workload.
#[derive(Clone, Debug)]
pub struct SchedParams {
    pub nodes: u32,
    /// Span of the trace's submissions.
    pub horizon: SimSpan,
    pub jobs: usize,
    /// Limits from `PredictiveLimit` (else `UserLimit`).
    pub predictive: bool,
}

/// The estimator's interest window, as `fig10` sets it.
pub const WINDOW: usize = 2_000;

/// Records the audited pass keeps (the most recent ones). The deep queue
/// of `sched_backfill` logs 7 M decisions, over a gigabyte if all were
/// kept and then snapshotted; the hit rate is taken over this tail.
const AUDIT_CAP: usize = 2_000_000;

/// Largest shift of a submit time, in seconds.
const SUBMIT_JITTER_S: f64 = 60.0;

impl SchedParams {
    /// `estimate` and `ml` do most of the work. The cluster is underloaded
    /// (utilization 0.3), so the queue stays shallow and the scheduler's
    /// own share is small and steady; a saturated queue would add
    /// `sched_backfill`'s seed-to-seed spread to this workload too.
    pub fn predict() -> Self {
        SchedParams {
            nodes: 1_024,
            horizon: SimSpan::from_hours(120 * 24),
            jobs: 66_000,
            predictive: true,
        }
    }

    /// An overloaded, deep queue that bypasses the estimator entirely.
    pub fn backfill() -> Self {
        SchedParams {
            nodes: 512,
            horizon: SimSpan::from_hours(38 * 24),
            jobs: 60_000,
            predictive: false,
        }
    }

    /// A 200-node miniature with the same shape, for tests.
    #[cfg(test)]
    pub fn miniature(mut self) -> Self {
        self.nodes = 200;
        self.horizon = SimSpan::from_hours(10 * 24);
        self.jobs = 1_500;
        self
    }

    /// The trace `fig10::trace_for` generates, with the job count frozen
    /// instead of sized from a pilot sample, and the population frozen at
    /// the preset's own seed.
    ///
    /// A seed-drawn population is no steady input: 120 Zipf-weighted users
    /// with five templates each make a trace's node-seconds, and with them
    /// the queue depth and the scheduler's work, swing severalfold from
    /// seed to seed (measured 0.3 s to 4.8 s on `sched_backfill`). So
    /// `seed` perturbs the one frozen trace instead: every submit time
    /// moves by up to [`SUBMIT_JITTER_S`], which reorders arrivals and so
    /// changes backfill decisions while the load stays put. Backfill near
    /// saturation is chaotic in its cost: on `sched_backfill` wall time
    /// spreads 10-13 % across seeds whether submits move by 0.5 s or by
    /// 60 s, at every load and trace size tried, and summing several
    /// smaller perturbed traces per pass did not narrow it. Jittering
    /// runtimes as well only adds to it (it changes which jobs are killed
    /// at their limit), so runtimes are left alone.
    pub fn trace(&self, seed: u64) -> Vec<Job> {
        let mut cfg = TraceConfig::tianhe2a().with_jobs(self.jobs);
        cfg.max_nodes = (self.nodes / 2).max(64);
        cfg.horizon = self.horizon;
        cfg.no_estimate_prob = 0.33;
        let mut jobs = cfg.generate();
        let mut rng = stream_rng(seed, 0x7ACE);
        for j in &mut jobs {
            j.submit += SimSpan::from_secs_f64(rng.random::<f64>() * SUBMIT_JITTER_S);
        }
        renumber(&mut jobs);
        jobs
    }

    pub fn estimator(&self) -> EstimatorConfig {
        EstimatorConfig {
            window: WINDOW,
            ..Default::default()
        }
    }
}

/// Sort by submit time and hand out ids in that order, as the generator
/// does.
pub fn renumber(jobs: &mut [Job]) {
    jobs.sort_by_key(|j| (j.submit, j.id));
    for (i, j) in jobs.iter_mut().enumerate() {
        j.id = JobId(i as u64);
    }
}

/// What the decorator needs to know about a policy beyond `LimitPolicy`.
pub trait Estimating: LimitPolicy {
    /// Model retrainings so far.
    fn retrains(&self) -> u64 {
        0
    }
    /// `(overall AEA, share of limits that came from the model)`.
    fn accuracy(&self) -> (f64, f64) {
        (0.0, 0.0)
    }
}

impl Estimating for UserLimit {}

impl Estimating for PredictiveLimit {
    fn retrains(&self) -> u64 {
        self.estimator().retrain_count()
    }
    fn accuracy(&self) -> (f64, f64) {
        let total = self.model_limits + self.user_limits;
        (
            self.estimator().overall_aea(),
            self.model_limits as f64 / total.max(1) as f64,
        )
    }
}

/// `Timed<P: LimitPolicy>`: times every call the scheduler makes into the
/// policy. Calls during which the retrain count advanced are also
/// recorded under `estimate.retrain`.
pub struct TimedPolicy<P> {
    inner: P,
    limit: Arc<CallStats>,
    retrain: Arc<CallStats>,
    resubmit: Arc<CallStats>,
    on_complete: Arc<CallStats>,
}

impl<P: Estimating> TimedPolicy<P> {
    pub fn new(inner: P, tracer: &mut Tracer) -> Self {
        TimedPolicy {
            inner,
            limit: tracer.calls("estimate.limit"),
            retrain: tracer.calls("estimate.retrain"),
            resubmit: tracer.calls("estimate.resubmit"),
            on_complete: tracer.calls("estimate.on_complete"),
        }
    }

    /// Seconds the scheduler spent inside the policy.
    fn total_s(&self) -> f64 {
        self.limit.sum_s() + self.resubmit.sum_s() + self.on_complete.sum_s()
    }
}

impl<P: Estimating> LimitPolicy for TimedPolicy<P> {
    fn limit(&mut self, job: &Job) -> SimSpan {
        self.limit_info(job).limit
    }

    fn limit_info(&mut self, job: &Job) -> LimitInfo {
        let before = self.inner.retrains();
        let start = Instant::now();
        let info = self.inner.limit_info(job);
        let ns = start.elapsed().as_nanos() as u64;
        self.limit.record(ns);
        if self.inner.retrains() != before {
            self.retrain.record(ns);
        }
        info
    }

    fn resubmit_info(&mut self, job: &Job, prev: LimitInfo, attempt: u32) -> LimitInfo {
        let start = Instant::now();
        let info = self.inner.resubmit_info(job, prev, attempt);
        self.resubmit.record(start.elapsed().as_nanos() as u64);
        info
    }

    fn on_complete(&mut self, job: &Job, now: SimTime) {
        let start = Instant::now();
        self.inner.on_complete(job, now);
        self.on_complete.record(start.elapsed().as_nanos() as u64);
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Fingerprint of a scheduling outcome: every `ScheduleReport` field.
pub fn fingerprint(report: &ScheduleReport) -> u64 {
    let mut h = Fnv::default();
    h.debug(report);
    h.0
}

/// The invariants of a job-level outcome.
pub fn check(report: &ScheduleReport, jobs: usize) -> Result<(), Violation> {
    ensure(report.completed + report.abandoned == jobs, || {
        format!(
            "{} completed + {} abandoned of {jobs} submitted",
            report.completed, report.abandoned
        )
    })?;
    let denom = report.nodes as f64 * report.makespan.as_secs_f64();
    ensure(report.occupied_node_secs <= denom * (1.0 + 1e-9), || {
        format!(
            "utilization {} exceeds 1",
            report.occupied_node_secs / denom
        )
    })
}

/// One pass of a job-level workload.
pub fn run(
    p: &SchedParams,
    seed: u64,
    traced: bool,
    tracer: &mut Tracer,
) -> Result<Pass, Violation> {
    if p.predictive {
        run_with(p, seed, traced, tracer, PredictiveLimit::new(p.estimator()))
    } else {
        run_with(p, seed, traced, tracer, UserLimit::default())
    }
}

fn run_with<P: Estimating>(
    p: &SchedParams,
    seed: u64,
    traced: bool,
    tracer: &mut Tracer,
    mut policy: P,
) -> Result<Pass, Violation> {
    let setup = Instant::now();
    let jobs = tracer.span("workload.generate", |_| p.trace(seed));
    let cfg = BackfillConfig::new(p.nodes);
    let setup_s = setup.elapsed().as_secs_f64();

    let pass_of = |report: &ScheduleReport, wall_s, cpu_s| Pass {
        setup_s,
        wall_s,
        cpu_s,
        outcome_fp: fingerprint(report),
        attempted: jobs.len() as u64,
        failed: (jobs.len() - report.completed) as u64,
        layers: BTreeMap::new(),
    };

    let timed_simulate = |policy: &mut dyn LimitPolicy, tracer: &mut Tracer| {
        let watch = Stopwatch::start();
        let report = tracer.span("sched.simulate", |_| simulate(&jobs, policy, &cfg));
        let (wall_s, cpu_s) = watch.stop();
        check(&report, jobs.len()).map(|()| (report, wall_s, cpu_s))
    };

    if !traced {
        let (report, wall_s, cpu_s) = timed_simulate(&mut policy, tracer)?;
        return Ok(pass_of(&report, wall_s, cpu_s));
    }

    let mut policy = TimedPolicy::new(policy, tracer);
    let (report, wall_s, cpu_s) = timed_simulate(&mut policy, tracer)?;
    let mut pass = pass_of(&report, wall_s, cpu_s);

    let l = &mut pass.layers;
    policy_layers(l, tracer, &policy, jobs.len());
    l.insert("workload.generate_s", tracer.span_s("workload.generate"));
    l.insert("workload.jobs", jobs.len() as f64);
    l.insert("sched.completed", report.completed as f64);
    l.insert("sched.killed", report.killed as f64);
    l.insert("sched.util", report.utilization());
    l.insert("sched.wait_mean_s", report.avg_wait().as_secs_f64());
    Ok(pass)
}

/// The `estimate` and `sched` timing metrics of a decorated `simulate`.
pub fn policy_layers<P: Estimating>(
    l: &mut BTreeMap<&'static str, f64>,
    tracer: &Tracer,
    policy: &TimedPolicy<P>,
    jobs: usize,
) {
    let simulate_s = tracer.span_s("sched.simulate");
    let self_s = simulate_s - policy.total_s();
    let (aea, model_limit_frac) = policy.inner.accuracy();
    let limit_calls = policy.limit.count();
    let quantile_us = |q| {
        policy
            .limit
            .quantile_ns(q)
            .map_or(0.0, |ns| ns as f64 / 1e3)
    };
    l.insert("estimate.limit_s", policy.limit.sum_s());
    l.insert("estimate.limit_calls", limit_calls as f64);
    l.insert("estimate.limit_p50_us", quantile_us(0.5));
    l.insert("estimate.limit_p99_us", quantile_us(0.99));
    l.insert("estimate.on_complete_s", policy.on_complete.sum_s());
    l.insert("estimate.retrain_count", policy.inner.retrains() as f64);
    l.insert("estimate.retrain_s", policy.retrain.sum_s());
    l.insert(
        "estimate.estimate_ns_per_call",
        (policy.limit.sum_ns() - policy.retrain.sum_ns()) as f64 / limit_calls.max(1) as f64,
    );
    l.insert("estimate.aea", aea);
    l.insert("estimate.model_limit_frac", model_limit_frac);
    l.insert("sched.simulate_s", simulate_s);
    l.insert("sched.self_s", self_s);
    l.insert("sched.us_per_job", self_s * 1e6 / jobs.max(1) as f64);
}

/// The passes and replays only a traced run makes: an audited,
/// undecorated pass for the decision counts and the cost of auditing
/// (its outcome must equal `baseline`'s), then the queue and model
/// replays.
pub fn extras(
    p: &SchedParams,
    seed: u64,
    baseline: &Pass,
    l: &mut BTreeMap<&'static str, f64>,
) -> Result<(), Violation> {
    let jobs = p.trace(seed);
    let log = DecisionLog::with_cap(AUDIT_CAP);
    let cfg = BackfillConfig {
        audit: log.clone(),
        ..BackfillConfig::new(p.nodes)
    };
    let start = Instant::now();
    let report = if p.predictive {
        simulate(&jobs, &mut PredictiveLimit::new(p.estimator()), &cfg)
    } else {
        simulate(&jobs, &mut UserLimit::default(), &cfg)
    };
    let audited_s = start.elapsed().as_secs_f64();
    ensure(fingerprint(&report) == baseline.outcome_fp, || {
        "auditing changed the scheduling outcome".into()
    })?;
    let audit = AuditReport::from_records(&log.records());
    l.insert("sched.backfill_hit_rate", audit.backfill_hit_rate());
    l.insert("sched.decisions", (log.len() as u64 + log.dropped()) as f64);
    l.insert(
        "sched.audit_overhead_frac",
        audited_s / baseline.wall_s - 1.0,
    );

    replay::event_queue(l, jobs.len() as u64, seed);
    if p.predictive {
        let k = p.estimator().k.expect("the default estimator fixes k");
        replay::ml(l, &jobs, WINDOW, k, seed);
    }
    Ok(())
}
