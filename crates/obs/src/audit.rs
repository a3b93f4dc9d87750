//! The scheduler decision audit log: one typed, virtual-time-stamped
//! record per scheduling action, each carrying the runtime estimate
//! (value + source + cluster) the decision was based on.
//!
//! The paper's scheduling claim is that clustered SVR estimates make
//! backfill measurably better; this module is how that claim is audited
//! end-to-end. The backfill simulator appends a [`DecisionRecord`] every
//! time it submits, reserves for, backfills, skips, starts, kills,
//! resubmits, or completes a job. A [`DecisionLog`] is a cheap-clone
//! handle in the [`crate::Recorder`] style — disabled is a `None`, so
//! un-audited runs pay one inlined branch per call site — with a
//! ring-capped store evicting oldest-first.
//!
//! From the log, [`AuditReport`] derives the aggregate story: backfill
//! hit-rate, skip-reason counts, and per-source / per-cluster estimator
//! accuracy (signed-error percentiles, underestimate-kill attribution,
//! calibration buckets). [`render_timeline`] prints the `eslurm why-job`
//! view; [`render_report`] the `eslurm sched-report` view. Everything is
//! numeric or a static string, so [`to_jsonl`] is byte-for-byte
//! deterministic for a seed — the property the CI audit gate pins.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;

/// Where a walltime estimate came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EstSource {
    /// The user's walltime request.
    User,
    /// The estimation framework's per-cluster model.
    Model,
    /// An oracle (ablation upper bound).
    Oracle,
    /// A partition default — no user estimate, no model.
    Default,
}

impl EstSource {
    /// Stable lowercase name (used in exports and metric labels).
    pub fn name(&self) -> &'static str {
        match self {
            EstSource::User => "user",
            EstSource::Model => "model",
            EstSource::Oracle => "oracle",
            EstSource::Default => "default",
        }
    }

    /// Every source, in rendering order.
    pub fn all() -> &'static [EstSource] {
        &[
            EstSource::User,
            EstSource::Model,
            EstSource::Oracle,
            EstSource::Default,
        ]
    }
}

/// A runtime estimate with provenance, as the scheduler saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EstimateRef {
    /// The estimated runtime in microseconds (the value backfill planned
    /// with, before any kill-safety margin).
    pub value_us: u64,
    /// Which path produced it.
    pub source: EstSource,
    /// Cluster the job matched in the estimation model, if any.
    pub cluster: Option<u32>,
}

impl EstimateRef {
    /// An estimate of `value_us` from `source`, outside any cluster.
    pub fn new(value_us: u64, source: EstSource) -> Self {
        EstimateRef {
            value_us,
            source,
            cluster: None,
        }
    }

    /// Attach the matched cluster id.
    pub fn with_cluster(mut self, cluster: Option<u32>) -> Self {
        self.cluster = cluster;
        self
    }
}

/// Why a backfill candidate was not started.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SkipReason {
    /// Fewer nodes free than the job needs right now.
    NoFreeNodes,
    /// Starting now would push past the head job's reservation (EASY).
    WouldDelayHead,
    /// Starting now would push back another job's profile reservation
    /// (conservative backfill).
    WouldDelayReservation,
    /// The job's partition is at its concurrent-node capacity.
    PartitionFull,
}

impl SkipReason {
    /// Stable snake_case name (used in exports and report keys).
    pub fn name(&self) -> &'static str {
        match self {
            SkipReason::NoFreeNodes => "no_free_nodes",
            SkipReason::WouldDelayHead => "would_delay_head",
            SkipReason::WouldDelayReservation => "would_delay_reservation",
            SkipReason::PartitionFull => "partition_full",
        }
    }
}

/// One typed scheduler action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// The job entered the queue.
    Submitted,
    /// The multifactor priority (re)ranked the job in the queue. Recorded
    /// on material changes only; `factors` carries each factor's weighted
    /// contribution in milli-units, summing exactly to `priority_milli`.
    PriorityRanked {
        /// Composed priority × 1000.
        priority_milli: i64,
        /// Queue position after ordering (0 = head).
        rank: u32,
        /// `(factor name, weighted contribution × 1000)` per factor, in
        /// composition order.
        factors: Vec<(&'static str, i64)>,
    },
    /// The job became the blocked head of the queue.
    HeadOfQueue,
    /// A reservation was planned for the (head) job at `at_us`, blocked by
    /// the running jobs in `blockers` (the counterfactual set: the jobs
    /// whose planned ends the reservation waits for).
    ReservationPlaced {
        /// Virtual time the reservation starts.
        at_us: u64,
        /// Ids of the running jobs blocking an earlier start.
        blockers: Vec<u64>,
    },
    /// The job started ahead of the queue by backfilling.
    Backfilled {
        /// Slack left between the job's planned end and the head's
        /// reservation (0 when it ran on the reservation's spare nodes).
        slack_us: u64,
        /// The reserved head job it squeezed in front of.
        head_job: u64,
    },
    /// The job was a backfill candidate but was not started.
    SkippedBackfill {
        /// Why it stayed queued.
        reason: SkipReason,
    },
    /// The job's processes launched on `nodes` nodes.
    Started {
        /// Nodes allocated (after clamping to the cluster).
        nodes: u32,
    },
    /// The job ran into its walltime limit and was killed.
    KilledAtLimit {
        /// The limit it was killed at, µs.
        limit_us: u64,
        /// Its true runtime, µs (what the limit should have covered).
        actual_us: u64,
    },
    /// The killed job re-entered the queue with a fresh limit.
    Resubmitted {
        /// Resubmission attempt number (1 = first resubmit).
        attempt: u32,
        /// The new walltime limit, µs.
        new_limit_us: u64,
    },
    /// The job completed; the prediction is joined to its actual runtime.
    Completed {
        /// Signed estimate error in µs: estimate − actual, so negative
        /// means the runtime was underestimated.
        est_error_us: i64,
    },
}

impl Decision {
    /// Stable snake_case name (used in exports and timeline rendering).
    pub fn name(&self) -> &'static str {
        match self {
            Decision::Submitted => "submitted",
            Decision::PriorityRanked { .. } => "priority_ranked",
            Decision::HeadOfQueue => "head_of_queue",
            Decision::ReservationPlaced { .. } => "reservation_placed",
            Decision::Backfilled { .. } => "backfilled",
            Decision::SkippedBackfill { .. } => "skipped_backfill",
            Decision::Started { .. } => "started",
            Decision::KilledAtLimit { .. } => "killed_at_limit",
            Decision::Resubmitted { .. } => "resubmitted",
            Decision::Completed { .. } => "completed",
        }
    }
}

/// One audited scheduler action on one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Virtual time of the decision, µs.
    pub t_us: u64,
    /// The job the decision touched.
    pub job: u64,
    /// The estimate the decision was based on.
    pub est: EstimateRef,
    /// What the scheduler did.
    pub decision: Decision,
}

struct Ring {
    cap: usize,
    records: VecDeque<DecisionRecord>,
    dropped: u64,
}

/// Handle to a (possibly disabled) decision audit log. Clones share the
/// same ring; the default is disabled, making every call a no-op.
#[derive(Clone, Default)]
pub struct DecisionLog(Option<Rc<RefCell<Ring>>>);

impl std::fmt::Debug for DecisionLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("DecisionLog(disabled)"),
            Some(r) => write!(f, "DecisionLog(cap {})", r.borrow().cap),
        }
    }
}

impl DecisionLog {
    /// The no-op log: every call is an inlined early return.
    pub fn disabled() -> Self {
        DecisionLog(None)
    }

    /// A log retaining the most recent `cap` records (oldest evicted
    /// first). A cap of zero retains nothing but
    /// still counts drops.
    pub fn with_cap(cap: usize) -> Self {
        DecisionLog(Some(Rc::new(RefCell::new(Ring {
            cap,
            records: VecDeque::new(),
            dropped: 0,
        }))))
    }

    /// A log that never evicts (for `why-job` re-runs and tests).
    pub fn unbounded() -> Self {
        Self::with_cap(usize::MAX)
    }

    /// Whether any recording happens at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Append one record, evicting the oldest past the cap.
    pub fn record(&self, t_us: u64, job: u64, est: EstimateRef, decision: Decision) {
        if let Some(r) = &self.0 {
            let mut ring = r.borrow_mut();
            ring.records.push_back(DecisionRecord {
                t_us,
                job,
                est,
                decision,
            });
            while ring.records.len() > ring.cap {
                ring.records.pop_front();
                ring.dropped += 1;
            }
        }
    }

    /// Snapshot the retained records in recording order.
    pub fn records(&self) -> Vec<DecisionRecord> {
        match &self.0 {
            Some(r) => r.borrow().records.iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Retained records for one job, in recording order.
    pub fn for_job(&self, job: u64) -> Vec<DecisionRecord> {
        self.records()
            .into_iter()
            .filter(|r| r.job == job)
            .collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |r| r.borrow().records.len())
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted past the cap so far.
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |r| r.borrow().dropped)
    }

    /// Render the retained records as JSONL (see [`to_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        to_jsonl(&self.records())
    }
}

/// Append one record's extra fields (beyond the common prefix) as JSON.
fn push_decision_fields(out: &mut String, d: &Decision) {
    match d {
        Decision::Submitted | Decision::HeadOfQueue => {}
        Decision::PriorityRanked {
            priority_milli,
            rank,
            factors,
        } => {
            let _ = write!(
                out,
                ",\"priority_milli\":{priority_milli},\"rank\":{rank},\"factors\":{{"
            );
            for (i, (name, milli)) in factors.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{name}\":{milli}");
            }
            out.push('}');
        }
        Decision::ReservationPlaced { at_us, blockers } => {
            let _ = write!(out, ",\"at_us\":{at_us},\"blockers\":[");
            for (i, b) in blockers.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push(']');
        }
        Decision::Backfilled { slack_us, head_job } => {
            let _ = write!(out, ",\"slack_us\":{slack_us},\"head_job\":{head_job}");
        }
        Decision::SkippedBackfill { reason } => {
            let _ = write!(out, ",\"reason\":\"{}\"", reason.name());
        }
        Decision::Started { nodes } => {
            let _ = write!(out, ",\"nodes\":{nodes}");
        }
        Decision::KilledAtLimit {
            limit_us,
            actual_us,
        } => {
            let _ = write!(out, ",\"limit_us\":{limit_us},\"actual_us\":{actual_us}");
        }
        Decision::Resubmitted {
            attempt,
            new_limit_us,
        } => {
            let _ = write!(
                out,
                ",\"attempt\":{attempt},\"new_limit_us\":{new_limit_us}"
            );
        }
        Decision::Completed { est_error_us } => {
            let _ = write!(out, ",\"est_error_us\":{est_error_us}");
        }
    }
}

/// Render records as JSONL: one flat object per line, in recording order.
/// Every field is numeric or a static string, so the output is
/// byte-for-byte deterministic for a seed.
pub fn to_jsonl(records: &[DecisionRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for r in records {
        let _ = write!(
            out,
            "{{\"t_us\":{},\"job\":{},\"decision\":\"{}\",\"est_us\":{},\"source\":\"{}\"",
            r.t_us,
            r.job,
            r.decision.name(),
            r.est.value_us,
            r.est.source.name()
        );
        if let Some(c) = r.est.cluster {
            let _ = write!(out, ",\"cluster\":{c}");
        }
        push_decision_fields(&mut out, &r.decision);
        out.push_str("}\n");
    }
    out
}

/// Signed-error accuracy of one estimate source or cluster.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AccuracyStats {
    /// Predictions joined to an actual runtime (completions + kills).
    pub n: usize,
    /// Mean signed error in seconds (estimate − actual; negative means
    /// underestimated).
    pub mean_err_s: f64,
    /// 10th percentile of signed error, seconds.
    pub p10_err_s: f64,
    /// Median signed error, seconds.
    pub p50_err_s: f64,
    /// 90th percentile of signed error, seconds.
    pub p90_err_s: f64,
    /// Joined predictions where the estimate was below the actual runtime.
    pub underestimates: usize,
    /// Kills at the walltime limit attributed to this source/cluster (the
    /// cost of underestimation the slack variable α exists to control).
    pub kills: usize,
}

impl AccuracyStats {
    fn from_errors(errs: &mut [f64], kills: usize) -> Self {
        if errs.is_empty() {
            return AccuracyStats {
                kills,
                ..Default::default()
            };
        }
        errs.sort_by(f64::total_cmp);
        let n = errs.len();
        let pct = |q: f64| errs[(((n - 1) as f64) * q).round() as usize];
        AccuracyStats {
            n,
            mean_err_s: errs.iter().sum::<f64>() / n as f64,
            p10_err_s: pct(0.10),
            p50_err_s: pct(0.50),
            p90_err_s: pct(0.90),
            underestimates: errs.iter().filter(|&&e| e < 0.0).count(),
            kills,
        }
    }

    /// Fraction of joined predictions that underestimated.
    pub fn underestimate_rate(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.underestimates as f64 / self.n as f64
        }
    }
}

/// Bounds of the calibration buckets over the estimate/actual ratio.
pub const CALIBRATION_BOUNDS: &[(f64, &str)] = &[
    (0.5, "< 0.5x (severe under)"),
    (0.9, "0.5 - 0.9x (under)"),
    (1.1, "0.9 - 1.1x (calibrated)"),
    (2.0, "1.1 - 2x (over)"),
    (f64::INFINITY, ">= 2x (severe over)"),
];

/// The aggregate story a [`DecisionLog`] tells.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AuditReport {
    /// Jobs submitted (first submissions, not resubmits).
    pub submitted: usize,
    /// Start decisions, total.
    pub starts: usize,
    /// Starts that were backfills (jumped the queue).
    pub backfills: usize,
    /// Skip decisions by reason name, in name order.
    pub skips: BTreeMap<&'static str, usize>,
    /// Kills at the walltime limit.
    pub kills: usize,
    /// Resubmissions after kills.
    pub resubmits: usize,
    /// Completions (predictions joined to actual runtimes).
    pub completions: usize,
    /// Reservations placed for blocked heads.
    pub reservations: usize,
    /// Multifactor priority (re)rankings recorded.
    pub priority_updates: usize,
    /// Accuracy per estimate source, in source order.
    pub by_source: BTreeMap<&'static str, AccuracyStats>,
    /// Accuracy per model cluster, in cluster order.
    pub by_cluster: BTreeMap<u32, AccuracyStats>,
    /// Joined predictions per calibration bucket (estimate/actual ratio),
    /// in [`CALIBRATION_BOUNDS`] order.
    pub calibration: Vec<usize>,
}

impl AuditReport {
    /// Fold a decision log into the aggregate report.
    pub fn from_records(records: &[DecisionRecord]) -> Self {
        let mut rep = AuditReport {
            calibration: vec![0; CALIBRATION_BOUNDS.len()],
            ..Default::default()
        };
        let mut src_errs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut src_kills: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut cl_errs: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        let mut cl_kills: BTreeMap<u32, usize> = BTreeMap::new();
        for r in records {
            match &r.decision {
                Decision::Submitted => rep.submitted += 1,
                Decision::PriorityRanked { .. } => rep.priority_updates += 1,
                Decision::HeadOfQueue => {}
                Decision::ReservationPlaced { .. } => rep.reservations += 1,
                Decision::Backfilled { .. } => rep.backfills += 1,
                Decision::SkippedBackfill { reason } => {
                    *rep.skips.entry(reason.name()).or_default() += 1;
                }
                Decision::Started { .. } => rep.starts += 1,
                Decision::KilledAtLimit { actual_us, .. } => {
                    rep.kills += 1;
                    *src_kills.entry(r.est.source.name()).or_default() += 1;
                    if let Some(c) = r.est.cluster {
                        *cl_kills.entry(c).or_default() += 1;
                    }
                    // A kill joins the estimate to a lower bound of the
                    // actual runtime; it still counts toward calibration
                    // and the signed error (the job ran at least this
                    // long, so the underestimate is at least this bad).
                    let err_s = (r.est.value_us as f64 - *actual_us as f64) / 1e6;
                    src_errs.entry(r.est.source.name()).or_default().push(err_s);
                    if let Some(c) = r.est.cluster {
                        cl_errs.entry(c).or_default().push(err_s);
                    }
                    rep.bucket_ratio(r.est.value_us, *actual_us);
                }
                Decision::Resubmitted { .. } => rep.resubmits += 1,
                Decision::Completed { est_error_us } => {
                    rep.completions += 1;
                    let err_s = *est_error_us as f64 / 1e6;
                    src_errs.entry(r.est.source.name()).or_default().push(err_s);
                    if let Some(c) = r.est.cluster {
                        cl_errs.entry(c).or_default().push(err_s);
                    }
                    let actual = r.est.value_us as i64 - est_error_us;
                    rep.bucket_ratio(r.est.value_us, actual.max(0) as u64);
                }
            }
        }
        for (src, mut errs) in src_errs {
            let kills = src_kills.remove(src).unwrap_or(0);
            rep.by_source
                .insert(src, AccuracyStats::from_errors(&mut errs, kills));
        }
        for (src, kills) in src_kills {
            rep.by_source
                .insert(src, AccuracyStats::from_errors(&mut Vec::new(), kills));
        }
        for (c, mut errs) in cl_errs {
            let kills = cl_kills.remove(&c).unwrap_or(0);
            rep.by_cluster
                .insert(c, AccuracyStats::from_errors(&mut errs, kills));
        }
        for (c, kills) in cl_kills {
            rep.by_cluster
                .insert(c, AccuracyStats::from_errors(&mut Vec::new(), kills));
        }
        rep
    }

    fn bucket_ratio(&mut self, est_us: u64, actual_us: u64) {
        let ratio = est_us as f64 / (actual_us.max(1)) as f64;
        let idx = CALIBRATION_BOUNDS
            .iter()
            .position(|&(b, _)| ratio < b)
            .unwrap_or(CALIBRATION_BOUNDS.len() - 1);
        self.calibration[idx] += 1;
    }

    /// Head-of-line starts (starts that were not backfills).
    pub fn head_starts(&self) -> usize {
        self.starts.saturating_sub(self.backfills)
    }

    /// Fraction of starts that were backfills.
    pub fn backfill_hit_rate(&self) -> f64 {
        if self.starts == 0 {
            0.0
        } else {
            self.backfills as f64 / self.starts as f64
        }
    }
}

fn fmt_t(t_us: u64) -> String {
    format!("t={:.1}s", t_us as f64 / 1e6)
}

fn fmt_span_s(us: u64) -> String {
    format!("{:.0}s", us as f64 / 1e6)
}

fn fmt_est(e: &EstimateRef) -> String {
    match e.cluster {
        Some(c) => format!(
            "est {} ({}, cluster {c})",
            fmt_span_s(e.value_us),
            e.source.name()
        ),
        None => format!("est {} ({})", fmt_span_s(e.value_us), e.source.name()),
    }
}

/// Render one job's decision timeline — the `eslurm why-job` view.
/// Consecutive identical skip reasons were already deduplicated at
/// recording time, so every line is a state change.
pub fn render_timeline(job: u64, records: &[DecisionRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "job {job} — decision timeline");
    let rows: Vec<&DecisionRecord> = records.iter().filter(|r| r.job == job).collect();
    if rows.is_empty() {
        let _ = writeln!(out, "  (no decisions recorded for this job)");
        return out;
    }
    for r in rows {
        let what = match &r.decision {
            Decision::Submitted => format!("submitted           {}", fmt_est(&r.est)),
            Decision::PriorityRanked {
                priority_milli,
                rank,
                factors,
            } => {
                let parts: Vec<String> = factors
                    .iter()
                    .map(|(name, milli)| format!("{name} {:.2}", *milli as f64 / 1000.0))
                    .collect();
                format!(
                    "priority ranked     #{} at {:.2} ({})",
                    rank + 1,
                    *priority_milli as f64 / 1000.0,
                    parts.join(", ")
                )
            }
            Decision::HeadOfQueue => "head of queue       blocked, waiting for nodes".to_string(),
            Decision::ReservationPlaced { at_us, blockers } => {
                let ids: Vec<String> = blockers.iter().map(|b| b.to_string()).collect();
                format!(
                    "reservation placed  for t={:.1}s, blocked by jobs [{}]",
                    *at_us as f64 / 1e6,
                    ids.join(", ")
                )
            }
            Decision::Backfilled { slack_us, head_job } => format!(
                "backfilled          ahead of head job {head_job} with {} slack, {}",
                fmt_span_s(*slack_us),
                fmt_est(&r.est)
            ),
            Decision::SkippedBackfill { reason } => {
                let why = match reason {
                    SkipReason::NoFreeNodes => "not enough free nodes",
                    SkipReason::WouldDelayHead => "would delay the reserved head",
                    SkipReason::WouldDelayReservation => "would delay another reservation",
                    SkipReason::PartitionFull => "its partition is at capacity",
                };
                format!("skipped backfill    {why} ({})", fmt_est(&r.est))
            }
            Decision::Started { nodes } => format!("started             on {nodes} nodes"),
            Decision::KilledAtLimit {
                limit_us,
                actual_us,
            } => format!(
                "killed at limit     limit {} < actual {} — {}",
                fmt_span_s(*limit_us),
                fmt_span_s(*actual_us),
                fmt_est(&r.est)
            ),
            Decision::Resubmitted {
                attempt,
                new_limit_us,
            } => format!(
                "resubmitted         attempt {attempt}, new limit {} ({})",
                fmt_span_s(*new_limit_us),
                fmt_est(&r.est)
            ),
            Decision::Completed { est_error_us } => {
                let sign = if *est_error_us < 0 { "-" } else { "+" };
                format!(
                    "completed           est error {sign}{:.0}s ({})",
                    est_error_us.unsigned_abs() as f64 / 1e6,
                    fmt_est(&r.est)
                )
            }
        };
        let _ = writeln!(out, "  {:>12}  {what}", fmt_t(r.t_us));
    }
    out
}

/// Render the aggregate report — the `eslurm sched-report` view.
pub fn render_report(rep: &AuditReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== scheduling decisions ({} submitted, {} completed)",
        rep.submitted, rep.completions
    );
    let _ = writeln!(
        out,
        "  starts:           {} (head {}, backfilled {})  backfill hit-rate {:.1}%",
        rep.starts,
        rep.head_starts(),
        rep.backfills,
        100.0 * rep.backfill_hit_rate()
    );
    let _ = writeln!(out, "  reservations:     {}", rep.reservations);
    if rep.priority_updates > 0 {
        let _ = writeln!(out, "  priority updates: {}", rep.priority_updates);
    }
    for (reason, n) in &rep.skips {
        let _ = writeln!(out, "  skipped backfill: {n:>6}  {reason}");
    }
    let _ = writeln!(
        out,
        "  kills at limit:   {}   resubmissions: {}",
        rep.kills, rep.resubmits
    );
    let _ = writeln!(
        out,
        "== estimator accuracy (signed error = estimate - actual)"
    );
    let _ = writeln!(
        out,
        "  {:<8} {:>6} {:>10} {:>10} {:>10} {:>10} {:>7} {:>6}",
        "source", "n", "mean", "p10", "p50", "p90", "under%", "kills"
    );
    for (src, s) in &rep.by_source {
        let _ = writeln!(
            out,
            "  {:<8} {:>6} {:>9.0}s {:>9.0}s {:>9.0}s {:>9.0}s {:>6.1}% {:>6}",
            src,
            s.n,
            s.mean_err_s,
            s.p10_err_s,
            s.p50_err_s,
            s.p90_err_s,
            100.0 * s.underestimate_rate(),
            s.kills
        );
    }
    if !rep.by_cluster.is_empty() {
        let _ = writeln!(out, "== per-cluster accuracy (model estimates)");
        let _ = writeln!(
            out,
            "  {:<8} {:>6} {:>10} {:>10} {:>7} {:>6}",
            "cluster", "n", "mean", "p50", "under%", "kills"
        );
        for (c, s) in &rep.by_cluster {
            let _ = writeln!(
                out,
                "  {:<8} {:>6} {:>9.0}s {:>9.0}s {:>6.1}% {:>6}",
                c,
                s.n,
                s.mean_err_s,
                s.p50_err_s,
                100.0 * s.underestimate_rate(),
                s.kills
            );
        }
    }
    let _ = writeln!(out, "== calibration (estimate / actual runtime)");
    for (i, &(_, label)) in CALIBRATION_BOUNDS.iter().enumerate() {
        let _ = writeln!(out, "  {:<24} {}", label, rep.calibration[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, job: u64, est_s: u64, src: EstSource, d: Decision) -> DecisionRecord {
        DecisionRecord {
            t_us: t,
            job,
            est: EstimateRef::new(est_s * 1_000_000, src),
            decision: d,
        }
    }

    #[test]
    fn disabled_log_is_inert() {
        let log = DecisionLog::disabled();
        log.record(
            1,
            0,
            EstimateRef::new(1, EstSource::User),
            Decision::Submitted,
        );
        assert!(!log.enabled());
        assert!(log.is_empty());
        assert!(log.to_jsonl().is_empty());
    }

    #[test]
    fn ring_cap_evicts_oldest_first() {
        let log = DecisionLog::with_cap(2);
        for t in 0..5 {
            log.record(
                t,
                t,
                EstimateRef::new(1, EstSource::User),
                Decision::Submitted,
            );
        }
        let kept: Vec<u64> = log.records().iter().map(|r| r.t_us).collect();
        assert_eq!(kept, vec![3, 4]);
        assert_eq!(log.dropped(), 3);
    }

    #[test]
    fn clones_share_the_ring() {
        let log = DecisionLog::unbounded();
        let log2 = log.clone();
        log2.record(
            7,
            3,
            EstimateRef::new(1, EstSource::Model).with_cluster(Some(4)),
            Decision::Started { nodes: 2 },
        );
        assert_eq!(log.len(), 1);
        assert_eq!(log.for_job(3).len(), 1);
        assert!(log.for_job(9).is_empty());
    }

    #[test]
    fn jsonl_round_trips_fields() {
        let log = DecisionLog::unbounded();
        log.record(
            10,
            5,
            EstimateRef::new(600_000_000, EstSource::Model).with_cluster(Some(3)),
            Decision::ReservationPlaced {
                at_us: 99,
                blockers: vec![1, 2],
            },
        );
        log.record(
            20,
            5,
            EstimateRef::new(600_000_000, EstSource::Model).with_cluster(Some(3)),
            Decision::Completed { est_error_us: -42 },
        );
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("\"decision\":\"reservation_placed\"")
                && lines[0].contains("\"blockers\":[1,2]")
                && lines[0].contains("\"cluster\":3"),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"est_error_us\":-42"), "{}", lines[1]);
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(text, log.to_jsonl());
    }

    #[test]
    fn report_counts_and_hit_rate() {
        let records = vec![
            rec(0, 1, 100, EstSource::User, Decision::Submitted),
            rec(0, 2, 100, EstSource::User, Decision::Submitted),
            rec(1, 1, 100, EstSource::User, Decision::Started { nodes: 1 }),
            rec(
                2,
                2,
                100,
                EstSource::User,
                Decision::SkippedBackfill {
                    reason: SkipReason::WouldDelayHead,
                },
            ),
            rec(
                3,
                2,
                100,
                EstSource::User,
                Decision::Backfilled {
                    slack_us: 5,
                    head_job: 9,
                },
            ),
            rec(3, 2, 100, EstSource::User, Decision::Started { nodes: 1 }),
            rec(
                9,
                1,
                100,
                EstSource::User,
                Decision::Completed {
                    est_error_us: 50_000_000,
                },
            ),
        ];
        let rep = AuditReport::from_records(&records);
        assert_eq!(rep.submitted, 2);
        assert_eq!(rep.starts, 2);
        assert_eq!(rep.backfills, 1);
        assert_eq!(rep.head_starts(), 1);
        assert!((rep.backfill_hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(rep.skips["would_delay_head"], 1);
        let user = &rep.by_source["user"];
        assert_eq!(user.n, 1);
        assert!((user.mean_err_s - 50.0).abs() < 1e-9);
        assert_eq!(user.underestimates, 0);
        // est 100s over actual 50s => ratio 2 => severe-over bucket.
        assert_eq!(*rep.calibration.last().unwrap(), 1);
    }

    #[test]
    fn kills_attribute_to_the_offending_source_and_cluster() {
        let records = vec![DecisionRecord {
            t_us: 5,
            job: 1,
            est: EstimateRef::new(10_000_000, EstSource::Model).with_cluster(Some(2)),
            decision: Decision::KilledAtLimit {
                limit_us: 20_000_000,
                actual_us: 50_000_000,
            },
        }];
        let rep = AuditReport::from_records(&records);
        assert_eq!(rep.kills, 1);
        assert_eq!(rep.by_source["model"].kills, 1);
        assert_eq!(rep.by_source["model"].underestimates, 1);
        assert_eq!(rep.by_cluster[&2].kills, 1);
        // est/actual = 0.2 => severe-under bucket.
        assert_eq!(rep.calibration[0], 1);
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let mut errs: Vec<f64> = (0..11).map(|i| i as f64 - 5.0).collect();
        let s = AccuracyStats::from_errors(&mut errs, 0);
        assert_eq!(s.n, 11);
        assert_eq!(s.p10_err_s, -4.0);
        assert_eq!(s.p50_err_s, 0.0);
        assert_eq!(s.p90_err_s, 4.0);
        assert_eq!(s.underestimates, 5);
        assert!((s.mean_err_s - 0.0).abs() < 1e-9);
    }

    #[test]
    fn timeline_renders_every_decision_kind() {
        let records = vec![
            rec(1_000_000, 7, 600, EstSource::User, Decision::Submitted),
            rec(2_000_000, 7, 600, EstSource::User, Decision::HeadOfQueue),
            rec(
                2_000_000,
                7,
                600,
                EstSource::User,
                Decision::ReservationPlaced {
                    at_us: 9_000_000,
                    blockers: vec![3, 4],
                },
            ),
            rec(
                9_000_000,
                7,
                600,
                EstSource::User,
                Decision::Started { nodes: 8 },
            ),
            rec(
                20_000_000,
                7,
                600,
                EstSource::User,
                Decision::Completed {
                    est_error_us: -1_000_000,
                },
            ),
        ];
        let text = render_timeline(7, &records);
        for needle in [
            "job 7",
            "submitted",
            "head of queue",
            "blocked by jobs [3, 4]",
            "started",
            "est error -1s",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(render_timeline(99, &records).contains("no decisions recorded"));
    }

    #[test]
    fn priority_ranked_renders_factors_in_jsonl_and_timeline() {
        let ranked = Decision::PriorityRanked {
            priority_milli: 3_110,
            rank: 2,
            factors: vec![
                ("fair-share", 1_500),
                ("age", 310),
                ("size", 100),
                ("qos", 1_200),
            ],
        };
        let log = DecisionLog::unbounded();
        log.record(
            5_000_000,
            9,
            EstimateRef::new(1, EstSource::User),
            ranked.clone(),
        );
        let line = log.to_jsonl();
        assert!(
            line.contains("\"decision\":\"priority_ranked\"")
                && line.contains("\"priority_milli\":3110")
                && line.contains("\"rank\":2")
                && line.contains(
                    "\"factors\":{\"fair-share\":1500,\"age\":310,\"size\":100,\"qos\":1200}"
                ),
            "{line}"
        );
        let text = render_timeline(9, &log.records());
        for needle in [
            "priority ranked",
            "#3 at 3.11",
            "fair-share 1.50",
            "age 0.31",
            "qos 1.20",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        let rep = AuditReport::from_records(&log.records());
        assert_eq!(rep.priority_updates, 1);
        assert!(render_report(&rep).contains("priority updates: 1"));
    }

    #[test]
    fn report_renders_hit_rate_and_sources() {
        let records = vec![
            rec(0, 1, 100, EstSource::Model, Decision::Submitted),
            rec(1, 1, 100, EstSource::Model, Decision::Started { nodes: 1 }),
            rec(
                2,
                1,
                100,
                EstSource::Model,
                Decision::Completed { est_error_us: 0 },
            ),
        ];
        let text = render_report(&AuditReport::from_records(&records));
        assert!(text.contains("backfill hit-rate"));
        assert!(text.contains("model"));
        assert!(text.contains("calibration"));
    }
}
