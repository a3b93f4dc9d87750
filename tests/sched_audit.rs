//! The scheduler decision audit log, end to end: non-perturbation
//! (bit-identical outcomes with auditing on/off, byte-identical logs for
//! the same seed, and logs pinned to committed hashes for three
//! scenarios), timeline completeness, the kill→resubmit estimate
//! hand-off, and reconciliation of the audit accuracy numbers against
//! `estimate::eval`'s percentile rule.

use eslurm_suite::eslurm::PredictiveLimit;
use eslurm_suite::estimate::{signed_error_percentiles, EstimatorConfig};
use eslurm_suite::obs::audit::{
    AuditReport, Decision, DecisionLog, DecisionRecord, EstSource, SkipReason,
};
use eslurm_suite::sched::prelude::{
    simulate, BackfillConfig, FairShareLedger, MultifactorPriority, Partition, PartitionSet,
    SchedAlgo, SchedPolicies, ScheduleReport,
};
use eslurm_suite::simclock::SimSpan;
use eslurm_suite::workload::TraceConfig;

/// The pinned audit scenario: the same fixed-seed workload the CLI's
/// `sched-report` defaults to, chosen because it exercises every decision
/// variant (backfills, both skip reasons, kills, resubmissions).
fn audited_run(audit: DecisionLog) -> ScheduleReport {
    let jobs = TraceConfig::small(400, 42).generate();
    let mut policy = PredictiveLimit::new(EstimatorConfig::default());
    let cfg = BackfillConfig {
        algo: SchedAlgo::Easy,
        audit,
        ..BackfillConfig::new(64)
    };
    simulate(&jobs, &mut policy, &cfg)
}

/// The pinned conservative scenario (a second seed and cluster size).
fn conservative_run(audit: DecisionLog) -> ScheduleReport {
    let jobs = TraceConfig::small(300, 17).generate();
    let mut policy = PredictiveLimit::new(EstimatorConfig::default());
    let cfg = BackfillConfig {
        algo: SchedAlgo::Conservative,
        audit,
        ..BackfillConfig::new(48)
    };
    simulate(&jobs, &mut policy, &cfg)
}

/// Every policy layer at once: capped partitions with time limits, the
/// re-sorted multifactor queue and a charging fair-share ledger.
fn partitioned_multifactor_run(audit: DecisionLog) -> ScheduleReport {
    let jobs = TraceConfig::multi_tenant(500, 42)
        .with_users(200)
        .generate();
    let mut policy = PredictiveLimit::new(EstimatorConfig::default());
    let cfg = BackfillConfig {
        algo: SchedAlgo::Easy,
        audit,
        policies: SchedPolicies::default()
            .with_partitions(PartitionSet::new(vec![
                Partition::named("debug")
                    .job_nodes(0, Some(2))
                    .capacity(16)
                    .max_time(SimSpan::from_hours(2))
                    .qos(1.5),
                Partition::named("batch")
                    .job_nodes(3, Some(32))
                    .capacity(64)
                    .default_time(SimSpan::from_hours(4)),
                Partition::named("all"),
            ]))
            .with_priority(MultifactorPriority::slurm_default())
            .with_fairshare(FairShareLedger::new(SimSpan::from_hours(24), 48)),
        ..BackfillConfig::new(96)
    };
    simulate(&jobs, &mut policy, &cfg)
}

const EASY_GOLDEN: (u64, usize, u64) = (0xe0f200983dee2c1e, 2094, 0x5c147ca230b7e535);
const CONSERVATIVE_GOLDEN: (u64, usize, u64) = (0xaf0c7ccc5d77dc22, 1124, 0x64dffa86ede8c7e2);
const MULTI_TENANT_GOLDEN: (u64, usize, u64) = (0x148279a5376e049f, 4731, 0x88a107f06883e88e);

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(decision-log JSONL hash, record count, ScheduleReport debug hash)` of
/// an audited run.
fn golden(run: fn(DecisionLog) -> ScheduleReport) -> (u64, usize, u64) {
    let log = DecisionLog::unbounded();
    let report = run(log.clone());
    (
        fnv1a(log.to_jsonl().as_bytes()),
        log.len(),
        fnv1a(format!("{report:?}").as_bytes()),
    )
}

/// The decision log is what `why-job` renders and what the `pipeline`
/// benchmark workload derives its placement from, so a planner refactor
/// must reproduce it byte for byte. Values captured at commit 56d2fba
/// (the full-scan planner); regenerate only for an intended policy change.
#[test]
fn decision_logs_match_the_committed_goldens() {
    assert_eq!(
        golden(audited_run),
        EASY_GOLDEN,
        "easy: (log hash, records, report hash)"
    );
    assert_eq!(
        golden(conservative_run),
        CONSERVATIVE_GOLDEN,
        "conservative: (log hash, records, report hash)"
    );
    assert_eq!(
        golden(partitioned_multifactor_run),
        MULTI_TENANT_GOLDEN,
        "partitioned + multifactor: (log hash, records, report hash)"
    );
    // That pin is only worth having while the scenario reaches the
    // partition and priority decisions.
    let log = DecisionLog::unbounded();
    partitioned_multifactor_run(log.clone());
    let jsonl = log.to_jsonl();
    for decision in ["partition_full", "priority_ranked", "backfilled"] {
        assert!(jsonl.contains(&format!("\"{decision}\"")), "no {decision}");
    }
}

fn assert_reports_identical(a: &ScheduleReport, b: &ScheduleReport) {
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.killed, b.killed);
    assert_eq!(a.abandoned, b.abandoned);
    assert_eq!(
        a.occupied_node_secs.to_bits(),
        b.occupied_node_secs.to_bits()
    );
    assert_eq!(a.useful_node_secs.to_bits(), b.useful_node_secs.to_bits());
    assert_eq!(a.total_wait, b.total_wait);
    assert_eq!(a.total_slowdown.to_bits(), b.total_slowdown.to_bits());
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.nodes, b.nodes);
    assert_eq!(a.per_user, b.per_user);
}

#[test]
fn auditing_does_not_perturb_the_simulation() {
    let plain = audited_run(DecisionLog::disabled());
    let log = DecisionLog::unbounded();
    let audited = audited_run(log.clone());
    assert_reports_identical(&plain, &audited);
    assert!(!log.is_empty(), "enabled audit log stayed empty");
}

#[test]
fn same_seed_produces_byte_identical_logs() {
    let a = DecisionLog::unbounded();
    let b = DecisionLog::unbounded();
    audited_run(a.clone());
    audited_run(b.clone());
    let ja = a.to_jsonl();
    assert_eq!(ja, b.to_jsonl());
    assert!(!ja.is_empty());
    // Every line is one decision object with the mandatory fields.
    for line in ja.lines() {
        assert!(line.starts_with("{\"t_us\":"), "bad line {line}");
        assert!(line.contains("\"decision\":"), "bad line {line}");
        assert!(line.contains("\"est_us\":"), "bad line {line}");
        assert!(line.contains("\"source\":"), "bad line {line}");
    }
}

#[test]
fn conservative_auditing_is_also_non_perturbing() {
    let log = DecisionLog::unbounded();
    assert_reports_identical(
        &conservative_run(DecisionLog::disabled()),
        &conservative_run(log.clone()),
    );
    assert!(!log.is_empty());
}

#[test]
fn timelines_are_complete_and_ordered() {
    let log = DecisionLog::unbounded();
    let report = audited_run(log.clone());
    let records = log.records();

    let submitted: Vec<u64> = records
        .iter()
        .filter(|r| matches!(r.decision, Decision::Submitted))
        .map(|r| r.job)
        .collect();
    assert_eq!(submitted.len(), 400, "one Submitted per trace job");

    // Exercise coverage: this scenario hits every decision variant.
    let rep = AuditReport::from_records(&records);
    assert!(rep.backfills > 0, "no Backfilled decisions");
    assert!(rep.reservations > 0, "no ReservationPlaced decisions");
    assert!(rep.kills > 0, "no KilledAtLimit decisions");
    assert_eq!(rep.kills, report.killed);
    assert_eq!(rep.completions, report.completed);
    assert!(
        rep.skips.contains_key(SkipReason::NoFreeNodes.name()),
        "no no_free_nodes skips"
    );
    assert!(
        rep.skips.contains_key(SkipReason::WouldDelayHead.name()),
        "no would_delay_head skips"
    );

    for &job in &submitted {
        let tl: Vec<DecisionRecord> = records.iter().filter(|r| r.job == job).cloned().collect();
        // Virtual timestamps never go backwards within a job's timeline.
        assert!(
            tl.windows(2).all(|w| w[0].t_us <= w[1].t_us),
            "job {job} timeline out of order"
        );
        assert!(
            matches!(tl.first().map(|r| &r.decision), Some(Decision::Submitted)),
            "job {job} does not open with Submitted"
        );
        let started = tl
            .iter()
            .any(|r| matches!(r.decision, Decision::Started { .. }));
        let completed = tl
            .iter()
            .any(|r| matches!(r.decision, Decision::Completed { .. }));
        assert!(started, "job {job} never started");
        assert!(completed, "job {job} never completed");
        // A reservation always names at least one blocking running job —
        // that is the counterfactual `why-job` prints.
        for r in &tl {
            if let Decision::ReservationPlaced { blockers, .. } = &r.decision {
                assert!(
                    !blockers.is_empty(),
                    "job {job} reservation with no blockers"
                );
            }
        }
    }
}

#[test]
fn kill_resubmit_hands_the_estimate_off() {
    let log = DecisionLog::unbounded();
    audited_run(log.clone());
    let records = log.records();

    let mut kills = 0;
    let mut model_abandoned = 0;
    for (i, r) in records.iter().enumerate() {
        let Decision::KilledAtLimit {
            limit_us,
            actual_us,
        } = r.decision
        else {
            continue;
        };
        kills += 1;
        // The kill record carries the offending estimate, and the job
        // provably overran the limit derived from it.
        assert!(actual_us >= limit_us, "kill before the limit elapsed");
        assert!(r.est.value_us > 0);
        // The resubmission follows at the same instant, with a raised
        // limit; a model misprediction is abandoned for another source.
        let resub = records[i..]
            .iter()
            .find(|n| n.job == r.job && matches!(n.decision, Decision::Resubmitted { .. }))
            .unwrap_or_else(|| panic!("job {} killed but never resubmitted", r.job));
        let Decision::Resubmitted { new_limit_us, .. } = resub.decision else {
            unreachable!()
        };
        assert!(new_limit_us > limit_us, "resubmit limit did not grow");
        if r.est.source == EstSource::Model {
            assert_ne!(
                resub.est.source,
                EstSource::Model,
                "job {} kept a chronically underestimating model source",
                r.job
            );
            model_abandoned += 1;
        }
    }
    assert!(kills > 0, "scenario produced no kills");
    assert!(
        model_abandoned > 0,
        "scenario never exercised model-estimate abandonment"
    );
}

#[test]
fn report_accuracy_reconciles_with_estimate_eval_percentiles() {
    let log = DecisionLog::unbounded();
    audited_run(log.clone());
    let records = log.records();
    let rep = AuditReport::from_records(&records);

    // Rebuild each source's signed-error sample straight from the raw
    // decisions and push it through `estimate`'s percentile rule: the
    // audit report must agree exactly, so `eslurm sched-report` numbers
    // reconcile with `estimate::evaluate` on the same joined pairs.
    for (src, stats) in &rep.by_source {
        let mut errs: Vec<f64> = records
            .iter()
            .filter(|r| r.est.source.name() == *src)
            .filter_map(|r| match r.decision {
                Decision::Completed { est_error_us } => Some(est_error_us as f64 / 1e6),
                Decision::KilledAtLimit { actual_us, .. } => {
                    Some((r.est.value_us as f64 - actual_us as f64) / 1e6)
                }
                _ => None,
            })
            .collect();
        assert_eq!(stats.n, errs.len(), "sample size mismatch for {src}");
        let (p10, p50, p90) = signed_error_percentiles(&mut errs);
        assert_eq!(stats.p10_err_s.to_bits(), p10.to_bits(), "{src} p10");
        assert_eq!(stats.p50_err_s.to_bits(), p50.to_bits(), "{src} p50");
        assert_eq!(stats.p90_err_s.to_bits(), p90.to_bits(), "{src} p90");
        assert_eq!(
            stats.underestimates,
            errs.iter().filter(|&&e| e < 0.0).count(),
            "{src} underestimate count"
        );
    }
    // The model source joined predictions in this scenario.
    assert!(rep.by_source.get("model").map(|s| s.n).unwrap_or(0) > 0);
    // Every cluster row in the report came from model estimates only.
    let cluster_n: usize = rep.by_cluster.values().map(|s| s.n).sum();
    let model_n = rep.by_source.get("model").map(|s| s.n).unwrap_or(0);
    assert!(cluster_n <= model_n);
    assert!(cluster_n > 0, "no per-cluster accuracy rows");
}

#[test]
fn ring_cap_drops_oldest_but_keeps_counting() {
    let capped = DecisionLog::with_cap(64);
    audited_run(capped.clone());
    let full = DecisionLog::unbounded();
    audited_run(full.clone());
    assert_eq!(capped.len(), 64);
    assert!(capped.dropped() > 0);
    assert_eq!(capped.len() as u64 + capped.dropped(), full.len() as u64);
    // The capped ring holds exactly the newest suffix of the full log.
    let tail = &full.records()[full.len() - 64..];
    assert_eq!(eslurm_suite::obs::audit::to_jsonl(tail), capped.to_jsonl());
}
