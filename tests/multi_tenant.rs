//! The multi-tenant policy layers, end to end: the zero-cost-default
//! guarantee (an explicit default `SchedPolicies` bundle is bit-identical
//! to the policy-unaware scheduler on the fig9/fig10 seeds),
//! order-independence of the fair-share decay ledger for same-virtual-time
//! completions, and the multifactor audit contract (`PriorityRanked`
//! factor contributions sum exactly to the composed priority).

use eslurm_suite::eslurm::PredictiveLimit;
use eslurm_suite::estimate::EstimatorConfig;
use eslurm_suite::obs::audit::{Decision, DecisionLog};
use eslurm_suite::sched::prelude::{
    simulate, BackfillConfig, FairShareLedger, MultifactorPriority, PartitionSet, SchedAlgo,
    SchedPolicies, ScheduleReport,
};
use eslurm_suite::simclock::{SimSpan, SimTime};
use eslurm_suite::workload::TraceConfig;
use proptest::prelude::*;

/// The explicit spelling of the default bundle: single default partition,
/// uniform priority, disabled fair-share. Must be indistinguishable from
/// never mentioning policies at all.
fn explicit_default_policies() -> SchedPolicies {
    SchedPolicies::default()
        .with_partitions(PartitionSet::single_default())
        .with_priority(MultifactorPriority::uniform())
        .with_fairshare(FairShareLedger::disabled())
}

fn run_queue_sim(
    trace: &TraceConfig,
    nodes: u32,
    algo: SchedAlgo,
    policies: Option<SchedPolicies>,
) -> ScheduleReport {
    let jobs = trace.clone().generate();
    let mut policy = PredictiveLimit::new(EstimatorConfig::default());
    let mut cfg = BackfillConfig {
        algo,
        ..BackfillConfig::new(nodes)
    };
    if let Some(p) = policies {
        cfg.policies = p;
    }
    simulate(&jobs, &mut policy, &cfg)
}

fn assert_reports_identical(a: &ScheduleReport, b: &ScheduleReport, label: &str) {
    assert_eq!(a.completed, b.completed, "{label}: completed");
    assert_eq!(a.killed, b.killed, "{label}: killed");
    assert_eq!(a.abandoned, b.abandoned, "{label}: abandoned");
    assert_eq!(
        a.occupied_node_secs.to_bits(),
        b.occupied_node_secs.to_bits(),
        "{label}: occupied_node_secs"
    );
    assert_eq!(
        a.useful_node_secs.to_bits(),
        b.useful_node_secs.to_bits(),
        "{label}: useful_node_secs"
    );
    assert_eq!(a.total_wait, b.total_wait, "{label}: total_wait");
    assert_eq!(
        a.total_slowdown.to_bits(),
        b.total_slowdown.to_bits(),
        "{label}: total_slowdown"
    );
    assert_eq!(a.makespan, b.makespan, "{label}: makespan");
    assert_eq!(a.nodes, b.nodes, "{label}: nodes");
    assert_eq!(a.per_user, b.per_user, "{label}: per_user");
}

/// Default partition + uniform priority + disabled fair-share reproduces
/// the policy-unaware scheduler bit for bit, on the fig9/fig10 default
/// seed and a second seed, under both backfill disciplines.
#[test]
fn explicit_default_policies_are_bit_identical_to_implicit() {
    for (trace, nodes, label) in [
        (TraceConfig::small(400, 42), 64, "small/seed42"),
        (TraceConfig::small(300, 17), 48, "small/seed17"),
        (
            TraceConfig::tianhe2a().with_seed(42).with_jobs(500),
            4096,
            "tianhe2a/seed42",
        ),
    ] {
        for algo in [SchedAlgo::Easy, SchedAlgo::Conservative] {
            let implicit = run_queue_sim(&trace, nodes, algo, None);
            let explicit = run_queue_sim(&trace, nodes, algo, Some(explicit_default_policies()));
            assert_reports_identical(&implicit, &explicit, &format!("{label}/{algo:?}"));
        }
    }
}

/// The same guarantee holds for the decision stream itself: with auditing
/// on, the explicit default bundle emits a byte-identical log (no
/// `PriorityRanked` records sneak in, no decision reorders).
#[test]
fn explicit_default_policies_emit_byte_identical_audit_logs() {
    let trace = TraceConfig::small(400, 42);
    let run = |policies: Option<SchedPolicies>, audit: DecisionLog| {
        let jobs = trace.clone().generate();
        let mut policy = PredictiveLimit::new(EstimatorConfig::default());
        let mut cfg = BackfillConfig {
            algo: SchedAlgo::Easy,
            audit,
            ..BackfillConfig::new(64)
        };
        if let Some(p) = policies {
            cfg.policies = p;
        }
        simulate(&jobs, &mut policy, &cfg)
    };
    let a = DecisionLog::unbounded();
    let b = DecisionLog::unbounded();
    run(None, a.clone());
    run(Some(explicit_default_policies()), b.clone());
    let ja = a.to_jsonl();
    assert!(!ja.is_empty());
    assert_eq!(ja, b.to_jsonl(), "default policies perturbed the audit log");
    assert!(
        !ja.contains("priority_ranked"),
        "uniform priority must never emit PriorityRanked records"
    );
}

/// Multifactor smoke: a prioritized, fair-share-charged run records
/// `PriorityRanked` decisions whose per-factor contributions sum exactly
/// to the composed priority — the invariant `eslurm why-job` prints from.
#[test]
fn multifactor_factors_sum_to_priority() {
    let trace = TraceConfig::multi_tenant(500, 42).with_users(200);
    let jobs = trace.generate();
    let mut policy = PredictiveLimit::new(EstimatorConfig::default());
    let log = DecisionLog::unbounded();
    let cfg = BackfillConfig {
        algo: SchedAlgo::Easy,
        audit: log.clone(),
        policies: SchedPolicies::default()
            .with_priority(MultifactorPriority::slurm_default())
            .with_fairshare(FairShareLedger::new(SimSpan::from_hours(24), 48)),
        ..BackfillConfig::new(128)
    };
    let report = simulate(&jobs, &mut policy, &cfg);
    assert!(report.completed > 0);

    let mut ranked = 0usize;
    for r in log.records() {
        if let Decision::PriorityRanked {
            priority_milli,
            factors,
            ..
        } = &r.decision
        {
            ranked += 1;
            assert!(!factors.is_empty(), "ranked decision with no factors");
            let sum: i64 = factors.iter().map(|(_, c)| c).sum();
            assert_eq!(
                sum, *priority_milli,
                "job {}: factor contributions do not sum to the priority",
                r.job
            );
            let names: Vec<&str> = factors.iter().map(|(n, _)| *n).collect();
            assert!(names.contains(&"fair-share"), "missing fair-share factor");
            assert!(names.contains(&"age"), "missing age factor");
            assert!(names.contains(&"size"), "missing size factor");
        }
    }
    assert!(
        ranked > 0,
        "multifactor run produced no PriorityRanked records"
    );
}

/// One (user, cores, busy-ms) completion charge.
fn charge_strategy() -> impl Strategy<Value = (u32, u64, u64)> {
    (0u32..40, 1u64..2000, 1u64..100_000_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fair-share decay is order-independent for same-virtual-time
    /// completions: charging the same set in any permutation leaves every
    /// per-user usage, per-user factor, and the cluster total bitwise
    /// identical — the property that makes the sharded DES's
    /// drain-order-agnostic completion delivery safe to account from.
    #[test]
    fn fairshare_same_time_charges_commute_bitwise(
        charges in prop::collection::vec(charge_strategy(), 1..40),
        order in prop::collection::vec(0usize..1usize << 16, 1..40),
        now_s in 0u64..10_000_000,
        half_life_h in 1u64..10_000,
        banks in 0u32..64,
    ) {
        let now = SimTime::from_secs(now_s);
        let half_life = SimSpan::from_hours(half_life_h);

        let forward = FairShareLedger::new(half_life, banks);
        for &(u, c, ms) in &charges {
            forward.charge(u, c, SimSpan::from_millis(ms), now);
        }

        // An arbitrary permutation of the same charge set.
        let mut shuffled: Vec<usize> = (0..charges.len()).collect();
        for (i, &r) in order.iter().take(charges.len()).enumerate() {
            shuffled.swap(i, r % charges.len());
        }
        let permuted = FairShareLedger::new(half_life, banks);
        for &i in &shuffled {
            let (u, c, ms) = charges[i];
            permuted.charge(u, c, SimSpan::from_millis(ms), now);
        }

        // Read at several horizons so decay epochs are exercised too.
        for later_s in [0u64, 1, 3600, 86_400 * 30] {
            let at = SimTime::from_secs(now_s + later_s);
            prop_assert_eq!(
                forward.total_usage(at).to_bits(),
                permuted.total_usage(at).to_bits(),
                "total usage diverged at +{}s", later_s
            );
            for &(u, _, _) in &charges {
                prop_assert_eq!(
                    forward.usage(u, at).to_bits(),
                    permuted.usage(u, at).to_bits(),
                    "user {} usage diverged at +{}s", u, later_s
                );
                prop_assert_eq!(
                    forward.factor(u, at).to_bits(),
                    permuted.factor(u, at).to_bits(),
                    "user {} factor diverged at +{}s", u, later_s
                );
            }
        }
    }
}
