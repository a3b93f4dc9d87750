//! `bench_multi` — multi-tenant scheduling benchmark: the same
//! thousands-of-users trace run under FIFO ordering and under the
//! multifactor priority stack (fair-share + age + size), reporting
//! queue-wait percentiles, per-user and per-bank wait fairness, and
//! priority-inversion counts for each policy.
//!
//! Also gates the policy layers' zero-cost default: a run through
//! `BackfillConfig::new` (no policies mentioned at all) must
//! fingerprint-identically match a run that spells out the default
//! uniform priority and disabled fair-share ledger — the benchmark aborts
//! otherwise.
//!
//! Writes `BENCH_MULTI.json` at the repository root (plus tables on
//! stdout) so the `multi-tenant` CI job can archive and gate the numbers.
//! `--quick` shrinks the trace, `--seed` varies it.

#![forbid(unsafe_code)]

use eslurm::PredictiveLimit;
use eslurm_bench::{
    f, fnv64, obj, pct, print_table, submit_to_start, write_bench, ExpArgs, FNV_OFFSET,
};
use estimate::EstimatorConfig;
use obs::audit::{Decision, DecisionLog};
use sched::prelude::{
    bank_of, simulate, BackfillConfig, FairShareLedger, MultifactorPriority, SchedAlgo,
    SchedPolicies, ScheduleReport,
};
use serde::Value;
use simclock::SimSpan;
use std::collections::BTreeMap;
use workload::{Job, TraceConfig};

/// Outcome fingerprint of one scheduling run: every field a correctness
/// test would compare, floats by bit pattern.
fn fingerprint(r: &ScheduleReport) -> u64 {
    let mut h = FNV_OFFSET;
    for v in [
        r.completed as u64,
        r.killed as u64,
        r.abandoned as u64,
        r.occupied_node_secs.to_bits(),
        r.useful_node_secs.to_bits(),
        r.total_wait.as_micros(),
        r.total_slowdown.to_bits(),
        r.makespan.as_micros(),
        r.nodes as u64,
    ] {
        h = fnv64(&v.to_le_bytes(), h);
    }
    for (&u, &(n, w)) in &r.per_user {
        h = fnv64(&(u as u64).to_le_bytes(), h);
        h = fnv64(&(n as u64).to_le_bytes(), h);
        h = fnv64(&w.as_micros().to_le_bytes(), h);
    }
    h
}

/// Per-job outcome joined from the decision log: submission time, final
/// start time, and the last priority the multifactor ranking assigned
/// (i64::MIN when the run never ranked it — i.e. FIFO).
struct JobOutcome {
    submit_us: u64,
    start_us: u64,
    prio_milli: i64,
}

fn outcomes_from_log(log: &DecisionLog) -> Vec<JobOutcome> {
    let records = log.records();
    let mut prio: BTreeMap<u64, i64> = BTreeMap::new();
    for r in &records {
        if let Decision::PriorityRanked { priority_milli, .. } = r.decision {
            prio.insert(r.job, priority_milli);
        }
    }
    submit_to_start(&records)
        .into_iter()
        .map(|(job, submit_us, start_us)| JobOutcome {
            submit_us,
            start_us,
            prio_milli: prio.get(&job).copied().unwrap_or(i64::MIN),
        })
        .collect()
}

/// Priority inversions: ordered pairs where `a` outranked `b` and was
/// already waiting when `b` started, yet `b` started first. Under FIFO
/// the rank is submission order, so this counts queue jumps (mostly
/// benign backfill); under multifactor it is the genuine inversion count
/// the policy stack is supposed to shrink. O(n²) by design — the job
/// counts here keep it cheap, and exactness beats sampling for a gate.
fn inversions(outcomes: &[JobOutcome]) -> u64 {
    let ranked = outcomes.iter().any(|o| o.prio_milli != i64::MIN);
    let mut inv = 0u64;
    for a in outcomes {
        for b in outcomes {
            let a_outranks = if ranked {
                a.prio_milli > b.prio_milli
            } else {
                a.submit_us < b.submit_us
            };
            if a_outranks && a.submit_us <= b.start_us && a.start_us > b.start_us {
                inv += 1;
            }
        }
    }
    inv
}

struct PolicyRun {
    name: &'static str,
    report: ScheduleReport,
    wait_p50: f64,
    wait_p90: f64,
    wait_p99: f64,
    unfairness: f64,
    bank_unfairness: f64,
    inversions: u64,
}

fn run_policy(
    name: &'static str,
    jobs: &[Job],
    nodes: u32,
    banks: u32,
    policies: SchedPolicies,
) -> PolicyRun {
    let log = DecisionLog::unbounded();
    let mut limit = PredictiveLimit::new(EstimatorConfig::default());
    let cfg = BackfillConfig {
        algo: SchedAlgo::Easy,
        audit: log.clone(),
        policies,
        ..BackfillConfig::new(nodes)
    };
    let report = simulate(jobs, &mut limit, &cfg);

    let outcomes = outcomes_from_log(&log);
    let mut waits: Vec<f64> = outcomes
        .iter()
        .map(|o| (o.start_us - o.submit_us) as f64 / 1e6)
        .collect();
    waits.sort_by(f64::total_cmp);

    // Per-bank mean waits (the fair-share tree's second level): max/mean
    // ratio, same convention as `ScheduleReport::wait_unfairness`.
    let mut per_bank: BTreeMap<u32, (usize, f64)> = BTreeMap::new();
    for (&u, &(n, w)) in &report.per_user {
        let e = per_bank.entry(bank_of(u, banks)).or_insert((0, 0.0));
        e.0 += n;
        e.1 += w.as_secs_f64();
    }
    let bank_means: Vec<f64> = per_bank
        .values()
        .filter(|&&(n, _)| n > 0)
        .map(|&(n, w)| w / n as f64)
        .collect();
    let bank_unfairness = if bank_means.is_empty() {
        1.0
    } else {
        let mean = bank_means.iter().sum::<f64>() / bank_means.len() as f64;
        if mean <= 0.0 {
            1.0
        } else {
            bank_means.iter().fold(0.0, |a: f64, &b| a.max(b)) / mean
        }
    };

    PolicyRun {
        name,
        wait_p50: pct(&waits, 0.50),
        wait_p90: pct(&waits, 0.90),
        wait_p99: pct(&waits, 0.99),
        unfairness: report.wait_unfairness(),
        bank_unfairness,
        inversions: inversions(&outcomes),
        report,
    }
}

fn main() {
    let args = ExpArgs::parse();
    let n_jobs = args.scale(6000, 600);
    let users = args.scale(2500, 300);
    let nodes = 256u32;
    let banks = 48u32;
    let trace = TraceConfig::multi_tenant(n_jobs, args.seed).with_users(users);
    let jobs = trace.generate();

    // ---- zero-cost-default gate: not mentioning the policy layers and
    //      spelling out their defaults must be bit-identical.
    let implicit = {
        let mut limit = PredictiveLimit::new(EstimatorConfig::default());
        let cfg = BackfillConfig {
            algo: SchedAlgo::Easy,
            ..BackfillConfig::new(nodes)
        };
        fingerprint(&simulate(&jobs, &mut limit, &cfg))
    };
    let explicit = {
        let mut limit = PredictiveLimit::new(EstimatorConfig::default());
        let cfg = BackfillConfig {
            algo: SchedAlgo::Easy,
            policies: SchedPolicies::default()
                .with_priority(MultifactorPriority::uniform())
                .with_fairshare(FairShareLedger::disabled()),
            ..BackfillConfig::new(nodes)
        };
        fingerprint(&simulate(&jobs, &mut limit, &cfg))
    };
    let default_config_identical = implicit == explicit;

    // ---- the policy comparison itself.
    let runs = [
        run_policy("fifo", &jobs, nodes, banks, SchedPolicies::default()),
        run_policy(
            "multifactor",
            &jobs,
            nodes,
            banks,
            SchedPolicies::default()
                .with_priority(MultifactorPriority::slurm_default())
                .with_fairshare(FairShareLedger::new(SimSpan::from_hours(24), banks)),
        ),
    ];

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.report.completed.to_string(),
                f(r.wait_p50, 1),
                f(r.wait_p90, 1),
                f(r.wait_p99, 1),
                f(r.unfairness, 2),
                f(r.bank_unfairness, 2),
                r.inversions.to_string(),
                f(r.report.utilization(), 3),
            ]
        })
        .collect();
    print_table(
        &format!("bench_multi — {n_jobs} jobs, {users} users, {banks} banks, {nodes} nodes"),
        &[
            "policy",
            "completed",
            "wait p50 s",
            "wait p90 s",
            "wait p99 s",
            "user unfair",
            "bank unfair",
            "inversions",
            "utilization",
        ],
        &rows,
    );
    println!(
        "\n  default-config fingerprints {} ({implicit:016x} vs {explicit:016x})",
        if default_config_identical {
            "IDENTICAL"
        } else {
            "DIVERGED — the policy layers are not zero-cost by default"
        }
    );

    let policies = runs.iter().map(|r| {
        obj([
            ("policy", r.name.into()),
            ("completed", (r.report.completed as u64).into()),
            ("killed", (r.report.killed as u64).into()),
            ("wait_p50_s", r.wait_p50.into()),
            ("wait_p90_s", r.wait_p90.into()),
            ("wait_p99_s", r.wait_p99.into()),
            ("user_unfairness", r.unfairness.into()),
            ("bank_unfairness", r.bank_unfairness.into()),
            ("priority_inversions", r.inversions.into()),
            ("utilization", r.report.utilization().into()),
        ])
    });
    write_bench(
        "MULTI",
        "bench_multi",
        &args,
        vec![
            ("jobs", (n_jobs as u64).into()),
            ("users", (users as u64).into()),
            ("banks", (banks as u64).into()),
            ("nodes", (nodes as u64).into()),
            ("default_config_identical", default_config_identical.into()),
            ("policies", Value::Array(policies.collect())),
        ],
    );

    assert!(
        default_config_identical,
        "implicit and explicit default policies diverged"
    );
}
