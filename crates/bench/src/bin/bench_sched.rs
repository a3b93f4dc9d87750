//! Scheduler + audit benchmark: a fixed-seed backfill-and-estimation
//! workload run twice (decision auditing off, then on), reporting job-wait
//! percentiles, the backfill hit-rate, and the wall-clock overhead the
//! audit log adds to the simulation hot path.
//!
//! Writes `BENCH_SCHED.json` at the repository root (plus a table on
//! stdout) so CI can archive the numbers per commit. `--quick` shrinks
//! the trace, `--seed` varies it.

#![forbid(unsafe_code)]

use eslurm::PredictiveLimit;
use eslurm_bench::{f, pct, print_table, submit_to_start, time_ns, write_bench, ExpArgs};
use estimate::EstimatorConfig;
use obs::audit::{AuditReport, DecisionLog};
use sched::prelude::{simulate, BackfillConfig, SchedAlgo, ScheduleReport};
use workload::{Job, TraceConfig};

fn run(jobs: &[Job], nodes: u32, audit: DecisionLog) -> ScheduleReport {
    let mut policy = PredictiveLimit::new(EstimatorConfig::default());
    let cfg = BackfillConfig {
        algo: SchedAlgo::Easy,
        audit,
        ..BackfillConfig::new(nodes)
    };
    simulate(jobs, &mut policy, &cfg)
}

/// Per-job wait (submission → final start) in seconds, ascending,
/// reconstructed from the decision log itself.
fn waits_from_log(log: &DecisionLog) -> Vec<f64> {
    let mut waits: Vec<f64> = submit_to_start(&log.records())
        .into_iter()
        .map(|(_, sub, s)| (s - sub) as f64 / 1e6)
        .collect();
    waits.sort_by(f64::total_cmp);
    waits
}

fn main() {
    let args = ExpArgs::parse();
    let n_jobs = args.scale(4000, 400);
    let reps = args.scale(5, 2);
    let nodes = 128;
    let jobs = TraceConfig::small(n_jobs, args.seed).generate();

    // Timed passes: auditing off vs on, identical workload and policy.
    let off_ns = time_ns(
        || {
            std::hint::black_box(run(&jobs, nodes, DecisionLog::disabled()));
        },
        reps,
    );
    let on_ns = time_ns(
        || {
            std::hint::black_box(run(&jobs, nodes, DecisionLog::unbounded()));
        },
        reps,
    );
    let overhead_pct = (on_ns as f64 - off_ns as f64) / off_ns.max(1) as f64 * 100.0;

    // One audited pass for the scheduling metrics themselves.
    let log = DecisionLog::unbounded();
    let report = run(&jobs, nodes, log.clone());
    let audit = AuditReport::from_records(&log.records());
    let waits = waits_from_log(&log);
    let wait_p50 = pct(&waits, 0.50);
    let wait_p99 = pct(&waits, 0.99);

    print_table(
        "sched bench (fixed-seed backfill + estimation workload)",
        &["metric", "value"],
        &[
            vec!["jobs".into(), n_jobs.to_string()],
            vec!["completed".into(), report.completed.to_string()],
            vec!["killed".into(), report.killed.to_string()],
            vec!["wait p50 s".into(), f(wait_p50, 1)],
            vec!["wait p99 s".into(), f(wait_p99, 1)],
            vec![
                "backfill hit-rate".into(),
                format!("{}%", f(audit.backfill_hit_rate() * 100.0, 1)),
            ],
            vec!["utilization".into(), f(report.utilization(), 3)],
            vec!["sim (audit off) ms".into(), f(off_ns as f64 / 1e6, 1)],
            vec!["sim (audit on) ms".into(), f(on_ns as f64 / 1e6, 1)],
            vec!["audit overhead".into(), format!("{}%", f(overhead_pct, 1))],
            vec!["decisions logged".into(), log.len().to_string()],
        ],
    );

    println!();
    write_bench(
        "SCHED",
        "bench_sched",
        &args,
        vec![
            ("jobs", (n_jobs as u64).into()),
            ("nodes", (nodes as u64).into()),
            ("completed", (report.completed as u64).into()),
            ("killed", (report.killed as u64).into()),
            ("wait_p50_s", wait_p50.into()),
            ("wait_p99_s", wait_p99.into()),
            ("backfill_hit_rate", audit.backfill_hit_rate().into()),
            ("utilization", report.utilization().into()),
            ("sim_audit_off_ns", off_ns.into()),
            ("sim_audit_on_ns", on_ns.into()),
            ("audit_overhead_pct", overhead_pct.into()),
            ("decisions_logged", (log.len() as u64).into()),
        ],
    );
}
