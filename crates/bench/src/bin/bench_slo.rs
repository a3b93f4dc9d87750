//! `bench_slo` — overhead and detection benchmark for the online SLO
//! engine.
//!
//! Two faulted workloads, each run with the SLO engine off (baseline) and
//! on:
//!
//! * **fig9**: an ESlurm cluster under the fig9-style job stream
//!   (power-law sizes, exponential inter-arrival/runtimes) with injected
//!   compute-node outages, SLO specs tight enough that the sweep-p99
//!   objective breaches deterministically — measuring detection latency.
//! * **multi_tenant**: a centralized Slurm deployment under an `rm::JobStream`
//!   with outages, utilization-floor and inbox-depth objectives plus an
//!   EWMA anomaly detector over the master's memory footprint.
//!
//! The benchmark asserts the engine is non-perturbing (identical outcome
//! fingerprints with SLOs off and on) and writes breach
//! counts, time-to-detect, and evaluation overhead to `BENCH_SLO.json` at
//! the repository root, gated by the `slo` CI job.

#![forbid(unsafe_code)]

use emu::NodeId;
use eslurm::scenario::small_outages;
use eslurm::{Scenario, Stack, System, SystemBuilder};
use eslurm_bench::{
    f, fig9_scale, figure_fingerprint, obj, outcome_fingerprint, print_table, timed_run,
    write_bench, ExpArgs,
};
use obs::{AnomalySpec, MetricId, Recorder, Sampler, SloEngine, SloReport, SloSpec};
use rm::{JobStream, RmProfile};
use serde::Value;
use simclock::{SimSpan, SimTime};

/// The sizes of both workloads: fig9's compute nodes, satellites, jobs
/// expected within the horizon and largest job, and multi_tenant's
/// compute nodes.
struct Scale {
    n_slaves: usize,
    satellites: usize,
    jobs_target: u64,
    max_job: u32,
    rm_slaves: usize,
    horizon: SimSpan,
    fault_events: usize,
}

/// Seed of both workloads' outage draws.
const FAULT_SEED: u64 = 0xFA17;

struct RunResult {
    wall_s: f64,
    events: u64,
    fingerprint: u64,
    /// `None` when the SLO engine was off.
    report: Option<SloReport>,
}

/// The fig9 scenario's spec set: a deliberately unreachable sweep-p99
/// target (deterministic breach, so time-to-detect is always measured)
/// next to a generous inbox bound that must stay green.
fn fig9_slo() -> SloEngine {
    SloEngine::with_config(
        vec![SloSpec::sweep_p99(1.0), SloSpec::master_inbox(100_000.0)],
        vec![AnomalySpec::new(
            "inbox_shift",
            MetricId::new("tasks_in_flight"),
        )],
    )
}

/// The multi_tenant spec set: utilization-floor and inbox-depth
/// objectives plus an EWMA detector over the master's memory.
fn multi_tenant_slo() -> SloEngine {
    let master = |family| MetricId::new(family).with("node", "master");
    SloEngine::with_config(
        vec![
            SloSpec::master_inbox(100_000.0),
            SloSpec::utilization_floor(master("footprint_cpu_util"), 0.0),
        ],
        vec![AnomalySpec::new(
            "master_mem_shift",
            master("footprint_real_bytes"),
        )],
    )
}

/// Run `scenario` with a metrics recorder, a 1 Hz sampler, `slo` and
/// whatever `arm` adds, fingerprinted by `fingerprint`. The baseline keeps
/// the same sampling cadence (ticks count as events), so off/on runs see
/// an identical event stream by design.
fn measure<S: Stack>(
    scenario: Scenario<S>,
    slo: SloEngine,
    arm: impl FnOnce(SystemBuilder<S>) -> SystemBuilder<S>,
    fingerprint: fn(&System<S>) -> u64,
) -> RunResult {
    let sampler = Sampler::every_until(SimSpan::from_secs(1), scenario.horizon);
    let (sys, wall_s) = timed_run(scenario, |b| {
        arm(b.obs(Recorder::metrics_only()).sampler(sampler).slo(slo))
    });
    RunResult {
        wall_s,
        events: sys.sim.events_processed(),
        fingerprint: fingerprint(&sys),
        report: sys.sim.slo_engine().report(),
    }
}

fn run_fig9(scale: &Scale, seed: u64, slo: SloEngine) -> RunResult {
    // Small outages on the compute nodes only (the recipe of
    // `eslurm slo-report --faults`).
    let scenario = fig9_scale(
        scale.n_slaves,
        scale.satellites,
        scale.horizon,
        scale.jobs_target,
        scale.max_job,
        seed,
    )
    .small_outages(scale.fault_events, FAULT_SEED);
    measure(scenario, slo, |b| b, figure_fingerprint)
}

fn run_multi_tenant(scale: &Scale, seed: u64, slo: SloEngine) -> RunResult {
    let n = scale.rm_slaves;
    let stream = JobStream::new(
        n as u32,
        scale.horizon,
        240.0,
        64,
        SimSpan::from_secs(600),
        seed,
    );
    let scenario =
        Scenario::new(RmProfile::slurm(), n, seed, SimTime::ZERO + scale.horizon).arrivals(stream);
    // This plan is drawn over the whole layout, master included, so it is
    // armed as is rather than placed past the master: its pinned bytes
    // predate the scenario's compute-node placement.
    let faults = small_outages(1 + n, scale.horizon, scale.fault_events, FAULT_SEED);
    measure(
        scenario,
        slo,
        |b| b.faults(faults),
        |sys| {
            let m = sys.sim.meter(NodeId::MASTER);
            let master = format!(
                "{:?}|{:?}|{}|{}",
                m.cpu_time(),
                m.msg_counts(),
                m.sockets(),
                m.peak_sockets()
            );
            outcome_fingerprint(&sys.sim, [master])
        },
    )
}

fn run_json(r: &RunResult, workload: &str) -> Value {
    let mut o = vec![
        ("workload", workload.into()),
        ("slo_enabled", r.report.is_some().into()),
        ("wall_s", r.wall_s.into()),
        ("events", r.events.into()),
        (
            "events_per_sec",
            (r.events as f64 / r.wall_s.max(1e-9)).into(),
        ),
        ("fingerprint", format!("{:016x}", r.fingerprint).into()),
    ];
    if let Some(rep) = &r.report {
        let anomalies: u64 = rep.anomalies.iter().map(|a| a.anomalies).sum();
        let overhead = rep.eval_wall_ns as f64 / 1e9 / r.wall_s.max(1e-9);
        let detect: Vec<Value> = rep
            .specs
            .iter()
            .filter_map(|s| s.detect_us)
            .map(Value::from)
            .collect();
        o.extend([
            ("breach_count", rep.total_breaches().into()),
            ("unmet_specs", (rep.unmet() as u64).into()),
            ("anomalies", anomalies.into()),
            ("evals_total", rep.evals_total.into()),
            ("eval_wall_ns", rep.eval_wall_ns.into()),
            ("eval_overhead_fraction", overhead.into()),
        ]);
        if let Some(first) = detect.first() {
            o.push(("time_to_detect_us", first.clone()));
        }
        o.push(("detect_us", Value::Array(detect)));
    }
    obj(o)
}

fn main() {
    let args = ExpArgs::parse();
    let scale = if args.quick {
        Scale {
            n_slaves: 2_000,
            satellites: 4,
            jobs_target: 300,
            max_job: 64,
            rm_slaves: 400,
            horizon: SimSpan::from_secs(900),
            fault_events: 4,
        }
    } else {
        Scale {
            n_slaves: 20_000,
            satellites: 8,
            jobs_target: 3_000,
            max_job: 128,
            rm_slaves: 2_000,
            horizon: SimSpan::from_secs(3600),
            fault_events: 8,
        }
    };
    println!(
        "bench_slo: {} + {} nodes (fig9), {} nodes (multi_tenant), {} s horizon, {} outage events",
        scale.n_slaves,
        scale.satellites,
        scale.rm_slaves,
        scale.horizon.as_secs(),
        scale.fault_events
    );

    // fig9: SLOs off (the reference), then on. The fingerprints must
    // agree — the non-perturbation proof at benchmark scale.
    print!("  fig9 baseline (slo off) ... ");
    flush();
    let fig9_base = run_fig9(&scale, args.seed, SloEngine::disabled());
    println!("{} events", fig9_base.events);
    print!("  fig9 slo on ... ");
    flush();
    let head = run_fig9(&scale, args.seed, fig9_slo());
    println!(
        "{} events in {:.2} s ({:.0} ev/s)",
        head.events,
        head.wall_s,
        head.events as f64 / head.wall_s.max(1e-9)
    );
    let fig9_match = head.fingerprint == fig9_base.fingerprint;

    print!("  multi_tenant baseline (slo off) ... ");
    flush();
    let mt_base = run_multi_tenant(&scale, args.seed, SloEngine::disabled());
    println!("{} events", mt_base.events);
    print!("  multi_tenant slo on ... ");
    flush();
    let mt = run_multi_tenant(&scale, args.seed, multi_tenant_slo());
    println!(
        "{} events in {:.2} s ({:.0} ev/s)",
        mt.events,
        mt.wall_s,
        mt.events as f64 / mt.wall_s.max(1e-9)
    );
    let mt_match = mt.fingerprint == mt_base.fingerprint;
    let outcomes_match = fig9_match && mt_match;

    let all = [
        ("fig9", &fig9_base),
        ("fig9", &head),
        ("multi_tenant", &mt_base),
        ("multi_tenant", &mt),
    ];
    let rows: Vec<Vec<String>> = all
        .iter()
        .map(|&(w, r)| {
            let (breaches, detect, ov) = match &r.report {
                Some(rep) => (
                    rep.total_breaches().to_string(),
                    rep.specs
                        .iter()
                        .find_map(|s| s.detect_us)
                        .map(|d| format!("{:.1}s", d as f64 / 1e6))
                        .unwrap_or_else(|| "-".to_string()),
                    format!("{:.3}%", rep.eval_wall_ns as f64 / 1e7 / r.wall_s.max(1e-9)),
                ),
                None => ("-".to_string(), "-".to_string(), "-".to_string()),
            };
            vec![
                w.to_string(),
                if r.report.is_some() { "on" } else { "off" }.to_string(),
                f(r.wall_s, 2),
                f(r.events as f64 / r.wall_s.max(1e-9), 0),
                breaches,
                detect,
                ov,
                format!("{:016x}", r.fingerprint),
            ]
        })
        .collect();
    print_table(
        "bench_slo — online SLO evaluation overhead and detection",
        &[
            "workload",
            "slo",
            "wall s",
            "events/s",
            "breaches",
            "detect",
            "overhead",
            "fingerprint",
        ],
        &rows,
    );
    println!(
        "\n  outcomes {}",
        if outcomes_match {
            "IDENTICAL with SLOs off and on"
        } else {
            "DIVERGED — the SLO engine perturbed the run"
        }
    );

    // Headline fields the CI gate reads, from the slo-on fig9 run.
    let head_rep = head.report.as_ref().expect("slo-on run has a report");
    let detect = head_rep.specs.iter().find_map(|s| s.detect_us);
    let runs = all.iter().map(|&(w, r)| run_json(r, w)).collect();
    write_bench(
        "SLO",
        "bench_slo",
        &args,
        vec![
            ("outcomes_match", outcomes_match.into()),
            ("breach_count", head_rep.total_breaches().into()),
            ("time_to_detect_us", detect.map_or(Value::Null, Value::from)),
            ("eval_wall_ns", head_rep.eval_wall_ns.into()),
            ("evals_total", head_rep.evals_total.into()),
            (
                "events_per_sec",
                (head.events as f64 / head.wall_s.max(1e-9)).into(),
            ),
            ("runs", Value::Array(runs)),
        ],
    );

    assert!(outcomes_match, "the SLO engine perturbed run outcomes");
    assert!(
        head_rep.total_breaches() > 0,
        "the unreachable sweep objective must breach"
    );
}

fn flush() {
    use std::io::Write as _;
    std::io::stdout().flush().ok();
}
