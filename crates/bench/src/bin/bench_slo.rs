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
//! * **multi_tenant**: a centralized Slurm deployment under `submit_stream`
//!   with outages, utilization-floor and inbox-depth objectives plus an
//!   EWMA anomaly detector over the master's memory footprint.
//!
//! The benchmark asserts the engine is non-perturbing (identical outcome
//! fingerprints with SLOs off and on) and writes breach
//! counts, time-to-detect, and evaluation overhead to `BENCH_SLO.json` at
//! the repository root, gated by the `slo` CI job.

use emu::{FaultPlanBuilder, NodeId};
use eslurm::SystemBuilder;
use eslurm_bench::{f, obj, outcome_fingerprint, print_table, write_bench, ExpArgs, Fig9Scale};
use obs::{AnomalySpec, MetricId, Sampler, SloEngine, SloReport, SloSpec};
use rm::{JobStream, RmProfile};
use serde::Value;
use simclock::{SimSpan, SimTime};
use std::time::Instant;

struct Scale {
    fig9: Fig9Scale,
    fault_events: usize,
    rm_slaves: usize,
}

impl Scale {
    /// `fault_events` small outages over `n` nodes within the horizon.
    fn faults(&self, n: usize) -> FaultPlanBuilder {
        FaultPlanBuilder::new(n, self.fig9.horizon, 0xFA17)
            .small_events(self.fault_events, 4)
            .mean_outage(SimSpan::from_secs(120))
    }
}

struct RunResult {
    slo_on: bool,
    wall_s: f64,
    events: u64,
    fingerprint: u64,
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

fn run_fig9(scale: &Scale, seed: u64, slo_on: bool) -> RunResult {
    let fig9 = &scale.fig9;
    let slo = if slo_on {
        fig9_slo()
    } else {
        SloEngine::disabled()
    };
    // The baseline keeps the same sampling cadence (ticks count as
    // events), so off/on runs see an identical event stream by design.
    let sampler = Sampler::every_until(SimSpan::from_secs(1), SimTime::ZERO + fig9.horizon);
    // Outages on the compute nodes only, placed past master + satellites
    // (same recipe as `eslurm slo-report`).
    let total = 1 + fig9.satellites + fig9.n_slaves;
    let faults = scale
        .faults(fig9.n_slaves)
        .build()
        .placed(1 + fig9.satellites, total);
    let run = fig9.run(seed, |b| {
        b.obs(obs::Recorder::metrics_only())
            .sampler(sampler)
            .faults(faults)
            .slo(slo)
    });
    RunResult {
        slo_on,
        wall_s: run.wall_s,
        events: run.sys.sim.events_processed(),
        fingerprint: run.fingerprint,
        report: run.sys.sim.slo_engine().report(),
    }
}

fn run_multi_tenant(scale: &Scale, seed: u64, slo_on: bool) -> RunResult {
    let horizon = SimTime::ZERO + scale.fig9.horizon;
    let slo = if slo_on {
        SloEngine::with_config(
            vec![
                SloSpec::master_inbox(100_000.0),
                SloSpec::utilization_floor(
                    MetricId::new("footprint_cpu_util").with("node", "master"),
                    0.0,
                ),
            ],
            vec![AnomalySpec::new(
                "master_mem_shift",
                MetricId::new("footprint_real_bytes").with("node", "master"),
            )],
        )
    } else {
        SloEngine::disabled()
    };
    let mut sys = SystemBuilder::new(RmProfile::slurm(), scale.rm_slaves, seed)
        .obs(obs::Recorder::metrics_only())
        .sampler(Sampler::every_until(SimSpan::from_secs(1), horizon))
        .faults(scale.faults(1 + scale.rm_slaves).build())
        .slo(slo)
        .build();
    sys.submit_stream(JobStream::new(
        scale.rm_slaves as u32,
        scale.fig9.horizon,
        240.0,
        64,
        SimSpan::from_secs(600),
        seed,
    ));
    let wall = Instant::now();
    sys.sim.run_until(horizon);
    let wall_s = wall.elapsed().as_secs_f64();

    let m = sys.sim.meter(NodeId::MASTER);
    let master = format!(
        "{:?}|{:?}|{}|{}",
        m.cpu_time(),
        m.msg_counts(),
        m.sockets(),
        m.peak_sockets()
    );

    RunResult {
        slo_on,
        wall_s,
        events: sys.sim.events_processed(),
        fingerprint: outcome_fingerprint(&sys.sim, [master]),
        report: sys.sim.slo_engine().report(),
    }
}

fn run_json(r: &RunResult, workload: &str) -> Value {
    let mut o = vec![
        ("workload", workload.into()),
        ("slo_enabled", r.slo_on.into()),
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
            fig9: Fig9Scale {
                n_slaves: 2_000,
                satellites: 4,
                horizon: SimSpan::from_secs(900),
                jobs_target: 300,
                max_job: 64,
            },
            fault_events: 4,
            rm_slaves: 400,
        }
    } else {
        Scale {
            fig9: Fig9Scale {
                n_slaves: 20_000,
                satellites: 8,
                horizon: SimSpan::from_secs(3600),
                jobs_target: 3_000,
                max_job: 128,
            },
            fault_events: 8,
            rm_slaves: 2_000,
        }
    };
    println!(
        "bench_slo: {} + {} nodes (fig9), {} nodes (multi_tenant), {} s horizon, {} outage events",
        scale.fig9.n_slaves,
        scale.fig9.satellites,
        scale.rm_slaves,
        scale.fig9.horizon.as_secs(),
        scale.fault_events
    );

    // fig9: SLOs off (the reference), then on. The fingerprints must
    // agree — the non-perturbation proof at benchmark scale.
    print!("  fig9 baseline (slo off) ... ");
    flush();
    let fig9_base = run_fig9(&scale, args.seed, false);
    println!("{} events", fig9_base.events);
    print!("  fig9 slo on ... ");
    flush();
    let head = run_fig9(&scale, args.seed, true);
    println!(
        "{} events in {:.2} s ({:.0} ev/s)",
        head.events,
        head.wall_s,
        head.events as f64 / head.wall_s.max(1e-9)
    );
    let fig9_match = head.fingerprint == fig9_base.fingerprint;

    print!("  multi_tenant baseline (slo off) ... ");
    flush();
    let mt_base = run_multi_tenant(&scale, args.seed, false);
    println!("{} events", mt_base.events);
    print!("  multi_tenant slo on ... ");
    flush();
    let mt = run_multi_tenant(&scale, args.seed, true);
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
                if r.slo_on { "on" } else { "off" }.to_string(),
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
