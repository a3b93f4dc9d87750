//! The CLI subcommands.

use crate::error::CliError;
use crate::opts::Opts;
use emu::{FaultPlan, FaultPlanBuilder, NodeId, Outage};
use eslurm::{EslurmConfig, EslurmSystem, EslurmSystemBuilder, PredictiveLimit};
use estimate::{
    evaluate, forest_baseline, svm_baseline, EslurmPredictor, EstimatorConfig, Irpa, Last2, Prep,
    RuntimePredictor, Trip, UserEstimate,
};
use obs::audit::{render_report, render_timeline, AuditReport};
use obs::causal::{render_critical_path, render_flow_summaries, render_tree};
use obs::{
    build_traces, compare_csv, flow_summaries, mem_profile_compiled, DecisionLog, DiffOptions,
    EngineProfiler, FlightConfig, FlowKind, MemProfiler, Recorder, Sampler, SeriesStore, SloEngine,
    TraceTree,
};
use sched::prelude::{
    simulate as run_schedule, BackfillConfig, FairShareLedger, LimitPolicy, MultifactorPriority,
    OracleLimit, SchedAlgo, SchedPolicies, ScheduleReport, UserLimit,
};
use simclock::{SimSpan, SimTime};
use std::path::Path;
use workload::{stats, swf, trace, Job, TraceConfig};

/// One subcommand: its name, a one-line summary, and the flags it takes.
pub struct CmdSpec {
    /// The subcommand name as typed on the command line.
    pub name: &'static str,
    /// One-line summary shown in help.
    pub summary: &'static str,
    /// Accepted `--flags`.
    pub flags: &'static [&'static str],
}

/// Every subcommand the CLI knows, in help order.
pub const COMMANDS: &[CmdSpec] = &[
    CmdSpec {
        name: "gen-trace",
        summary: "generate a synthetic workload trace",
        flags: &["jobs", "system", "seed", "out"],
    },
    CmdSpec {
        name: "analyze",
        summary: "workload statistics for a trace",
        flags: &["samples", "seed"],
    },
    CmdSpec {
        name: "replay",
        summary: "replay a trace through the backfill scheduler",
        flags: &["nodes", "policy", "algo", "resubmits", "obs"],
    },
    CmdSpec {
        name: "predict",
        summary: "compare runtime-prediction models",
        flags: &["warmup", "window", "seed"],
    },
    CmdSpec {
        name: "simulate",
        summary: "run an emulated ESlurm cluster",
        flags: &[
            "nodes",
            "satellites",
            "minutes",
            "jobs",
            "seed",
            "faults",
            "obs",
        ],
    },
    CmdSpec {
        name: "trace",
        summary: "record an execution trace of an emulated faulted run",
        flags: &[
            "nodes",
            "satellites",
            "minutes",
            "jobs",
            "seed",
            "faults",
            "out",
            "format",
        ],
    },
    CmdSpec {
        name: "metrics",
        summary: "sample an emulated run's resource footprint",
        flags: &[
            "nodes",
            "satellites",
            "minutes",
            "jobs",
            "seed",
            "faults",
            "interval",
            "csv",
            "prom",
            "flight",
        ],
    },
    CmdSpec {
        name: "explain",
        summary: "reconstruct one trace's causal tree and critical path",
        flags: &["nodes", "satellites", "minutes", "jobs", "seed", "faults"],
    },
    CmdSpec {
        name: "critical-path",
        summary: "slowest causal chain with per-hop latency breakdown",
        flags: &[
            "nodes",
            "satellites",
            "minutes",
            "jobs",
            "seed",
            "faults",
            "flow",
        ],
    },
    CmdSpec {
        name: "why-job",
        summary: "decision timeline of one job in an audited backfill run",
        flags: &[
            "trace",
            "nodes",
            "algo",
            "policy",
            "resubmits",
            "jobs",
            "seed",
            "users",
            "banks",
            "priority",
        ],
    },
    CmdSpec {
        name: "sched-report",
        summary: "backfill hit-rate, skip reasons, and estimator accuracy",
        flags: &[
            "trace",
            "nodes",
            "algo",
            "policy",
            "resubmits",
            "jobs",
            "seed",
            "users",
            "banks",
            "priority",
            "audit",
            "obs",
        ],
    },
    CmdSpec {
        name: "engine-report",
        summary: "wall-clock per-shard profile of the simulation engine",
        flags: &[
            "nodes",
            "satellites",
            "minutes",
            "jobs",
            "seed",
            "faults",
            "shards",
            "csv",
            "trace",
        ],
    },
    CmdSpec {
        name: "slo-report",
        summary: "evaluate SLOs online over an emulated run and gate breaches",
        flags: &[
            "nodes",
            "satellites",
            "minutes",
            "jobs",
            "seed",
            "faults",
            "sweep-p99",
            "queue-wait-p90",
            "inbox-depth",
            "format",
            "out",
            "flight",
            "check",
        ],
    },
    CmdSpec {
        name: "mem-report",
        summary: "per-subsystem host-heap attribution of an emulated run",
        flags: &[
            "nodes",
            "satellites",
            "minutes",
            "jobs",
            "seed",
            "faults",
            "shards",
            "format",
            "out",
            "csv",
        ],
    },
    CmdSpec {
        name: "diff",
        summary: "compare two metrics CSVs and gate footprint regressions",
        flags: &[
            "threshold-pct",
            "thresholds",
            "all",
            "include-wallclock",
            "include-domain",
        ],
    },
    CmdSpec {
        name: "convert",
        summary: "convert between .jsonl and .swf traces",
        flags: &["cores-per-node"],
    },
];

/// The top-level usage text, enumerating every subcommand from
/// [`COMMANDS`] — the one table — so a new command registered there can
/// never be silently missing from `eslurm --help`.
pub fn usage() -> String {
    let width = COMMANDS
        .iter()
        .map(|c| c.name.len())
        .max()
        .unwrap_or(0)
        .max("help".len());
    let mut out = String::from(
        "eslurm — distributed resource management, emulated\n\n\
         USAGE:\n    eslurm <COMMAND> [OPTIONS]\n\nCOMMANDS:\n",
    );
    for c in COMMANDS {
        out.push_str(&format!("    {:<width$}  {}\n", c.name, c.summary));
    }
    out.push_str(&format!("    {:<width$}  show this message\n", "help"));
    out.push_str("\nEXIT CODES:\n");
    out.push_str(EXIT_CODES);
    out.push_str("\nRun `eslurm <COMMAND> --help` for per-command options.");
    out
}

/// The one exit-code table, rendered into the generated help. Commands
/// that gate (`diff`, `slo-report --check`) document their codes here,
/// nowhere else — a unit test asserts each listed code matches what
/// [`CliError::exit_code`] actually returns.
pub const EXIT_CODES: &str = "    0  success\n    \
     1  runtime failure (I/O, malformed input)\n    \
     2  command-line usage error\n    \
     3  footprint-regression gate tripped (`diff`)\n    \
     4  SLO gate tripped (`slo-report --check`)\n";

/// Route a subcommand name to its implementation. Returns `None` for
/// names not in [`COMMANDS`], so `main` treats them as usage errors; a
/// unit test asserts every registered command dispatches.
pub fn dispatch(cmd: &str, rest: &[String]) -> Option<Result<(), CliError>> {
    Some(match cmd {
        "gen-trace" => gen_trace(rest),
        "analyze" => analyze(rest),
        "replay" => replay(rest),
        "predict" => predict(rest),
        "simulate" => simulate(rest),
        "trace" => trace_cmd(rest),
        "metrics" => metrics(rest),
        "explain" => explain(rest),
        "critical-path" => critical_path(rest),
        "why-job" => why_job(rest),
        "sched-report" => sched_report(rest),
        "engine-report" => engine_report(rest),
        "slo-report" => slo_report(rest),
        "mem-report" => mem_report(rest),
        "diff" => diff(rest),
        "convert" => convert(rest),
        _ => return None,
    })
}

fn spec(name: &str) -> Option<&'static CmdSpec> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// Print the option list for `name` (used for `--help` and after usage
/// errors). Unknown names print nothing.
pub fn print_help(name: &str) {
    if let Some(s) = spec(name) {
        println!("eslurm {} — {}\noptions:", s.name, s.summary);
        for k in s.flags {
            println!("    --{k} <value>");
        }
    }
}

/// Parse `args` against the subcommand's declared flags.
fn parse_opts(name: &'static str, args: &[String]) -> Result<Opts, CliError> {
    let s = spec(name).expect("command registered in COMMANDS");
    Opts::parse(args, s.flags).map_err(|e| CliError::usage(name, e))
}

/// A typed flag with a default; bad values are usage errors.
fn flag_or<T: std::str::FromStr>(
    cmd: &'static str,
    o: &Opts,
    name: &str,
    default: T,
) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    o.get_or(name, default).map_err(|e| CliError::usage(cmd, e))
}

fn load_trace(path: &str) -> Result<Vec<Job>, CliError> {
    let p = Path::new(path);
    let jobs = if path.ends_with(".swf") {
        swf::load_swf(p, &swf::SwfImportOptions::default())
    } else {
        trace::load_jsonl(p)
    }
    .map_err(|e| CliError::io(format!("loading {path}"), e))?;
    if jobs.is_empty() {
        return Err(CliError::parse(path, "trace is empty"));
    }
    Ok(jobs)
}

fn save_trace(jobs: &[Job], path: &str) -> Result<(), CliError> {
    let p = Path::new(path);
    if path.ends_with(".swf") {
        swf::save_swf(jobs, p)
    } else {
        trace::save_jsonl(jobs, p)
    }
    .map_err(|e| CliError::io(format!("writing {path}"), e))
}

/// Serialize the recorded events in the requested format and write them.
fn write_obs(rec: &Recorder, path: &str, format: &str) -> Result<usize, CliError> {
    let events = rec.events();
    let body = match format {
        // Chrome traces get flow events too, so Perfetto draws the
        // cross-node causal arrows between the span slices.
        "chrome" => obs::export::to_chrome_trace_with_flows(&events, &rec.causal_records()),
        "jsonl" => obs::export::to_jsonl(&events),
        other => {
            return Err(CliError::usage(
                "trace",
                format!("unknown --format {other} (chrome | jsonl)"),
            ))
        }
    };
    std::fs::write(path, body).map_err(|e| CliError::io(format!("writing {path}"), e))?;
    Ok(events.len())
}

/// Trace format implied by a file name: `.jsonl` means line-delimited
/// events, anything else the Chrome trace JSON Perfetto loads.
fn format_for(path: &str) -> &'static str {
    if path.ends_with(".jsonl") {
        "jsonl"
    } else {
        "chrome"
    }
}

/// `eslurm gen-trace --jobs N --system tianhe2a|ng --seed S --out FILE`
pub fn gen_trace(args: &[String]) -> Result<(), CliError> {
    const CMD: &str = "gen-trace";
    let o = parse_opts(CMD, args)?;
    if o.wants_help() {
        print_help(CMD);
        return Ok(());
    }
    let system = o.get("system").unwrap_or("tianhe2a");
    let seed = flag_or(CMD, &o, "seed", 42u64)?;
    let mut cfg = match system {
        "tianhe2a" => TraceConfig::tianhe2a(),
        "ng" | "ng-tianhe" => TraceConfig::ng_tianhe(),
        other => {
            return Err(CliError::usage(
                CMD,
                format!("unknown --system {other} (tianhe2a | ng)"),
            ))
        }
    }
    .with_seed(seed);
    let jobs = flag_or(CMD, &o, "jobs", 0usize)?;
    if jobs > 0 {
        cfg = cfg.shrunk_to(jobs);
    }
    let out = o.get("out").unwrap_or("trace.jsonl");
    let generated = cfg.generate();
    save_trace(&generated, out)?;
    let s = stats::summarize(&generated);
    println!(
        "wrote {} jobs ({} users, {} job names) to {out}",
        s.jobs, s.users, s.names
    );
    Ok(())
}

/// `eslurm analyze FILE`
pub fn analyze(args: &[String]) -> Result<(), CliError> {
    const CMD: &str = "analyze";
    let o = parse_opts(CMD, args)?;
    if o.wants_help() {
        print_help(CMD);
        return Ok(());
    }
    let path = o
        .positional(0, "trace file")
        .map_err(|e| CliError::usage(CMD, e))?;
    let jobs = load_trace(path)?;
    let samples = flag_or(CMD, &o, "samples", 20_000usize)?;
    let seed = flag_or(CMD, &o, "seed", 1u64)?;

    let s = stats::summarize(&jobs);
    println!("jobs: {}   users: {}   names: {}", s.jobs, s.users, s.names);
    println!(
        "mean runtime: {:.0}s   mean nodes: {:.1}",
        s.mean_runtime_s, s.mean_nodes
    );
    println!(
        "user estimates: {:.1}% overestimated (P > 1)",
        100.0 * s.frac_overestimated
    );
    println!(
        "24h same-job resubmission: per-user {:.3} / per-job {:.3}",
        stats::resubmit_within_24h_prob(&jobs),
        stats::resubmit_within_24h_prob_job_weighted(&jobs)
    );
    println!(
        ">6h jobs submitted 18:00-24:00: {:.1}%",
        100.0 * stats::frac_long_jobs_in_evening(&jobs)
    );
    println!("\ncorrelation vs submission interval (hours):");
    for (h, r) in
        stats::correlation_vs_interval(&jobs, &[0.0, 1.0, 10.0, 30.0, 100.0], samples, seed)
    {
        println!("    {h:6.1}h  {r:.3}");
    }
    println!("correlation vs job-ID gap:");
    for (g, r) in stats::correlation_vs_id_gap(&jobs, &[1, 10, 100, 700, 2000], samples, seed) {
        println!("    {g:6}    {r:.3}");
    }
    println!("\njob-size histogram (nodes <= bucket):");
    for (bound, count) in stats::size_histogram(&jobs) {
        if count > 0 {
            println!("    {bound:6}  {count}");
        }
    }
    Ok(())
}

/// `eslurm replay FILE --nodes N --policy user|predictive|oracle --algo ...
/// [--obs trace.json]`
pub fn replay(args: &[String]) -> Result<(), CliError> {
    const CMD: &str = "replay";
    let o = parse_opts(CMD, args)?;
    if o.wants_help() {
        print_help(CMD);
        return Ok(());
    }
    let path = o
        .positional(0, "trace file")
        .map_err(|e| CliError::usage(CMD, e))?;
    let jobs = load_trace(path)?;
    let nodes = flag_or(CMD, &o, "nodes", 1024u32)?;
    let algo = parse_algo(CMD, &o)?;
    let mut policy = parse_policy(CMD, &o, "user")?;
    let rec = if o.get("obs").is_some() {
        Recorder::full()
    } else {
        Recorder::disabled()
    };
    let cfg = BackfillConfig {
        algo,
        max_resubmits: flag_or(CMD, &o, "resubmits", 3u32)?,
        obs: rec.clone(),
        ..BackfillConfig::new(nodes)
    };
    println!(
        "replaying {} jobs on {nodes} nodes ({:?}, {} limits) ...",
        jobs.len(),
        algo,
        policy.name()
    );
    let r = run_schedule(&jobs, policy.as_mut(), &cfg);
    println!("completed:        {}", r.completed);
    println!("killed at limit:  {} ({} abandoned)", r.killed, r.abandoned);
    println!(
        "utilization:      {:.3} (useful {:.3})",
        r.utilization(),
        r.useful_utilization()
    );
    println!("avg wait:         {:.0}s", r.avg_wait().as_secs_f64());
    println!("avg slowdown:     {:.2}", r.avg_slowdown());
    println!(
        "makespan:         {:.1}h",
        r.makespan.as_secs_f64() / 3600.0
    );
    if let Some(out) = o.get("obs") {
        let n = write_obs(&rec, out, format_for(out))?;
        println!("trace:            {n} events -> {out}");
    }
    Ok(())
}

/// `eslurm predict FILE [--warmup N] [--window N]`
pub fn predict(args: &[String]) -> Result<(), CliError> {
    const CMD: &str = "predict";
    let o = parse_opts(CMD, args)?;
    if o.wants_help() {
        print_help(CMD);
        return Ok(());
    }
    let path = o
        .positional(0, "trace file")
        .map_err(|e| CliError::usage(CMD, e))?;
    let jobs = load_trace(path)?;
    let warmup = flag_or(CMD, &o, "warmup", jobs.len() / 10)?;
    let window = flag_or(CMD, &o, "window", 2000usize)?;
    let seed = flag_or(CMD, &o, "seed", 7u64)?;
    let mut models: Vec<Box<dyn RuntimePredictor>> = vec![
        Box::new(UserEstimate),
        Box::new(Last2::default()),
        Box::new(svm_baseline(window.min(700))),
        Box::new(forest_baseline(window.min(700), seed)),
        Box::new(Irpa::new(window.min(700), seed + 1)),
        Box::new(Trip::new(window.min(700))),
        Box::new(Prep::new(window.min(700), seed + 2)),
        Box::new(EslurmPredictor::new(EstimatorConfig {
            window,
            ..Default::default()
        })),
    ];
    println!(
        "{:14} {:>9} {:>14} {:>9}",
        "model", "accuracy", "underestimate", "coverage"
    );
    for m in &mut models {
        let r = evaluate(&jobs, m.as_mut(), warmup);
        println!(
            "{:14} {:>9.3} {:>14.3} {:>9.2}",
            r.name, r.aea, r.underestimate_rate, r.coverage
        );
    }
    Ok(())
}

/// Shared emulation driver for `simulate` and `trace`: a cluster of
/// `nodes` compute nodes + `satellites` satellites running a synthetic
/// job stream for `minutes` of virtual time, optionally with `fault_events`
/// small outage events hitting the compute nodes.
#[allow(clippy::too_many_arguments)]
fn run_emulation(
    nodes: usize,
    satellites: usize,
    minutes: u64,
    n_jobs: u64,
    seed: u64,
    fault_events: usize,
    rec: Recorder,
    sampler: Sampler,
    shards: usize,
    engine: EngineProfiler,
    slo: SloEngine,
    mem: MemProfiler,
) -> EslurmSystem {
    let cfg = EslurmConfig {
        n_satellites: satellites,
        eq1_width: (nodes / satellites.max(1)).max(32),
        relay_width: 32,
        ..Default::default()
    };
    let mut builder = EslurmSystemBuilder::new(cfg, nodes, seed)
        .obs(rec)
        .sampler(sampler)
        .shards(shards)
        .engine_profile(engine)
        .slo(slo)
        .mem_profile(mem);
    if fault_events > 0 {
        builder = builder.faults(compute_fault_plan(
            nodes,
            satellites,
            minutes,
            fault_events,
            seed,
        ));
    }
    let mut sys = builder.build();
    let horizon = SimTime::ZERO + SimSpan::from_secs(minutes * 60);
    for j in 0..n_jobs {
        let size = ((j % 5 + 1) as usize * nodes / 8).max(1).min(nodes);
        let start = (j as usize * 13) % (nodes - size + 1);
        sys.submit(
            SimTime::from_secs(5 + j * 7),
            j,
            &(start..start + size).collect::<Vec<_>>(),
            SimSpan::from_secs(60),
        );
    }
    sys.sim.run_until(horizon);
    sys
}

/// A plan of `events` small outages on the *compute* nodes: the builder
/// draws node ids in `0..nodes` compute space, which we shift past the
/// master and satellites into the deployment's global id space.
fn compute_fault_plan(
    nodes: usize,
    satellites: usize,
    minutes: u64,
    events: usize,
    seed: u64,
) -> FaultPlan {
    let horizon = SimSpan::from_secs(minutes * 60);
    let plan = FaultPlanBuilder::new(nodes, horizon, seed ^ 0xFA17)
        .small_events(events, 4)
        .mean_outage(SimSpan::from_secs(120))
        .build();
    let offset = (1 + satellites) as u32;
    let shifted: Vec<Outage> = plan
        .outages()
        .iter()
        .map(|o| Outage {
            node: NodeId(o.node.0 + offset),
            ..*o
        })
        .collect();
    FaultPlan::from_outages(1 + satellites + nodes, shifted)
}

/// `eslurm simulate --nodes N --satellites M --minutes T --jobs J
/// [--faults K] [--obs trace.json]`
pub fn simulate(args: &[String]) -> Result<(), CliError> {
    const CMD: &str = "simulate";
    let o = parse_opts(CMD, args)?;
    if o.wants_help() {
        print_help(CMD);
        return Ok(());
    }
    let nodes = flag_or(CMD, &o, "nodes", 256usize)?;
    let satellites = flag_or(CMD, &o, "satellites", 2usize)?;
    let minutes = flag_or(CMD, &o, "minutes", 10u64)?;
    let n_jobs = flag_or(CMD, &o, "jobs", 20u64)?;
    let seed = flag_or(CMD, &o, "seed", 42u64)?;
    let fault_events = flag_or(CMD, &o, "faults", 0usize)?;

    let rec = if o.get("obs").is_some() {
        Recorder::full()
    } else {
        Recorder::disabled()
    };
    let sys = run_emulation(
        nodes,
        satellites,
        minutes,
        n_jobs,
        seed,
        fault_events,
        rec.clone(),
        Sampler::disabled(),
        1,
        EngineProfiler::disabled(),
        SloEngine::disabled(),
        MemProfiler::disabled(),
    );

    let master = sys.master();
    println!(
        "emulated {nodes} compute nodes + {satellites} satellites for {minutes} virtual minutes"
    );
    println!("jobs completed:    {}/{n_jobs}", master.records.len());
    if let Some(r) = master.records.first() {
        println!("first occupation:  {:.3}s", r.occupation().as_secs_f64());
    }
    println!("heartbeat sweeps:  {}", master.sweeps.len());
    println!(
        "reassignments:     {}   takeovers: {}",
        master.reassignments, master.takeovers
    );
    let m = sys.sim.meter(emu::NodeId::MASTER);
    println!(
        "master meters:     cpu {:.1}s  virt {:.2} GiB  real {:.1} MiB  peak sockets {}",
        m.cpu_time().as_secs_f64(),
        m.virt_mem() as f64 / (1u64 << 30) as f64,
        m.real_mem() as f64 / (1u64 << 20) as f64,
        m.peak_sockets()
    );
    println!("events processed:  {}", sys.sim.events_processed());
    if let Some(out) = o.get("obs") {
        let n = write_obs(&rec, out, format_for(out))?;
        println!("trace:             {n} events -> {out}");
        print!("{}", rec.summary());
    }
    Ok(())
}

/// `eslurm trace --nodes N --satellites M --minutes T --jobs J --seed S
/// --faults K --out FILE --format chrome|jsonl`
pub fn trace_cmd(args: &[String]) -> Result<(), CliError> {
    const CMD: &str = "trace";
    let o = parse_opts(CMD, args)?;
    if o.wants_help() {
        print_help(CMD);
        return Ok(());
    }
    let nodes = flag_or(CMD, &o, "nodes", 64usize)?;
    let satellites = flag_or(CMD, &o, "satellites", 2usize)?;
    let minutes = flag_or(CMD, &o, "minutes", 5u64)?;
    let n_jobs = flag_or(CMD, &o, "jobs", 10u64)?;
    let seed = flag_or(CMD, &o, "seed", 42u64)?;
    let fault_events = flag_or(CMD, &o, "faults", 2usize)?;
    let out = o.get("out").unwrap_or("trace.json");
    let format = o.get("format").unwrap_or_else(|| format_for(out));

    let rec = Recorder::full();
    let sys = run_emulation(
        nodes,
        satellites,
        minutes,
        n_jobs,
        seed,
        fault_events,
        rec.clone(),
        Sampler::disabled(),
        1,
        EngineProfiler::disabled(),
        SloEngine::disabled(),
        MemProfiler::disabled(),
    );
    let n = write_obs(&rec, out, format)?;
    println!(
        "traced {nodes}+{satellites} nodes for {minutes} virtual minutes: \
         {n} events -> {out} ({format})"
    );
    println!("jobs completed:    {}/{n_jobs}", sys.master().records.len());
    print!("{}", rec.summary());
    Ok(())
}

/// `eslurm metrics --nodes N --satellites M --minutes T --jobs J --seed S
/// [--faults K] [--interval SECS] [--csv FILE] [--prom FILE]
/// [--flight FILE]`
///
/// Runs the same emulation as `simulate` with the footprint sampler on,
/// prints per-series summaries (mean and percentiles), and optionally
/// exports the time series as CSV (the `diff` input format), the final
/// metric values in Prometheus text format, and — when `--flight` names a
/// file — arms the bounded flight ring, dumping it there at the end of the
/// run (faulted runs also auto-dump on the first `node_down`).
pub fn metrics(args: &[String]) -> Result<(), CliError> {
    const CMD: &str = "metrics";
    let o = parse_opts(CMD, args)?;
    if o.wants_help() {
        print_help(CMD);
        return Ok(());
    }
    let nodes = flag_or(CMD, &o, "nodes", 128usize)?;
    let satellites = flag_or(CMD, &o, "satellites", 2usize)?;
    let minutes = flag_or(CMD, &o, "minutes", 5u64)?;
    let n_jobs = flag_or(CMD, &o, "jobs", 10u64)?;
    let seed = flag_or(CMD, &o, "seed", 42u64)?;
    let fault_events = flag_or(CMD, &o, "faults", 0usize)?;
    let interval_s = flag_or(CMD, &o, "interval", 1u64)?;
    if interval_s == 0 {
        return Err(CliError::usage(CMD, "--interval must be at least 1"));
    }

    let rec = match o.get("flight") {
        Some(path) => Recorder::with_flight(FlightConfig::dumping_to(path)),
        None => Recorder::metrics_only(),
    };
    let horizon = SimTime::ZERO + SimSpan::from_secs(minutes * 60);
    let sampler = Sampler::every_until(SimSpan::from_secs(interval_s), horizon);
    let sys = run_emulation(
        nodes,
        satellites,
        minutes,
        n_jobs,
        seed,
        fault_events,
        rec.clone(),
        sampler.clone(),
        1,
        EngineProfiler::disabled(),
        SloEngine::disabled(),
        MemProfiler::disabled(),
    );

    let store = sampler.store();
    println!(
        "sampled {} series ({} points) every {interval_s}s over {minutes} \
         virtual minutes; {}/{n_jobs} jobs completed",
        store.len(),
        store.n_points(),
        sys.master().records.len()
    );
    println!(
        "{:<44} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "series", "n", "mean", "p50", "p99", "max"
    );
    for (id, s) in sampler.summaries() {
        println!(
            "{:<44} {:>6} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            id.to_string(),
            s.count,
            s.mean,
            s.p50,
            s.p99,
            s.max
        );
    }
    if let Some(path) = o.get("csv") {
        std::fs::write(path, sampler.to_csv())
            .map_err(|e| CliError::io(format!("writing {path}"), e))?;
        println!("csv:    {} series -> {path}", store.len());
    }
    if let Some(path) = o.get("prom") {
        std::fs::write(path, obs::export::to_prometheus(&rec))
            .map_err(|e| CliError::io(format!("writing {path}"), e))?;
        println!("prom:   final exposition -> {path}");
    }
    if let Some(path) = o.get("flight") {
        match rec.flight_dump() {
            Some(Ok(n)) => println!("flight: {n} events -> {path}"),
            Some(Err(e)) => {
                return Err(CliError::io(format!("writing {path}"), e));
            }
            None => {}
        }
    }
    Ok(())
}

/// Run the reference fault scenario (the same defaults as `eslurm trace`)
/// with full causal tracing on and rebuild the per-trace causal trees.
fn causal_run(cmd: &'static str, o: &Opts) -> Result<Vec<TraceTree>, CliError> {
    let nodes = flag_or(cmd, o, "nodes", 64usize)?;
    let satellites = flag_or(cmd, o, "satellites", 2usize)?;
    let minutes = flag_or(cmd, o, "minutes", 5u64)?;
    let n_jobs = flag_or(cmd, o, "jobs", 10u64)?;
    let seed = flag_or(cmd, o, "seed", 42u64)?;
    let fault_events = flag_or(cmd, o, "faults", 2usize)?;
    let rec = Recorder::full();
    run_emulation(
        nodes,
        satellites,
        minutes,
        n_jobs,
        seed,
        fault_events,
        rec.clone(),
        Sampler::disabled(),
        1,
        EngineProfiler::disabled(),
        SloEngine::disabled(),
        MemProfiler::disabled(),
    );
    Ok(build_traces(&rec.causal_records()))
}

/// `eslurm explain TRACE-ID [--nodes N --satellites M --minutes T
/// --jobs J --seed S --faults K]`
///
/// Re-runs the (deterministic) scenario with causal tracing on, then
/// prints the full causal tree of the requested trace followed by its
/// critical path with the per-hop latency breakdown.
pub fn explain(args: &[String]) -> Result<(), CliError> {
    const CMD: &str = "explain";
    let o = parse_opts(CMD, args)?;
    if o.wants_help() {
        print_help(CMD);
        return Ok(());
    }
    let id_str = o
        .positional(0, "trace id")
        .map_err(|e| CliError::usage(CMD, e))?;
    let id: u64 = id_str
        .parse()
        .map_err(|_| CliError::usage(CMD, format!("trace id `{id_str}` is not an integer")))?;
    let trees = causal_run(CMD, &o)?;
    let Some(tree) = trees.iter().find(|t| t.trace == id) else {
        let last = trees.last().map(|t| t.trace).unwrap_or(0);
        return Err(CliError::parse(
            CMD,
            format!(
                "trace {id} was not recorded ({} traces, ids 1..={last})",
                trees.len()
            ),
        ));
    };
    print!("{}", render_tree(tree));
    print!("{}", render_critical_path(&tree.critical_path()));
    Ok(())
}

/// `eslurm critical-path [--flow dispatch|sweep|recovery] [--nodes N
/// --satellites M --minutes T --jobs J --seed S --faults K]`
///
/// Re-runs the (deterministic) scenario with causal tracing on, prints the
/// slowest chain across all traces (optionally restricted to one flow
/// kind) with its per-hop breakdown, then latency percentiles per flow.
pub fn critical_path(args: &[String]) -> Result<(), CliError> {
    const CMD: &str = "critical-path";
    let o = parse_opts(CMD, args)?;
    if o.wants_help() {
        print_help(CMD);
        return Ok(());
    }
    let flow = match o.get("flow") {
        Some(s) => Some(FlowKind::parse(s).ok_or_else(|| {
            CliError::usage(
                CMD,
                format!("unknown --flow {s} (dispatch | sweep | recovery)"),
            )
        })?),
        None => None,
    };
    let trees = causal_run(CMD, &o)?;
    let selected: Vec<TraceTree> = trees
        .into_iter()
        .filter(|t| flow.is_none_or(|f| t.flow == f))
        .collect();
    if selected.is_empty() {
        return Err(CliError::parse(
            CMD,
            "no traces recorded for the requested flow",
        ));
    }
    let slowest = selected
        .iter()
        .map(|t| t.critical_path())
        .max_by_key(|p| (p.end_to_end_us, std::cmp::Reverse(p.trace)))
        .expect("selected is non-empty");
    match flow {
        Some(f) => println!("slowest of {} {} trace(s):", selected.len(), f.name()),
        None => println!("slowest of {} trace(s):", selected.len()),
    }
    print!("{}", render_critical_path(&slowest));
    print!("{}", render_flow_summaries(&flow_summaries(&selected)));
    Ok(())
}

/// `--algo easy|fcfs|conservative` (shared by replay and the audit
/// commands).
fn parse_algo(cmd: &'static str, o: &Opts) -> Result<SchedAlgo, CliError> {
    match o.get("algo").unwrap_or("easy") {
        "easy" => Ok(SchedAlgo::Easy),
        "fcfs" => Ok(SchedAlgo::Fcfs),
        "conservative" => Ok(SchedAlgo::Conservative),
        other => Err(CliError::usage(
            cmd,
            format!("unknown --algo {other} (easy | fcfs | conservative)"),
        )),
    }
}

/// `--policy user|predictive|oracle` with a per-command default.
fn parse_policy(
    cmd: &'static str,
    o: &Opts,
    default: &'static str,
) -> Result<Box<dyn LimitPolicy>, CliError> {
    match o.get("policy").unwrap_or(default) {
        "user" => Ok(Box::new(UserLimit::default())),
        "predictive" => Ok(Box::new(PredictiveLimit::new(EstimatorConfig::default()))),
        "oracle" => Ok(Box::new(OracleLimit)),
        other => Err(CliError::usage(
            cmd,
            format!("unknown --policy {other} (user | predictive | oracle)"),
        )),
    }
}

/// One audited backfill run shared by `why-job` and `sched-report`.
struct AuditRun {
    n_jobs: usize,
    nodes: u32,
    algo: SchedAlgo,
    policy_name: String,
    log: DecisionLog,
    report: ScheduleReport,
    rec: Recorder,
}

/// `--priority fifo|multifactor [--users N --banks B]` → the policy-layer
/// bundle of an audited run. `fifo` (the default) is the trivial bundle —
/// bit-identical to the pre-policy scheduler; `multifactor` turns on the
/// Slurm-flavored composition with a 24 h-half-life fair-share ledger.
fn parse_policies(cmd: &'static str, o: &Opts, banks: usize) -> Result<SchedPolicies, CliError> {
    match o.get("priority").unwrap_or("fifo") {
        "fifo" => Ok(SchedPolicies::default()),
        "multifactor" => Ok(SchedPolicies::default()
            .with_priority(MultifactorPriority::slurm_default())
            .with_fairshare(FairShareLedger::new(SimSpan::from_hours(24), banks as u32))),
        other => Err(CliError::usage(
            cmd,
            format!("unknown --priority {other} (fifo | multifactor)"),
        )),
    }
}

/// Run the backfill simulation with the decision audit log on: either a
/// `--trace FILE` replay or the deterministic synthetic default scenario
/// (whose seed/jobs/nodes are tuned so backfills, skips, and kills all
/// occur). The predictive policy is the default so decisions carry model
/// estimates with cluster ids. `--users N` switches the synthetic trace to
/// the multi-tenant generator with that many accounts over `--banks`
/// banks, and `--priority multifactor` ranks the queue with the
/// Slurm-flavored factor composition (per-factor contributions land in
/// the audit log).
fn audit_run(cmd: &'static str, o: &Opts) -> Result<AuditRun, CliError> {
    let users = flag_or(cmd, o, "users", 0usize)?;
    let banks = flag_or(cmd, o, "banks", 48usize)?;
    let jobs = match o.get("trace") {
        Some(path) => load_trace(path)?,
        None => {
            let n = flag_or(cmd, o, "jobs", 400usize)?;
            let seed = flag_or(cmd, o, "seed", 42u64)?;
            if users > 0 {
                TraceConfig::multi_tenant(n, seed)
                    .with_users(users)
                    .with_banks(banks)
                    .generate()
            } else {
                TraceConfig::small(n, seed).generate()
            }
        }
    };
    let nodes = flag_or(cmd, o, "nodes", 64u32)?;
    let algo = parse_algo(cmd, o)?;
    let mut policy = parse_policy(cmd, o, "predictive")?;
    let rec = if o.get("obs").is_some() {
        Recorder::full()
    } else {
        Recorder::disabled()
    };
    let log = DecisionLog::unbounded();
    let cfg = BackfillConfig {
        algo,
        max_resubmits: flag_or(cmd, o, "resubmits", 3u32)?,
        obs: rec.clone(),
        audit: log.clone(),
        policies: parse_policies(cmd, o, banks)?,
        ..BackfillConfig::new(nodes)
    };
    let policy_name = policy.name();
    let report = run_schedule(&jobs, policy.as_mut(), &cfg);
    Ok(AuditRun {
        n_jobs: jobs.len(),
        nodes,
        algo,
        policy_name,
        log,
        report,
        rec,
    })
}

/// `eslurm why-job ID [--trace FILE] [--nodes N --algo A --policy P
/// --resubmits R --jobs J --seed S]`
///
/// Replays the (deterministic) scenario with the decision audit log on and
/// prints the complete decision timeline of one job: submission,
/// head-of-queue and reservation placements (with the counterfactual
/// blocker set), backfills and skips, starts, kills, resubmissions, and
/// completion — each line carrying the estimate (value + source + cluster)
/// the decision was based on.
pub fn why_job(args: &[String]) -> Result<(), CliError> {
    const CMD: &str = "why-job";
    let o = parse_opts(CMD, args)?;
    if o.wants_help() {
        print_help(CMD);
        return Ok(());
    }
    let id_str = o
        .positional(0, "job id")
        .map_err(|e| CliError::usage(CMD, e))?;
    let id: u64 = id_str
        .parse()
        .map_err(|_| CliError::usage(CMD, format!("job id `{id_str}` is not an integer")))?;
    let run = audit_run(CMD, &o)?;
    let records = run.log.records();
    if !records.iter().any(|r| r.job == id) {
        return Err(CliError::parse(
            CMD,
            format!(
                "job {id} made no decisions in this run ({} jobs audited)",
                run.n_jobs
            ),
        ));
    }
    println!(
        "audited {} jobs on {} nodes ({:?}, {} limits)\n",
        run.n_jobs, run.nodes, run.algo, run.policy_name
    );
    print!("{}", render_timeline(id, &records));
    Ok(())
}

/// `eslurm sched-report [--trace FILE] [--nodes N --algo A --policy P
/// --resubmits R --jobs J --seed S] [--audit FILE] [--obs FILE]`
///
/// Replays the (deterministic) scenario with the decision audit log on and
/// prints the aggregate decision story: backfill hit-rate, skip-reason
/// counts, kills/resubmissions, per-source and per-cluster estimator
/// accuracy (signed-error percentiles), and calibration buckets.
/// `--audit` exports the raw decision log as JSONL (byte-identical across
/// same-seed runs); `--obs` exports a Chrome trace whose pid 1 carries
/// per-job queued→run lanes next to the scheduler's flow arrows.
pub fn sched_report(args: &[String]) -> Result<(), CliError> {
    const CMD: &str = "sched-report";
    let o = parse_opts(CMD, args)?;
    if o.wants_help() {
        print_help(CMD);
        return Ok(());
    }
    let run = audit_run(CMD, &o)?;
    let records = run.log.records();
    println!(
        "audited {} jobs on {} nodes ({:?}, {} limits)",
        run.n_jobs, run.nodes, run.algo, run.policy_name
    );
    println!(
        "completed {} / killed {} / abandoned {}   avg wait {:.0}s   utilization {:.3}\n",
        run.report.completed,
        run.report.killed,
        run.report.abandoned,
        run.report.avg_wait().as_secs_f64(),
        run.report.utilization()
    );
    print!("{}", render_report(&AuditReport::from_records(&records)));
    if let Some(path) = o.get("audit") {
        std::fs::write(path, obs::audit::to_jsonl(&records))
            .map_err(|e| CliError::io(format!("writing {path}"), e))?;
        println!("audit:  {} decisions -> {path}", records.len());
    }
    if let Some(path) = o.get("obs") {
        let doc = obs::export::to_chrome_trace_with_flows_and_jobs(
            &run.rec.events(),
            &run.rec.causal_records(),
            &records,
        );
        std::fs::write(path, doc).map_err(|e| CliError::io(format!("writing {path}"), e))?;
        println!("trace:  job lanes + flows -> {path}");
    }
    Ok(())
}

/// `eslurm engine-report --nodes N --satellites M --minutes T --jobs J
/// --seed S [--faults K] [--shards P] [--csv FILE] [--trace FILE]`
///
/// Runs the same emulation as `simulate` with the wall-clock engine
/// profiler armed and prints the per-shard efficiency table: where each
/// shard's wall time went (event execution vs. queue ops), cross-shard
/// message traffic, and the load-imbalance summary. `--shards P`
/// (default 1) only lays the queues and node state out over P shards:
/// outcomes are identical for every P; the table shows what the layout
/// costs.
///
/// The profiler observes only host monotonic clocks, so outcomes and all
/// virtual-time exports are bit-identical with it on or off. `--csv`
/// writes the report as `engine_wall_*` series (excluded from `diff`
/// gates by default); `--trace` writes a Chrome trace whose wall-clock
/// engine track (pid 2) sits beside the virtual-time node lanes.
pub fn engine_report(args: &[String]) -> Result<(), CliError> {
    const CMD: &str = "engine-report";
    let o = parse_opts(CMD, args)?;
    if o.wants_help() {
        print_help(CMD);
        return Ok(());
    }
    let nodes = flag_or(CMD, &o, "nodes", 256usize)?;
    let satellites = flag_or(CMD, &o, "satellites", 4usize)?;
    let minutes = flag_or(CMD, &o, "minutes", 10u64)?;
    let n_jobs = flag_or(CMD, &o, "jobs", 20u64)?;
    let seed = flag_or(CMD, &o, "seed", 42u64)?;
    let fault_events = flag_or(CMD, &o, "faults", 0usize)?;
    let shards = flag_or(CMD, &o, "shards", 1usize)?;

    let rec = if o.get("trace").is_some() {
        Recorder::full()
    } else {
        Recorder::disabled()
    };
    let profiler = EngineProfiler::enabled();
    let sys = run_emulation(
        nodes,
        satellites,
        minutes,
        n_jobs,
        seed,
        fault_events,
        rec.clone(),
        Sampler::disabled(),
        shards,
        profiler.clone(),
        SloEngine::disabled(),
        MemProfiler::disabled(),
    );
    let report = profiler
        .report()
        .expect("enabled profiler is attached by SimCluster::new");
    print!("{}", report.render());
    println!(
        "jobs completed: {}/{n_jobs}; engine events: {}",
        sys.master().records.len(),
        sys.sim.events_processed()
    );
    if let Some(path) = o.get("csv") {
        let mut store = SeriesStore::new();
        report.to_series(&mut store, SimTime::ZERO + SimSpan::from_secs(minutes * 60));
        std::fs::write(path, store.to_csv())
            .map_err(|e| CliError::io(format!("writing {path}"), e))?;
        println!("csv:    {} series -> {path}", store.len());
    }
    if let Some(path) = o.get("trace") {
        let body = obs::export::to_chrome_trace_full(
            &rec.events(),
            &rec.causal_records(),
            &[],
            &profiler.spans(),
        );
        std::fs::write(path, body).map_err(|e| CliError::io(format!("writing {path}"), e))?;
        println!("trace:  virtual-time lanes + wall-clock engine track -> {path}");
    }
    Ok(())
}

/// `eslurm slo-report [--nodes N --satellites M --minutes T --jobs J
/// --seed S --faults K] [--sweep-p99 US] [--queue-wait-p90 S]
/// [--inbox-depth D] [--format table|csv|json] [--out FILE]
/// [--flight FILE] [--check true]`
///
/// Runs the reference emulation with the online SLO engine armed on a 1 s
/// evaluation cadence: sweep-completion p99, queue-wait p90, and master
/// inbox depth against the given targets (multi-window burn-rate
/// detection, so transient spikes don't breach but sustained ones do).
/// `--flight` arms the bounded flight ring with a 60 s dump cooldown —
/// each breach dumps a reason-tagged forensic snapshot there. `--check`
/// exits 4 when any spec recorded a breach, mirroring `diff`'s exit 3.
pub fn slo_report(args: &[String]) -> Result<(), CliError> {
    const CMD: &str = "slo-report";
    let o = parse_opts(CMD, args)?;
    if o.wants_help() {
        print_help(CMD);
        return Ok(());
    }
    let nodes = flag_or(CMD, &o, "nodes", 128usize)?;
    let satellites = flag_or(CMD, &o, "satellites", 2usize)?;
    let minutes = flag_or(CMD, &o, "minutes", 10u64)?;
    let n_jobs = flag_or(CMD, &o, "jobs", 20u64)?;
    let seed = flag_or(CMD, &o, "seed", 42u64)?;
    let fault_events = flag_or(CMD, &o, "faults", 0usize)?;
    let sweep_p99_us = flag_or(CMD, &o, "sweep-p99", 10_000_000f64)?;
    let queue_wait_p90_s = flag_or(CMD, &o, "queue-wait-p90", 600f64)?;
    let inbox_depth = flag_or(CMD, &o, "inbox-depth", 10_000f64)?;
    let format = o.get("format").unwrap_or("table");
    let check = flag_or(CMD, &o, "check", false)?;

    let rec = match o.get("flight") {
        Some(path) => Recorder::with_flight(
            FlightConfig::dumping_to(path).with_cooldown(SimSpan::from_secs(60)),
        ),
        None => Recorder::metrics_only(),
    };
    let horizon = SimTime::ZERO + SimSpan::from_secs(minutes * 60);
    let sampler = Sampler::every_until(SimSpan::from_secs(1), horizon);
    let slo = SloEngine::paper_presets(sweep_p99_us, queue_wait_p90_s, inbox_depth);
    let sys = run_emulation(
        nodes,
        satellites,
        minutes,
        n_jobs,
        seed,
        fault_events,
        rec.clone(),
        sampler,
        1,
        EngineProfiler::disabled(),
        slo,
        MemProfiler::disabled(),
    );
    let report = sys
        .sim
        .slo_engine()
        .report()
        .expect("engine armed above is enabled");
    let body = match format {
        "table" => report.render(),
        "csv" => report.to_csv(),
        "json" => report.to_json(),
        other => {
            return Err(CliError::usage(
                CMD,
                format!("unknown --format {other} (table | csv | json)"),
            ))
        }
    };
    match o.get("out") {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| CliError::io(format!("writing {path}"), e))?;
            println!("slo report ({format}) -> {path}");
        }
        None => print!("{body}"),
    }
    println!(
        "jobs completed: {}/{n_jobs}; engine events: {}",
        sys.master().records.len(),
        sys.sim.events_processed()
    );
    let unmet = report.unmet();
    if check && unmet > 0 {
        return Err(CliError::SloUnmet { count: unmet });
    }
    Ok(())
}

/// `eslurm mem-report [--nodes N --satellites M --minutes T --jobs J
/// --seed S --faults K --shards P] [--format table|csv|json] [--out FILE]
/// [--csv FILE]`
///
/// Runs the same emulation as `simulate` with the tagged tracking
/// allocator armed and prints the per-subsystem host-heap attribution:
/// live and peak bytes, allocation counts and rates, and the size-class
/// histogram for each tag (`master`, `satellite`, `sched`, `ml`, `obs`,
/// `des-shard{n}`, `untagged`). Host-memory measurements live in their
/// own domain (DESIGN §15): outcomes and all virtual-time exports are
/// bit-identical with the profiler on or off, and the `mem_host_*` series
/// written by `--csv` never reach the default `diff` gates. Requires a
/// binary built with `--features mem-profile`; without it the command
/// explains and exits 0.
pub fn mem_report(args: &[String]) -> Result<(), CliError> {
    const CMD: &str = "mem-report";
    let o = parse_opts(CMD, args)?;
    if o.wants_help() {
        print_help(CMD);
        return Ok(());
    }
    let nodes = flag_or(CMD, &o, "nodes", 128usize)?;
    let satellites = flag_or(CMD, &o, "satellites", 2usize)?;
    let minutes = flag_or(CMD, &o, "minutes", 5u64)?;
    let n_jobs = flag_or(CMD, &o, "jobs", 10u64)?;
    let seed = flag_or(CMD, &o, "seed", 42u64)?;
    let fault_events = flag_or(CMD, &o, "faults", 0usize)?;
    let shards = flag_or(CMD, &o, "shards", 1usize)?;
    let format = o.get("format").unwrap_or("table");

    if !mem_profile_compiled() {
        println!(
            "mem-report: this binary was built without the `mem-profile` \
             feature, so the tracking allocator is compiled out.\n\
             rebuild with `cargo build --features mem-profile` to measure \
             the host heap."
        );
        return Ok(());
    }
    let horizon = SimTime::ZERO + SimSpan::from_secs(minutes * 60);
    // The sampler drives the sampling tick that feeds `mem_host_*` series;
    // arm it on the 1 Hz cadence whether or not `--csv` exports them.
    let sampler = Sampler::every_until(SimSpan::from_secs(1), horizon);
    let profiler = MemProfiler::enabled();
    let sys = run_emulation(
        nodes,
        satellites,
        minutes,
        n_jobs,
        seed,
        fault_events,
        Recorder::disabled(),
        sampler.clone(),
        shards,
        EngineProfiler::disabled(),
        SloEngine::disabled(),
        profiler.clone(),
    );
    let report = profiler
        .report()
        .expect("mem_profile_compiled() checked above, so the handle is armed");
    let body = match format {
        "table" => report.render(),
        "csv" => report.to_csv(),
        "json" => report.to_json(),
        other => {
            return Err(CliError::usage(
                CMD,
                format!("unknown --format {other} (table | csv | json)"),
            ))
        }
    };
    match o.get("out") {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| CliError::io(format!("writing {path}"), e))?;
            println!("mem report ({format}) -> {path}");
        }
        None => print!("{body}"),
    }
    println!(
        "jobs completed: {}/{n_jobs}; engine events: {}",
        sys.master().records.len(),
        sys.sim.events_processed()
    );
    if let Some(path) = o.get("csv") {
        std::fs::write(path, sampler.host_csv())
            .map_err(|e| CliError::io(format!("writing {path}"), e))?;
        println!("csv:    mem_host_* series -> {path}");
    }
    Ok(())
}

/// `eslurm diff BASE.csv NEW.csv [--threshold-pct P]
/// [--thresholds metric=P,metric=P] [--all true]
/// [--include-domain wallclock,host-mem]`
///
/// Compares two sampler CSVs and exits 3 when any gated metric's mean or
/// max grew past its threshold. `footprint_*` metrics are gated by
/// default; `--thresholds` gates the listed metrics with their own
/// limits, and `--all true` gates every shared metric. Metrics from the
/// non-virtual measurement domains — wall-clock `engine_wall_*` and
/// host-memory `mem_host_*` series — are never gated unless
/// `--include-domain` (or an explicit `--thresholds` entry) opts their
/// domain in: host timing and allocator jitter must not fail a
/// virtual-time determinism gate. `--include-wallclock true` is kept as
/// an alias for `--include-domain wallclock`.
pub fn diff(args: &[String]) -> Result<(), CliError> {
    const CMD: &str = "diff";
    let o = parse_opts(CMD, args)?;
    if o.wants_help() {
        print_help(CMD);
        return Ok(());
    }
    let base_path = o
        .positional(0, "baseline csv")
        .map_err(|e| CliError::usage(CMD, e))?;
    let new_path = o
        .positional(1, "candidate csv")
        .map_err(|e| CliError::usage(CMD, e))?;
    let mut opts = DiffOptions {
        default_threshold_pct: flag_or(CMD, &o, "threshold-pct", 5.0f64)?,
        gate_all: flag_or(CMD, &o, "all", false)?,
        include_wallclock: flag_or(CMD, &o, "include-wallclock", false)?,
        ..DiffOptions::default()
    };
    if let Some(list) = o.get("include-domain") {
        for domain in list.split(',').filter(|p| !p.is_empty()) {
            match domain {
                "wallclock" => opts.include_wallclock = true,
                "host-mem" => opts.include_hostmem = true,
                other => {
                    return Err(CliError::usage(
                        CMD,
                        format!("unknown --include-domain {other} (wallclock | host-mem)"),
                    ))
                }
            }
        }
    }
    if let Some(list) = o.get("thresholds") {
        for part in list.split(',').filter(|p| !p.is_empty()) {
            // Split at the LAST `=`: rendered metric names may carry label
            // sets with their own `=` (`footprint_sockets{node="master"}`).
            let (metric, pct) = part.rsplit_once('=').ok_or_else(|| {
                CliError::usage(
                    CMD,
                    format!("--thresholds entry `{part}` is not metric=pct"),
                )
            })?;
            let pct: f64 = pct
                .parse()
                .map_err(|e| CliError::usage(CMD, format!("--thresholds {metric}: {e}")))?;
            opts.per_metric.insert(metric.to_string(), pct);
        }
    }

    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| CliError::io(format!("reading {path}"), e))
    };
    let report = compare_csv(&read(base_path)?, &read(new_path)?, &opts)
        .map_err(|e| CliError::parse(format!("{base_path} vs {new_path}"), e))?;

    println!(
        "{:<44} {:>9} {:>5} {:>14} {:>14} {:>9}  gate",
        "metric", "domain", "stat", "base", "new", "delta%"
    );
    for d in &report.deltas {
        // Gate verdicts name the metric's measurement domain so a failure
        // line says which clock it was judged in (virtual determinism vs.
        // opted-in wallclock/host noise).
        let gate = match (d.regressed, d.threshold_pct) {
            (true, Some(t)) => format!("FAIL >{t}% ({} domain)", d.domain),
            (false, Some(t)) => format!("ok <={t}%"),
            (_, None) => "-".to_string(),
        };
        println!(
            "{:<44} {:>9} {:>5} {:>14.4} {:>14.4} {:>9.2}  {gate}",
            d.metric, d.domain, d.stat, d.base, d.new, d.pct
        );
    }
    for m in &report.only_in_base {
        println!("only in baseline:  {m}");
    }
    for m in &report.only_in_new {
        println!("only in candidate: {m}");
    }
    let count = report.regressions().len();
    if count > 0 {
        return Err(CliError::Regression { count });
    }
    println!("no regressions");
    Ok(())
}

/// `eslurm convert IN OUT`
pub fn convert(args: &[String]) -> Result<(), CliError> {
    const CMD: &str = "convert";
    let o = parse_opts(CMD, args)?;
    if o.wants_help() {
        print_help(CMD);
        return Ok(());
    }
    let input = o
        .positional(0, "input file")
        .map_err(|e| CliError::usage(CMD, e))?;
    let output = o
        .positional(1, "output file")
        .map_err(|e| CliError::usage(CMD, e))?;
    let jobs = load_trace(input)?;
    save_trace(&jobs, output)?;
    println!("converted {} jobs: {input} -> {output}", jobs.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The drift guard: every command registered in COMMANDS must both
    /// dispatch to an implementation and appear in the usage text, so a
    /// new subcommand cannot be silently absent from `eslurm --help` (or
    /// listed in help without actually routing anywhere).
    #[test]
    fn every_registered_command_dispatches_and_is_listed() {
        let help = vec!["--help".to_string()];
        let usage_text = usage();
        for c in COMMANDS {
            assert!(
                dispatch(c.name, &help).is_some(),
                "`{}` is in COMMANDS but dispatch() does not route it",
                c.name
            );
            assert!(
                usage_text.contains(c.name),
                "`{}` missing from usage text",
                c.name
            );
            assert!(
                usage_text.contains(c.summary),
                "`{}` summary missing from usage text",
                c.name
            );
        }
        assert!(dispatch("no-such-command", &help).is_none());
        assert!(usage_text.contains("help"));
    }

    /// The generated help carries the one exit-code table, and every code
    /// it documents is the code [`CliError::exit_code`] actually returns —
    /// so the docs cannot drift from the behaviour.
    #[test]
    fn usage_documents_every_exit_code() {
        let text = usage();
        assert!(text.contains("EXIT CODES:"), "help is missing the table");
        for line in [
            "0  success",
            "1  runtime failure (I/O, malformed input)",
            "2  command-line usage error",
            "3  footprint-regression gate tripped (`diff`)",
            "4  SLO gate tripped (`slo-report --check`)",
        ] {
            assert!(text.contains(line), "help is missing `{line}`");
        }
        assert_eq!(CliError::usage("x", "y").exit_code(), 2);
        assert_eq!(CliError::Regression { count: 1 }.exit_code(), 3);
        assert_eq!(CliError::SloUnmet { count: 1 }.exit_code(), 4);
        assert_eq!(CliError::parse("f", "bad").exit_code(), 1);
    }

    /// Spec names are unique — duplicate registration would shadow one
    /// command's flags with another's.
    #[test]
    fn command_names_are_unique() {
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate command name in COMMANDS");
    }
}
