//! The CLI subcommands.

use crate::error::CliError;
use crate::opts::Opts;
use eslurm::prelude::Arrival;
use eslurm::{EslurmConfig, EslurmSystem, PredictiveLimit, Scenario};
use estimate::{
    evaluate, forest_baseline, svm_baseline, EslurmPredictor, EstimatorConfig, Irpa, Last2, Prep,
    RuntimePredictor, Trip, UserEstimate,
};
use obs::audit::{render_report, render_timeline, AuditReport};
use obs::causal::{render_critical_path, render_flow_summaries, render_tree};
use obs::export::ChromeTrace;
use obs::{
    build_traces, compare_csv, flow_summaries, mem_profile_compiled, DecisionLog, DiffOptions,
    FlowKind, MemProfiler, Recorder, Sampler, SloEngine, TraceTree,
};
use sched::prelude::{
    simulate as run_schedule, BackfillConfig, FairShareLedger, LimitPolicy, MultifactorPriority,
    OracleLimit, SchedAlgo, SchedPolicies, ScheduleReport, UserLimit,
};
use simclock::{SimSpan, SimTime};
use std::path::Path;
use workload::{stats, swf, trace, Job, TraceConfig};

/// One subcommand: its name, a one-line summary, the flags it takes, and
/// the function that runs it. This table is the only place a command is
/// registered: `dispatch`, per-command help and the usage text read it.
pub struct CmdSpec {
    /// The subcommand name as typed on the command line.
    pub name: &'static str,
    /// One-line summary shown in help.
    pub summary: &'static str,
    /// For the commands that emulate a cluster: their defaults of the six
    /// [`SCENARIO_FLAGS`], which they accept ahead of their own `flags`
    /// and [`scenario`] parses.
    pub scenario: Option<Defaults>,
    /// Accepted `--flags` of the command's own.
    pub flags: &'static [&'static str],
    /// The implementation, handed the parsed options.
    pub run: fn(&Opts) -> Result<(), CliError>,
}

impl CmdSpec {
    /// Every flag the command accepts, in help order.
    pub fn all_flags(&self) -> impl Iterator<Item = &'static str> {
        let shared: &[&str] = match self.scenario {
            Some(_) => &SCENARIO_FLAGS,
            None => &[],
        };
        shared.iter().chain(self.flags).copied()
    }
}

/// The flags every emulated-scenario command shares, parsed in one place
/// ([`scenario`]).
pub const SCENARIO_FLAGS: [&str; 6] = ["nodes", "satellites", "minutes", "jobs", "seed", "faults"];

/// A cluster command's defaults of the [`SCENARIO_FLAGS`] but `--seed`
/// (42 everywhere), in flag order: compute nodes, satellites, minutes,
/// jobs and small compute-node outages.
pub struct Defaults(usize, usize, u64, u64, usize);

/// The reference fault scenario `trace`, `explain` and `critical-path` share.
const FAULTED: Option<Defaults> = Some(Defaults(64, 2, 5, 10, 2));

/// Every subcommand the CLI knows, in help order.
pub const COMMANDS: &[CmdSpec] = &[
    CmdSpec {
        name: "gen-trace",
        summary: "generate a synthetic workload trace",
        scenario: None,
        flags: &["jobs", "system", "seed", "out"],
        run: gen_trace,
    },
    CmdSpec {
        name: "analyze",
        summary: "workload statistics for a trace",
        scenario: None,
        flags: &["samples", "seed"],
        run: analyze,
    },
    CmdSpec {
        name: "replay",
        summary: "replay a trace through the backfill scheduler",
        scenario: None,
        flags: &["nodes", "policy", "algo", "resubmits", "obs"],
        run: replay,
    },
    CmdSpec {
        name: "predict",
        summary: "compare runtime-prediction models",
        scenario: None,
        flags: &["warmup", "window", "seed"],
        run: predict,
    },
    CmdSpec {
        name: "simulate",
        summary: "run an emulated ESlurm cluster",
        scenario: Some(Defaults(256, 2, 10, 20, 0)),
        flags: &["obs"],
        run: simulate,
    },
    CmdSpec {
        name: "trace",
        summary: "record an execution trace of an emulated faulted run",
        scenario: FAULTED,
        flags: &["out", "format"],
        run: trace_cmd,
    },
    CmdSpec {
        name: "metrics",
        summary: "sample an emulated run's resource footprint",
        scenario: Some(Defaults(128, 2, 5, 10, 0)),
        flags: &["interval", "csv", "prom"],
        run: metrics,
    },
    CmdSpec {
        name: "explain",
        summary: "reconstruct one trace's causal tree and critical path",
        scenario: FAULTED,
        flags: &[],
        run: explain,
    },
    CmdSpec {
        name: "critical-path",
        summary: "slowest causal chain with per-hop latency breakdown",
        scenario: FAULTED,
        flags: &["flow"],
        run: critical_path,
    },
    CmdSpec {
        name: "why-job",
        summary: "decision timeline of one job in an audited backfill run",
        scenario: None,
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
        run: why_job,
    },
    CmdSpec {
        name: "sched-report",
        summary: "backfill hit-rate, skip reasons, and estimator accuracy",
        scenario: None,
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
        run: sched_report,
    },
    CmdSpec {
        name: "slo-report",
        summary: "evaluate SLOs online over an emulated run and gate breaches",
        scenario: Some(Defaults(128, 2, 10, 20, 0)),
        flags: &[
            "sweep-p99",
            "queue-wait-p90",
            "inbox-depth",
            "format",
            "out",
            "check",
        ],
        run: slo_report,
    },
    CmdSpec {
        name: "mem-report",
        summary: "per-subsystem host-heap attribution of an emulated run",
        scenario: Some(Defaults(128, 2, 5, 10, 0)),
        flags: &["format", "out"],
        run: mem_report,
    },
    CmdSpec {
        name: "diff",
        summary: "compare two metrics CSVs and gate footprint regressions",
        scenario: None,
        flags: &["threshold-pct", "thresholds", "all"],
        run: diff,
    },
    CmdSpec {
        name: "convert",
        summary: "convert between .jsonl and .swf traces",
        scenario: None,
        flags: &["cores-per-node"],
        run: convert,
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

/// Route a subcommand name to its implementation: find the spec, parse
/// against its flags, then `--help` or the spec's `run`. Returns `None`
/// for names not in [`COMMANDS`], so `main` treats them as usage errors.
pub fn dispatch(cmd: &str, rest: &[String]) -> Option<Result<(), CliError>> {
    let spec = spec(cmd)?;
    Some(Opts::parse(spec, rest).and_then(|o| {
        if o.wants_help() {
            print_help(spec.name);
            Ok(())
        } else {
            (spec.run)(&o)
        }
    }))
}

fn spec(name: &str) -> Option<&'static CmdSpec> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// Print the option list for `name` (used for `--help` and after usage
/// errors). Unknown names print nothing.
pub fn print_help(name: &str) {
    if let Some(s) = spec(name) {
        println!("eslurm {} — {}\noptions:", s.name, s.summary);
        for k in s.all_flags() {
            println!("    --{k} <value>");
        }
    }
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

/// Write an export to `path`; a failure names the file.
fn write_file(path: &str, body: impl AsRef<[u8]>) -> Result<(), CliError> {
    std::fs::write(path, body).map_err(|e| CliError::io(format!("writing {path}"), e))
}

/// A full recorder when the flag naming its export file was given.
fn recorder_for(export: Option<&str>) -> Recorder {
    match export {
        Some(_) => Recorder::full(),
        None => Recorder::disabled(),
    }
}

/// The required leading integer argument (`explain 3`, `why-job 17`).
fn positional_id(o: &Opts, what: &str) -> Result<u64, CliError> {
    let id = o.positional(0, what)?;
    id.parse()
        .map_err(|_| o.usage(format!("{what} `{id}` is not an integer")))
}

/// Serialize the recorded events in the requested format and write them.
fn write_obs(rec: &Recorder, path: &str, format: &str) -> Result<usize, CliError> {
    let events = rec.events();
    let body = match format {
        // Chrome traces get flow events too, so Perfetto draws the
        // cross-node causal arrows between the span slices.
        "chrome" => ChromeTrace {
            events: &events,
            flows: &rec.causal_records(),
            ..Default::default()
        }
        .render(),
        "jsonl" => obs::export::to_jsonl(&events),
        other => {
            return Err(CliError::usage(
                "trace",
                format!("unknown --format {other} (chrome | jsonl)"),
            ))
        }
    };
    write_file(path, body)?;
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
fn gen_trace(o: &Opts) -> Result<(), CliError> {
    let system = o.get("system").unwrap_or("tianhe2a");
    let seed = o.get_or("seed", 42u64)?;
    let mut cfg = match system {
        "tianhe2a" => TraceConfig::tianhe2a(),
        "ng" | "ng-tianhe" => TraceConfig::ng_tianhe(),
        other => return Err(o.usage(format!("unknown --system {other} (tianhe2a | ng)"))),
    }
    .with_seed(seed);
    let jobs = o.get_or("jobs", 0usize)?;
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
fn analyze(o: &Opts) -> Result<(), CliError> {
    let path = o.positional(0, "trace file")?;
    let jobs = load_trace(path)?;
    let samples = o.get_or("samples", 20_000usize)?;
    let seed = o.get_or("seed", 1u64)?;

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
fn replay(o: &Opts) -> Result<(), CliError> {
    let path = o.positional(0, "trace file")?;
    let jobs = load_trace(path)?;
    let nodes = o.get_count("nodes", 1024u32)?;
    let algo = parse_algo(o)?;
    let mut policy = parse_policy(o, "user")?;
    let rec = recorder_for(o.get("obs"));
    let cfg = BackfillConfig {
        algo,
        max_resubmits: o.get_or("resubmits", 3u32)?,
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
fn predict(o: &Opts) -> Result<(), CliError> {
    let path = o.positional(0, "trace file")?;
    let jobs = load_trace(path)?;
    let warmup = o.get_or("warmup", jobs.len() / 10)?;
    let window = o.get_or("window", 2000usize)?;
    let seed = o.get_or("seed", 7u64)?;
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

/// Parse the six [`SCENARIO_FLAGS`] over the command's own defaults into
/// the run's [`Scenario`] — `--nodes` compute nodes and `--satellites`
/// satellites under [`jobs`] for `--minutes`, with `--faults` small
/// compute-node outages, at most `--nodes × --minutes` of them (more is a
/// usage error) — and `--jobs`, the denominator of the status
/// lines. The command arms its instruments in the scenario's `run`.
fn scenario(o: &Opts) -> Result<(Scenario<EslurmConfig>, u64), CliError> {
    let d = o.spec().scenario.as_ref();
    let d = d.expect("only commands with scenario defaults call scenario()");
    let nodes = o.get_count("nodes", d.0)?;
    let satellites = o.get_count("satellites", d.1)?;
    let minutes = o.get_span("minutes", d.2, SimSpan::from_secs(60), 0)?;
    let n_jobs = o.get_or("jobs", d.3)?;
    let seed = o.get_or("seed", 42)?;
    let faults = o.get_or("faults", d.4)?;
    // Node ids are `u32`, and the master needs one too.
    let total = 1 + satellites as u128 + nodes as u128;
    if total > u32::MAX as u128 {
        return Err(o.usage(format!(
            "1 + --satellites + --nodes must be at most {}, the node-id space; got {total}",
            u32::MAX
        )));
    }
    // The outage plan is drawn in full before the run: one outage per
    // compute node and virtual minute is more than any run can use.
    let most = nodes as u128 * minutes as u128;
    if faults as u128 > most {
        return Err(o.usage(format!(
            "--faults must be at most --nodes × --minutes = {most}; got {faults}"
        )));
    }
    let cfg = EslurmConfig {
        n_satellites: satellites,
        eq1_width: (nodes / satellites).max(32),
        relay_width: 32,
        ..Default::default()
    };
    let horizon = SimTime::ZERO + SimSpan::from_secs(minutes * 60);
    let sc = Scenario::new(cfg, nodes, seed, horizon)
        .arrivals(jobs(nodes, n_jobs, horizon))
        .small_outages(faults, seed ^ 0xFA17);
    Ok((sc, n_jobs))
}

/// The cluster commands' load: job `j` arrives at 5 + 7j s on a
/// contiguous eighth to five eighths of the `nodes` compute nodes and runs
/// 60 s. None arrives past `horizon` (`run_until` still processes the
/// events at it), so a huge `--jobs` costs no more than the horizon holds.
fn jobs(nodes: usize, n_jobs: u64, horizon: SimTime) -> impl Iterator<Item = Arrival> {
    let fit = (horizon - SimTime::ZERO)
        .as_secs()
        .checked_sub(5)
        .map_or(0, |s| s / 7 + 1);
    (0..n_jobs.min(fit)).map(move |j| {
        let size = ((j % 5 + 1) as usize * nodes / 8).max(1).min(nodes);
        let start = (j as usize * 13) % (nodes - size + 1);
        Arrival {
            at: SimTime::from_secs(5 + j * 7),
            job: j,
            nodes: start..start + size,
            runtime: SimSpan::from_secs(60),
        }
    })
}

/// The scenario's length in whole virtual minutes.
fn minutes(sc: &Scenario<EslurmConfig>) -> u64 {
    (sc.horizon - SimTime::ZERO).as_secs() / 60
}

/// The status line the report commands end on.
fn status(sys: &EslurmSystem, n_jobs: u64) -> String {
    format!(
        "jobs completed: {}/{n_jobs}; engine events: {}",
        sys.master().records.len(),
        sys.sim.events_processed()
    )
}

/// `eslurm simulate --nodes N --satellites M --minutes T --jobs J
/// [--faults K] [--obs trace.json]`
fn simulate(o: &Opts) -> Result<(), CliError> {
    let (sc, n_jobs) = scenario(o)?;
    let minutes = minutes(&sc);
    let rec = recorder_for(o.get("obs"));
    let sys = sc.run(|b| b.obs(rec.clone()));

    let master = sys.master();
    println!(
        "emulated {} compute nodes + {} satellites for {minutes} virtual minutes",
        sys.n_slaves, sys.n_satellites
    );
    println!("jobs completed:    {}/{n_jobs}", master.records.len());
    if let Some(r) = master.records.first() {
        println!("first occupation:  {:.3}s", r.occupation().as_secs_f64());
    }
    println!("heartbeat sweeps:  {}", master.sweeps().len());
    println!(
        "reassignments:     {}   takeovers: {}",
        master.reassignments(),
        master.takeovers()
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
fn trace_cmd(o: &Opts) -> Result<(), CliError> {
    let (sc, n_jobs) = scenario(o)?;
    let minutes = minutes(&sc);
    let out = o.get("out").unwrap_or("trace.json");
    let format = o.get("format").unwrap_or_else(|| format_for(out));

    let rec = Recorder::full();
    let sys = sc.run(|b| b.obs(rec.clone()));
    let n = write_obs(&rec, out, format)?;
    println!(
        "traced {}+{} nodes for {minutes} virtual minutes: \
         {n} events -> {out} ({format})",
        sys.n_slaves, sys.n_satellites
    );
    println!("jobs completed:    {}/{n_jobs}", sys.master().records.len());
    print!("{}", rec.summary());
    Ok(())
}

/// `eslurm metrics --nodes N --satellites M --minutes T --jobs J --seed S
/// [--faults K] [--interval SECS] [--csv FILE] [--prom FILE]`
///
/// Runs the same emulation as `simulate` with the footprint sampler on,
/// prints per-series summaries (mean and percentiles), and optionally
/// exports the time series as CSV (the `diff` input format) and the final
/// metric values in Prometheus text format.
fn metrics(o: &Opts) -> Result<(), CliError> {
    let (sc, n_jobs) = scenario(o)?;
    let minutes = minutes(&sc);
    let interval_s = o.get_span("interval", 1, SimSpan::from_secs(1), 1)?;

    let rec = Recorder::metrics_only();
    let sampler = Sampler::every_until(SimSpan::from_secs(interval_s), sc.horizon);
    let sys = sc.run(|b| b.obs(rec.clone()).sampler(sampler.clone()));

    let store = sampler.store();
    println!(
        "sampled {} series ({} points) every {interval_s}s over {minutes} \
         virtual minutes; {}/{n_jobs} jobs completed",
        store.len(),
        store.n_points(),
        sys.master().records.len(),
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
        write_file(path, sampler.to_csv())?;
        println!("csv:    {} series -> {path}", store.len());
    }
    if let Some(path) = o.get("prom") {
        write_file(path, obs::export::to_prometheus(&rec))?;
        println!("prom:   final exposition -> {path}");
    }
    Ok(())
}

/// Run the scenario with full causal tracing on and rebuild the per-trace
/// causal trees.
fn causal_run(o: &Opts) -> Result<Vec<TraceTree>, CliError> {
    let (sc, _) = scenario(o)?;
    let rec = Recorder::full();
    sc.run(|b| b.obs(rec.clone()));
    Ok(build_traces(&rec.causal_records()))
}

/// `eslurm explain TRACE-ID [--nodes N --satellites M --minutes T
/// --jobs J --seed S --faults K]`
///
/// Re-runs the (deterministic) scenario with causal tracing on, then
/// prints the full causal tree of the requested trace followed by its
/// critical path with the per-hop latency breakdown.
fn explain(o: &Opts) -> Result<(), CliError> {
    let id = positional_id(o, "trace id")?;
    let trees = causal_run(o)?;
    let Some(tree) = trees.iter().find(|t| t.trace == id) else {
        let last = trees.last().map(|t| t.trace).unwrap_or(0);
        return Err(CliError::parse(
            o.spec().name,
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
fn critical_path(o: &Opts) -> Result<(), CliError> {
    let flow =
        match o.get("flow") {
            Some(s) => Some(FlowKind::parse(s).ok_or_else(|| {
                o.usage(format!("unknown --flow {s} (dispatch | sweep | recovery)"))
            })?),
            None => None,
        };
    let trees = causal_run(o)?;
    let selected: Vec<TraceTree> = trees
        .into_iter()
        .filter(|t| flow.is_none_or(|f| t.flow == f))
        .collect();
    if selected.is_empty() {
        return Err(CliError::parse(
            o.spec().name,
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
fn parse_algo(o: &Opts) -> Result<SchedAlgo, CliError> {
    match o.get("algo").unwrap_or("easy") {
        "easy" => Ok(SchedAlgo::Easy),
        "fcfs" => Ok(SchedAlgo::Fcfs),
        "conservative" => Ok(SchedAlgo::Conservative),
        other => Err(o.usage(format!(
            "unknown --algo {other} (easy | fcfs | conservative)"
        ))),
    }
}

/// `--policy user|predictive|oracle` with a per-command default.
fn parse_policy(o: &Opts, default: &'static str) -> Result<Box<dyn LimitPolicy>, CliError> {
    match o.get("policy").unwrap_or(default) {
        "user" => Ok(Box::new(UserLimit::default())),
        "predictive" => Ok(Box::new(PredictiveLimit::new(EstimatorConfig::default()))),
        "oracle" => Ok(Box::new(OracleLimit)),
        other => Err(o.usage(format!(
            "unknown --policy {other} (user | predictive | oracle)"
        ))),
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
fn parse_policies(o: &Opts, banks: usize) -> Result<SchedPolicies, CliError> {
    match o.get("priority").unwrap_or("fifo") {
        "fifo" => Ok(SchedPolicies::default()),
        "multifactor" => Ok(SchedPolicies::default()
            .with_priority(MultifactorPriority::slurm_default())
            .with_fairshare(FairShareLedger::new(SimSpan::from_hours(24), banks as u32))),
        other => Err(o.usage(format!("unknown --priority {other} (fifo | multifactor)"))),
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
fn audit_run(o: &Opts) -> Result<AuditRun, CliError> {
    let nodes = o.get_count("nodes", 64u32)?;
    let users = o.get_or("users", 0usize)?;
    let banks = o.get_or("banks", 48usize)?;
    let jobs = match o.get("trace") {
        Some(path) => load_trace(path)?,
        None => {
            let n = o.get_or("jobs", 400usize)?;
            let seed = o.get_or("seed", 42u64)?;
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
    let algo = parse_algo(o)?;
    let mut policy = parse_policy(o, "predictive")?;
    let rec = recorder_for(o.get("obs"));
    let log = DecisionLog::unbounded();
    let cfg = BackfillConfig {
        algo,
        max_resubmits: o.get_or("resubmits", 3u32)?,
        obs: rec.clone(),
        audit: log.clone(),
        policies: parse_policies(o, banks)?,
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
fn why_job(o: &Opts) -> Result<(), CliError> {
    let id = positional_id(o, "job id")?;
    let run = audit_run(o)?;
    let records = run.log.records();
    if !records.iter().any(|r| r.job == id) {
        return Err(CliError::parse(
            o.spec().name,
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
fn sched_report(o: &Opts) -> Result<(), CliError> {
    let run = audit_run(o)?;
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
        write_file(path, obs::audit::to_jsonl(&records))?;
        println!("audit:  {} decisions -> {path}", records.len());
    }
    if let Some(path) = o.get("obs") {
        let doc = ChromeTrace {
            events: &run.rec.events(),
            flows: &run.rec.causal_records(),
            jobs: &records,
            ..Default::default()
        };
        write_file(path, doc.render())?;
        println!("trace:  job lanes + flows -> {path}");
    }
    Ok(())
}

/// The `--format table|csv|json [--out FILE]` tail of the report commands:
/// `render` holds the three renderings in that order. With `--out` the
/// body goes to the file and stdout names it; without, stdout is exactly
/// the body — a document a parser can read — and the `status` line goes
/// to stderr.
fn emit_report(
    o: &Opts,
    what: &str,
    render: [&dyn Fn() -> String; 3],
    status: &str,
) -> Result<(), CliError> {
    const FORMATS: [&str; 3] = ["table", "csv", "json"];
    let format = o.get("format").unwrap_or(FORMATS[0]);
    let Some(i) = FORMATS.iter().position(|f| *f == format) else {
        return Err(o.usage(format!("unknown --format {format} (table | csv | json)")));
    };
    let body = render[i]();
    match o.get("out") {
        Some(path) => {
            write_file(path, &body)?;
            println!("{what} report ({format}) -> {path}");
            println!("{status}");
        }
        None => {
            print!("{body}");
            eprintln!("{status}");
        }
    }
    Ok(())
}

/// `eslurm slo-report [--nodes N --satellites M --minutes T --jobs J
/// --seed S --faults K] [--sweep-p99 US] [--queue-wait-p90 S]
/// [--inbox-depth D] [--format table|csv|json] [--out FILE]
/// [--check true]`
///
/// Runs the reference emulation with the online SLO engine armed on a 1 s
/// evaluation cadence: sweep-completion p99, queue-wait p90, and master
/// inbox depth against the given targets (multi-window burn-rate
/// detection, so transient spikes don't breach but sustained ones do).
/// Each target is a finite number >= 0. `--check` exits 4 when any spec
/// recorded a breach, mirroring `diff`'s exit 3.
fn slo_report(o: &Opts) -> Result<(), CliError> {
    let (sc, n_jobs) = scenario(o)?;
    let sweep_p99_us = o.get_non_negative("sweep-p99", 10_000_000.0, "target")?;
    let queue_wait_p90_s = o.get_non_negative("queue-wait-p90", 600.0, "target")?;
    let inbox_depth = o.get_non_negative("inbox-depth", 10_000.0, "target")?;
    let check = o.get_or("check", false)?;

    let rec = Recorder::metrics_only();
    let sampler = Sampler::every_until(SimSpan::from_secs(1), sc.horizon);
    let slo = SloEngine::paper_presets(sweep_p99_us, queue_wait_p90_s, inbox_depth);
    let sys = sc.run(|b| b.obs(rec).sampler(sampler).slo(slo));
    let report = sys
        .sim
        .slo_engine()
        .report()
        .expect("engine armed above is enabled");
    let (table, csv, json) = (|| report.render(), || report.to_csv(), || report.to_json());
    emit_report(o, "slo", [&table, &csv, &json], &status(&sys, n_jobs))?;
    let unmet = report.unmet();
    if check && unmet > 0 {
        return Err(CliError::SloUnmet { count: unmet });
    }
    Ok(())
}

/// `eslurm mem-report [--nodes N --satellites M --minutes T --jobs J
/// --seed S --faults K] [--format table|csv|json] [--out FILE]`
///
/// Runs the same emulation as `simulate` with the tagged tracking
/// allocator armed and prints the per-subsystem host-heap attribution:
/// live and peak bytes, allocation counts and rates, and the size-class
/// histogram for each tag (`master`, `satellite`, `sched`, `ml`, `obs`,
/// `des`, `untagged`). The profiler is a report around the run
/// (DESIGN §15): armed before it and read after it, never handed to the
/// engine, so the run is the plain one. Requires a binary built with
/// `--features mem-profile`; without it the command explains and exits 0.
fn mem_report(o: &Opts) -> Result<(), CliError> {
    let (sc, n_jobs) = scenario(o)?;

    if !mem_profile_compiled() {
        println!(
            "mem-report: this binary was built without the `mem-profile` \
             feature, so the tracking allocator is compiled out.\n\
             rebuild with `cargo build --features mem-profile` to measure \
             the host heap."
        );
        return Ok(());
    }
    let profiler = MemProfiler::enabled();
    let sys = sc.run(|b| b);
    let report = profiler
        .report()
        .expect("mem_profile_compiled() checked above, so the handle is armed");
    let (table, csv, json) = (|| report.render(), || report.to_csv(), || report.to_json());
    emit_report(o, "mem", [&table, &csv, &json], &status(&sys, n_jobs))
}

/// `eslurm diff BASE.csv NEW.csv [--threshold-pct P]
/// [--thresholds metric=P,metric=P] [--all true]`
///
/// Compares two sampler CSVs and exits 3 when any gated metric's mean or
/// max grew past its threshold. `footprint_*` metrics are gated by
/// default; `--thresholds` gates the listed metrics with their own
/// limits, and `--all true` gates every shared metric.
fn diff(o: &Opts) -> Result<(), CliError> {
    let base_path = o.positional(0, "baseline csv")?;
    let new_path = o.positional(1, "candidate csv")?;
    let mut opts = DiffOptions {
        default_threshold_pct: o.get_non_negative("threshold-pct", 5.0, "percentage")?,
        gate_all: o.get_or("all", false)?,
        ..DiffOptions::default()
    };
    if let Some(list) = o.get("thresholds") {
        for part in list.split(',').filter(|p| !p.is_empty()) {
            // Split at the LAST `=`: rendered metric names may carry label
            // sets with their own `=` (`footprint_sockets{node="master"}`).
            let (metric, pct) = part
                .rsplit_once('=')
                .ok_or_else(|| o.usage(format!("--thresholds entry `{part}` is not metric=pct")))?;
            let pct = o.non_negative(&format!("--thresholds {metric}"), pct, "percentage")?;
            opts.per_metric.insert(metric.to_string(), pct);
        }
    }

    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| CliError::io(format!("reading {path}"), e))
    };
    let report = compare_csv(&read(base_path)?, &read(new_path)?, &opts)
        .map_err(|e| CliError::parse(format!("{base_path} vs {new_path}"), e))?;

    println!(
        "{:<44} {:>5} {:>14} {:>14} {:>9}  gate",
        "metric", "stat", "base", "new", "delta%"
    );
    for d in &report.deltas {
        let gate = match (d.regressed, d.threshold_pct) {
            (true, Some(t)) => format!("FAIL >{t}%"),
            (false, Some(t)) => format!("ok <={t}%"),
            (_, None) => "-".to_string(),
        };
        println!(
            "{:<44} {:>5} {:>14.4} {:>14.4} {:>9.2}  {gate}",
            d.metric, d.stat, d.base, d.new, d.pct
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
fn convert(o: &Opts) -> Result<(), CliError> {
    let input = o.positional(0, "input file")?;
    let output = o.positional(1, "output file")?;
    let jobs = load_trace(input)?;
    save_trace(&jobs, output)?;
    println!("converted {} jobs: {input} -> {output}", jobs.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The drift guard for the help text: every command registered in
    /// COMMANDS appears in the usage text with its summary. (That it also
    /// dispatches is true by construction: `dispatch` runs the `run` of
    /// the spec it found, so there is no second table to fall out of step.)
    /// And the one place scenario flags are declared stays the one place:
    /// a scenario command lists only the flags of its own.
    #[test]
    fn every_registered_command_dispatches_and_is_listed() {
        let usage_text = usage();
        for c in COMMANDS {
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
            if c.scenario.is_some() {
                for f in SCENARIO_FLAGS {
                    assert!(
                        !c.flags.contains(&f),
                        "`{}` redeclares scenario flag --{f}",
                        c.name
                    );
                }
            }
        }
        assert!(dispatch("no-such-command", &[]).is_none());
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
    /// No job is injected past the horizon: at the default 5 minutes, jobs
    /// 0..=42 arrive by 299 s and job 43 would arrive at 306 s, so even
    /// `--jobs 18446744073709551615` injects 43.
    #[test]
    fn no_arrival_past_the_horizon() {
        let horizon = SimTime::from_secs(300);
        let arrivals: Vec<Arrival> = jobs(64, u64::MAX, horizon).collect();
        assert_eq!(arrivals.len(), 43);
        assert_eq!(arrivals[42].at, SimTime::from_secs(299));
        assert_eq!(jobs(64, 10, horizon).count(), 10);
        assert_eq!(jobs(64, u64::MAX, SimTime::from_secs(4)).count(), 0);
    }

    #[test]
    fn command_names_are_unique() {
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate command name in COMMANDS");
    }
}
