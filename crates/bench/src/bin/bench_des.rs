//! `bench_des` — scaling benchmark for the discrete-event engine.
//!
//! Runs a fig9-style ESlurm workload (power-law job sizes, exponential
//! inter-arrival and runtimes) on a large emulated cluster and reports
//! wall-clock, events/sec, the process's peak resident set size and an
//! outcome fingerprint, which the `des-scale` CI job holds to its pinned
//! value.
//!
//! The full run covers a million-node cluster and a million-plus jobs;
//! `--quick` shrinks that to ~100k nodes for CI. Writes `BENCH_DES.json`
//! at the repository root.

use eslurm_bench::{
    f, fig9_scale, figure_fingerprint, obj, print_table, timed_run, write_bench, ExpArgs,
};
use obs::{mem_profile_compiled, MemProfiler};
use serde::Value;
use simclock::SimSpan;

/// This process's peak resident set size in MB (`VmHWM` in
/// `/proc/self/status`); `None` without procfs.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let args = ExpArgs::parse();
    // (compute nodes, satellites, horizon, jobs expected, largest job)
    let (n_compute, satellites, horizon, jobs_target, max_job) = args.scale(
        (1_000_000, 16, SimSpan::from_secs(3600), 1_050_000, 256),
        (100_000, 8, SimSpan::from_secs(900), 2_000, 128),
    );
    let scenario = fig9_scale(
        n_compute,
        satellites,
        horizon,
        jobs_target,
        max_job,
        args.seed,
    );
    let total_nodes = 1 + satellites + n_compute;
    let host_par = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "bench_des: {total_nodes} nodes, {satellites} satellites, {} s horizon, ~{jobs_target} jobs, host parallelism {host_par}",
        horizon.as_secs(),
    );

    print!("  running ... ");
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let mem_profiler = if args.mem {
        MemProfiler::enabled()
    } else {
        MemProfiler::disabled()
    };
    let (sys, wall_s) = timed_run(scenario, |b| b);
    // Present under `--mem` when the binary was built with the
    // `mem-profile` feature.
    let mem = mem_profiler.report();
    let peak_rss = peak_rss_mb();
    let events = sys.sim.events_processed();
    let jobs_submitted = sys.submitted;
    let jobs_recorded = sys.master().records.len() as u64;
    let fingerprint = figure_fingerprint(&sys);
    let events_per_sec = events as f64 / wall_s.max(1e-9);
    println!("{events} events in {wall_s:.2} s ({events_per_sec:.0} ev/s)");
    if let Some(mb) = peak_rss {
        println!("    peak RSS {mb:.1} MB");
    }
    if let Some(m) = &mem {
        println!(
            "    mem: {} peak across {} tag(s), {:.2} allocs/event",
            eslurm_bench::fmt_bytes(m.total_peak()),
            m.tags.len(),
            m.total_allocs() as f64 / events.max(1) as f64
        );
    }
    if args.mem && !mem_profile_compiled() {
        println!(
            "  (--mem requested but this binary lacks the `mem-profile` \
             feature; heap numbers omitted)"
        );
    }

    print_table(
        &format!(
            "bench_des — {total_nodes} nodes, {} jobs submitted / {} completed in-horizon",
            jobs_submitted, jobs_recorded
        ),
        &["wall s", "events", "events/s", "fingerprint"],
        &[vec![
            f(wall_s, 2),
            events.to_string(),
            f(events_per_sec, 0),
            format!("{fingerprint:016x}"),
        ]],
    );

    let mut root = vec![
        ("nodes", (total_nodes as u64).into()),
        ("satellites", (satellites as u64).into()),
        ("jobs_submitted", jobs_submitted.into()),
        ("jobs_completed", jobs_recorded.into()),
        ("horizon_s", horizon.as_secs().into()),
        ("host_parallelism", (host_par as u64).into()),
        ("mem_profiled", (args.mem && mem_profile_compiled()).into()),
    ];
    // Per-tag heap peaks plus the allocations-per-event figure the
    // mem-profile CI job gates on.
    if let Some(m) = &mem {
        let peaks = m.tags.iter().map(|t| (t.tag.as_str(), t.peak_bytes.into()));
        root.push((
            "mem",
            obj([
                (
                    "allocs_per_event",
                    (m.total_allocs() as f64 / events.max(1) as f64).into(),
                ),
                ("total_peak_bytes", m.total_peak().into()),
                ("peak_bytes", obj(peaks)),
            ]),
        ));
    }
    // The fingerprint is in the report: the `des-scale` gate holds it to
    // its pin.
    let mut row = vec![
        ("wall_s", wall_s.into()),
        ("events", events.into()),
        ("events_per_sec", events_per_sec.into()),
        ("fingerprint", format!("{fingerprint:016x}").into()),
    ];
    if let Some(mb) = peak_rss {
        row.push(("peak_rss_mb", mb.into()));
    }
    root.push(("runs", Value::Array(vec![obj(row)])));
    write_bench("DES", "bench_des", &args, root);
}
