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

use eslurm_bench::{f, obj, print_table, write_bench, ExpArgs, Fig9Scale};
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
    let scale = if args.quick {
        Fig9Scale {
            n_slaves: 100_000,
            satellites: 8,
            horizon: SimSpan::from_secs(900),
            jobs_target: 2_000,
            max_job: 128,
        }
    } else {
        Fig9Scale {
            n_slaves: 1_000_000,
            satellites: 16,
            horizon: SimSpan::from_secs(3600),
            jobs_target: 1_050_000,
            max_job: 256,
        }
    };
    let total_nodes = 1 + scale.satellites + scale.n_slaves;
    let host_par = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "bench_des: {total_nodes} nodes, {} satellites, {} s horizon, ~{} jobs, host parallelism {host_par}",
        scale.satellites,
        scale.horizon.as_secs(),
        scale.jobs_target
    );

    print!("  running ... ");
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let mem_profiler = if args.mem {
        MemProfiler::enabled()
    } else {
        MemProfiler::disabled()
    };
    let run = scale.run(args.seed, |b| b);
    // Present under `--mem` when the binary was built with the
    // `mem-profile` feature.
    let mem = mem_profiler.report();
    let peak_rss = peak_rss_mb();
    let events = run.sys.sim.events_processed();
    let jobs_recorded = run.sys.master().records.len() as u64;
    let events_per_sec = events as f64 / run.wall_s.max(1e-9);
    println!(
        "{} events in {:.2} s ({events_per_sec:.0} ev/s)",
        events, run.wall_s
    );
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
            run.jobs_submitted, jobs_recorded
        ),
        &["wall s", "events", "events/s", "fingerprint"],
        &[vec![
            f(run.wall_s, 2),
            events.to_string(),
            f(events_per_sec, 0),
            format!("{:016x}", run.fingerprint),
        ]],
    );

    let mut root = vec![
        ("nodes", (total_nodes as u64).into()),
        ("satellites", (scale.satellites as u64).into()),
        ("jobs_submitted", run.jobs_submitted.into()),
        ("jobs_completed", jobs_recorded.into()),
        ("horizon_s", scale.horizon.as_secs().into()),
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
        ("wall_s", run.wall_s.into()),
        ("events", events.into()),
        ("events_per_sec", events_per_sec.into()),
        ("fingerprint", format!("{:016x}", run.fingerprint).into()),
    ];
    if let Some(mb) = peak_rss {
        row.push(("peak_rss_mb", mb.into()));
    }
    root.push(("runs", Value::Array(vec![obj(row)])));
    write_bench("DES", "bench_des", &args, root);
}
