//! `bench_des` — scaling benchmark for the sharded discrete-event engine.
//!
//! Runs a fig9-style ESlurm workload (power-law job sizes, exponential
//! inter-arrival and runtimes) on a large emulated cluster, once on one
//! shard and once on four, and reports wall-clock and events/sec for each
//! layout plus an outcome fingerprint — the sharded run must reproduce
//! the 1-shard outcomes exactly, or the benchmark aborts.
//!
//! The full run covers a million-node cluster and a million-plus jobs;
//! `--quick` shrinks that to ~100k nodes for CI. Writes `BENCH_DES.json`
//! at the repository root, gated by the `des-scale` CI job the same way
//! the footprint diff is. The serial row also carries the process's peak
//! resident set size, read before the sharded layout runs.

use eslurm_bench::{f, obj, print_table, write_bench, ExpArgs, Fig9Scale};
use obs::{mem_profile_compiled, MemProfiler, MemReport};
use serde::Value;
use simclock::SimSpan;

/// The serial layout first (the reference), then one sharded layout.
const SHARD_COUNTS: [usize; 2] = [1, 4];

struct RunResult {
    shards: usize,
    wall_s: f64,
    events: u64,
    fingerprint: u64,
    jobs_submitted: u64,
    jobs_recorded: u64,
    /// Tagged heap profile, present under `--mem` when the binary was
    /// built with the `mem-profile` feature.
    mem: Option<MemReport>,
    /// Peak resident set size of the process so far, in MB; read after
    /// the serial run only, since a later run's peak includes it.
    peak_rss_mb: Option<f64>,
}

/// This process's peak resident set size in MB (`VmHWM` in
/// `/proc/self/status`); `None` without procfs.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn run_once(scale: &Fig9Scale, seed: u64, shards: usize, mem: bool) -> RunResult {
    let mem_profiler = if mem {
        MemProfiler::enabled()
    } else {
        MemProfiler::disabled()
    };
    let run = scale.run(seed, |b| b.shards(shards));
    RunResult {
        shards,
        wall_s: run.wall_s,
        events: run.sys.sim.events_processed(),
        fingerprint: run.fingerprint,
        jobs_submitted: run.jobs_submitted,
        jobs_recorded: run.sys.master().records.len() as u64,
        mem: mem_profiler.report(),
        peak_rss_mb: if shards == 1 { peak_rss_mb() } else { None },
    }
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

    let mut results: Vec<RunResult> = Vec::new();
    for shards in SHARD_COUNTS {
        print!("  shards={shards} ... ");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        let r = run_once(&scale, args.seed, shards, args.mem);
        println!(
            "{} events in {:.2} s ({:.0} ev/s)",
            r.events,
            r.wall_s,
            r.events as f64 / r.wall_s.max(1e-9)
        );
        if let Some(mb) = r.peak_rss_mb {
            println!("    peak RSS {mb:.1} MB");
        }
        if let Some(m) = &r.mem {
            println!(
                "    mem: {} peak across {} tag(s), {:.2} allocs/event",
                eslurm_bench::fmt_bytes(m.total_peak()),
                m.tags.len(),
                m.total_allocs() as f64 / r.events.max(1) as f64
            );
        }
        results.push(r);
    }
    if args.mem && !mem_profile_compiled() {
        println!(
            "  (--mem requested but this binary lacks the `mem-profile` \
             feature; heap numbers omitted)"
        );
    }

    let serial = &results[0];
    assert_eq!(serial.shards, 1, "first configuration must be serial");
    let outcomes_match = results
        .iter()
        .all(|r| r.fingerprint == serial.fingerprint && r.jobs_recorded == serial.jobs_recorded);

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.shards.to_string(),
                f(r.wall_s, 2),
                r.events.to_string(),
                f(r.events as f64 / r.wall_s.max(1e-9), 0),
                format!("{:016x}", r.fingerprint),
            ]
        })
        .collect();
    print_table(
        &format!(
            "bench_des — {total_nodes} nodes, {} jobs submitted / {} completed in-horizon",
            serial.jobs_submitted, serial.jobs_recorded
        ),
        &["shards", "wall s", "events", "events/s", "fingerprint"],
        &rows,
    );
    println!(
        "\n  outcomes {}",
        if outcomes_match {
            "IDENTICAL across all shard counts"
        } else {
            "DIVERGED — event order depends on the shard layout"
        }
    );

    let allocs_per_event = |m: &MemReport, events: u64| -> Value {
        (m.total_allocs() as f64 / events.max(1) as f64).into()
    };
    let mut root = vec![
        ("nodes", (total_nodes as u64).into()),
        ("satellites", (scale.satellites as u64).into()),
        ("jobs_submitted", serial.jobs_submitted.into()),
        ("jobs_completed", serial.jobs_recorded.into()),
        ("horizon_s", scale.horizon.as_secs().into()),
        ("host_parallelism", (host_par as u64).into()),
        ("outcomes_match", outcomes_match.into()),
        ("mem_profiled", (args.mem && mem_profile_compiled()).into()),
    ];
    // The serial run's heap profile is the reference: per-tag peaks plus
    // the allocations-per-event figure the mem-profile CI job gates on.
    if let Some(m) = &serial.mem {
        let peaks = m.tags.iter().map(|t| (t.tag.as_str(), t.peak_bytes.into()));
        root.push((
            "mem",
            obj([
                ("allocs_per_event", allocs_per_event(m, serial.events)),
                ("total_peak_bytes", m.total_peak().into()),
                ("peak_bytes", obj(peaks)),
            ]),
        ));
    }
    // Each layout's fingerprint is in the report: the `des-scale` gate
    // compares them itself.
    let runs = results.iter().map(|r| {
        let mut o = vec![
            ("shards", (r.shards as u64).into()),
            ("wall_s", r.wall_s.into()),
            ("events", r.events.into()),
            (
                "events_per_sec",
                (r.events as f64 / r.wall_s.max(1e-9)).into(),
            ),
            ("fingerprint", format!("{:016x}", r.fingerprint).into()),
        ];
        if let Some(m) = &r.mem {
            o.push(("allocs_per_event", allocs_per_event(m, r.events)));
            o.push(("peak_bytes_total", m.total_peak().into()));
        }
        if let Some(mb) = r.peak_rss_mb {
            o.push(("peak_rss_mb", mb.into()));
        }
        obj(o)
    });
    root.push(("runs", Value::Array(runs.collect())));
    write_bench("DES", "bench_des", &args, root);

    assert!(outcomes_match, "sharded run diverged from the 1-shard run");
}
