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
//! the footprint diff is.

use emu::NodeId;
use eslurm::{EslurmConfig, EslurmSystemBuilder};
use eslurm_bench::{f, print_table, ExpArgs};
use obs::{mem_profile_compiled, MemProfiler, MemReport};
use serde::{Number, Value};
use simclock::rng::{exponential, stream_rng};
use simclock::{SimSpan, SimTime};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Stable 64-bit FNV-1a over a byte stream (fingerprints must not depend
/// on the process' hash seeds).
fn fnv64(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Scale {
    n_slaves: usize,
    satellites: usize,
    horizon: SimSpan,
    jobs_target: u64,
    /// Largest job size (power-law cap).
    max_job: u32,
}

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
}

fn run_once(scale: &Scale, seed: u64, shards: usize, mem: bool) -> RunResult {
    let cfg = EslurmConfig {
        n_satellites: scale.satellites,
        eq1_width: 64,
        relay_width: 8,
        hb_sweep_interval: SimSpan::from_secs(120),
        sat_hb_interval: SimSpan::from_secs(30),
        ..Default::default()
    };
    let mem_profiler = if mem {
        MemProfiler::enabled()
    } else {
        MemProfiler::disabled()
    };
    let mut sys = EslurmSystemBuilder::new(cfg, scale.n_slaves, seed)
        .shards(shards)
        .mem_profile(mem_profiler.clone())
        .build();

    // Fig9-style stream: exponential inter-arrival tuned to hit the job
    // target, power-law node counts capped at `max_job`, exponential
    // runtimes with a 5 s floor. Identical for every shard count.
    let horizon_s = scale.horizon.as_secs_f64();
    let rate = scale.jobs_target as f64 / horizon_s;
    let mut rng = stream_rng(seed + 1, 0x10B5);
    let n = scale.n_slaves as u32;
    let max_exp = (scale.max_job.min(n) as f64).log2();
    let mut t = 0.0f64;
    let mut jobs = 0u64;
    let mut idxs: Vec<usize> = Vec::with_capacity(scale.max_job as usize);
    loop {
        t += exponential(&mut rng, rate);
        if t >= horizon_s {
            break;
        }
        let count = 2f64
            .powf(rand::RngExt::random::<f64>(&mut rng) * max_exp)
            .round()
            .max(1.0) as u32;
        let start = rand::RngExt::random_range(&mut rng, 0..n - count.min(n - 1));
        idxs.clear();
        idxs.extend((start..start + count).map(|i| i as usize));
        let rt = SimSpan::from_secs_f64(exponential(&mut rng, 1.0 / 600.0).max(5.0));
        sys.submit(SimTime::from_secs_f64(t), jobs, &idxs, rt);
        jobs += 1;
    }

    let wall = Instant::now();
    sys.sim.run_until(SimTime::ZERO + scale.horizon);
    let wall_s = wall.elapsed().as_secs_f64();

    // Outcome fingerprint: clock, event count, drops, every job record,
    // and the master/satellite meters — what the paper's figures read.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv64(&sys.sim.now().as_micros().to_le_bytes(), h);
    h = fnv64(&sys.sim.events_processed().to_le_bytes(), h);
    h = fnv64(&sys.sim.dropped_messages().to_le_bytes(), h);
    for r in &sys.master().records {
        h = fnv64(format!("{r:?}").as_bytes(), h);
    }
    for i in 0..=scale.satellites {
        let m = sys.sim.meter(NodeId(i as u32));
        h = fnv64(
            format!(
                "{:?}|{:?}|{}|{}|{:?}",
                m.cpu_time(),
                m.msg_counts(),
                m.sockets(),
                m.peak_sockets(),
                m.peak_mem()
            )
            .as_bytes(),
            h,
        );
    }

    RunResult {
        shards,
        wall_s,
        events: sys.sim.events_processed(),
        fingerprint: h,
        jobs_submitted: jobs,
        jobs_recorded: sys.master().records.len() as u64,
        mem: mem_profiler.report(),
    }
}

fn main() {
    let args = ExpArgs::parse();
    let scale = if args.quick {
        Scale {
            n_slaves: 100_000,
            satellites: 8,
            horizon: SimSpan::from_secs(900),
            jobs_target: 2_000,
            max_job: 128,
        }
    } else {
        Scale {
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

    let mut root = BTreeMap::new();
    root.insert(
        "generated_by".to_string(),
        Value::String("cargo run --release -p eslurm-bench --bin bench_des".to_string()),
    );
    root.insert("quick".to_string(), Value::Bool(args.quick));
    root.insert("seed".to_string(), Value::Number(Number::U64(args.seed)));
    root.insert(
        "nodes".to_string(),
        Value::Number(Number::U64(total_nodes as u64)),
    );
    root.insert(
        "satellites".to_string(),
        Value::Number(Number::U64(scale.satellites as u64)),
    );
    root.insert(
        "jobs_submitted".to_string(),
        Value::Number(Number::U64(serial.jobs_submitted)),
    );
    root.insert(
        "jobs_completed".to_string(),
        Value::Number(Number::U64(serial.jobs_recorded)),
    );
    root.insert(
        "horizon_s".to_string(),
        Value::Number(Number::U64(scale.horizon.as_secs())),
    );
    root.insert(
        "host_parallelism".to_string(),
        Value::Number(Number::U64(host_par as u64)),
    );
    root.insert("outcomes_match".to_string(), Value::Bool(outcomes_match));
    root.insert(
        "mem_profiled".to_string(),
        Value::Bool(args.mem && mem_profile_compiled()),
    );
    // The serial run's heap profile is the reference: per-tag peaks plus
    // the allocations-per-event figure the mem-profile CI job gates on.
    if let Some(m) = &serial.mem {
        let mut o = BTreeMap::new();
        o.insert(
            "allocs_per_event".to_string(),
            Value::Number(Number::F64(
                m.total_allocs() as f64 / serial.events.max(1) as f64,
            )),
        );
        o.insert(
            "total_peak_bytes".to_string(),
            Value::Number(Number::U64(m.total_peak())),
        );
        let mut peaks = BTreeMap::new();
        for t in &m.tags {
            peaks.insert(t.tag.clone(), Value::Number(Number::U64(t.peak_bytes)));
        }
        o.insert("peak_bytes".to_string(), Value::Object(peaks));
        root.insert("mem".to_string(), Value::Object(o));
    }
    let runs: Vec<Value> = results
        .iter()
        .map(|r| {
            let mut o = BTreeMap::new();
            o.insert(
                "shards".to_string(),
                Value::Number(Number::U64(r.shards as u64)),
            );
            o.insert("wall_s".to_string(), Value::Number(Number::F64(r.wall_s)));
            o.insert("events".to_string(), Value::Number(Number::U64(r.events)));
            o.insert(
                "events_per_sec".to_string(),
                Value::Number(Number::F64(r.events as f64 / r.wall_s.max(1e-9))),
            );
            if let Some(m) = &r.mem {
                o.insert(
                    "allocs_per_event".to_string(),
                    Value::Number(Number::F64(
                        m.total_allocs() as f64 / r.events.max(1) as f64,
                    )),
                );
                o.insert(
                    "peak_bytes_total".to_string(),
                    Value::Number(Number::U64(m.total_peak())),
                );
            }
            Value::Object(o)
        })
        .collect();
    root.insert("runs".to_string(), Value::Array(runs));

    let json = serde_json::to_string(&Value::Object(root)).expect("serialize report");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_DES.json");
    std::fs::write(&path, json + "\n").expect("write BENCH_DES.json");
    println!("  [json] {}", path.display());

    assert!(outcomes_match, "sharded run diverged from the 1-shard run");
}
