//! # eslurm-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (see `DESIGN.md` §3 for the index). Every binary accepts
//! `--quick` (reduced scale, for CI and smoke runs) and `--seed <n>`,
//! prints aligned text tables, and drops CSV series under `results/`
//! (`target/results-quick/` under `--quick`).
//!
//! A DES experiment is an [`eslurm::Scenario`] in and rows out. What more
//! than one binary needs lives here once: the table emitter
//! ([`ExpArgs::emit`]: each column's display and CSV header declared
//! together, printed and written in one call), the master's and
//! satellites' [`footprint`] statistics, the fig9-scale scenario
//! `bench_des` times ([`fig9_scale`], [`timed_run`]), its outcome
//! fingerprint ([`figure_fingerprint`] over [`fnv64`]) and the
//! `BENCH_*.json` writer ([`write_bench`]).

#![forbid(unsafe_code)]

use emu::NodeId;
use eslurm::{EslurmConfig, Scenario, Stack, System, SystemBuilder};
use obs::audit::{Decision, DecisionRecord};
use obs::{MetricId, SeriesPoint, SeriesStore, SeriesSummary};
use rm::{Arrival, JobStream, MasterLog};
use serde::Value;
use simclock::{SimSpan, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Command-line arguments shared by all experiment binaries.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Reduced-scale run.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Arm the tagged tracking allocator (binaries that drive the DES
    /// report per-tag heap peaks and allocations-per-event when set;
    /// needs a binary built with `--features mem-profile` to measure).
    pub mem: bool,
}

impl ExpArgs {
    /// Parse from `std::env::args` (`--quick`, `--seed <n>`, `--mem`).
    pub fn parse() -> Self {
        let mut args = ExpArgs {
            quick: false,
            seed: 42,
            mem: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => args.quick = true,
                "--mem" => args.mem = true,
                "--seed" => {
                    args.seed = match it.next().and_then(|v| v.parse().ok()) {
                        Some(s) => s,
                        None => {
                            eprintln!("--seed needs an integer; try --help");
                            std::process::exit(2);
                        }
                    };
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: --quick (reduced scale), --seed <n>, \
                         --mem (tagged heap profiler)"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown option {other}; try --help");
                    std::process::exit(2);
                }
            }
        }
        args
    }

    /// Pick `full` normally, `quick` under `--quick`.
    pub fn scale<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The output directory for CSV series (created on demand): the
    /// committed full-scale `results/`, or the untracked
    /// `target/results-quick/` under `--quick`, so a smoke run never
    /// overwrites the series EXPERIMENTS.md quotes.
    pub fn results_dir(&self) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(self.scale("../../results", "../../target/results-quick"));
        std::fs::create_dir_all(&dir).expect("create results dir");
        dir
    }

    /// Write a CSV file under [`Self::results_dir`].
    pub fn write_csv(&self, name: &str, header: &[&str], rows: &[Vec<String>]) {
        let mut out = String::new();
        let _ = writeln!(out, "{}", header.join(","));
        for row in rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        let path = self.results_dir().join(name);
        std::fs::write(&path, out).expect("write csv");
        println!("  [csv] {}", path.display());
    }

    /// One table, declared once and emitted once: printed under `title`,
    /// followed by `note` unless it is empty, and written to `csv`. `cols`
    /// holds each column's `(display, csv)` header; an empty header keeps
    /// the column out of that output, so a value can be shown rounded and
    /// written raw.
    pub fn emit(
        &self,
        title: &str,
        csv: &str,
        cols: &[(&str, &str)],
        rows: &[Vec<String>],
        note: &str,
    ) {
        // Side 0 is the display, side 1 the CSV: the header and the
        // cells of the columns that have one on that side.
        let pick = |side: usize| {
            let kept: Vec<(usize, &str)> = (cols.iter().map(|&(d, c)| [d, c][side]).enumerate())
                .filter(|(_, h)| !h.is_empty())
                .collect();
            let cells = |r: &Vec<String>| kept.iter().map(|&(i, _)| r[i].clone()).collect();
            let header: Vec<&str> = kept.iter().map(|&(_, h)| h).collect();
            (header, rows.iter().map(cells).collect::<Vec<_>>())
        };
        let (header, shown) = pick(0);
        print_table(title, &header, &shown);
        if !note.is_empty() {
            println!("{note}");
        }
        let (header, written) = pick(1);
        self.write_csv(csv, &header, &written);
    }
}

/// Print an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (w, c) in widths.iter().zip(cells) {
            let _ = write!(s, "{c:>w$}  ", w = w);
        }
        s
    };
    println!(
        "{}",
        line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// The `family{node=<node>}` footprint series of a sampler's store (empty
/// when the node was not tracked).
pub fn node_series<'a>(
    store: &'a SeriesStore,
    family: &'static str,
    node: &str,
) -> &'a [SeriesPoint] {
    store
        .get(&MetricId::new(family).with("node", node))
        .unwrap_or(&[])
}

/// What the resource-usage figures read off one sampled node's footprint
/// series: mean CPU utilization, CPU time at the last sample, and the
/// means of virtual memory, real memory and open sockets.
pub struct Footprint {
    /// Mean CPU utilization (0–1).
    pub cpu_util: f64,
    /// CPU seconds at the last sample.
    pub cpu_s: f64,
    /// Mean virtual memory, bytes.
    pub virt: u64,
    /// Mean real memory, bytes.
    pub real: u64,
    /// Mean open sockets.
    pub sockets: f64,
}

/// The [`Footprint`] of `node` (`master`, `sat<i>`) in a sampler's store.
pub fn footprint(store: &SeriesStore, node: &str) -> Footprint {
    let stat = |family| SeriesSummary::of(node_series(store, family, node).iter().map(|p| p.value));
    Footprint {
        cpu_util: stat("footprint_cpu_util").mean,
        cpu_s: stat("footprint_cpu_time_s").last,
        virt: stat("footprint_virt_bytes").mean as u64,
        real: stat("footprint_real_bytes").mean as u64,
        sockets: stat("footprint_sockets").mean,
    }
}

/// Format a float with the given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Format a byte count as MiB/GiB.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.1} KiB", b as f64 / 1024.0)
    }
}

/// Stable 64-bit FNV-1a step over a byte stream, continuing from `h`
/// (fingerprints must not depend on the process' hash seeds).
pub fn fnv64(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis every fingerprint starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Every started job's `(job, submit µs, final start µs)`, in job order,
/// joined from a decision log's records: its first `Submitted` record and
/// its last `Started` one — the same joins `eslurm why-job` renders.
pub fn submit_to_start(records: &[DecisionRecord]) -> Vec<(u64, u64, u64)> {
    let mut submit: BTreeMap<u64, u64> = BTreeMap::new();
    let mut start: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        match r.decision {
            Decision::Submitted => {
                submit.entry(r.job).or_insert(r.t_us);
            }
            Decision::Started { .. } => {
                start.insert(r.job, r.t_us); // last start wins
            }
            _ => {}
        }
    }
    start
        .into_iter()
        .filter_map(|(job, s)| submit.get(&job).map(|&sub| (job, sub, s)))
        .collect()
}

/// The `q`-quantile of ascending `sorted`, by nearest rank; 0 when empty.
pub fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(((sorted.len() - 1) as f64) * q).round() as usize]
}

/// The fig9-style ESlurm scenario at benchmark scale, which `bench_des`
/// times: `n_compute` nodes and `satellites` satellites
/// under the shared job stream (power-law sizes capped at `max_job`,
/// exponential inter-arrival tuned to `jobs_target` jobs within the
/// horizon, 600 s mean runtimes). Job ids count from 0 here: they are
/// hashed into the pinned fingerprints.
pub fn fig9_scale(
    n_compute: usize,
    satellites: usize,
    horizon: SimSpan,
    jobs_target: u64,
    max_job: u32,
    seed: u64,
) -> Scenario<EslurmConfig> {
    let cfg = EslurmConfig {
        n_satellites: satellites,
        eq1_width: 64,
        relay_width: 8,
        hb_sweep_interval: SimSpan::from_secs(120),
        sat_hb_interval: SimSpan::from_secs(30),
        ..Default::default()
    };
    let stream = JobStream::new(
        n_compute as u32,
        horizon,
        jobs_target as f64 * 3600.0 / horizon.as_secs_f64(),
        max_job,
        SimSpan::from_secs(600),
        seed + 1,
    );
    Scenario::new(cfg, n_compute, seed, SimTime::ZERO + horizon).arrivals(stream.map(|a| Arrival {
        job: a.job - 1,
        ..a
    }))
}

/// Build `scenario` with `arm` and run it to its horizon: the system and
/// the wall-clock of the event loop alone (build and injection excluded).
pub fn timed_run<S: Stack>(
    scenario: Scenario<S>,
    arm: impl FnOnce(SystemBuilder<S>) -> SystemBuilder<S>,
) -> (System<S>, f64) {
    let horizon = scenario.horizon;
    let mut sys = scenario.build(arm);
    let wall = Instant::now();
    sys.sim.run_until(horizon);
    (sys, wall.elapsed().as_secs_f64())
}

/// Outcome fingerprint of a DES run over what the paper's figures read:
/// clock, event count and drops, then every job record, then the master's
/// and each satellite's meter.
pub fn figure_fingerprint<S: Stack>(sys: &System<S>) -> u64 {
    let sim = &sys.sim;
    let counts = [
        sim.now().as_micros(),
        sim.events_processed(),
        sim.dropped_messages(),
    ];
    let records = sys.master().records().iter().map(|r| format!("{r:?}"));
    let meters = (0..=sys.n_satellites).map(|i| {
        let m = sim.meter(NodeId(i as u32));
        format!(
            "{:?}|{:?}|{}|{}|{:?}",
            m.cpu_time(),
            m.msg_counts(),
            m.sockets(),
            m.peak_sockets(),
            m.peak_mem()
        )
    });
    let h = counts
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv64(&v.to_le_bytes(), h));
    records.chain(meters).fold(h, |h, p| fnv64(p.as_bytes(), h))
}

/// A JSON object from `(key, value)` pairs.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Write `BENCH_<name>.json` at the repository root: `fields` plus the
/// provenance every report carries (the generating `bin`, `--quick`,
/// `--seed`).
pub fn write_bench(name: &str, bin: &str, args: &ExpArgs, fields: Vec<(&str, Value)>) {
    let generated_by = format!("cargo run --release -p eslurm-bench --bin {bin}");
    let provenance = [
        ("generated_by", generated_by.into()),
        ("quick", args.quick.into()),
        ("seed", args.seed.into()),
    ];
    let json = serde_json::to_string(&obj(provenance.into_iter().chain(fields)))
        .expect("serialize report");
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_".to_owned() + name + ".json");
    std::fs::write(&path, json + "\n").expect("write bench report");
    println!("  [json] {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks_by_mode() {
        let a = ExpArgs {
            quick: true,
            seed: 1,
            mem: false,
        };
        assert_eq!(a.scale(100, 10), 10);
        let b = ExpArgs {
            quick: false,
            seed: 1,
            mem: false,
        };
        assert_eq!(b.scale(100, 10), 100);
    }

    #[test]
    fn bytes_format() {
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.0 GiB");
    }
}
