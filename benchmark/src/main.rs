//! End-to-end benchmark of the ESlurm reproduction.
//!
//! One command runs every workload, prints every metric by name with its
//! unit, checks the outputs and rewrites `BENCHMARK.json`:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --seed 42
//! ```
//!
//! The same binary is what the driver calls per workload (`--workload W
//! --seed N --seconds S --trace 0|1`), compares two result files
//! (`--compare a.json b.json`), and runs one pass in a fresh process
//! (`--child W`, internal). See `benchmark/README.md`.

mod compare;
mod des;
mod manifest;
mod pass;
mod pipeline;
mod procfs;
mod reference;
mod replay;
mod runner;
mod sched_wl;
mod stats;
mod trace;
mod workloads;

use crate::runner::ChildResult;
use crate::trace::Tracer;
use crate::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  eslurm-benchmark [--seed N] [--only WORKLOAD]... [--reps N] [--trace 0|1] [--out FILE]
      run the workloads (all by default) and print every metric
  eslurm-benchmark --workload WORKLOAD --seed N --seconds S --trace 0|1
      one driver run: measure for S seconds, print one JSON result line
  eslurm-benchmark --compare A.json B.json
      compare two result files against the benchmark's bounds
workloads: des_sweep des_launch sched_predict sched_backfill pipeline";

/// What the command line asked for.
enum Mode {
    /// The one-command run over `only` (all workloads when empty).
    Full {
        seed: u64,
        only: Vec<Workload>,
        reps: usize,
        trace: bool,
        out: Option<PathBuf>,
    },
    /// One driver run of one workload.
    Driver {
        workload: Workload,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    /// One pass (or one traced round) in this process.
    Child {
        workload: Workload,
        seed: u64,
        trace: bool,
    },
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut seed = 42u64;
    let mut only = Vec::new();
    let mut reps = 5usize;
    let mut trace = None;
    let mut out = None;
    let mut workload = None;
    let mut child = None;
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let named = |name: &str| {
            Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--seed" => seed = number(value()?)?,
            "--reps" => reps = number(value()?)?.max(1) as usize,
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => {
                trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                })
            }
            "--only" => only.push(named(value()?)?),
            "--workload" => workload = Some(named(value()?)?),
            "--child" => child = Some(named(value()?)?),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let a = PathBuf::from(value()?);
                return Ok(Mode::Compare(a, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(match (child, workload) {
        (Some(workload), _) => Mode::Child {
            workload,
            seed,
            trace: trace.unwrap_or(false),
        },
        (None, Some(workload)) => Mode::Driver {
            workload,
            seed,
            seconds: seconds.ok_or("--workload needs --seconds")?,
            trace: trace.ok_or("--workload needs --trace")?,
        },
        (None, None) => Mode::Full {
            seed,
            only,
            reps,
            trace: trace.unwrap_or(true),
            out,
        },
    })
}

/// Where results, traces and temp dirs go: beside the sources the binary
/// was built from, so everything it writes stays inside its checkout
/// wherever it is started from.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// The manifest the one-command run regenerates from the metric tables.
pub const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// One pass (or one traced round) in this process; the result goes to
/// stdout as one JSON line.
fn child(workload: Workload, seed: u64, trace: bool) -> Result<(), String> {
    let mut tracer = Tracer::new(seed);
    let params = workload.params();
    let pass = if trace {
        params.run_traced(seed, &mut tracer)
    } else {
        params.run(seed, false, &mut tracer)
    }
    .map_err(|v| v.to_string())?;
    if trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{}.json", workload.name()));
        tracer
            .write_json(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", ChildResult::of(pass).to_json());
    Ok(())
}

fn main() -> ExitCode {
    // An unoptimized build measures the compiler's debug output, not the
    // library.
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("{OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    // Each mode reports what went wrong itself; `Ok(false)` only needs
    // the exit code.
    let (name, ok) = match mode {
        Mode::Child {
            workload,
            seed,
            trace,
        } => (workload.name(), child(workload, seed, trace).map(|()| true)),
        Mode::Driver {
            workload,
            seed,
            seconds,
            trace,
        } => (
            workload.name(),
            runner::driver(workload, seed, seconds, trace),
        ),
        Mode::Full {
            seed,
            only,
            reps,
            trace,
            out,
        } => ("benchmark", runner::full(seed, &only, reps, trace, out)),
        Mode::Compare(a, b) => ("compare", compare::run(&a, &b)),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}
