//! Running passes in child processes and reporting what they measured:
//! the driver's one-line result, and the one-command run's tables and
//! result file.

use crate::manifest::{self, END_TO_END, PER_LAYER};
use crate::pass::Pass;
use crate::procfs;
use crate::reference::{self, Reference, NOMINAL_S};
use crate::stats::{median, percentile};
use crate::workloads::Workload;
use crate::{BENCHMARK_JSON, OUT_DIR};
use serde::{Number, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What one child process measured: its pass, and its own peak
/// resident size (`VmHWM`) once the pass was done.
#[derive(Clone, Debug, PartialEq)]
pub struct ChildResult {
    pub pass: Pass,
    pub peak_rss_mb: Option<f64>,
    /// The reference loop's time around the pass, which the parent takes:
    /// [`NOMINAL_S`] until it has.
    pub ref_s: f64,
}

fn num(v: f64) -> Value {
    Value::Number(Number::F64(v))
}

fn opt_num(v: Option<f64>) -> Value {
    v.map_or(Value::Null, num)
}

fn int(v: u64) -> Value {
    Value::Number(Number::U64(v))
}

fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value tree always serializes")
}

impl ChildResult {
    /// The pass just finished in this process.
    pub fn of(pass: Pass) -> Self {
        ChildResult {
            pass,
            peak_rss_mb: procfs::peak_rss_mb(),
            ref_s: NOMINAL_S,
        }
    }

    pub fn to_json(&self) -> String {
        let p = &self.pass;
        let layers = p.layers.iter().map(|(k, v)| (k.to_string(), num(*v)));
        render(&object([
            ("setup_s", num(p.setup_s)),
            ("wall_s", num(p.wall_s)),
            ("cpu_s", opt_num(p.cpu_s)),
            ("peak_rss_mb", opt_num(self.peak_rss_mb)),
            (
                "outcome_fp",
                Value::String(format!("{:016x}", p.outcome_fp)),
            ),
            ("attempted", int(p.attempted)),
            ("failed", int(p.failed)),
            ("layers", Value::Object(layers.collect())),
        ]))
    }

    pub fn from_json(line: &str) -> Result<Self, String> {
        let v = serde_json::parse_value_str(line).map_err(|e| format!("child result: {e}"))?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("child result lacks `{k}`"));
        let f = |k: &str| match field(k)? {
            Value::Number(n) => Ok(n.as_f64()),
            _ => Err(format!("child result: `{k}` is not a number")),
        };
        let opt = |k: &str| match field(k)? {
            Value::Null => Ok(None),
            Value::Number(n) => Ok(Some(n.as_f64())),
            _ => Err(format!("child result: `{k}` is not a number or null")),
        };
        let u = |k: &str| match field(k)? {
            Value::Number(n) => n
                .as_u64()
                .ok_or(format!("child result: `{k}` is not whole")),
            _ => Err(format!("child result: `{k}` is not a number")),
        };
        let outcome_fp = match field("outcome_fp")? {
            Value::String(s) => u64::from_str_radix(s, 16).map_err(|e| format!("outcome_fp: {e}")),
            _ => Err("child result: `outcome_fp` is not a string".to_string()),
        }?;
        // Keyed by the manifest's own names; anything else is not a metric.
        let layers = PER_LAYER
            .iter()
            .filter_map(|m| match field("layers").ok()?.get(m.name)? {
                Value::Number(n) => Some((m.name, n.as_f64())),
                _ => None,
            })
            .collect();
        Ok(ChildResult {
            pass: Pass {
                setup_s: f("setup_s")?,
                wall_s: f("wall_s")?,
                cpu_s: opt("cpu_s")?,
                outcome_fp,
                attempted: u("attempted")?,
                failed: u("failed")?,
                layers,
            },
            peak_rss_mb: opt("peak_rss_mb")?,
            ref_s: NOMINAL_S,
        })
    }

    fn layer(&self, name: &str) -> Option<f64> {
        self.pass.layers.get(name).copied()
    }

    /// How fast the host ran around this pass: 1 on the quiet reference
    /// box, less in a loud phase.
    fn host_speed(&self) -> f64 {
        reference::speed(self.ref_s)
    }

    /// The end-to-end metric `name`, times in reference seconds (see
    /// [`crate::reference`]); `None` where `/proc` gave nothing.
    fn end_to_end(&self, name: &str) -> Option<f64> {
        match name {
            "wall_s" => Some(self.pass.wall_s * self.host_speed()),
            "cpu_s" => self.pass.cpu_s.map(|s| s * self.host_speed()),
            "peak_rss_mb" => self.peak_rss_mb,
            "setup_s" => Some(self.pass.setup_s * self.host_speed()),
            other => unreachable!("no end-to-end metric `{other}`"),
        }
    }
}

/// Run `workload` once in a fresh process of this binary and wait for it,
/// then take a turn of the reference loop: `reference` took its last one
/// right before this child started. A child that crashes, or whose
/// invariants fail, is an `Err`.
pub fn spawn(
    workload: Workload,
    seed: u64,
    trace: bool,
    reference: &mut Reference,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", workload.name(), "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("child failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed no result")?;
    let mut result = ChildResult::from_json(line)?;
    result.ref_s = reference.turn();
    Ok(result)
}

/// The values of one metric across children, `None`s dropped.
fn column(results: &[ChildResult], pick: impl Fn(&ChildResult) -> Option<f64>) -> Vec<f64> {
    results.iter().filter_map(pick).collect()
}

fn same_outcome<'a>(results: impl IntoIterator<Item = &'a ChildResult>) -> bool {
    let mut fps = results.into_iter().map(|r| r.pass.outcome_fp);
    let first = fps.next();
    fps.all(|fp| Some(fp) == first)
}

/// Inputs a driver run draws from its seed and cycles through, pass by
/// pass. `sched_backfill`'s cost is chaotic in its input (see
/// `SchedParams::trace`): one input per run would put that spread, 12 %
/// between quartiles, into every comparison of two runs.
const INPUTS: usize = 5;

/// The seed of a run's `k`-th input; the 0th is the run's own seed.
fn input_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A metric over a run's passes, grouped by input: the mean over inputs
/// of the median over an input's passes.
fn over_inputs(
    inputs: &[Vec<ChildResult>],
    pick: impl Fn(&ChildResult) -> Option<f64>,
) -> Option<f64> {
    let medians: Vec<f64> = inputs
        .iter()
        .filter_map(|passes| median(&column(passes, &pick)))
        .collect();
    (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
}

/// One driver run: children back to back, cycling through the run's
/// inputs, for as many passes as fit into `seconds` (at least one); the
/// result is the last line of stdout. A traced run stays on the run's own
/// seed, so that its counts repeat exactly. `Ok(false)` if passes over
/// one input disagreed on the outcome.
pub fn driver(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<bool, String> {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut reference = Reference::new();
    let mut inputs = vec![Vec::new(); INPUTS];
    let mut longest = Duration::ZERO;
    for pass in 0.. {
        if pass > 0 && start.elapsed() + longest > budget {
            break;
        }
        let k = if trace { 0 } else { pass % INPUTS };
        let began = Instant::now();
        let result = spawn(workload, input_seed(seed, k), trace, &mut reference)?;
        longest = longest.max(began.elapsed());
        eprintln!(
            "pass {pass} on input {k}: wall {:.4} s, reference loop {:.4} s",
            result.pass.wall_s, result.ref_s
        );
        inputs[k].push(result);
    }
    let correct = inputs.iter().all(same_outcome);
    if !correct {
        eprintln!("{}: passes disagree on outcome_fp", workload.name());
    }
    let speed = over_inputs(&inputs, |r| Some(r.host_speed())).unwrap_or(1.0);
    eprintln!(
        "{}: {} passes, host speed {speed:.3} of the reference box",
        workload.name(),
        inputs.iter().map(Vec::len).sum::<usize>()
    );
    let metric = |value: Option<f64>, unit: &str| {
        object([
            ("value", opt_num(value)),
            ("unit", Value::String(unit.into())),
        ])
    };
    let metrics: BTreeMap<String, Value> = if trace {
        PER_LAYER
            .iter()
            .map(|m| {
                // A layer the workload bypasses did no work: 0.
                let v = over_inputs(&inputs, |r| r.layer(m.name));
                (m.name.to_string(), metric(Some(v.unwrap_or(0.0)), m.unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v = over_inputs(&inputs, |r| r.end_to_end(m.name));
                (m.name.to_string(), metric(v, m.unit))
            })
            .collect()
    };
    let passes = || inputs.iter().flatten();
    println!(
        "{}",
        render(&object([
            ("correct", Value::Bool(correct)),
            ("attempted", int(passes().map(|r| r.pass.attempted).sum())),
            ("failed", int(passes().map(|r| r.pass.failed).sum())),
            ("metrics", Value::Object(metrics)),
        ]))
    );
    Ok(correct)
}

/// Everything the one-command run learned about one workload.
struct Row {
    workload: Workload,
    timed: Vec<ChildResult>,
    traced: Option<ChildResult>,
    /// Children that crashed or failed an invariant.
    crashed: u64,
}

impl Row {
    fn attempted(&self) -> u64 {
        let jobs = self.workload.params().jobs();
        self.timed.iter().map(|r| r.pass.attempted).sum::<u64>() + self.crashed * jobs
    }

    /// A crashed child counts all of its jobs as failed.
    fn failed(&self) -> u64 {
        let jobs = self.workload.params().jobs();
        self.timed.iter().map(|r| r.pass.failed).sum::<u64>() + self.crashed * jobs
    }

    fn fail_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    fn outcomes_agree(&self) -> bool {
        same_outcome(self.timed.iter().chain(&self.traced))
    }

    fn ok(&self) -> bool {
        self.crashed == 0 && self.failed() == 0 && self.outcomes_agree()
    }
}

/// One end-to-end metric over a row's timed children.
struct Summary {
    values: Vec<f64>,
    median: Option<f64>,
    min: Option<f64>,
    max: Option<f64>,
}

impl Row {
    fn summary(&self, metric: &str) -> Summary {
        let values = column(&self.timed, |r| r.end_to_end(metric));
        Summary {
            median: median(&values),
            min: values.iter().copied().reduce(f64::min),
            max: values.iter().copied().reduce(f64::max),
            values,
        }
    }

    fn outcome_fp(&self) -> u64 {
        self.timed.first().map_or(0, |r| r.pass.outcome_fp)
    }

    /// Median host speed around the timed children.
    fn host_speed(&self) -> Option<f64> {
        median(&column(&self.timed, |r| Some(r.host_speed())))
    }
}

/// The one-command run: `reps` timed children per workload, interleaved
/// round-robin so a slow phase of the box hits every workload alike,
/// then one traced child each. Prints every metric, writes the result
/// file, rewrites `BENCHMARK.json`.
pub fn full(
    seed: u64,
    only: &[Workload],
    reps: usize,
    trace: bool,
    out: Option<PathBuf>,
) -> Result<bool, String> {
    let selected: Vec<Workload> = if only.is_empty() {
        Workload::ALL.to_vec()
    } else {
        only.to_vec()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("eslurm benchmark: seed {seed}, {reps} timed repetitions per workload, nproc {nproc}");
    let mut rows: Vec<Row> = selected
        .iter()
        .map(|&workload| Row {
            workload,
            timed: Vec::new(),
            traced: None,
            crashed: 0,
        })
        .collect();
    let mut reference = Reference::new();
    let mut run_child = |row: &mut Row, stage: &str, trace: bool| {
        eprintln!("[{stage}] {}", row.workload.name());
        match spawn(row.workload, seed, trace, &mut reference) {
            Ok(r) if trace => row.traced = Some(r),
            Ok(r) => row.timed.push(r),
            Err(e) => {
                eprintln!("{}: {e}", row.workload.name());
                row.crashed += 1;
            }
        }
    };
    for rep in 1..=reps {
        for row in &mut rows {
            run_child(row, &format!("{rep}/{reps}"), false);
        }
    }
    if trace {
        for row in &mut rows {
            run_child(row, "traced", true);
        }
    }

    for row in &rows {
        print_row(row);
    }
    let path = out.unwrap_or_else(|| Path::new(OUT_DIR).join(format!("results-seed{seed}.json")));
    let doc = results_json(seed, reps, nproc, &rows);
    std::fs::write(&path, render(&doc) + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults: {}", path.display());
    std::fs::write(BENCHMARK_JSON, manifest::benchmark_json())
        .map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;

    let mut ok = true;
    for row in rows.iter().filter(|r| !r.ok()) {
        ok = false;
        eprintln!(
            "{}: {} crashed children, {} failed jobs, outcomes {}",
            row.workload.name(),
            row.crashed,
            row.failed(),
            if row.outcomes_agree() {
                "agree"
            } else {
                "DIFFER"
            }
        );
    }
    Ok(ok)
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("null".into(), |v| format!("{v:.4}"))
}

fn print_row(row: &Row) {
    let name = row.workload.name();
    println!("\n== {name} ==  outcome_fp {:016x}", row.outcome_fp());
    println!("   {:?}", row.workload.params());
    println!(
        "   host speed {} of the reference box; times below are reference seconds",
        fmt_opt(row.host_speed())
    );
    for m in &END_TO_END {
        let s = row.summary(m.name);
        // p90 only ever shows with a hundred repetitions or more.
        let p90 = percentile(&s.values, 0.9).map_or(String::new(), |p| format!(" p90 {p:.4}"));
        println!(
            "   {:<12} median {} min {} max {}{p90} n {}  [{}]",
            m.name,
            fmt_opt(s.median),
            fmt_opt(s.min),
            fmt_opt(s.max),
            s.values.len(),
            m.unit
        );
    }
    println!(
        "   {:<12} {:.6} ({} failed of {} jobs)  [fraction]",
        "fail_frac",
        row.fail_frac(),
        row.failed(),
        row.attempted()
    );
    let Some(traced) = &row.traced else { return };
    for m in &PER_LAYER {
        let v = traced.layer(m.name).unwrap_or(0.0);
        println!("   {:<40} {v:>16.6}  [{}]", m.name, m.unit);
    }
    print_shares(traced);
}

/// Share of the traced pass's wall time by layer: self times of the
/// decorated calls and phase spans, the remainder being the harness (the
/// decorators themselves, placement, fingerprints).
fn print_shares(traced: &ChildResult) {
    let l = |k: &str| traced.layer(k).unwrap_or(0.0);
    let traced_wall = traced.pass.wall_s * (1.0 + l("trace_overhead_frac"));
    let shares = [
        ("simclock+emu", l("emu.engine_self_s") + l("emu.ctx_send_s")),
        ("rm", l("rm.slave_handle_s")),
        // The satellites call the predictor and the FP-Tree inside their
        // handlers; only the predictor can be told apart from outside.
        (
            "eslurm+topology",
            l("eslurm.master_handle_s") + l("eslurm.satellite_handle_s")
                - l("monitoring.predict_s"),
        ),
        ("monitoring", l("monitoring.predict_s")),
        (
            "estimate+ml",
            l("estimate.limit_s") + l("estimate.on_complete_s"),
        ),
        ("sched", l("sched.self_s")),
        ("obs (export)", l("obs.export_s")),
    ];
    let named: f64 = shares.iter().map(|(_, s)| s).sum();
    print!("   share of traced wall ({traced_wall:.3} s):");
    for (name, s) in shares {
        print!(" {name} {:.1}%", 100.0 * s / traced_wall);
    }
    println!(" harness {:.1}%", 100.0 * (1.0 - named / traced_wall));
}

fn results_json(seed: u64, reps: usize, nproc: usize, rows: &[Row]) -> Value {
    let workloads = rows
        .iter()
        .map(|row| {
            let end_to_end = END_TO_END
                .iter()
                .map(|m| {
                    let s = row.summary(m.name);
                    let stats = object([
                        ("unit", Value::String(m.unit.into())),
                        ("median", opt_num(s.median)),
                        ("min", opt_num(s.min)),
                        ("max", opt_num(s.max)),
                        ("n", int(s.values.len() as u64)),
                        (
                            "values",
                            Value::Array(s.values.iter().map(|&v| num(v)).collect()),
                        ),
                    ]);
                    (m.name.to_string(), stats)
                })
                .collect();
            let per_layer = row.traced.iter().flat_map(|t| &t.pass.layers);
            let per_layer = per_layer.map(|(k, v)| (k.to_string(), num(*v))).collect();
            let fp = row.outcome_fp();
            let entry = object([
                (
                    "params",
                    Value::String(format!("{:?}", row.workload.params())),
                ),
                ("why", Value::String(row.workload.why().into())),
                ("outcome_fp", Value::String(format!("{fp:016x}"))),
                ("outcomes_agree", Value::Bool(row.outcomes_agree())),
                ("attempted", int(row.attempted())),
                ("failed", int(row.failed())),
                ("fail_frac", num(row.fail_frac())),
                ("host_speed", opt_num(row.host_speed())),
                ("end_to_end", Value::Object(end_to_end)),
                ("per_layer", Value::Object(per_layer)),
            ]);
            (row.workload.name().to_string(), entry)
        })
        .collect();
    object([
        ("command", Value::String(manifest::COMMAND.join(" "))),
        ("seed", int(seed)),
        ("reps", int(reps as u64)),
        ("nproc", int(nproc as u64)),
        ("workloads", Value::Object(workloads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_result_survives_its_json_line() {
        let r = ChildResult {
            pass: Pass {
                setup_s: 0.125,
                wall_s: 2.5,
                cpu_s: None,
                outcome_fp: 0xdead_beef_0123_4567,
                attempted: 3_000,
                failed: 2,
                layers: [("emu.events", 7.0e6)].into_iter().collect(),
            },
            peak_rss_mb: Some(41.5),
            ref_s: NOMINAL_S,
        };
        assert_eq!(ChildResult::from_json(&r.to_json()), Ok(r));
        assert!(ChildResult::from_json("{}").is_err());
        assert!(ChildResult::from_json("not json").is_err());
    }

    fn child(wall_s: f64, ref_s: f64) -> ChildResult {
        ChildResult {
            pass: Pass {
                wall_s,
                setup_s: wall_s / 10.0,
                cpu_s: Some(wall_s),
                ..Pass::default()
            },
            peak_rss_mb: Some(40.0),
            ref_s,
        }
    }

    #[test]
    fn times_scale_with_host_speed_and_memory_does_not() {
        // The reference loop took twice its nominal time: the pass counts
        // for fewer seconds, though not for half of them.
        let r = child(3.0, 2.0 * NOMINAL_S);
        let speed = reference::speed(2.0 * NOMINAL_S);
        assert!(0.5 < speed && speed < 0.75, "{speed}");
        assert_eq!(r.end_to_end("wall_s"), Some(3.0 * speed));
        assert_eq!(r.end_to_end("cpu_s"), Some(3.0 * speed));
        assert_eq!(r.end_to_end("setup_s"), Some(0.3 * speed));
        assert_eq!(r.end_to_end("peak_rss_mb"), Some(40.0));
        let quiet = child(3.0, NOMINAL_S);
        assert_eq!(quiet.end_to_end("wall_s"), Some(3.0));
    }

    #[test]
    fn a_run_reports_the_mean_over_inputs_of_each_inputs_median() {
        let wall = |r: &ChildResult| r.end_to_end("wall_s");
        let inputs = vec![
            vec![
                child(1.0, NOMINAL_S),
                child(9.0, NOMINAL_S),
                child(2.0, NOMINAL_S),
            ],
            vec![child(4.0, NOMINAL_S)],
            Vec::new(),
        ];
        // Medians 2 and 4; the input without a pass does not count.
        assert_eq!(over_inputs(&inputs, wall), Some(3.0));
        assert_eq!(over_inputs(&[Vec::new()], wall), None);
        assert_eq!(input_seed(42, 0), 42);
        let seeds: Vec<u64> = (0..INPUTS).map(|k| input_seed(u64::MAX, k)).collect();
        assert!((1..INPUTS).all(|k| !seeds[..k].contains(&seeds[k])));
    }
}
