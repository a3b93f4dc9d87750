//! `--compare a.json b.json`: do two result files agree within the
//! benchmark's own bounds? One row per (workload, end-to-end metric).

use crate::manifest::END_TO_END;
use crate::stats::{median, quartile_spread};
use serde::Value;
use std::path::Path;

/// `setup_s` is tens of milliseconds on some workloads; below this
/// absolute difference a relative bound only measures noise.
const SETUP_FLOOR_S: f64 = 0.05;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b` is worse than `a` by more than the bound and the spread.
    Worse,
    /// The run-to-run spread exceeds the bound: nothing can be said.
    Unresolved,
}

/// Judge one lower-is-better metric from its repetitions on both sides.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, floor: f64) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    let spread = match (quartile_spread(a), quartile_spread(b)) {
        (Some(sa), Some(sb)) => sa.max(sb),
        _ => return Verdict::Unresolved,
    };
    let worse_by = mb / ma - 1.0;
    if worse_by > bound.max(spread) && mb - ma > floor {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse_value_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values(workload: &Value, metric: &str) -> Vec<f64> {
    let list = workload
        .get("end_to_end")
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("values"));
    match list {
        Some(Value::Array(items)) => items
            .iter()
            .filter_map(|v| match v {
                Value::Number(n) => Some(n.as_f64()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Number(n)) => Some(n.as_f64()),
        _ => None,
    }
}

/// Print the comparison; `Ok(false)` if any row is `Worse`.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = |doc: &Value| match doc.get("workloads") {
        Some(Value::Object(o)) => Ok(o.clone()),
        _ => Err("result file has no `workloads` object".to_string()),
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    println!(
        "{:<15} {:<12} {:>10} {:>10} {:>8} {:>8} {:>6}  verdict   (ratio = b/a, base a = {})",
        "workload",
        "metric",
        "median a",
        "median b",
        "ratio",
        "spread",
        "bound",
        a_path.display()
    );
    let mut any_worse = false;
    for (name, ea) in &wa {
        let Some(eb) = wb.get(name) else {
            println!("{name:<15} only in {}", a_path.display());
            continue;
        };
        for m in &END_TO_END {
            let (va, vb) = (values(ea, m.name), values(eb, m.name));
            let floor = if m.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let v = verdict(&va, &vb, m.bound, floor);
            any_worse |= v == Verdict::Worse;
            let (ma, mb) = (
                median(&va).unwrap_or(f64::NAN),
                median(&vb).unwrap_or(f64::NAN),
            );
            let spread = quartile_spread(&va)
                .zip(quartile_spread(&vb))
                .map_or(f64::NAN, |(x, y)| x.max(y));
            println!(
                "{name:<15} {:<12} {ma:>10.4} {mb:>10.4} {:>8.3} {spread:>8.3} {:>6.2}  {}",
                m.name,
                mb / ma,
                m.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // `fail_frac` allows no increase at all.
        let (fa, fb) = (number(ea.get("fail_frac")), number(eb.get("fail_frac")));
        let worse = matches!((fa, fb), (Some(x), Some(y)) if y > x);
        any_worse |= worse;
        println!(
            "{name:<15} {:<12} {:>10.6} {:>10.6} {:>8} {:>8} {:>6}  {}",
            "fail_frac",
            fa.unwrap_or(f64::NAN),
            fb.unwrap_or(f64::NAN),
            "-",
            "-",
            "0",
            if worse { "worse" } else { "ok" }
        );
        // Same commit, same seed: the outcome and every count repeat
        // exactly. Between two commits a difference is information.
        let same_fp = ea.get("outcome_fp") == eb.get("outcome_fp");
        let counts_differ: Vec<&str> = crate::manifest::PER_LAYER
            .iter()
            .filter(|m| m.unit == "count")
            .filter(|m| {
                let get = |e: &Value| number(e.get("per_layer").and_then(|l| l.get(m.name)));
                get(ea) != get(eb)
            })
            .map(|m| m.name)
            .collect();
        println!(
            "{name:<15} outcome_fp {}; count metrics {}",
            if same_fp { "identical" } else { "DIFFERS" },
            if counts_differ.is_empty() {
                "identical".to_string()
            } else {
                format!("differ: {}", counts_differ.join(" "))
            }
        );
    }
    for name in wb.keys().filter(|n| !wa.contains_key(*n)) {
        println!("{name:<15} only in {}", b_path.display());
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Within the bound.
        let slower = steady.map(|v| v * 1.05);
        assert_eq!(verdict(&steady, &slower, 0.10, 0.0), Verdict::Ok);
        // Beyond it.
        let slower = steady.map(|v| v * 1.30);
        assert_eq!(verdict(&steady, &slower, 0.10, 0.0), Verdict::Worse);
        // Beyond it relatively, but under the absolute floor.
        assert_eq!(verdict(&steady, &slower, 0.10, 0.5), Verdict::Ok);
        // Better is never worse.
        let faster = steady.map(|v| v * 0.5);
        assert_eq!(verdict(&steady, &faster, 0.10, 0.0), Verdict::Ok);
        // Spread wider than the bound: unresolved, unless the gap is
        // wider still.
        let noisy = [1.0, 1.4, 0.7, 1.2, 0.9];
        assert_eq!(verdict(&steady, &noisy, 0.10, 0.0), Verdict::Unresolved);
        let far = noisy.map(|v| v * 3.0);
        assert_eq!(verdict(&steady, &far, 0.10, 0.0), Verdict::Worse);
        // Too few repetitions for a spread.
        assert_eq!(verdict(&[1.0], &[1.0], 0.10, 0.0), Verdict::Unresolved);
        assert_eq!(verdict(&[], &steady, 0.10, 0.0), Verdict::Unresolved);
    }
}
