//! Golden pin of the `eslurm` binary. Each row of `tests/golden.expected`
//! is a command line and what it must produce:
//!
//! ```text
//! <command line> -> exit=<code> stdout=<fnv1a>:<len> stderr=… [<file>=…]
//! ```
//!
//! The test runs every row's command for real, in order, in one scratch
//! directory (later rows read files earlier rows wrote: `t.jsonl`,
//! `m.csv`; the test itself writes `m_regressed.csv` and the hostile
//! one-line traces `deep.jsonl`, `late.jsonl`, `late.swf` and
//! `max.jsonl`), and rebuilds the row from the exit code and the FNV-1a hash
//! and length of stdout, stderr and each file the command created (a
//! file is a row's own if its name was not there before, so no two rows
//! share an output name). Only wall-clock fields are masked
//! (`eval_wall_ns`, `eval overhead … wall`), so the rows hold in debug
//! and release alike. On a mismatch
//! the observed rows are left in `$CARGO_TARGET_TMPDIR/golden.actual`; an
//! intended change copies that file over the committed one. A new command
//! or flag is pinned by adding its command line with an empty right side.
#![cfg(not(feature = "mem-profile"))] // `mem-report` pins the feature-off text

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Replace the number that follows each occurrence of `prefix` by `#`.
fn mask_after(text: &str, prefix: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(prefix) {
        let (head, tail) = rest.split_at(at + prefix.len());
        out.push_str(head);
        out.push('#');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
    }
    out + rest
}

/// Hash and length of what `cmd` printed or wrote, wall-clock masked.
fn stamp(cmd: &str, bytes: &[u8]) -> String {
    let text = || std::str::from_utf8(bytes).expect("CLI output is UTF-8");
    let masked = match cmd.split(' ').next() {
        _ if cmd.ends_with("--help") => bytes.to_vec(),
        Some("slo-report") => {
            mask_after(&mask_after(text(), "\"eval_wall_ns\":"), "eval overhead ").into_bytes()
        }
        _ => bytes.to_vec(),
    };
    format!("{:016x}:{}", fnv1a(&masked), masked.len())
}

/// The file names in `dir`, sorted.
fn listing(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .expect("scratch dir lists")
        .map(|e| e.expect("dir entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .collect()
}

/// Run `cmd` in `dir`, append its row to `rows`, hand back its stdout.
fn run(dir: &Path, cmd: &str, rows: &mut String) -> String {
    let before = listing(dir);
    let out = Command::new(env!("CARGO_BIN_EXE_eslurm"))
        .args(cmd.split_whitespace())
        .current_dir(dir)
        .output()
        .expect("eslurm binary runs");
    let _ = write!(
        rows,
        "{cmd} -> exit={} stdout={} stderr={}",
        out.status.code().expect("exited, not signalled"),
        stamp(cmd, &out.stdout),
        stamp(cmd, &out.stderr)
    );
    for name in listing(dir).difference(&before) {
        let bytes = std::fs::read(dir.join(name)).expect("written file reads");
        let _ = write!(rows, " {name}={}", stamp(cmd, &bytes));
    }
    rows.push('\n');
    String::from_utf8(out.stdout).expect("CLI output is UTF-8")
}

fn json(text: &str) -> serde::Value {
    serde_json::from_str(text).unwrap_or_else(|e| panic!("not JSON ({e:?}): {text}"))
}

#[test]
fn every_command_matches_its_golden_row() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // Hostile one-line traces, each written before the row that reads it.
    let job = |submit: u64, span: u64| {
        format!(
            "{{\"id\":0,\"name\":\"j\",\"user\":0,\"nodes\":1,\"cores_per_node\":1,\
             \"submit\":{submit},\"user_estimate\":{span},\"actual_runtime\":{span}}}\n"
        )
    };
    let hostile = [
        // 200,000 unclosed arrays.
        ("deep.jsonl", "[".repeat(200_000)),
        // Times past the 2^53 µs trace horizon: submitted 584,542 years in
        // (a minute's run overflows the µs clock), 3.2 million years in
        // SWF seconds (overflows on the scaling to µs), and `u64::MAX`.
        ("late.jsonl", job(18_446_744_073_709_000_000, 60_000_000)),
        (
            "late.swf",
            "1 99999999999999 -1 60 1 -1 -1 1 60 -1 1 1 1 1 1 1 -1 -1\n".into(),
        ),
        ("max.jsonl", job(u64::MAX, u64::MAX)),
    ];

    let expected = include_str!("golden.expected");
    let mut rows = String::new();
    let mut stdout = BTreeMap::new();
    for row in expected.lines() {
        let cmd = row.split(" -> ").next().expect("split yields one item");
        if cmd.contains("m_regressed.csv") {
            // The injected regression: ten times the master's virtual memory.
            let base = std::fs::read_to_string(dir.join("m.csv")).expect("metrics row ran");
            let series = "\"footprint_virt_bytes{node=\"\"master";
            let worse: String = base
                .lines()
                .map(|l| format!("{l}{}\n", if l.starts_with(series) { "0" } else { "" }))
                .collect();
            assert_ne!(worse, base, "no master memory series to regress");
            std::fs::write(dir.join("m_regressed.csv"), worse).expect("scratch write");
        }
        for (name, text) in &hostile {
            if cmd.split(' ').any(|arg| arg == *name) {
                std::fs::write(dir.join(name), text).expect("scratch write");
            }
        }
        stdout.insert(cmd, run(&dir, cmd, &mut rows));
    }

    let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden.actual");
    std::fs::write(&actual, &rows).expect("actual rows written");
    let diff: Vec<String> = rows
        .lines()
        .zip(expected.lines())
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("  got  {got}\n  want {want}"))
        .collect();
    assert!(
        diff.is_empty(),
        "{} golden row(s) differ (observed rows: {}):\n{}",
        diff.len(),
        actual.display(),
        diff.join("\n")
    );

    // Every command the binary lists (its usage walks `cmds::COMMANDS`)
    // has a `--help` row: none comes or goes without this file noticing.
    let listed = stdout["--help"].split("COMMANDS:\n").nth(1);
    let names = listed.expect("usage lists commands").lines();
    for name in names.map_while(|l| l.split_whitespace().next()) {
        let row = format!("{name} --help");
        assert!(
            name == "help" || stdout.contains_key(row.as_str()),
            "no `{row}` row"
        );
    }

    // With no `--out`, stdout is the document and nothing else: it parses,
    // and equals what `--out` wrote but for the wall-clock field.
    let doc = |text: &str| match json(text) {
        serde::Value::Object(mut fields) => fields.remove("eval_wall_ns").map(|_| fields),
        _ => None,
    };
    let file = std::fs::read_to_string(dir.join("slo.json")).expect("--out row ran");
    assert!(doc(&file).is_some(), "slo report JSON lost eval_wall_ns");
    assert_eq!(doc(&stdout["slo-report --format json"]), doc(&file));
    let csv = &stdout["slo-report --format csv"];
    assert!(csv.ends_with("false,\n"), "stdout is not just CSV: {csv}");
}
