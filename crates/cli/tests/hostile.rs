//! Hostile values on every flag of every command. The command table is
//! read from the binary itself (`eslurm --help` lists the commands,
//! `eslurm <command> --help` its flags), so a new command or flag is
//! covered without touching this file. Each run must end in one of the
//! documented exit codes (0–4) and must not panic: a bad value is a usage
//! error or a runtime error, never an abort.

use std::path::Path;
use std::process::Command;

/// Negative, not a number, past `f64`, past `u64`, and not numeric.
const VALUES: [&str; 5] = ["-1", "nan", "1e400", "18446744073709551616", "abc"];

fn eslurm(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_eslurm"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("eslurm binary runs")
}

fn stdout(dir: &Path, args: &[&str]) -> String {
    String::from_utf8(eslurm(dir, args).stdout).expect("CLI output is UTF-8")
}

#[test]
fn hostile_flag_values_never_panic() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("hostile");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let usage = stdout(&dir, &["--help"]);
    let listed = usage
        .split("COMMANDS:\n")
        .nth(1)
        .expect("usage lists commands");
    let commands: Vec<&str> = listed
        .lines()
        .map_while(|l| l.split_whitespace().next())
        .filter(|&name| name != "help")
        .collect();
    assert!(commands.len() >= 15, "too few commands: {commands:?}");

    let mut cases = Vec::new();
    for cmd in commands {
        let help = stdout(&dir, &[cmd, "--help"]);
        let flags: Vec<String> = help
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .filter(|w| w.starts_with("--"))
            .map(str::to_owned)
            .collect();
        assert!(!flags.is_empty(), "`{cmd} --help` lists no flags");
        for flag in flags {
            cases.extend(VALUES.map(|value| (cmd, flag.clone(), value)));
        }
    }

    // Spread the runs over the host's cores; a few of them run a whole
    // default scenario.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let bad: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (cases, dir) = (&cases, &dir);
                s.spawn(move || {
                    let mut bad = Vec::new();
                    for (cmd, flag, value) in cases.iter().skip(w).step_by(workers) {
                        let out = eslurm(dir, &[cmd, flag, value]);
                        let code = out.status.code();
                        let stderr = String::from_utf8_lossy(&out.stderr);
                        if !code.is_some_and(|c| (0..=4).contains(&c))
                            || stderr.contains("panicked")
                        {
                            bad.push(format!("{cmd} {flag} {value}: exit {code:?}\n{stderr}"));
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread"))
            .collect()
    });
    let runs = cases.len();
    assert!(runs >= 400, "only {runs} runs");
    assert!(
        bad.is_empty(),
        "{} run(s) failed:\n{}",
        bad.len(),
        bad.join("\n")
    );
}
