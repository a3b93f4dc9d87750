//! Run every experiment binary in sequence (pass `--quick` through for a
//! smoke pass). Useful for regenerating `results/` from scratch; CI runs
//! it at `--quick` and holds the CSVs it writes to
//! `crates/bench/quick-csv.sha256`.

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "table5_6",
    "table8",
    "response_time",
    "ablations",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    let mut failed = Vec::new();
    for exp in EXPERIMENTS {
        println!("\n================ {exp} ================");
        let status = Command::new(exe_dir.join(exp))
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("launching {exp}: {e}"));
        if !status.success() {
            eprintln!("{exp} FAILED ({status})");
            failed.push(*exp);
        }
    }
    if failed.is_empty() {
        println!("\nall {} experiments completed", EXPERIMENTS.len());
    } else {
        eprintln!("\nfailed: {failed:?}");
        std::process::exit(1);
    }
}
