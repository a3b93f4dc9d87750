//! `eslurm` — the command-line front-end of the ESlurm reproduction.
//!
//! ```text
//! eslurm gen-trace --jobs 10000 --system tianhe2a --out trace.jsonl
//! eslurm analyze trace.jsonl
//! eslurm replay trace.jsonl --nodes 1024 --policy predictive --algo easy
//! eslurm predict trace.jsonl
//! eslurm simulate --nodes 512 --satellites 4 --minutes 30 --jobs 50
//! eslurm simulate --nodes 256 --faults 3 --obs trace.json
//! eslurm trace --nodes 64 --faults 2 --out trace.json
//! eslurm metrics --nodes 128 --minutes 5 --csv run.csv --prom run.prom
//! eslurm explain 3 --faults 2
//! eslurm critical-path --flow sweep
//! eslurm why-job 17 --jobs 400 --seed 42
//! eslurm sched-report --policy predictive --audit decisions.jsonl
//! eslurm slo-report --faults 3 --sweep-p99 2000000 --check true
//! eslurm diff base.csv new.csv --threshold-pct 5
//! eslurm convert trace.jsonl trace.swf
//! ```
//!
//! The top-level usage text is generated from the same command table that
//! drives dispatch and per-command help ([`cmds::usage`]), so a new
//! subcommand cannot be silently omitted from `eslurm --help`.
//!
//! Exit codes are documented in one place — the [`cmds::EXIT_CODES`]
//! table rendered into `eslurm --help` — and asserted against
//! [`error::CliError::exit_code`] by a unit test.

#![forbid(unsafe_code)]

mod cmds;
mod error;
mod opts;

use error::CliError;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", cmds::usage());
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "help" | "--help" | "-h" => {
            println!("{}", cmds::usage());
            Ok(())
        }
        other => cmds::dispatch(other, rest)
            .unwrap_or_else(|| Err(CliError::usage("", format!("unknown command `{other}`")))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if let CliError::Usage { command, .. } = &e {
                if command.is_empty() {
                    eprintln!("\n{}", cmds::usage());
                } else {
                    print_help_stderr(command);
                }
            }
            ExitCode::from(e.exit_code())
        }
    }
}

/// Reprint the offending subcommand's option list after a usage error.
fn print_help_stderr(command: &str) {
    eprintln!();
    cmds::print_help(command);
}
