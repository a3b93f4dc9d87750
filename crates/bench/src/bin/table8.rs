//! Table VIII — impact of the slack variable α (Eq. 3) on the estimation
//! framework's average estimation accuracy (AEA) and underestimation rate
//! (UR), on an NG-Tianhe-like trace.
//!
//! Paper: α 1.00 → 1.08 moves AEA 0.87 → 0.80 and UR 0.54 → 0.11, with
//! α = 1.05 the chosen balance (AEA 0.84, UR 0.12).

#![forbid(unsafe_code)]

use eslurm_bench::{f, print_table, ExpArgs};
use estimate::{evaluate, EslurmPredictor, EstimatorConfig};
use workload::TraceConfig;

fn main() {
    let args = ExpArgs::parse();
    let jobs = TraceConfig::ng_tianhe()
        .with_seed(args.seed)
        .shrunk_to(args.scale(25_000, 6_000))
        .generate();
    let warmup = jobs.len() / 10;
    println!("Table VIII on {} jobs (warmup {warmup})", jobs.len());

    let alphas = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08];
    let mut aea_row = vec!["AEA".to_string()];
    let mut ur_row = vec!["UR".to_string()];
    let mut csv = Vec::new();
    for &alpha in &alphas {
        let cfg = EstimatorConfig {
            slack: alpha,
            window: 2000,
            ..Default::default()
        };
        let mut model = EslurmPredictor::new(cfg);
        let report = evaluate(&jobs, &mut model, warmup);
        println!(
            "alpha {alpha:.2}: AEA {:.3}  UR {:.3}",
            report.aea, report.underestimate_rate
        );
        aea_row.push(f(report.aea, 2));
        ur_row.push(f(report.underestimate_rate, 2));
        csv.push(vec![
            f(alpha, 2),
            f(report.aea, 4),
            f(report.underestimate_rate, 4),
        ]);
    }

    let header: Vec<String> = std::iter::once("α".to_string())
        .chain(alphas.iter().map(|a| f(*a, 2)))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_table(
        "Table VIII — slack variable sweep",
        &header_refs,
        &[aea_row, ur_row],
    );
    println!("  [paper: AEA 0.87→0.80, UR 0.54→0.11 across α 1.00→1.08]");
    args.write_csv("table8.csv", &["alpha", "aea", "underestimate_rate"], &csv);
}
