//! Fig. 5 — workload-trace analysis on the two synthetic traces standing
//! in for Tianhe-2A and NG-Tianhe (Table III):
//!
//! * (a) CDF of the user runtime-estimation accuracy `P = t_s / t_r`
//!   (paper: 80–90 % of jobs overestimated);
//! * (b) job-correlation ratio vs. submission interval (decays; the
//!   mature machine plateaus higher than the new one);
//! * (c) job-correlation ratio vs. job-ID gap (stabilizes past ~700,
//!   which motivates the 700-job interest window).

#![forbid(unsafe_code)]

use eslurm_bench::{f, ExpArgs};
use workload::stats;
use workload::TraceConfig;

fn main() {
    let args = ExpArgs::parse();
    let traces = [
        ("Tianhe-2A", {
            let mut c = TraceConfig::tianhe2a().with_seed(args.seed);
            if args.quick {
                c = c.shrunk_to(20_000);
            }
            c
        }),
        ("NG-Tianhe", {
            let mut c = TraceConfig::ng_tianhe().with_seed(args.seed + 1);
            if args.quick {
                c = c.shrunk_to(15_000);
            }
            c
        }),
    ];

    for (name, cfg) in traces {
        println!("\n#### trace {name} ({} jobs) ####", cfg.jobs);
        let jobs = cfg.generate();
        let summary = stats::summarize(&jobs);
        println!(
            "users {}  names {}  mean runtime {:.0}s  mean nodes {:.1}",
            summary.users, summary.names, summary.mean_runtime_s, summary.mean_nodes
        );

        // (a) CDF of P.
        let ps = stats::p_values(&jobs);
        let grid: Vec<f64> = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0].to_vec();
        let cdf = stats::cdf(&ps, &grid);
        let rows: Vec<Vec<String>> = cdf.iter().map(|(x, y)| vec![f(*x, 2), f(*y, 3)]).collect();
        args.emit(
            &format!("Fig 5a — CDF of P ({name})"),
            &format!("fig5a_{name}.csv"),
            &[("P", "p"), ("CDF", "cdf")],
            &rows,
            "",
        );
        println!(
            "overestimated (P>1): {:.1}%  [paper: 80-90%]",
            100.0 * stats::frac_overestimated(&jobs)
        );

        // (b) correlation vs submission interval.
        let edges = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 50.0, 100.0];
        let samples = if args.quick { 20_000 } else { 60_000 };
        let by_interval = stats::correlation_vs_interval(&jobs, &edges, samples, args.seed);
        let rows: Vec<Vec<String>> = by_interval
            .iter()
            .map(|(h, r)| vec![f(*h, 2), f(*r, 3)])
            .collect();
        args.emit(
            &format!("Fig 5b — correlation vs interval ({name})"),
            &format!("fig5b_{name}.csv"),
            &[("hours", "hours"), ("ratio", "ratio")],
            &rows,
            "",
        );

        // (c) correlation vs ID gap.
        let gaps = [1usize, 5, 20, 50, 100, 300, 700, 1500, 3000];
        let by_gap = stats::correlation_vs_id_gap(&jobs, &gaps, samples, args.seed + 7);
        let rows: Vec<Vec<String>> = by_gap
            .iter()
            .map(|(g, r)| vec![g.to_string(), f(*r, 3)])
            .collect();
        args.emit(
            &format!("Fig 5c — correlation vs job-ID gap ({name})"),
            &format!("fig5c_{name}.csv"),
            &[("gap", "gap"), ("ratio", "ratio")],
            &rows,
            "",
        );

        // §V-A observations the generator is calibrated to.
        println!(
            "24h same-job resubmission probability: per-user {:.3} / per-job {:.3}  [paper: 0.892]",
            stats::resubmit_within_24h_prob(&jobs),
            stats::resubmit_within_24h_prob_job_weighted(&jobs)
        );
        println!(
            ">6h jobs submitted 18:00-24:00: {:.1}%  [paper: 71.4%]",
            100.0 * stats::frac_long_jobs_in_evening(&jobs)
        );
    }
}
