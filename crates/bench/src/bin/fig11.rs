//! Fig. 11 — (a) heartbeat-broadcast time vs. number of satellites on
//! full-scale NG-Tianhe (optimum around 20 satellites ⇒ roughly one per
//! 1 000 nodes of sweep share), and (b) the runtime-prediction model
//! comparison (User, SVM, RandomForest, Last-2, IRPA, TRIP, PREP, ESlurm).
//!
//! Paper headline for (b): ESlurm reaches 84 % average accuracy at ~10 %
//! underestimation; SVM/RandomForest/Last-2 sit below 70 % accuracy with
//! > 25 % underestimation; user estimates are the least accurate.

use emu::NodeId;
use eslurm::{EslurmConfig, Scenario};
use eslurm_bench::{f, footprint, ExpArgs};
use estimate::{
    evaluate, forest_baseline, svm_baseline, EslurmPredictor, EstimatorConfig, Irpa, Last2, Prep,
    RuntimePredictor, Trip, UserEstimate,
};
use obs::{Hist, Recorder, Sampler};
use simclock::{SimSpan, SimTime};
use workload::TraceConfig;

fn main() {
    let args = ExpArgs::parse();

    // ---- (a) sweep-completion time vs satellite count.
    let n: usize = args.scale(20_480, 2048);
    let horizon = SimTime::from_secs(args.scale(3 * 3600, 1200));
    let counts: Vec<usize> = args.scale(vec![10, 20, 30, 40, 50], vec![2, 5, 10, 20]);
    let mut rows = Vec::new();
    for &m in &counts {
        let cfg = EslurmConfig {
            n_satellites: m,
            hb_sweep_interval: SimSpan::from_secs(120),
            ..Default::default()
        };
        let rec = Recorder::metrics_only();
        let sampler = Sampler::every_until(SimSpan::from_secs(60), horizon);
        let sys = Scenario::new(cfg, n, args.seed, horizon)
            .run(|b| b.obs(rec.clone()).sampler(sampler.clone()));
        // The recorder bins sweep-completion times as they happen; the
        // exact mean comes from the histogram's running sum.
        let sweeps = rec.hist(Hist::SweepCompletionUs);
        let avg = if sweeps.count == 0 {
            f64::NAN
        } else {
            sweeps.mean() / 1e6
        };
        let master_sockets = sys.sim.meter(NodeId::MASTER).peak_sockets();
        // The sampled view of the same run, from the footprint series.
        let sockets_mean = footprint(&sampler.store(), "master").sockets;
        rows.push(vec![
            m.to_string(),
            f(avg, 3),
            sweeps.count.to_string(),
            f(sockets_mean, 1),
            master_sockets.to_string(),
        ]);
        println!("m={m:2}: avg sweep {avg:.3}s over {} sweeps", sweeps.count);
    }
    args.emit(
        &format!("Fig 11a — heartbeat broadcast time vs satellites ({n} nodes)"),
        "fig11a.csv",
        &[
            ("satellites", "satellites"),
            ("avg sweep (s)", "avg_sweep_s"),
            ("sweeps", "sweeps"),
            ("master sockets (mean)", "master_sockets_mean"),
            ("master peak sockets", "master_peak_sockets"),
        ],
        &rows,
        "  [paper: minimum around 20 satellites on 20K+ nodes]",
    );

    // ---- (b) runtime prediction model comparison on the NG-like trace.
    let trace_cfg = if args.quick {
        TraceConfig::ng_tianhe()
            .with_seed(args.seed)
            .shrunk_to(8_000)
    } else {
        TraceConfig::ng_tianhe()
            .with_seed(args.seed)
            .shrunk_to(25_000)
    };
    println!(
        "\ngenerating NG-Tianhe-like trace ({} jobs) ...",
        trace_cfg.jobs
    );
    let jobs = trace_cfg.generate();
    let warmup = jobs.len() / 10;
    let window = 700;

    let mut models: Vec<Box<dyn RuntimePredictor>> = vec![
        Box::new(UserEstimate),
        Box::new(svm_baseline(window)),
        Box::new(forest_baseline(window, args.seed)),
        Box::new(Last2::default()),
        Box::new(Irpa::new(window, args.seed + 1)),
        Box::new(Trip::new(window)),
        Box::new(Prep::new(window, args.seed + 2)),
        // The interest window is the paper's admin-configurable knob; our
        // synthetic trace's correlation persists past the 700-job gap the
        // paper measured on its own traces, so the window is sized to our
        // trace's correlation horizon (~2000 jobs, cf. fig5 output).
        Box::new(EslurmPredictor::new(EstimatorConfig {
            window: 2000,
            ..Default::default()
        })),
    ];
    let mut rows = Vec::new();
    for model in &mut models {
        let name = model.name();
        print!("evaluating {name} ... ");
        let report = evaluate(&jobs, model.as_mut(), warmup);
        println!("AEA {:.3}  UR {:.3}", report.aea, report.underestimate_rate);
        rows.push(vec![
            name,
            f(report.aea, 3),
            f(report.underestimate_rate, 3),
            f(report.coverage, 3),
        ]);
    }
    args.emit(
        "Fig 11b — runtime prediction models (NG-Tianhe-like trace)",
        "fig11b.csv",
        &[
            ("model", "model"),
            ("avg accuracy", "aea"),
            ("underestimate rate", "underestimate_rate"),
            ("coverage", "coverage"),
        ],
        &rows,
        "  [paper: ESlurm 84% accuracy / ~10% UR; SVM, RF, Last-2 < 70% with UR > 25%]",
    );
}
