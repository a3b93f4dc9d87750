//! Ablations of the design choices called out in `DESIGN.md` §4 that the
//! paper's own figures don't already sweep:
//!
//! 1. **relay-tree width** — satellite fan-out vs sweep latency and the
//!    satellite's concurrent connections (sockets bound = width);
//! 2. **reassignment threshold** — how many satellite retries before the
//!    master takes a broadcast over, under a satellite crash;
//! 3. **AEA gate** — deployed estimate accuracy with the gate on/off/
//!    always-model;
//! 4. **predictor quality** — FP-Tree benefit as monitoring recall falls.

#![forbid(unsafe_code)]

use emu::{FaultPlan, NodeId, Outage};
use eslurm::{EslurmConfig, Scenario};
use eslurm_bench::{f, ExpArgs};
use estimate::{evaluate, EslurmPredictor, EstimatorConfig};
use rand::RngExt;
use rm::Arrival;
use simclock::rng::stream_rng;
use simclock::{SimSpan, SimTime};
use std::collections::{BTreeSet, HashSet};
use topology::{broadcast, BcastParams, Structure};
use workload::TraceConfig;

fn main() {
    let args = ExpArgs::parse();

    // ---- 1. relay width sweep.
    let n = args.scale(8192, 1024);
    let horizon = SimTime::from_secs(args.scale(1800, 600));
    let mut rows = Vec::new();
    for width in [8usize, 16, 32, 64, 128, 256] {
        let cfg = EslurmConfig {
            n_satellites: 4,
            relay_width: width,
            hb_sweep_interval: SimSpan::from_secs(60),
            ..Default::default()
        };
        let sys = Scenario::new(cfg, n, args.seed, horizon).run(|b| b);
        let master = sys.master();
        let avg = master
            .sweeps()
            .iter()
            .map(|s| s.completion.as_secs_f64())
            .sum::<f64>()
            / master.sweeps().len().max(1) as f64;
        let sat_sockets = (0..4)
            .map(|i| sys.sim.meter(NodeId(1 + i)).peak_sockets())
            .max()
            .unwrap_or(0);
        rows.push(vec![width.to_string(), f(avg, 4), sat_sockets.to_string()]);
    }
    args.emit(
        &format!("Ablation 1 — relay width ({n} nodes, 4 satellites)"),
        "ablation_relay_width.csv",
        &[
            ("width", "width"),
            ("avg sweep (s)", "avg_sweep_s"),
            ("satellite peak sockets", "sat_peak_sockets"),
        ],
        &rows,
        "",
    );

    // ---- 2. reassignment threshold under a satellite crash.
    let mut rows = Vec::new();
    for threshold in [0u32, 1, 2, 4] {
        let m = 3;
        let n_slaves = args.scale(2048, 512);
        let total = 1 + m + n_slaves;
        let faults = FaultPlan::from_outages(
            total,
            vec![Outage {
                node: NodeId(1),
                down_at: SimTime::from_millis(500),
                up_at: SimTime::from_secs(100_000),
            }],
        );
        let cfg = EslurmConfig {
            n_satellites: m,
            reassign_threshold: threshold,
            eq1_width: 256,
            ..Default::default()
        };
        let jobs = (0..10u64).map(move |j| Arrival {
            at: SimTime::from_secs(2 + j * 30),
            job: j,
            nodes: 0..n_slaves.min(1024),
            runtime: SimSpan::from_secs(10),
        });
        // The outage is a satellite's, so it is a plan of the whole layout.
        let sys = Scenario::new(cfg, n_slaves, args.seed, SimTime::from_secs(600))
            .arrivals(jobs)
            .run(|b| b.faults(faults));
        let master = sys.master();
        let worst_occ = master
            .records
            .iter()
            .map(|r| r.occupation().as_secs_f64())
            .fold(0.0, f64::max);
        rows.push(vec![
            threshold.to_string(),
            master.records.len().to_string(),
            master.reassignments().to_string(),
            master.takeovers().to_string(),
            f(worst_occ, 1),
        ]);
    }
    args.emit(
        "Ablation 2 — reassignment threshold with a dead satellite",
        "ablation_reassign.csv",
        &[
            ("threshold", "threshold"),
            ("jobs done", "jobs_done"),
            ("reassignments", "reassignments"),
            ("takeovers", "takeovers"),
            ("worst occupation (s)", "worst_occupation_s"),
        ],
        &rows,
        "",
    );

    // ---- 3. AEA gate variants on the deployed estimate path.
    let jobs = TraceConfig::ng_tianhe()
        .with_seed(args.seed)
        .shrunk_to(args.scale(15_000, 5_000))
        .generate();
    let warmup = jobs.len() / 10;
    let mut rows = Vec::new();
    for (label, gate, gated) in [
        ("gate at 0.90 (paper)", 0.90, true),
        ("gate off (always model)", 0.0, true),
        ("user estimates only", 2.0, true), // impossible gate
        ("raw model (Fig 11b mode)", 0.90, false),
    ] {
        let cfg = EstimatorConfig {
            aea_gate: gate,
            window: 2000,
            ..Default::default()
        };
        let mut p = if gated {
            EslurmPredictor::gated(cfg)
        } else {
            EslurmPredictor::new(cfg)
        };
        let r = evaluate(&jobs, &mut p, warmup);
        rows.push(vec![
            label.to_string(),
            f(r.aea, 3),
            f(r.underestimate_rate, 3),
        ]);
    }
    args.emit(
        "Ablation 3 — AEA gate on the deployed estimate path",
        "ablation_gate.csv",
        &[
            ("variant", "variant"),
            ("accuracy", "aea"),
            ("underestimate rate", "ur"),
        ],
        &rows,
        "",
    );

    // ---- 4. FP-Tree benefit vs predictor recall.
    let list: Vec<u32> = (0..args.scale(4096u32, 1024)).collect();
    let params = BcastParams {
        detect: SimSpan::from_secs(1),
        attempts: 2,
        parallel: 8,
        per_node_payload: SimSpan::from_micros(500),
        ..BcastParams::default()
    };
    let trials = args.scale(30, 10);
    let mut rows = Vec::new();
    for recall_pct in [0u32, 25, 50, 75, 90, 100] {
        let mut sum = 0.0;
        for t in 0..trials {
            let mut rng = stream_rng(args.seed + t, 0xAB + recall_pct as u64);
            // Drawn into an ordered set: the recall draw below walks it,
            // and a hashed set's order differs from run to run.
            let mut failed = BTreeSet::new();
            while failed.len() < list.len() / 20 {
                failed.insert(rng.random_range(0..list.len() as u32));
            }
            let predicted: HashSet<u32> = failed
                .iter()
                .filter(|_| rng.random_range(0..100) < recall_pct)
                .copied()
                .collect();
            let failed: HashSet<u32> = failed.into_iter().collect();
            let r = broadcast(Structure::FpTree, &list, &failed, &predicted, &params);
            sum += r.completion.as_secs_f64();
        }
        rows.push(vec![recall_pct.to_string(), f(sum / trials as f64, 3)]);
    }
    args.emit(
        &format!(
            "Ablation 4 — FP-Tree broadcast time vs predictor recall ({} nodes, 5% failed)",
            list.len()
        ),
        "ablation_recall.csv",
        &[("recall %", "recall_pct"), ("broadcast (s)", "broadcast_s")],
        &rows,
        "",
    );
}
