//! Failure storm: what happens to a 2 000-node broadcast fabric when a
//! whole chassis row dies — with and without failure prediction.
//!
//! The scenario mirrors the paper's production anecdote: a maintenance
//! event takes out hundreds of nodes at once. A monitoring-fed FP-Tree
//! moves the doomed nodes to leaf positions *before* they go dark, so the
//! broadcast fabric barely notices; a plain tree strands whole subtrees
//! behind every failed relay.
//!
//! ```sh
//! cargo run --example failure_storm
//! ```

use eslurm_suite::eslurm::prelude::*;
use eslurm_suite::monitoring::{score, FailurePredictor, OraclePredictor};
use eslurm_suite::topology::{broadcast, BcastParams, Structure};
use std::collections::HashSet;

fn main() {
    let n: u32 = 2000;
    let nodes: Vec<u32> = (0..n).collect();

    // Ground truth: a storm of small failures plus one 200-node event.
    let plan = FaultPlanBuilder::new(n as usize, SimSpan::from_hours(2), 7)
        .small_events(12, 6)
        .large_events(1, 200)
        .mean_outage(SimSpan::from_secs(3600))
        .build();

    // The monitoring subsystem sees outages coming a few minutes ahead,
    // with imperfect recall and a few false alarms (over-prediction is
    // harmless: a wrongly suspected node just becomes a leaf).
    let mut predictor = OraclePredictor::new(plan.clone(), SimSpan::from_secs(300), 1)
        .with_recall(0.9)
        .with_false_positives(10);

    // Broadcast at the height of the storm.
    let at = SimTime::from_secs(3600);
    let failed: HashSet<u32> = plan.down_at(at).into_iter().map(|n| n.0).collect();
    let suspects = predictor.suspects(at);
    let quality = score(&suspects, &failed);
    println!(
        "at t=1h: {} nodes down; predictor flags {} (precision {:.2}, recall {:.2})",
        failed.len(),
        suspects.len(),
        quality.precision,
        quality.recall
    );

    let params = BcastParams {
        per_node_payload: SimSpan::from_micros(500),
        ..BcastParams::default()
    };
    println!("\nbroadcast completion times over {n} nodes:");
    for s in Structure::ALL {
        let r = broadcast(s, &nodes, &failed, &suspects, &params);
        println!(
            "  {:10}  {:8.2}s   (reached {}, {} failed connect attempts, {} re-routings)",
            s.name(),
            r.completion.as_secs_f64(),
            r.reached,
            r.failed_attempts,
            r.adoptions
        );
    }

    // The same storm through a full ESlurm deployment: satellites build
    // FP-Trees from the live predictor and the master reassigns tasks if
    // a satellite dies mid-broadcast.
    #[allow(
        clippy::disallowed_types,
        reason = "the frozen end-to-end benchmark shares its predictor as an `Arc<Mutex<..>>`"
    )]
    use std::sync::{Arc, Mutex};

    let cfg = EslurmConfig {
        n_satellites: 4,
        eq1_width: 512,
        ..Default::default()
    };
    // Ground truth placed in the full system layout (0 = master, 1..=4
    // satellites, compute nodes after).
    let sys_plan = plan.placed(5, n as usize + 5);
    #[allow(
        clippy::disallowed_types,
        reason = "the frozen end-to-end benchmark shares its predictor as an `Arc<Mutex<..>>`"
    )]
    let shared = Arc::new(Mutex::new(
        OraclePredictor::new(sys_plan.clone(), SimSpan::from_secs(300), 2).with_recall(0.9),
    ));
    let mut sys = EslurmSystemBuilder::new(cfg, n as usize, 11)
        .faults(sys_plan)
        .predictor(shared)
        .build();
    sys.sim.run_until(SimTime::from_secs(7200));
    let master = sys.master();
    let mut stats = FpPlacementStats::default();
    for i in 0..4 {
        let s = sys.satellite(i).fp_stats();
        stats.trees += s.trees;
        stats.suspects_seen += s.suspects_seen;
        stats.suspects_on_leaves += s.suspects_on_leaves;
        stats.total_nodes += s.total_nodes;
    }
    println!("\nfull ESlurm deployment over the same two stormy hours:");
    println!(
        "  {} FP-Trees constructed, {:.1}% of suspected nodes placed on leaves",
        stats.trees,
        100.0 * stats.placement_ratio()
    );
    println!(
        "  heartbeat sweeps: {}, task reassignments: {}, master takeovers: {}",
        master.sweeps().len(),
        master.reassignments(),
        master.takeovers()
    );
}
