//! Fig. 8 — message-broadcast efficiency at 4K nodes.
//!
//! * (a) average broadcast time of the job **loading** (message 1) and
//!   **termination** (message 2) messages for Slurm (one grouping tree
//!   from the master) vs. ESlurm without FP-Tree (satellite split, plain
//!   trees) vs. full ESlurm (satellite split + FP-Trees), under the
//!   production failure mix. Paper: ESlurm cuts the averages by 63.7 %
//!   and 73.6 %, with the FP-Tree alone contributing 36.3 % / 54.9 %.
//! * (b) broadcast time vs. failure ratio (0–30 %) for ring, star,
//!   shared-memory, plain tree, and FP-Tree. Paper: FP-Tree stays below
//!   10 s at 30 % while the others run into minutes.

#![forbid(unsafe_code)]

use eslurm::satellites_needed;
use eslurm_bench::{f, ExpArgs};
use rand::RngExt;
use simclock::rng::stream_rng;
use simclock::SimSpan;
use std::collections::HashSet;
use topology::{balanced_chunks, broadcast, BcastParams, Structure};

/// Broadcast through the ESlurm overlay: the list is split across
/// satellites (Eq. 1), each satellite builds a (FP-)tree over its share,
/// and the master dispatches tasks back-to-back. Completion is the last
/// satellite's completion plus its dispatch offset.
fn eslurm_overlay(
    list: &[u32],
    failed: &HashSet<u32>,
    predicted: &HashSet<u32>,
    params: &BcastParams,
    m: usize,
    eq1_width: usize,
    dispatch_gap: SimSpan,
) -> SimSpan {
    let n = satellites_needed(list.len(), eq1_width, m);
    let mut worst = SimSpan::ZERO;
    for (i, (lo, len)) in balanced_chunks(list.len(), n).enumerate() {
        let share = &list[lo..lo + len];
        let r = broadcast(Structure::FpTree, share, failed, predicted, params);
        let t = dispatch_gap * (i as u64 + 1) + r.completion;
        worst = worst.max(t);
    }
    worst
}

/// Message sizes: job loading carries environment + credentials (larger),
/// termination is a small signal — reflected in per-message latency.
fn params_for(kind: &str, width: usize) -> BcastParams {
    let mut p = BcastParams {
        width,
        detect: SimSpan::from_secs(1),
        attempts: 2,
        parallel: 8,
        ..BcastParams::default()
    };
    if kind == "load" {
        // Launch messages carry per-node credentials and environment.
        p.proc = SimSpan::from_millis(2); // spawn tasks before forwarding
        p.latency = SimSpan::from_micros(400);
        p.per_node_payload = SimSpan::from_millis(1);
    } else {
        p.proc = SimSpan::from_micros(500);
        p.latency = SimSpan::from_micros(120);
        p.per_node_payload = SimSpan::from_micros(250);
    }
    p
}

fn sample_failures(n: u32, ratio: f64, seed: u64) -> HashSet<u32> {
    let mut rng = stream_rng(seed, 0xF8);
    let target = (n as f64 * ratio).round() as usize;
    let mut failed = HashSet::new();
    while failed.len() < target {
        failed.insert(rng.random_range(0..n));
    }
    failed
}

fn main() {
    let args = ExpArgs::parse();
    let n: u32 = args.scale(4096, 1024);
    let nodes: Vec<u32> = (0..n).collect();
    let trials = args.scale(40, 10);
    let m = 2; // satellites, as in the paper's 4K deployment
    let eq1_width = (n as usize / 2).max(64); // two shares at full job size
    let dispatch_gap = SimSpan::from_millis(5);

    // ---- (a) job loading / termination messages under the production
    //      failure mix (~1-2 % failed nodes on average, occasionally more).
    let mut rows = Vec::new();
    for (label, kind) in [
        ("message 1 (job load)", "load"),
        ("message 2 (job term)", "term"),
    ] {
        let params = params_for(kind, 32);
        let mut sums = [0.0f64; 3]; // slurm, eslurm-noFP, eslurm
        for t in 0..trials {
            // Failure population drawn from the production mix (§VII-A):
            // most broadcasts see no failed node at all, small events
            // involve a handful, and the rare maintenance event takes out
            // hundreds (the 600-node day).
            let mut rng = stream_rng(args.seed, 0xA0 + t as u64);
            let u: f64 = rng.random();
            let ratio = if u < 0.70 {
                0.0
            } else if u < 0.95 {
                rng.random_range(1..=8) as f64 / n as f64
            } else {
                0.05 + rng.random::<f64>() * 0.10
            };
            let failed = sample_failures(n, ratio, args.seed + t as u64);
            let none: HashSet<u32> = HashSet::new();
            // Slurm: one grouping tree from the master over all nodes.
            let slurm = broadcast(Structure::KTree, &nodes, &failed, &none, &params);
            sums[0] += slurm.completion.as_secs_f64();
            // ESlurm without FP-Tree: satellite split, blind trees.
            sums[1] += eslurm_overlay(&nodes, &failed, &none, &params, m, eq1_width, dispatch_gap)
                .as_secs_f64();
            // Full ESlurm: satellite split + FP-Trees (perfect suspects, as
            // in the paper's power-down experiment).
            sums[2] += eslurm_overlay(
                &nodes,
                &failed,
                &failed,
                &params,
                m,
                eq1_width,
                dispatch_gap,
            )
            .as_secs_f64();
        }
        let avg: Vec<f64> = sums.iter().map(|s| s / trials as f64).collect();
        let vs_slurm = 100.0 * (1.0 - avg[2] / avg[0]);
        let fp_gain = 100.0 * (1.0 - avg[2] / avg[1]);
        // Shown to 3 decimals, written to 4.
        rows.push(vec![
            label.to_string(),
            kind.to_string(),
            f(avg[0], 3),
            f(avg[0], 4),
            f(avg[1], 3),
            f(avg[1], 4),
            f(avg[2], 3),
            f(avg[2], 4),
            f(vs_slurm, 1),
            f(fp_gain, 1),
        ]);
    }
    args.emit(
        &format!("Fig 8a — average broadcast time on {n} nodes (s)"),
        "fig8a.csv",
        &[
            ("message", ""),
            ("", "message"),
            ("Slurm", ""),
            ("", "slurm_s"),
            ("ESlurm w/o FP", ""),
            ("", "eslurm_nofp_s"),
            ("ESlurm", ""),
            ("", "eslurm_s"),
            ("vs Slurm %", ""),
            ("FP share %", ""),
        ],
        &rows,
        "  [paper: ESlurm -63.7% / -73.6% vs Slurm; FP-Tree alone -36.3% / -54.9%]",
    );

    // ---- (b) structures vs failure ratio.
    let params = params_for("load", 32);
    let ratios = [0.0, 0.01, 0.02, 0.05, 0.10, 0.20, 0.30];
    let mut rows = Vec::new();
    for &ratio in &ratios {
        let failed = sample_failures(n, ratio, args.seed + (ratio * 1000.0) as u64);
        let mut row = vec![f(ratio * 100.0, 0)];
        for s in Structure::ALL {
            let r = broadcast(s, &nodes, &failed, &failed, &params);
            row.push(f(r.completion.as_secs_f64(), 2));
        }
        rows.push(row);
    }
    args.emit(
        &format!("Fig 8b — broadcast time vs failure ratio on {n} nodes (s)"),
        "fig8b.csv",
        &[
            ("fail %", "fail_pct"),
            ("ring", "ring_s"),
            ("star", "star_s"),
            ("shared-mem", "sharedmem_s"),
            ("tree", "tree_s"),
            ("FP-Tree", "fptree_s"),
        ],
        &rows,
        "  [paper: FP-Tree < 10 s at 30 %, others reach minutes]",
    );
}
