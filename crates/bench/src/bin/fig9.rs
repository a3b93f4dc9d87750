//! Fig. 9 — Slurm vs. ESlurm on full-scale Tianhe-2A (16 384 nodes, 24
//! emulated hours, 1 Hz sampling).
//!
//! Paper: ESlurm's master uses < 40 % of Slurm's CPU time, saves > 80 % of
//! memory, and its two satellites carry the (balanced) communication load
//! with ≤ 80 concurrent sockets each, vs. Slurm's > 1000-socket bursts.

#![forbid(unsafe_code)]

use emu::NodeId;
use eslurm::{EslurmConfig, Scenario, Stack, System};
use eslurm_bench::{f, fmt_bytes, footprint, ExpArgs};
use obs::{Sampler, SeriesStore};
use rm::{JobStream, RmProfile};
use simclock::{SimSpan, SimTime};

/// A sampled node's row under `label` (written in snake case): each
/// value shown rounded and written raw, in the columns of `main`'s table.
fn usage_row(store: &SeriesStore, node: &str, label: &str, peak: u32) -> Vec<String> {
    let u = footprint(store, node);
    vec![
        label.to_string(),
        label.to_lowercase().replace(' ', "_"),
        format!("{:.1}", u.cpu_s / 60.0),
        f(u.cpu_s, 1),
        fmt_bytes(u.virt),
        u.virt.to_string(),
        fmt_bytes(u.real),
        u.real.to_string(),
        f(u.sockets, 1),
        f(u.sockets, 2),
        peak.to_string(),
    ]
}

/// One RM under the shared stream to the horizon, sampled at 1 Hz; its
/// master's row goes into `rows`.
fn run<S: Stack>(
    name: &str,
    scenario: Scenario<S>,
    rows: &mut Vec<Vec<String>>,
) -> (System<S>, SeriesStore) {
    print!("running {name} ... ");
    let sampler = Sampler::every_until(SimSpan::from_secs(1), scenario.horizon);
    let sys = scenario.run(|b| b.sampler(sampler.clone()));
    println!("{} events", sys.sim.events_processed());
    let store = sampler.store();
    let peak = sys.sim.meter(NodeId::MASTER).peak_sockets();
    rows.push(usage_row(&store, "master", &format!("{name} master"), peak));
    (sys, store)
}

fn main() {
    let args = ExpArgs::parse();
    let n: usize = args.scale(16_384, 1024);
    let horizon = SimSpan::from_hours(args.scale(24, 2));
    let end = SimTime::ZERO + horizon;
    // The same stream for both RMs.
    let stream = JobStream::new(
        n as u32,
        horizon,
        60.0,
        n as u32,
        SimSpan::from_secs(1500),
        args.seed + 1,
    );

    println!("Fig 9: {n} nodes, {} h horizon", horizon.as_secs() / 3600);

    let mut rows = Vec::new();
    let slurm = Scenario::new(RmProfile::slurm(), n, args.seed, end).arrivals(stream.clone());
    run("Slurm", slurm, &mut rows);

    // ESlurm with two satellites.
    let cfg = EslurmConfig {
        n_satellites: 2,
        ..Default::default()
    };
    let eslurm = Scenario::new(cfg, n, args.seed, end).arrivals(stream);
    let (sys, store) = run("ESlurm", eslurm, &mut rows);
    for i in 0..2usize {
        let peak = sys.sim.meter(NodeId(1 + i as u32)).peak_sockets();
        let label = format!("ESlurm satellite {}", i + 1);
        rows.push(usage_row(&store, &format!("sat{}", i + 1), &label, peak));
    }

    args.emit(
        &format!("Fig 9 — Slurm vs ESlurm on {n} nodes"),
        "fig9_summary.csv",
        &[
            ("node", ""),
            ("", "node"),
            ("CPU min", ""),
            ("", "cpu_time_s"),
            ("virt", ""),
            ("", "virt_bytes"),
            ("real", ""),
            ("", "real_bytes"),
            ("sockets", ""),
            ("", "sockets_mean"),
            ("peak sockets", "sockets_peak"),
        ],
        &rows,
        "",
    );

    // Headline ratios the paper calls out, from the written values.
    let cpu_slurm: f64 = rows[0][3].parse().unwrap();
    let cpu_eslurm: f64 = rows[1][3].parse().unwrap();
    let mem_slurm: f64 = rows[0][5].parse().unwrap();
    let mem_eslurm: f64 = rows[1][5].parse().unwrap();
    println!(
        "\nESlurm master CPU = {:.0}% of Slurm's  [paper: < 40%]",
        100.0 * cpu_eslurm / cpu_slurm.max(1e-9)
    );
    println!(
        "ESlurm master virtual memory saving = {:.0}%  [paper: > 80%]",
        100.0 * (1.0 - mem_eslurm / mem_slurm.max(1e-9))
    );
}
