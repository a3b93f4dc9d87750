//! Fig. 9 — Slurm vs. ESlurm on full-scale Tianhe-2A (16 384 nodes, 24
//! emulated hours, 1 Hz sampling).
//!
//! Paper: ESlurm's master uses < 40 % of Slurm's CPU time, saves > 80 % of
//! memory, and its two satellites carry the (balanced) communication load
//! with ≤ 80 concurrent sockets each, vs. Slurm's > 1000-socket bursts.

use emu::NodeId;
use eslurm::{EslurmConfig, Stack, System, SystemBuilder};
use eslurm_bench::{f, fmt_bytes, node_stat, print_table, write_csv, ExpArgs};
use obs::{Sampler, SeriesStore};
use rm::{JobStream, RmProfile};
use simclock::{SimSpan, SimTime};

/// One table row + one CSV row for a sampled node.
fn usage_rows(
    store: &SeriesStore,
    node: &str,
    label: &str,
    csv_label: &str,
    peak: u32,
) -> (Vec<String>, Vec<String>) {
    let cpu_s = node_stat(store, "footprint_cpu_time_s", node).last;
    let virt = node_stat(store, "footprint_virt_bytes", node).mean as u64;
    let real = node_stat(store, "footprint_real_bytes", node).mean as u64;
    let socks = node_stat(store, "footprint_sockets", node).mean;
    (
        vec![
            label.to_string(),
            format!("{:.1}", cpu_s / 60.0),
            fmt_bytes(virt),
            fmt_bytes(real),
            f(socks, 1),
            peak.to_string(),
        ],
        vec![
            csv_label.to_string(),
            f(cpu_s, 1),
            virt.to_string(),
            real.to_string(),
            f(socks, 2),
            peak.to_string(),
        ],
    )
}

/// One RM under the shared stream to the horizon, sampled at 1 Hz; its
/// master's row goes into `table`.
fn run<S: Stack>(
    name: &str,
    builder: SystemBuilder<S>,
    stream: JobStream,
    horizon_t: SimTime,
    table: &mut Vec<(Vec<String>, Vec<String>)>,
) -> (System<S>, SeriesStore) {
    print!("running {name} ... ");
    let sampler = Sampler::every_until(SimSpan::from_secs(1), horizon_t);
    let mut sys = builder.sampler(sampler.clone()).build();
    sys.submit_stream(stream);
    sys.sim.run_until(horizon_t);
    println!("{} events", sys.sim.events_processed());
    let store = sampler.store();
    let peak = sys.sim.meter(NodeId::MASTER).peak_sockets();
    let label = format!("{name} master");
    let csv_label = format!("{}_master", name.to_lowercase());
    table.push(usage_rows(&store, "master", &label, &csv_label, peak));
    (sys, store)
}

fn main() {
    let args = ExpArgs::parse();
    let n: usize = args.scale(16_384, 1024);
    let horizon = SimSpan::from_hours(args.scale(24, 2));
    let horizon_t = SimTime::ZERO + horizon;
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

    let mut table = Vec::new();
    run(
        "Slurm",
        SystemBuilder::new(RmProfile::slurm(), n, args.seed),
        stream.clone(),
        horizon_t,
        &mut table,
    );

    // ESlurm with two satellites.
    let cfg = EslurmConfig {
        n_satellites: 2,
        ..Default::default()
    };
    let builder = SystemBuilder::new(cfg, n, args.seed);
    let (sys, store) = run("ESlurm", builder, stream, horizon_t, &mut table);
    for i in 0..2usize {
        let peak = sys.sim.meter(NodeId(1 + i as u32)).peak_sockets();
        table.push(usage_rows(
            &store,
            &format!("sat{}", i + 1),
            &format!("ESlurm satellite {}", i + 1),
            &format!("eslurm_satellite_{}", i + 1),
            peak,
        ));
    }
    let (rows, csv): (Vec<_>, Vec<_>) = table.into_iter().unzip();

    print_table(
        &format!("Fig 9 — Slurm vs ESlurm on {n} nodes"),
        &["node", "CPU min", "virt", "real", "sockets", "peak sockets"],
        &rows,
    );
    write_csv(
        "fig9_summary.csv",
        &[
            "node",
            "cpu_time_s",
            "virt_bytes",
            "real_bytes",
            "sockets_mean",
            "sockets_peak",
        ],
        &csv,
    );

    // Headline ratios the paper calls out.
    let cpu_slurm: f64 = csv[0][1].parse().unwrap();
    let cpu_eslurm: f64 = csv[1][1].parse().unwrap();
    let mem_slurm: f64 = csv[0][2].parse().unwrap();
    let mem_eslurm: f64 = csv[1][2].parse().unwrap();
    println!(
        "\nESlurm master CPU = {:.0}% of Slurm's  [paper: < 40%]",
        100.0 * cpu_eslurm / cpu_slurm.max(1e-9)
    );
    println!(
        "ESlurm master virtual memory saving = {:.0}%  [paper: > 80%]",
        100.0 * (1.0 - mem_eslurm / mem_slurm.max(1e-9))
    );
}
