//! Fig. 7 — master-node resource usage of six RMs on 4K nodes over 24
//! emulated hours (1 Hz sampling), plus job occupation time vs. job size.
//!
//! Expected shapes (paper §VII-A):
//! * CPU (a/b): SGE/Torque/OpenPBS high (they poll every node), Slurm low,
//!   ESlurm lowest;
//! * virtual memory (c): Slurm ≈ 10 GB tops the field; ESlurm < 2 GB;
//! * real memory (d): ESlurm lowest (~60 MB);
//! * sockets (e): OpenPBS/SGE thousands of persistent connections,
//!   LSF/Slurm bursts ≥ 1000, ESlurm < 100;
//! * occupation (f): SGE/Torque/OpenPBS blow up with job size; LSF, Slurm,
//!   and ESlurm stay flat, ESlurm < 15 s.

use emu::NodeId;
use eslurm::{EslurmConfig, Stack, System, SystemBuilder};
use eslurm_bench::{f, fmt_bytes, node_series, node_stat, print_table, write_csv, ExpArgs};
use obs::{Sampler, SeriesStore};
use rm::{JobStream, MasterLog, RmProfile};
use simclock::{SimSpan, SimTime};

struct Usage {
    name: String,
    cpu_util_mean: f64,
    cpu_time: SimSpan,
    virt_mean: u64,
    real_mean: u64,
    sockets_mean: f64,
    sockets_peak: u32,
}

fn summarize(name: &str, store: &SeriesStore, node: &str, peak_sockets: u32) -> Usage {
    let stat = |family| node_stat(store, family, node);
    Usage {
        name: name.to_string(),
        cpu_util_mean: stat("footprint_cpu_util").mean,
        cpu_time: SimSpan::from_secs_f64(stat("footprint_cpu_time_s").last),
        virt_mean: stat("footprint_virt_bytes").mean as u64,
        real_mean: stat("footprint_real_bytes").mean as u64,
        sockets_mean: stat("footprint_sockets").mean,
        sockets_peak: peak_sockets,
    }
}

fn dump_series(name: &str, store: &SeriesStore, node: &str) {
    let util = node_series(store, "footprint_cpu_util", node);
    let cpu = node_series(store, "footprint_cpu_time_s", node);
    let virt = node_series(store, "footprint_virt_bytes", node);
    let real = node_series(store, "footprint_real_bytes", node);
    let socks = node_series(store, "footprint_sockets", node);
    // Downsample to one row per minute to keep CSVs manageable.
    let rows: Vec<Vec<String>> = (0..util.len())
        .step_by(60)
        .map(|i| {
            vec![
                (util[i].t_us / 1_000_000).to_string(),
                f(util[i].value, 4),
                (cpu[i].value as u64).to_string(),
                (virt[i].value as u64).to_string(),
                (real[i].value as u64).to_string(),
                (socks[i].value as u64).to_string(),
            ]
        })
        .collect();
    write_csv(
        &format!("fig7_series_{name}.csv"),
        &[
            "t_s",
            "cpu_util",
            "cpu_time_s",
            "virt_bytes",
            "real_bytes",
            "sockets",
        ],
        &rows,
    );
}

/// One RM under the shared load to the horizon, its master sampled at
/// 1 Hz: the usage row, with the series written out.
fn run<S: Stack>(
    name: &str,
    builder: SystemBuilder<S>,
    stream: JobStream,
    horizon_t: SimTime,
) -> (Usage, System<S>) {
    print!("running {name} ... ");
    let sampler = Sampler::every_until(SimSpan::from_secs(1), horizon_t);
    let mut sys = builder.sampler(sampler.clone()).build();
    sys.submit_stream(stream);
    sys.sim.run_until(horizon_t);
    println!("{} events", sys.sim.events_processed());
    let store = sampler.store();
    let peak = sys.sim.meter(NodeId::MASTER).peak_sockets();
    let usage = summarize(name, &store, "master", peak);
    dump_series(name, &store, "master");
    (usage, sys)
}

/// Occupation time (s) of one 10 s job over the first `size` compute
/// nodes of an idle cluster.
fn occupation<S: Stack>(builder: SystemBuilder<S>, size: u32) -> String {
    let mut sys = builder.build();
    let runtime = SimSpan::from_secs(10);
    sys.submit(SimTime::from_secs(60), 1, 0..size as usize, runtime);
    sys.sim.run_until(SimTime::from_secs(600));
    let first = sys.master().records().first();
    f(first.map_or(f64::NAN, |r| r.occupation().as_secs_f64()), 2)
}

fn main() {
    let args = ExpArgs::parse();
    let n: usize = args.scale(4096, 512);
    let horizon = SimSpan::from_hours(args.scale(24, 2));
    let horizon_t = SimTime::ZERO + horizon;
    // The one load all six RMs run under: ≈ 1K jobs/day, 20 min mean.
    let stream = JobStream::new(
        n as u32,
        horizon,
        42.0,
        n as u32,
        SimSpan::from_secs(1200),
        args.seed + 1,
    );

    println!(
        "Fig 7: {n} nodes, {} h horizon, ~1K jobs/day",
        horizon.as_secs() / 3600
    );

    // ESlurm with two satellites (as deployed on Tianhe-2A).
    let eslurm = || EslurmConfig {
        n_satellites: 2,
        ..Default::default()
    };
    let mut usages: Vec<Usage> = Vec::new();
    for profile in RmProfile::baselines() {
        let name = profile.name;
        let builder = SystemBuilder::new(profile, n, args.seed);
        usages.push(run(name, builder, stream.clone(), horizon_t).0);
    }
    {
        let builder = SystemBuilder::new(eslurm(), n, args.seed);
        let (usage, sys) = run("ESlurm", builder, stream, horizon_t);
        usages.push(usage);

        // Satellite demands (paper §VII-A: ~6 min CPU, 1.2 GB virt,
        // ~42 MB real per satellite over 24 h).
        let mut rows = Vec::new();
        for i in 0..2usize {
            let m = sys.sim.meter(NodeId(1 + i as u32));
            rows.push(vec![
                format!("satellite {}", i + 1),
                format!("{:.1} min", m.cpu_time().as_secs_f64() / 60.0),
                fmt_bytes(m.virt_mem()),
                fmt_bytes(m.real_mem()),
                m.peak_sockets().to_string(),
            ]);
        }
        print_table(
            "Fig 7 (companion) — satellite resource demands",
            &["node", "CPU time", "virt", "real", "peak sockets"],
            &rows,
        );
    }

    // ---- summary table (a–e).
    let rows: Vec<Vec<String>> = usages
        .iter()
        .map(|u| {
            vec![
                u.name.clone(),
                f(100.0 * u.cpu_util_mean, 2),
                format!("{:.1}", u.cpu_time.as_secs_f64() / 60.0),
                fmt_bytes(u.virt_mean),
                fmt_bytes(u.real_mean),
                f(u.sockets_mean, 1),
                u.sockets_peak.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fig 7a–e — master resource usage (means over the run)",
        &[
            "RM",
            "CPU %",
            "CPU min",
            "virt",
            "real",
            "sockets",
            "peak sockets",
        ],
        &rows,
    );
    write_csv(
        "fig7_summary.csv",
        &[
            "rm",
            "cpu_util",
            "cpu_time_min",
            "virt_bytes",
            "real_bytes",
            "sockets_mean",
            "sockets_peak",
        ],
        &rows,
    );

    // ---- (f) job occupation time vs size (10 s fixed runtime, idle
    //      cluster; paper: ESlurm always < 15 s).
    let sizes: Vec<u32> = if args.quick {
        vec![64, 256, 512]
    } else {
        vec![64, 256, 1024, 4096]
    };
    let mut rows = Vec::new();
    for &size in &sizes {
        let mut row = vec![size.to_string()];
        for profile in RmProfile::baselines() {
            row.push(occupation(SystemBuilder::new(profile, n, args.seed), size));
        }
        row.push(occupation(SystemBuilder::new(eslurm(), n, args.seed), size));
        rows.push(row);
    }
    print_table(
        "Fig 7f — job occupation time vs job size (s; 10 s runtime)",
        &[
            "nodes", "SGE", "Torque", "OpenPBS", "LSF", "Slurm", "ESlurm",
        ],
        &rows,
    );
    write_csv(
        "fig7f.csv",
        &[
            "nodes",
            "sge_s",
            "torque_s",
            "openpbs_s",
            "lsf_s",
            "slurm_s",
            "eslurm_s",
        ],
        &rows,
    );
}
