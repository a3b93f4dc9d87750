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
use eslurm::{EslurmConfig, Scenario, Stack, System};
use eslurm_bench::{f, fmt_bytes, footprint, node_series, print_table, ExpArgs};
use obs::{Sampler, SeriesStore};
use rm::{Arrival, JobStream, MasterLog, RmProfile};
use simclock::{SimSpan, SimTime};

fn dump_series(args: &ExpArgs, name: &str, store: &SeriesStore, node: &str) {
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
    args.write_csv(
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
/// 1 Hz: the master's usage row, with the series written out.
fn run<S: Stack>(args: &ExpArgs, name: &str, scenario: Scenario<S>) -> (Vec<String>, System<S>) {
    print!("running {name} ... ");
    let sampler = Sampler::every_until(SimSpan::from_secs(1), scenario.horizon);
    let sys = scenario.run(|b| b.sampler(sampler.clone()));
    println!("{} events", sys.sim.events_processed());
    let store = sampler.store();
    let u = footprint(&store, "master");
    dump_series(args, name, &store, "master");
    let row = vec![
        name.to_string(),
        f(100.0 * u.cpu_util, 2),
        format!("{:.1}", u.cpu_s / 60.0),
        fmt_bytes(u.virt),
        fmt_bytes(u.real),
        f(u.sockets, 1),
        sys.sim.meter(NodeId::MASTER).peak_sockets().to_string(),
    ];
    (row, sys)
}

/// Occupation time (s) of one 10 s job over the first `size` compute
/// nodes of an idle cluster.
fn occupation<S: Stack>(stack: S, n: usize, seed: u64, size: u32) -> String {
    let job = Arrival {
        at: SimTime::from_secs(60),
        job: 1,
        nodes: 0..size as usize,
        runtime: SimSpan::from_secs(10),
    };
    let sys = Scenario::new(stack, n, seed, SimTime::from_secs(600))
        .arrivals(std::iter::once(job))
        .run(|b| b);
    let first = sys.master().records().first();
    f(first.map_or(f64::NAN, |r| r.occupation().as_secs_f64()), 2)
}

fn main() {
    let args = ExpArgs::parse();
    let n: usize = args.scale(4096, 512);
    let horizon = SimSpan::from_hours(args.scale(24, 2));
    // The one load all six RMs run under: ≈ 1K jobs/day, 20 min mean.
    let stream = JobStream::new(
        n as u32,
        horizon,
        42.0,
        n as u32,
        SimSpan::from_secs(1200),
        args.seed + 1,
    );
    let end = SimTime::ZERO + horizon;

    println!(
        "Fig 7: {n} nodes, {} h horizon, ~1K jobs/day",
        horizon.as_secs() / 3600
    );

    // ESlurm with two satellites (as deployed on Tianhe-2A).
    let eslurm = || EslurmConfig {
        n_satellites: 2,
        ..Default::default()
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    for profile in RmProfile::baselines() {
        let name = profile.name;
        let scenario = Scenario::new(profile, n, args.seed, end).arrivals(stream.clone());
        rows.push(run(&args, name, scenario).0);
    }
    {
        let scenario = Scenario::new(eslurm(), n, args.seed, end).arrivals(stream);
        let (row, sys) = run(&args, "ESlurm", scenario);
        rows.push(row);

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
    args.emit(
        "Fig 7a–e — master resource usage (means over the run)",
        "fig7_summary.csv",
        &[
            ("RM", "rm"),
            ("CPU %", "cpu_util"),
            ("CPU min", "cpu_time_min"),
            ("virt", "virt_bytes"),
            ("real", "real_bytes"),
            ("sockets", "sockets_mean"),
            ("peak sockets", "sockets_peak"),
        ],
        &rows,
        "",
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
            row.push(occupation(profile, n, args.seed, size));
        }
        row.push(occupation(eslurm(), n, args.seed, size));
        rows.push(row);
    }
    args.emit(
        "Fig 7f — job occupation time vs job size (s; 10 s runtime)",
        "fig7f.csv",
        &[
            ("nodes", "nodes"),
            ("SGE", "sge_s"),
            ("Torque", "torque_s"),
            ("OpenPBS", "openpbs_s"),
            ("LSF", "lsf_s"),
            ("Slurm", "slurm_s"),
            ("ESlurm", "eslurm_s"),
        ],
        &rows,
        "",
    );
}
