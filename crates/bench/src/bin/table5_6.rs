//! Tables V and VI — ESlurm on full-scale NG-Tianhe (20 480 compute
//! nodes) under five satellite-pool sizes SE₁…SE₅ (10…50 satellites).
//!
//! Table V: the master's resource usage grows mildly with the pool size
//! (it talks to more satellites directly). Table VI: satellites receive a
//! similar number of tasks regardless of pool size, but each task covers
//! fewer nodes, so per-satellite memory and connections shrink.

#![forbid(unsafe_code)]

use emu::NodeId;
use eslurm::{EslurmConfig, Scenario};
use eslurm_bench::{f, fmt_bytes, footprint, ExpArgs};
use obs::Sampler;
use rm::JobStream;
use simclock::{SimSpan, SimTime};

fn main() {
    let args = ExpArgs::parse();
    let n: usize = args.scale(20_480, 2_048);
    // The paper runs each setup for ten days; we run a compressed horizon
    // and report per-day-normalized task counts alongside totals.
    let horizon_h: u64 = args.scale(24, 2);
    let horizon = SimTime::ZERO + SimSpan::from_hours(horizon_h);
    let pools: Vec<usize> = args.scale(vec![10, 20, 30, 40, 50], vec![4, 8, 12]);

    let mut t5 = Vec::new();
    let mut t6 = Vec::new();
    for (i, &m) in pools.iter().enumerate() {
        let label = format!("SE{}", i + 1);
        print!("running {label} ({m} satellites) ... ");
        let cfg = EslurmConfig {
            n_satellites: m,
            ..Default::default()
        };
        // A production-like job stream (~2K jobs/day, sizes to 1/4 scale),
        // on the RNG stream and runtime floor the committed tables were
        // generated with.
        let stream = JobStream::new(
            n as u32,
            SimSpan::from_hours(horizon_h),
            2000.0 / 24.0,
            n as u32 / 4,
            SimSpan::from_secs(1800),
            args.seed,
        )
        .rng_stream(0x105)
        .min_runtime(SimSpan::from_secs(10));
        // 1 Hz footprint sampling of the master and every satellite.
        let sampler = Sampler::every_until(SimSpan::from_secs(1), horizon);
        let sys = Scenario::new(cfg, n, args.seed, horizon)
            .arrivals(stream)
            .run(|b| b.sampler(sampler.clone()));
        println!("{} events", sys.sim.events_processed());

        // Table V: master usage, read from the sampler's store in place (a
        // full-scale day is 22M points; `Sampler::store` would copy them).
        let u = sampler
            .with_store(|store| footprint(store, "master"))
            .expect("sampler armed above");
        t5.push(vec![
            label.clone(),
            format!("{:.1}", u.cpu_s / 60.0),
            fmt_bytes(u.virt),
            u.virt.to_string(),
            fmt_bytes(u.real),
            u.real.to_string(),
            f(u.sockets, 1),
            sys.sim.meter(NodeId::MASTER).peak_sockets().to_string(),
        ]);
        // Table VI: satellite averages.
        let mut tasks = 0.0;
        let mut nodes_per_task = 0.0;
        let mut virt = 0.0;
        let mut real = 0.0;
        let mut socks = 0.0;
        for idx in 0..m {
            let sat = sys.satellite(idx);
            tasks += sat.tasks_done() as f64;
            if sat.tasks_done() > 0 {
                nodes_per_task += sat.task_nodes_total() as f64 / sat.tasks_done() as f64;
            }
            let meter = sys.sim.meter(NodeId(1 + idx as u32));
            virt += meter.virt_mem() as f64;
            real += meter.real_mem() as f64;
            socks += meter.peak_sockets() as f64;
        }
        let mf = m as f64;
        let (virt, real) = ((virt / mf) as u64, (real / mf) as u64);
        t6.push(vec![
            label,
            f(tasks / mf, 0),
            f(nodes_per_task / mf, 1),
            fmt_bytes(virt),
            virt.to_string(),
            fmt_bytes(real),
            real.to_string(),
            f(socks / mf, 1),
        ]);
    }

    args.emit(
        &format!("Table V — master resource usage ({n} nodes, {horizon_h} h)"),
        "table5.csv",
        &[
            ("setup", "setup"),
            ("CPU min", "cpu_min"),
            ("virt (mean)", ""),
            ("", "virt_bytes"),
            ("real (mean)", ""),
            ("", "real_bytes"),
            ("sockets (mean)", "sockets_mean"),
            ("peak sockets", "sockets_peak"),
        ],
        &t5,
        "  [paper trends: CPU/real-memory/sockets grow mildly with the pool]",
    );
    args.emit(
        &format!("Table VI — satellite averages ({n} nodes, {horizon_h} h)"),
        "table6.csv",
        &[
            ("setup", "setup"),
            ("tasks/sat", "tasks_per_sat"),
            ("nodes/task", "nodes_per_task"),
            ("virt", ""),
            ("", "virt_bytes"),
            ("real", ""),
            ("", "real_bytes"),
            ("peak sockets", "sockets_peak"),
        ],
        &t6,
        "  [paper trends: tasks/sat ~flat; nodes/task, memory, sockets shrink with the pool]",
    );
}
