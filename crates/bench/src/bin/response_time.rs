//! User-request responsiveness (companion to §II-B / §VII-C).
//!
//! The paper's production observations: the centralized Slurm master on
//! 20K+ nodes averaged > 27 s per user request with ~38 % of requests
//! failing to connect; the deployed ESlurm answers in < 1 s. Here we
//! inject `squeue`-style status queries at a steady rate while the RM
//! carries its usual heartbeat/poll and job traffic, and measure how long
//! each reply waits behind the master's serial work backlog. Requests
//! slower than the 10 s client timeout count as connection failures.

use emu::NodeId;
use eslurm::{EslurmConfig, EslurmSystemBuilder};
use eslurm_bench::{f, print_table, write_csv, ExpArgs};
use rand::RngExt;
use rm::{JobStream, RmClusterBuilder, RmMsg, RmProfile};
use simclock::rng::stream_rng;
use simclock::{SimSpan, SimTime};

const CLIENT_TIMEOUT_S: f64 = 10.0;

fn stats(log: &[(u64, SimSpan)]) -> (f64, f64, f64) {
    if log.is_empty() {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    let mut lat: Vec<f64> = log.iter().map(|(_, d)| d.as_secs_f64()).collect();
    lat.sort_by(f64::total_cmp);
    let mean = lat.iter().sum::<f64>() / lat.len() as f64;
    let p95 = lat[((lat.len() as f64 * 0.95) as usize).min(lat.len() - 1)];
    let failed = lat.iter().filter(|&&l| l > CLIENT_TIMEOUT_S).count() as f64 / lat.len() as f64;
    (mean, p95, failed)
}

fn query_times(horizon: SimSpan, rate_per_s: f64, seed: u64) -> Vec<SimTime> {
    let mut rng = stream_rng(seed, 0x0DE7);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += simclock::rng::exponential(&mut rng, rate_per_s);
        if t >= horizon.as_secs_f64() {
            return out;
        }
        // Jitter avoids phase-locking with heartbeat epochs.
        let _ = rng.random::<f64>();
        out.push(SimTime::from_secs_f64(t));
    }
}

fn main() {
    let args = ExpArgs::parse();
    let sizes: Vec<usize> = args.scale(vec![4_096, 10_240, 20_480], vec![512, 2_048]);
    let horizon = SimSpan::from_hours(args.scale(2, 1));
    let horizon_t = SimTime::ZERO + horizon;
    let query_rate = 1.0; // one user request per second
    let job_rate = 80.0; // jobs per hour

    let mut rows = Vec::new();
    for &n in &sizes {
        for profile in [Some(RmProfile::sge()), Some(RmProfile::slurm()), None] {
            let (name, log) = match profile {
                Some(mut p) => {
                    let name = p.name;
                    // Centralized masters degrade superlinearly with the
                    // managed state: every request scans O(n) node/job
                    // records under the daemon's global lock while O(n)
                    // peers contend for it (the §II-B pathology).
                    let contention = (n as f64 / 1024.0).max(1.0);
                    p.msg_cpu = p.msg_cpu.mul_f64(contention);
                    p.sched_cpu = p.sched_cpu.mul_f64(contention);
                    let mut h = RmClusterBuilder::new(p, n + 1).seed(args.seed).build();
                    h.submit_stream(JobStream::new(
                        n as u32,
                        horizon,
                        job_rate,
                        n as u32,
                        SimSpan::from_secs(900),
                        args.seed + 1,
                    ));
                    for (i, at) in query_times(horizon, query_rate, args.seed)
                        .iter()
                        .enumerate()
                    {
                        h.sim.inject(
                            *at,
                            NodeId(1),
                            NodeId::MASTER,
                            RmMsg::StatusQuery {
                                id: (1 << 40) + i as u64,
                            },
                        );
                    }
                    h.sim.run_until(horizon_t);
                    (name, h.master_actor().query_log.clone())
                }
                None => {
                    let cfg = EslurmConfig {
                        n_satellites: (n / 2048).max(2),
                        ..Default::default()
                    };
                    let mut sys = EslurmSystemBuilder::new(cfg, n, args.seed).build();
                    for (i, at) in query_times(horizon, query_rate, args.seed)
                        .iter()
                        .enumerate()
                    {
                        sys.sim.inject(
                            *at,
                            NodeId(1),
                            NodeId::MASTER,
                            RmMsg::StatusQuery {
                                id: (1 << 40) + i as u64,
                            },
                        );
                    }
                    sys.sim.run_until(horizon_t);
                    ("ESlurm", sys.master().query_log().to_vec())
                }
            };
            let (mean, p95, failed) = stats(&log);
            println!(
                "{n:6} nodes  {name:8} mean {mean:.3}s  p95 {p95:.3}s  timeout {:.1}%",
                100.0 * failed
            );
            rows.push(vec![
                n.to_string(),
                name.to_string(),
                f(mean, 4),
                f(p95, 4),
                f(100.0 * failed, 2),
            ]);
        }
    }
    print_table(
        "User-request response time (companion to §II-B)",
        &["nodes", "RM", "mean (s)", "p95 (s)", "timeout %"],
        &rows,
    );
    println!(
        "  [paper: centralized Slurm on 20K+ nodes averaged >27 s with ~38% failures;\n   \
         deployed ESlurm answers in <1 s]"
    );
    write_csv(
        "response_time.csv",
        &["nodes", "rm", "mean_s", "p95_s", "timeout_pct"],
        &rows,
    );
}
