//! User-request responsiveness (companion to §II-B / §VII-C).
//!
//! The paper's production observations: the centralized Slurm master on
//! 20K+ nodes averaged > 27 s per user request with ~38 % of requests
//! failing to connect; the deployed ESlurm answers in < 1 s. Here we
//! inject `squeue`-style status queries at a steady rate while the RM
//! carries its usual heartbeat/poll and job traffic, and measure how long
//! each reply waits behind the master's serial work backlog. Requests
//! slower than the 10 s client timeout count as connection failures.

#![forbid(unsafe_code)]

use emu::NodeId;
use eslurm::{EslurmConfig, Scenario, Stack};
use eslurm_bench::{f, ExpArgs};
use rand::RngExt;
use rm::{JobStream, MasterLog, RmMsg, RmProfile};
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
        // A jitter draw that is never applied: the exponential gaps
        // already keep queries off the heartbeat epochs. It stays drawn
        // because the committed query times come from this stream;
        // applying it would move the §II-B figure.
        let _ = rng.random::<f64>();
        out.push(SimTime::from_secs_f64(t));
    }
}

/// One RM carrying its scenario's jobs while a client sends a status
/// query at each of `queries`: the master's `(request id, latency)` log at
/// the horizon.
fn serve_queries<S: Stack>(scenario: Scenario<S>, queries: &[SimTime]) -> Vec<(u64, SimSpan)> {
    let horizon = scenario.horizon;
    let mut sys = scenario.build(|b| b);
    for (i, &at) in queries.iter().enumerate() {
        let query = RmMsg::StatusQuery {
            id: (1 << 40) + i as u64,
        };
        sys.sim.inject(at, NodeId(1), NodeId::MASTER, query);
    }
    sys.sim.run_until(horizon);
    sys.master().query_log().to_vec()
}

fn main() {
    let args = ExpArgs::parse();
    let sizes: Vec<usize> = args.scale(vec![4_096, 10_240, 20_480], vec![512, 2_048]);
    let horizon = SimSpan::from_hours(args.scale(2, 1));
    let end = SimTime::ZERO + horizon;
    let query_rate = 1.0; // one user request per second
    let job_rate = 80.0; // jobs per hour

    let queries = query_times(horizon, query_rate, args.seed);
    let mut rows = Vec::new();
    for &n in &sizes {
        let stream = JobStream::new(
            n as u32,
            horizon,
            job_rate,
            n as u32,
            SimSpan::from_secs(900),
            args.seed + 1,
        );
        let mut report = |name: &str, log: Vec<(u64, SimSpan)>| {
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
        };
        for mut p in [RmProfile::sge(), RmProfile::slurm()] {
            // Centralized masters degrade superlinearly with the managed
            // state: every request scans O(n) node/job records under the
            // daemon's global lock while O(n) peers contend for it (the
            // §II-B pathology).
            let contention = (n as f64 / 1024.0).max(1.0);
            p.cost.msg_cpu = p.cost.msg_cpu.mul_f64(contention);
            p.cost.sched_cpu = p.cost.sched_cpu.mul_f64(contention);
            let name = p.name;
            let scenario = Scenario::new(p, n, args.seed, end).arrivals(stream.clone());
            report(name, serve_queries(scenario, &queries));
        }
        let cfg = EslurmConfig {
            n_satellites: (n / 2048).max(2),
            ..Default::default()
        };
        let scenario = Scenario::new(cfg, n, args.seed, end).arrivals(stream);
        report("ESlurm", serve_queries(scenario, &queries));
    }
    args.emit(
        "User-request response time (companion to §II-B)",
        "response_time.csv",
        &[
            ("nodes", "nodes"),
            ("RM", "rm"),
            ("mean (s)", "mean_s"),
            ("p95 (s)", "p95_s"),
            ("timeout %", "timeout_pct"),
        ],
        &rows,
        "  [paper: centralized Slurm on 20K+ nodes averaged >27 s with ~38% failures;\n   \
         deployed ESlurm answers in <1 s]",
    );
}
