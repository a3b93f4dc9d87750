//! The paper's core architectural claim, as an integration test: under
//! identical load, ESlurm's master consumes a fraction of a centralized
//! master's CPU, memory, and connections — because the satellite layer
//! absorbs the fan-out. "Identical load" is itself asserted: every master
//! is handed the same arrivals of the one shared `JobStream`.

use eslurm_suite::emu::NodeId;
use eslurm_suite::eslurm::{
    EslurmConfig, EslurmNode, EslurmSystemBuilder, Scenario, Stack, SystemBuilder,
};
use eslurm_suite::obs::{build_traces, EventKind, FlowKind, Recorder};
use eslurm_suite::rm::master::MasterCost;
use eslurm_suite::rm::{JobRecord, JobStream, MasterLog, RmMsg, RmNode, RmProfile, SlaveDaemon};
use eslurm_suite::simclock::{SimSpan, SimTime};
use std::collections::BTreeSet;

const N: usize = 512;
const HORIZON_S: u64 = 1800;

/// Twenty 256-node jobs, one a minute: the master's CPU, virtual memory,
/// peak sockets and received messages at the horizon.
fn master_load<S: Stack>(name: &str, builder: SystemBuilder<S>) -> (SimSpan, u64, u32, u64) {
    let mut sys = builder.build();
    for j in 0..20u64 {
        sys.submit(
            SimTime::from_secs(30 + j * 60),
            j,
            0..256,
            SimSpan::from_secs(45),
        );
    }
    sys.sim.run_until(SimTime::from_secs(HORIZON_S));
    assert_eq!(sys.master().records().len(), 20, "{name}: jobs lost");
    let m = sys.sim.meter(NodeId::MASTER);
    let (_, received) = m.msg_counts();
    (m.cpu_time(), m.virt_mem(), m.peak_sockets(), received)
}

#[test]
fn eslurm_master_offloads_centralized_masters() {
    let cfg = EslurmConfig {
        n_satellites: 2,
        eq1_width: 256,
        ..Default::default()
    };
    let (es_cpu, es_virt, es_socks, es_msgs) = master_load("ESlurm", SystemBuilder::new(cfg, N, 7));
    for profile in RmProfile::baselines() {
        let name = profile.name;
        let (cpu, virt, socks, msgs) = master_load(name, SystemBuilder::new(profile, N, 7));
        assert!(
            es_cpu.as_micros() < cpu.as_micros(),
            "{name}: ESlurm master CPU {es_cpu} not below {cpu}"
        );
        // Virtual-memory baselines differ mostly in fixed footprint at
        // this small scale; the per-node slope is what matters for
        // scalability, so only the heavyweight masters (Slurm, LSF) must
        // already be above ESlurm at 512 nodes (Fig. 7c shows the rest
        // overtaking it by 4K nodes via their per-node slopes).
        if matches!(name, "Slurm" | "LSF") {
            assert!(
                es_virt < virt,
                "{name}: ESlurm master virt {es_virt} not below {virt}"
            );
        }
        assert!(
            es_socks < socks,
            "{name}: ESlurm master peak sockets {es_socks} not below {socks}"
        );
        assert!(
            es_msgs < msgs / 4,
            "{name}: ESlurm master received {es_msgs} msgs, centralized {msgs}"
        );
    }
}

#[test]
fn eslurm_master_sockets_independent_of_cluster_size() {
    // The defining scalability property: master connections track the
    // satellite pool, not the compute-node count.
    let peak_for = |n_slaves: usize| {
        let cfg = EslurmConfig {
            n_satellites: 2,
            ..Default::default()
        };
        let mut sys = EslurmSystemBuilder::new(cfg, n_slaves, 9).build();
        sys.sim.run_until(SimTime::from_secs(600));
        sys.sim.meter(NodeId::MASTER).peak_sockets()
    };
    let small = peak_for(64);
    let big = peak_for(1024);
    assert!(
        big <= small + 2,
        "master sockets grew with the cluster: {small} -> {big}"
    );
    assert!(big <= 8);
}

/// The compute daemon of a node, on either kind of stack.
trait Compute {
    fn slave(&self) -> Option<&SlaveDaemon>;
}

impl Compute for RmNode {
    fn slave(&self) -> Option<&SlaveDaemon> {
        match self {
            RmNode::Slave(s) => Some(s),
            RmNode::Master(_) => None,
        }
    }
}

impl Compute for EslurmNode {
    fn slave(&self) -> Option<&SlaveDaemon> {
        match self {
            EslurmNode::Slave(s) => Some(s),
            _ => None,
        }
    }
}

/// One job over compute indices `0..k` of `builder`'s deployment
/// completes once, on `k` nodes, and is launched and terminated on exactly
/// the nodes `slave_id` names for those indices.
fn one_job_on_its_nodes<S: Stack>(name: &str, builder: SystemBuilder<S>, k: usize)
where
    S::Node: Compute,
{
    let mut sys = builder.build();
    sys.submit(SimTime::from_secs(1), 7, 0..k, SimSpan::from_secs(1));
    sys.sim.run_until(SimTime::from_secs(30));
    let records = sys.master().records();
    assert_eq!(records.len(), 1, "{name}: job did not complete once");
    assert_eq!(records[0].nodes as usize, k, "{name}: job size");
    for i in 0..sys.n_slaves {
        let node = sys.sim.actor(NodeId(sys.slave_id(i)));
        let slave = node
            .slave()
            .expect("compute indices map to compute daemons");
        let want = if i < k { 2 } else { 0 };
        assert_eq!(slave.ctl_handled, want, "{name}: compute index {i}");
    }
}

#[test]
fn slurm_job_launches_and_terminates_once_on_every_slave() {
    let n = 32;
    one_job_on_its_nodes("Slurm", SystemBuilder::new(RmProfile::slurm(), n, 77), n);
}

#[test]
fn satellite_relayed_job_launches_and_terminates_once_on_every_slave() {
    // One satellite relays to all 60 slaves, four wide.
    let n_slaves = 60;
    let cfg = EslurmConfig {
        n_satellites: 1,
        eq1_width: 64,
        relay_width: 4,
        ..Default::default()
    };
    one_job_on_its_nodes("ESlurm", SystemBuilder::new(cfg, n_slaves, 3), n_slaves);
}

#[test]
fn one_job_reaches_exactly_its_nodes_on_all_six_rms() {
    let (n, k) = (64, 60);
    for profile in RmProfile::baselines() {
        let name = profile.name;
        one_job_on_its_nodes(name, SystemBuilder::new(profile, n, 77), k);
    }
    // One satellite relays to all 60 of the job's nodes, four wide.
    let cfg = EslurmConfig {
        n_satellites: 1,
        eq1_width: 64,
        relay_width: 4,
        ..Default::default()
    };
    one_job_on_its_nodes("ESlurm", SystemBuilder::new(cfg, n, 3), k);
}

/// A user request that reaches `builder`'s master at the instant a
/// 32-node job is submitted waits behind that job's `backlog` of master
/// work plus its own `cost`: it is unanswered one microsecond before that
/// backlog clears, answered when it does, and `query_log` holds the wait.
fn query_waits_out_the_backlog<S: Stack>(
    builder: SystemBuilder<S>,
    backlog: SimSpan,
    cost: SimSpan,
) {
    let mut sys = builder.build();
    let at = SimTime::from_secs(1);
    sys.submit(at, 7, 0..32, SimSpan::from_secs(5));
    let asker = NodeId(sys.slave_id(40));
    sys.sim
        .inject(at, asker, NodeId::MASTER, RmMsg::StatusQuery { id: 3 });
    let answered = at + backlog + cost;
    sys.sim.run_until(SimTime(answered.0 - 1));
    assert!(sys.master().query_log().is_empty(), "answered early");
    sys.sim.run_until(answered);
    assert_eq!(sys.master().query_log(), [(3, backlog + cost)]);
}

#[test]
fn status_query_is_answered_when_the_master_backlog_clears() {
    // Slurm's master schedules the job, then sends its 32 tree chunks.
    let p = RmProfile::slurm();
    let backlog = p.cost.sched_cpu + p.cost.msg_cpu * 32;
    query_waits_out_the_backlog(
        SystemBuilder::new(p.clone(), 64, 5),
        backlog,
        p.cost.sched_cpu,
    );
    // ESlurm's master only schedules it; the satellites fan it out.
    let cfg = EslurmConfig::default();
    let (backlog, cost) = (cfg.cost.sched_cpu, cfg.cost.sched_cpu);
    query_waits_out_the_backlog(SystemBuilder::new(cfg, 64, 5), backlog, cost);
}

/// `(at µs, job, first compute index, count, runtime µs)`.
type Handed = (u64, u64, usize, usize, u64);

/// What a master was handed, read back from its own telemetry: each
/// `JobSubmit` event gives arrival time and job id, the compute nodes its
/// dispatch trace reached give the index range, and the terminate going
/// out after `launch_done` gives the runtime (plus whatever CPU the master
/// spent first).
fn handed(rec: &Recorder, first_compute: u32, records: &[JobRecord]) -> Vec<Handed> {
    let trees = build_traces(&rec.causal_records());
    let submits = rec.events().into_iter();
    submits
        .filter(|e| e.kind == EventKind::JobSubmit)
        .map(|e| {
            let tree = trees
                .iter()
                .find(|t| t.flow == FlowKind::Dispatch && t.root_ts_us == e.ts_us)
                .expect("every submission roots a dispatch trace");
            let hops = || tree.hops.iter();
            let reached: BTreeSet<u32> = hops()
                .map(|h| h.to)
                .filter(|&n| n >= first_compute)
                .collect();
            assert_eq!(reached.len() as u64, e.b, "job {} node count", e.a);
            let first = reached.first().expect("a job has nodes") - first_compute;
            let record = records
                .iter()
                .find(|r| r.job == e.a)
                .expect("job completed");
            let launched = record.launch_done.as_micros();
            let terminate = hops().map(|h| h.send_us).filter(|&s| s > launched).min();
            let ran = terminate.expect("terminate sent") - launched;
            (e.ts_us, e.a, first as usize, reached.len(), ran)
        })
        .collect()
}

/// What `stack`'s master on 64 compute nodes was handed of `stream` by
/// `end`.
fn handed_stream<S: Stack>(stack: S, stream: JobStream, end: SimTime) -> Vec<Handed> {
    let rec = Recorder::full();
    let sys = Scenario::new(stack, 64, 7, end)
        .arrivals(stream)
        .run(|b| b.obs(rec.clone()));
    assert_eq!(sys.submitted, 59);
    handed(&rec, sys.slave_id(0), sys.master().records())
}

#[test]
fn every_master_is_handed_the_same_job_stream() {
    let horizon = SimSpan::from_secs(1800);
    let stream = || JobStream::new(64, horizon, 120.0, 32, SimSpan::from_secs(60), 43);
    let want: Vec<Handed> = stream()
        .map(|a| {
            let (at, rt) = (a.at.as_micros(), a.runtime.as_micros());
            (at, a.job, a.nodes.start, a.nodes.len(), rt)
        })
        .collect();
    // As drawn from `stream_rng(43, 0x10B5)` when the stream was first
    // pinned (node ids there, indices here).
    let pinned: [Handed; 8] = [
        (115_937_848, 1, 0, 2, 28_875_969),
        (133_809_528, 2, 48, 1, 35_591_691),
        (141_421_348, 3, 47, 3, 51_759_775),
        (144_534_515, 4, 44, 13, 44_612_962),
        (176_306_526, 5, 9, 2, 21_694_207),
        (218_476_307, 6, 34, 9, 33_886_862),
        (226_152_381, 7, 1, 5, 64_929_930),
        (280_028_963, 8, 47, 2, 27_077_031),
    ];
    assert_eq!(want[..8], pinned);
    assert_eq!(want.len(), 59);

    let end = SimTime::ZERO + horizon + SimSpan::from_secs(1800);
    let mut stacks: Vec<(&str, Vec<Handed>)> = Vec::new();
    for profile in RmProfile::baselines() {
        let name = profile.name;
        stacks.push((name, handed_stream(profile, stream(), end)));
    }
    let cfg = EslurmConfig {
        n_satellites: 2,
        eq1_width: 16,
        relay_width: 8,
        ..Default::default()
    };
    stacks.push(("ESlurm", handed_stream(cfg, stream(), end)));

    for (name, got) in &stacks {
        assert_eq!(got.len(), want.len(), "{name}: submissions");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!((g.0, g.1, g.2, g.3), (w.0, w.1, w.2, w.3), "{name}");
            // The terminate leaves within 10 ms of master CPU of the runtime.
            assert!((w.4..w.4 + 10_000).contains(&g.4), "{name}: {g:?} vs {w:?}");
        }
    }
}

/// The ESlurm deployment the six-stack job-book tests run beside the five
/// baselines.
fn eslurm_cfg() -> EslurmConfig {
    EslurmConfig {
        n_satellites: 2,
        eq1_width: 16,
        relay_width: 8,
        ..Default::default()
    }
}

/// The three cancel cases on `stack`, a 64-node deployment whose master
/// pays `cost`, with job 7 on compute nodes `0..32` submitted at 1 s.
fn cancels<S: Stack + Clone>(name: &str, stack: S, cost: MasterCost) {
    let submit = SimTime::from_secs(1);
    // The job's record and the master's virtual and resident memory and
    // CPU once everything drained, with `cancel = (at, id)` sent on top.
    let run = |runtime: SimSpan, cancel: Option<(SimTime, u64)>| {
        let mut sys = SystemBuilder::new(stack.clone(), 64, 5).build();
        sys.submit(submit, 7, 0..32, runtime);
        if let Some((at, job)) = cancel {
            let user = NodeId(sys.slave_id(40));
            sys.sim
                .inject(at, user, NodeId::MASTER, RmMsg::CancelJob { job });
        }
        sys.sim.run_until(SimTime::from_secs(900));
        let records = sys.master().records();
        assert_eq!(records.len(), 1, "{name}: the job did not complete once");
        let m = sys.sim.meter(NodeId::MASTER);
        (records[0], m.virt_mem(), m.real_mem(), m.cpu_time())
    };
    let c = &cost;
    let leaked = (
        c.base_virt + 64 * c.per_node_virt + c.job_record_leak,
        c.base_real + 64 * c.per_node_real + c.job_record_leak / 4,
    );
    let runtime = SimSpan::from_secs(600);

    // A cancel while the job runs ends it early and frees its memory.
    let at = SimTime::from_secs(60);
    let (r, virt, real, _) = run(runtime, Some((at, 7)));
    assert!(r.launch_done < at, "{name}: still launching at {at}: {r:?}");
    assert!(r.finished > at, "{name}: finished before the cancel: {r:?}");
    let ended = r.finished - at;
    assert!(
        ended < SimSpan::from_secs(20),
        "{name}: ended {ended} after the cancel"
    );
    assert_eq!((virt, real), leaked, "{name}: per-job memory kept");

    // A cancel during the launch is dropped: the job runs its runtime.
    let at = submit + SimSpan::from_micros(1);
    let short = SimSpan::from_secs(30);
    let (r, ..) = run(short, Some((at, 7)));
    assert!(
        r.launch_done > at,
        "{name}: launched before the cancel: {r:?}"
    );
    let ran = r.finished - r.launch_done;
    assert!(ran >= short, "{name}: ran {ran}, not its runtime");

    // A cancel of an unknown id costs one scheduling decision, no more.
    let (r0, virt0, real0, cpu0) = run(runtime, None);
    let (r, virt, real, cpu) = run(runtime, Some((SimTime::from_secs(60), 99)));
    assert_eq!(format!("{r:?}"), format!("{r0:?}"), "{name}: record moved");
    assert_eq!((virt, real), (virt0, real0), "{name}: memory moved");
    assert_eq!(cpu, cpu0 + cost.sched_cpu, "{name}: CPU");
}

#[test]
fn a_cancel_ends_only_a_running_job_on_all_six_rms() {
    for profile in RmProfile::baselines() {
        let cost = profile.cost;
        cancels(profile.name, profile, cost);
    }
    let cfg = eslurm_cfg();
    cancels("ESlurm", cfg.clone(), cfg.cost);
}

/// The job book's memory on `stack`, a 64-node deployment whose master
/// pays `cost`: the master's `alloc_*` calls are the only writers of its
/// memory meter, so each reading is exact.
fn books_memory<S: Stack + Clone>(name: &str, stack: S, cost: MasterCost) {
    let c = &cost;
    let virt0 = c.base_virt + 64 * c.per_node_virt;
    let real0 = c.base_real + 64 * c.per_node_real;
    // While one job runs, it holds its per-job memory.
    let mut sys = SystemBuilder::new(stack.clone(), 64, 3).build();
    sys.submit(SimTime::from_secs(1), 1, 0..64, SimSpan::from_secs(60));
    sys.sim.run_until(SimTime::from_secs(30));
    let m = sys.sim.meter(NodeId::MASTER);
    let running = (m.virt_mem(), m.real_mem());
    assert_eq!(
        running,
        (virt0 + c.per_job_virt, real0 + c.per_job_real),
        "{name}"
    );
    // Once a stream of k jobs drained, k leaked histories stay.
    let horizon = SimSpan::from_secs(1800);
    let stream = JobStream::new(64, horizon, 120.0, 32, SimSpan::from_secs(60), 43);
    let end = SimTime::ZERO + horizon + SimSpan::from_secs(1800);
    let sys = Scenario::new(stack, 64, 7, end).arrivals(stream).run(|b| b);
    let k = sys.submitted;
    assert_eq!(
        sys.master().records().len() as u64,
        k,
        "{name}: not drained"
    );
    let m = sys.sim.meter(NodeId::MASTER);
    let drained = (m.virt_mem(), m.real_mem());
    let leaked = (
        virt0 + k * c.job_record_leak,
        real0 + k * (c.job_record_leak / 4),
    );
    assert_eq!(drained, leaked, "{name}: {k} jobs");
}

#[test]
fn job_memory_is_released_with_leak_on_all_six_rms() {
    for profile in RmProfile::baselines() {
        let cost = profile.cost;
        books_memory(profile.name, profile, cost);
    }
    let cfg = eslurm_cfg();
    books_memory("ESlurm", cfg.clone(), cfg.cost);
}
