//! The two message-level workloads, `des_sweep` and `des_launch`: ESlurm
//! on the serial merged DES, driven through `EslurmSystemBuilder` on
//! timed passes and through a hand-wired, decorated `SimCluster` on the
//! traced pass.

use crate::pass::{ensure, Pass, Stopwatch, Violation};
use crate::replay;
use crate::stats::Fnv;
use crate::trace::{CallStats, Tracer};
use emu::{Actor, Context, FaultPlan, FaultPlanBuilder, NodeId, Outage, SimCluster, SimConfig};
use eslurm::{EslurmConfig, EslurmMaster, EslurmNode, EslurmSystemBuilder, SatelliteDaemon};
use monitoring::{FailurePredictor, OraclePredictor};
use obs::{FlowKind, Recorder, Sampler, SloEngine, TraceContext};
use rand::rngs::StdRng;
use rand::RngExt;
use rm::proto::{NodeSlice, RmMsg};
use rm::slave::{SlaveConfig, SlaveDaemon, SlaveHeartbeat};
use simclock::rng::{exponential, stream_rng};
use simclock::{SimSpan, SimTime};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Frozen parameters of a message-level workload.
#[derive(Clone, Debug)]
pub struct DesParams {
    pub slaves: usize,
    pub satellites: usize,
    pub horizon_s: u64,
    pub jobs: usize,
    /// Power-law cap on job width, in nodes.
    pub max_width: u32,
    /// Cap on job runtime. The last submit leaves this much plus
    /// [`DRAIN_SLACK_S`] before the horizon, so every job can finish.
    pub max_runtime_s: u64,
    pub eq1_width: usize,
    pub relay_width: usize,
    pub sweep_s: u64,
    pub sat_hb_s: u64,
    /// Inject a `tianhe_like` outage plan on the compute nodes and give
    /// the satellites an imperfect oracle predictor over it.
    pub faults: bool,
}

/// Time left after the last job's latest end for reclaim (terminate
/// broadcast, ack timeouts, a reassignment) to reach the master.
const DRAIN_SLACK_S: u64 = 120;

impl DesParams {
    /// Heartbeat fan-out over a deep, regular queue.
    pub fn sweep() -> Self {
        DesParams {
            slaves: 200_000,
            satellites: 16,
            horizon_s: 720,
            jobs: 100,
            max_width: 128,
            max_runtime_s: 300,
            eq1_width: 64,
            relay_width: 8,
            sweep_s: 120,
            sat_hb_s: 30,
            faults: false,
        }
    }

    /// Bursty tree launch and reclaim at Tianhe-2A scale, under faults.
    pub fn launch() -> Self {
        DesParams {
            slaves: 16_384,
            satellites: 8,
            horizon_s: 1_800,
            jobs: 3_000,
            max_width: 4_096,
            max_runtime_s: 600,
            eq1_width: 512,
            relay_width: 8,
            sweep_s: 120,
            sat_hb_s: 30,
            faults: true,
        }
    }

    /// A 200-node miniature with the same shape, for tests.
    #[cfg(test)]
    pub fn miniature(mut self) -> Self {
        self.slaves = 200;
        self.satellites = 2;
        self.jobs = self.jobs.min(40);
        self.max_width = self.max_width.min(64);
        self.eq1_width = 32;
        self
    }

    pub fn config(&self) -> EslurmConfig {
        EslurmConfig {
            n_satellites: self.satellites,
            eq1_width: self.eq1_width,
            relay_width: self.relay_width,
            hb_sweep_interval: SimSpan::from_secs(self.sweep_s),
            sat_hb_interval: SimSpan::from_secs(self.sat_hb_s),
            ..Default::default()
        }
    }

    pub fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.horizon_s)
    }
}

/// One job of a message-level workload: when it arrives, which compute
/// nodes (0-based) it occupies, and for how long.
#[derive(Clone, Debug)]
pub struct DesJob {
    pub at: SimTime,
    pub nodes: Vec<u32>,
    pub runtime: SimSpan,
}

/// `p.jobs` jobs: uniform arrivals, power-law widths on a contiguous
/// node range, exponential runtimes (mean a third of the cap, 5 s floor).
///
/// Widths are drawn stratified — job `i` takes the `i`-th of `p.jobs`
/// equal slices of the distribution, in shuffled order — so the total
/// node count, and with it the event count, barely moves with the seed.
pub fn generate_jobs(p: &DesParams, seed: u64) -> Vec<DesJob> {
    let mut rng = stream_rng(seed, 0x10B5);
    let n = p.slaves as u32;
    let max_exp = (p.max_width.min(n) as f64).log2();
    let last_submit_s = p
        .horizon_s
        .checked_sub(p.max_runtime_s + DRAIN_SLACK_S)
        .expect("horizon must outlast the longest job plus drain slack");
    let mut strata: Vec<usize> = (0..p.jobs).collect();
    for i in (1..strata.len()).rev() {
        strata.swap(i, rng.random_range(0..=i));
    }
    let mut jobs: Vec<DesJob> = strata
        .into_iter()
        .map(|s| {
            let u = (s as f64 + rng.random::<f64>()) / p.jobs as f64;
            let width = (2f64.powf(u * max_exp).round() as u32).clamp(1, n);
            let first = rng.random_range(0..=n - width);
            let runtime_s = exponential(&mut rng, 3.0 / p.max_runtime_s as f64)
                .clamp(5.0, p.max_runtime_s as f64);
            DesJob {
                at: SimTime::from_secs_f64(1.0 + rng.random::<f64>() * last_submit_s as f64),
                nodes: (first..first + width).collect(),
                runtime: SimSpan::from_secs_f64(runtime_s),
            }
        })
        .collect();
    jobs.sort_by_key(|j| j.at);
    jobs
}

/// Outages on the compute nodes only, in the deployment's global id space
/// (0 = master, then satellites, then compute nodes): losing the master is
/// not a scenario any job can finish under.
fn fault_plan(p: &DesParams, seed: u64) -> FaultPlan {
    let plan =
        FaultPlanBuilder::tianhe_like(p.slaves, SimSpan::from_secs(p.horizon_s), seed).build();
    let offset = (1 + p.satellites) as u32;
    let shifted = plan
        .outages()
        .iter()
        .map(|o| Outage {
            node: NodeId(o.node.0 + offset),
            ..*o
        })
        .collect();
    FaultPlan::from_outages(1 + p.satellites + p.slaves, shifted)
}

fn oracle(plan: &FaultPlan, seed: u64) -> OraclePredictor {
    OraclePredictor::new(plan.clone(), SimSpan::from_secs(300), seed)
        .with_recall(0.9)
        .with_false_positives(10)
}

/// Everything `EslurmSystemBuilder` is told about a cluster.
pub struct Wiring {
    pub cfg: EslurmConfig,
    pub slaves: usize,
    pub seed: u64,
    pub faults: Option<FaultPlan>,
    pub predictor: Option<Arc<Mutex<dyn FailurePredictor>>>,
    pub obs: Recorder,
    pub sampler: Sampler,
    pub slo: SloEngine,
    pub shards: usize,
}

impl Wiring {
    pub fn bare(cfg: EslurmConfig, slaves: usize, seed: u64) -> Self {
        Wiring {
            cfg,
            slaves,
            seed,
            faults: None,
            predictor: None,
            obs: Recorder::disabled(),
            sampler: Sampler::disabled(),
            slo: SloEngine::disabled(),
            shards: 1,
        }
    }
}

/// The cluster as the library's own builder makes it.
pub fn build_plain(w: Wiring) -> SimCluster<RmMsg, EslurmNode> {
    let mut b = EslurmSystemBuilder::new(w.cfg, w.slaves, w.seed)
        .shards(w.shards)
        .obs(w.obs)
        .sampler(w.sampler)
        .slo(w.slo);
    if let Some(f) = w.faults {
        b = b.faults(f);
    }
    if let Some(p) = w.predictor {
        b = b.predictor(p);
    }
    b.build().sim
}

/// The same cluster with every actor wrapped in [`TimedNode`], wired
/// step for step as `EslurmSystemBuilder::build` wires a serial one. The
/// fingerprint check between traced and untraced passes guards this copy.
pub fn build_timed(w: Wiring, probes: &Probes) -> SimCluster<RmMsg, TimedNode> {
    assert_eq!(w.shards, 1, "the traced pass is serial");
    let m = w.cfg.n_satellites;
    let total = 1 + m + w.slaves;
    let sat_ids: Vec<u32> = (1..=m as u32).collect();
    let slave_ids: Vec<u32> = (m as u32 + 1..total as u32).collect();

    let mut actors: Vec<TimedNode> = Vec::with_capacity(total);
    actors.push(probes.wrap(EslurmNode::Master(
        EslurmMaster::new(w.cfg.clone(), slave_ids, sat_ids.clone()).with_obs(w.obs.clone()),
    )));
    for _ in 0..m {
        actors.push(probes.wrap(EslurmNode::Satellite(
            SatelliteDaemon::new(w.cfg.clone(), w.predictor.clone()).with_obs(w.obs.clone()),
        )));
    }
    for _ in 0..w.slaves {
        actors.push(probes.wrap(EslurmNode::Slave(SlaveDaemon::new(SlaveConfig {
            master: NodeId::MASTER,
            heartbeat: SlaveHeartbeat::None,
            conn_lifetime: w.cfg.conn_lifetime,
            ..SlaveConfig::default()
        }))));
    }

    let mut config = SimConfig::new(total, w.seed);
    config.obs = w.obs;
    config.slo = w.slo;
    if w.sampler.enabled() {
        w.sampler.name_node(NodeId::MASTER.0, "master");
        for (i, &s) in sat_ids.iter().enumerate() {
            w.sampler.name_node(s, &format!("sat{}", i + 1));
        }
        config.sampler = w.sampler;
    }
    if let Some(f) = w.faults {
        config.faults = f;
    }
    SimCluster::new(actors, config)
}

/// Per-role handler statistics shared by every decorated actor.
pub struct Probes {
    master: Arc<RoleProbe>,
    satellite: Arc<RoleProbe>,
    slave: Arc<RoleProbe>,
}

struct RoleProbe {
    /// Handler calls, `Context::send` time included.
    handle: Arc<CallStats>,
    /// `Context::send` calls made from inside this role's handlers.
    send: Arc<CallStats>,
    depth: Arc<QueueDepth>,
}

/// Events in flight as seen from outside the engine: sends, timers and
/// injections made, minus handler calls delivered. Messages dropped at a
/// dead node are never delivered, so this is an upper estimate.
#[derive(Default)]
pub struct QueueDepth {
    pending: AtomicI64,
    high_water: AtomicI64,
}

impl QueueDepth {
    fn add(&self, n: i64) {
        let now = self.pending.fetch_add(n, Relaxed) + n;
        self.high_water.fetch_max(now, Relaxed);
    }

    pub fn high_water(&self) -> u64 {
        self.high_water.load(Relaxed).max(0) as u64
    }
}

impl Probes {
    pub fn new(tracer: &mut Tracer) -> Self {
        let depth = Arc::new(QueueDepth::default());
        let mut role = |handle, send| {
            Arc::new(RoleProbe {
                handle: tracer.calls(handle),
                send: tracer.calls(send),
                depth: depth.clone(),
            })
        };
        Probes {
            master: role("eslurm.master.handle", "eslurm.master.ctx_send"),
            satellite: role("eslurm.satellite.handle", "eslurm.satellite.ctx_send"),
            slave: role("rm.slave.handle", "rm.slave.ctx_send"),
        }
    }

    fn wrap(&self, inner: EslurmNode) -> TimedNode {
        let probe = match inner {
            EslurmNode::Master(_) => &self.master,
            EslurmNode::Satellite(_) => &self.satellite,
            EslurmNode::Slave(_) => &self.slave,
        };
        TimedNode {
            inner,
            probe: probe.clone(),
        }
    }

    fn depth(&self) -> &QueueDepth {
        &self.master.depth
    }

    /// Count `jobs` injected submissions as in flight.
    pub fn injected(&self, jobs: usize) {
        self.depth().add(jobs as i64);
    }
}

/// `Timed<EslurmNode>`: times every handler call of the wrapped actor and,
/// through [`TimedCtx`], every `Context::send` it makes.
pub struct TimedNode {
    inner: EslurmNode,
    probe: Arc<RoleProbe>,
}

impl TimedNode {
    fn timed(
        &mut self,
        ctx: &mut dyn Context<RmMsg>,
        f: impl FnOnce(&mut EslurmNode, &mut dyn Context<RmMsg>),
    ) {
        let mut ctx = TimedCtx {
            inner: ctx,
            probe: &self.probe,
        };
        let start = Instant::now();
        f(&mut self.inner, &mut ctx);
        self.probe.handle.record(start.elapsed().as_nanos() as u64);
    }
}

impl Actor<RmMsg> for TimedNode {
    fn on_start(&mut self, ctx: &mut dyn Context<RmMsg>) {
        self.timed(ctx, |n, c| n.on_start(c));
    }

    fn on_message(&mut self, ctx: &mut dyn Context<RmMsg>, from: NodeId, msg: RmMsg) {
        self.probe.depth.add(-1);
        self.timed(ctx, |n, c| n.on_message(c, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut dyn Context<RmMsg>, token: u64) {
        self.probe.depth.add(-1);
        self.timed(ctx, |n, c| n.on_timer(c, token));
    }
}

/// Forwards every `Context` method; times `send` and counts what enters
/// the event queue.
struct TimedCtx<'a> {
    inner: &'a mut dyn Context<RmMsg>,
    probe: &'a RoleProbe,
}

impl Context<RmMsg> for TimedCtx<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn me(&self) -> NodeId {
        self.inner.me()
    }
    fn send(&mut self, to: NodeId, msg: RmMsg) {
        let start = Instant::now();
        self.inner.send(to, msg);
        self.probe.send.record(start.elapsed().as_nanos() as u64);
        self.probe.depth.add(1);
    }
    fn set_timer(&mut self, after: SimSpan, token: u64) {
        self.inner.set_timer(after, token);
        self.probe.depth.add(1);
    }
    fn charge_cpu(&mut self, span: SimSpan) {
        self.inner.charge_cpu(span)
    }
    fn alloc_virt(&mut self, delta: i64) {
        self.inner.alloc_virt(delta)
    }
    fn alloc_real(&mut self, delta: i64) {
        self.inner.alloc_real(delta)
    }
    fn open_socket(&mut self, peer: NodeId) {
        self.inner.open_socket(peer)
    }
    fn close_socket(&mut self, peer: NodeId) {
        self.inner.close_socket(peer)
    }
    fn open_socket_for(&mut self, peer: NodeId, dur: SimSpan) {
        self.inner.open_socket_for(peer, dur)
    }
    fn rng(&mut self) -> &mut StdRng {
        self.inner.rng()
    }
    fn is_up(&self, node: NodeId) -> bool {
        self.inner.is_up(node)
    }
    fn trace_begin(&mut self, flow: FlowKind) -> Option<TraceContext> {
        self.inner.trace_begin(flow)
    }
    fn trace_current(&self) -> Option<TraceContext> {
        self.inner.trace_current()
    }
    fn trace_adopt(&mut self, ctx: Option<TraceContext>) {
        self.inner.trace_adopt(ctx)
    }
    fn trace_backoff(&mut self, ctx: &TraceContext, start: SimTime) {
        self.inner.trace_backoff(ctx, start)
    }
}

/// `Timed<dyn FailurePredictor>`: times each suspect query and sums the
/// set sizes it returned.
pub struct TimedPredictor<P> {
    inner: P,
    calls: Arc<CallStats>,
    suspects: Arc<CallStats>,
}

impl<P: FailurePredictor> FailurePredictor for TimedPredictor<P> {
    fn suspects(&mut self, now: SimTime) -> HashSet<u32> {
        let start = Instant::now();
        let out = self.inner.suspects(now);
        self.calls.record(start.elapsed().as_nanos() as u64);
        self.suspects.record(out.len() as u64);
        out
    }
}

/// Read access to the ESlurm actor under either wiring.
pub trait Node: Actor<RmMsg> {
    fn eslurm(&self) -> &EslurmNode;
}

impl Node for EslurmNode {
    fn eslurm(&self) -> &EslurmNode {
        self
    }
}

impl Node for TimedNode {
    fn eslurm(&self) -> &EslurmNode {
        &self.inner
    }
}

pub fn master<A: Node>(sim: &SimCluster<RmMsg, A>) -> &EslurmMaster {
    match sim.actor(NodeId::MASTER).eslurm() {
        EslurmNode::Master(m) => m,
        _ => unreachable!("node 0 is the master"),
    }
}

/// What driving a cluster to its horizon produced.
pub struct DesRun {
    pub wall_s: f64,
    pub cpu_s: Option<f64>,
    pub events: u64,
    pub dropped: u64,
    pub recorded: u64,
    pub outcome_fp: u64,
}

/// Submit `jobs` exactly as `EslurmSystem::submit` does.
pub fn inject<A: Node>(sim: &mut SimCluster<RmMsg, A>, satellites: usize, jobs: &[DesJob]) {
    let first_slave = 1 + satellites as u32;
    for (id, j) in jobs.iter().enumerate() {
        let nodes = NodeSlice::from_nodes(j.nodes.iter().map(|&i| first_slave + i));
        sim.inject(
            j.at,
            NodeId::MASTER,
            NodeId::MASTER,
            RmMsg::SubmitJob {
                job: id as u64,
                nodes,
                runtime_us: j.runtime.as_micros(),
            },
        );
    }
}

/// Run to `horizon` and fingerprint the outcome: final clock, event and
/// drop counts, every job record, and the master and satellite meters —
/// what the paper's figures read, as `bench_des` does.
pub fn run_to<A: Node>(
    sim: &mut SimCluster<RmMsg, A>,
    satellites: usize,
    horizon: SimTime,
    tracer: &mut Tracer,
) -> DesRun {
    let watch = Stopwatch::start();
    tracer.span("emu.run_until", |_| sim.run_until(horizon));
    let (wall_s, cpu_s) = watch.stop();

    let mut h = Fnv::default();
    h.u64(sim.now().as_micros());
    h.u64(sim.events_processed());
    h.u64(sim.dropped_messages());
    let records = &master(sim).records;
    for r in records {
        h.debug(r);
    }
    for i in 0..=satellites {
        let m = sim.meter(NodeId(i as u32));
        h.debug(&(
            m.cpu_time(),
            m.msg_counts(),
            m.sockets(),
            m.peak_sockets(),
            m.peak_mem(),
        ));
    }
    DesRun {
        wall_s,
        cpu_s,
        events: sim.events_processed(),
        dropped: sim.dropped_messages(),
        recorded: records.len() as u64,
        outcome_fp: h.0,
    }
}

/// The invariants of a message-level outcome.
pub fn check<A: Node>(
    sim: &SimCluster<RmMsg, A>,
    run: &DesRun,
    jobs: &[DesJob],
) -> Result<(), Violation> {
    ensure(run.recorded <= jobs.len() as u64, || {
        format!("{} records for {} jobs", run.recorded, jobs.len())
    })?;
    let mut seen = HashSet::new();
    for r in &master(sim).records {
        ensure(seen.insert(r.job), || {
            format!("job {} recorded twice", r.job)
        })?;
        let j = jobs
            .get(r.job as usize)
            .ok_or_else(|| Violation(format!("record for unknown job {}", r.job)))?;
        ensure(r.nodes as usize == j.nodes.len(), || {
            format!("job {} recorded on {} nodes", r.job, r.nodes)
        })?;
        ensure(
            r.finished >= r.launch_done && r.launch_done >= r.submitted,
            || format!("job {} has a non-monotone record {r:?}", r.job),
        )?;
    }
    Ok(())
}

/// Inject `jobs`, run to `horizon`, check the outcome.
pub fn drive<A: Node>(
    sim: &mut SimCluster<RmMsg, A>,
    satellites: usize,
    jobs: &[DesJob],
    horizon: SimTime,
    tracer: &mut Tracer,
) -> Result<DesRun, Violation> {
    tracer.span("emu.inject", |_| inject(sim, satellites, jobs));
    let run = run_to(sim, satellites, horizon, tracer);
    check(sim, &run, jobs)?;
    Ok(run)
}

/// Seconds spent before the timed region: the generate, build and inject
/// phase spans.
pub fn setup_s(tracer: &Tracer) -> f64 {
    ["workload.generate", "emu.build", "emu.inject"]
        .iter()
        .map(|n| tracer.span_s(n))
        .sum()
}

/// One pass of a message-level workload.
pub fn run(p: &DesParams, seed: u64, traced: bool, tracer: &mut Tracer) -> Result<Pass, Violation> {
    let (jobs, plan) = tracer.span("workload.generate", |_| {
        (
            generate_jobs(p, seed),
            p.faults.then(|| fault_plan(p, seed)),
        )
    });
    let mut wiring = Wiring::bare(p.config(), p.slaves, seed);
    wiring.faults = plan.clone();

    if !traced {
        wiring.predictor = plan
            .as_ref()
            .map(|f| Arc::new(Mutex::new(oracle(f, seed))) as Arc<Mutex<dyn FailurePredictor>>);
        let mut sim = tracer.span("emu.build", |_| build_plain(wiring));
        let run = drive(&mut sim, p.satellites, &jobs, p.horizon(), tracer)?;
        return Ok(pass_of(setup_s(tracer), &run, &jobs));
    }

    let probes = Probes::new(tracer);
    let predict = tracer.calls("monitoring.predict");
    let suspects = tracer.calls("monitoring.suspects");
    wiring.predictor = plan.as_ref().map(|f| {
        Arc::new(Mutex::new(TimedPredictor {
            inner: oracle(f, seed),
            calls: predict.clone(),
            suspects: suspects.clone(),
        })) as Arc<Mutex<dyn FailurePredictor>>
    });
    let mut sim = tracer.span("emu.build", |_| build_timed(wiring, &probes));
    probes.injected(jobs.len());
    let run = drive(&mut sim, p.satellites, &jobs, p.horizon(), tracer)?;

    let mut pass = pass_of(setup_s(tracer), &run, &jobs);
    engine_layers(&mut pass.layers, tracer, &probes, &run);
    let l = &mut pass.layers;
    l.insert("monitoring.predict_s", predict.sum_s());
    l.insert("monitoring.predict_calls", predict.count() as f64);
    // The "duration" recorded per call is the suspect-set size.
    l.insert(
        "monitoring.suspects_mean",
        suspects.sum_ns() as f64 / suspects.count().max(1) as f64,
    );
    l.insert("workload.generate_s", tracer.span_s("workload.generate"));
    l.insert("workload.jobs", jobs.len() as f64);
    Ok(pass)
}

fn pass_of(setup_s: f64, run: &DesRun, jobs: &[DesJob]) -> Pass {
    Pass {
        setup_s,
        wall_s: run.wall_s,
        cpu_s: run.cpu_s,
        outcome_fp: run.outcome_fp,
        attempted: jobs.len() as u64,
        failed: jobs.len() as u64 - run.recorded,
        layers: BTreeMap::new(),
    }
}

/// The `simclock`, `emu`, `rm` and `eslurm` metrics of a decorated run.
pub fn engine_layers(
    l: &mut BTreeMap<&'static str, f64>,
    tracer: &Tracer,
    probes: &Probes,
    run: &DesRun,
) {
    let run_s = tracer.span_s("emu.run_until");
    let roles = [&probes.master, &probes.satellite, &probes.slave];
    let handlers_s: f64 = roles.iter().map(|r| r.handle.sum_s()).sum();
    l.insert("simclock.queue_ops", 2.0 * run.events as f64);
    l.insert("simclock.keyed_depth", probes.depth().high_water() as f64);
    l.insert("emu.events", run.events as f64);
    l.insert("emu.dropped_msgs", run.dropped as f64);
    l.insert("emu.events_per_s", run.events as f64 / run_s);
    l.insert("emu.ns_per_event", run_s * 1e9 / run.events.max(1) as f64);
    l.insert("emu.engine_self_s", run_s - handlers_s);
    l.insert(
        "emu.ctx_send_s",
        roles.iter().map(|r| r.send.sum_s()).sum::<f64>(),
    );
    l.insert(
        "emu.ctx_send_calls",
        roles.iter().map(|r| r.send.count()).sum::<u64>() as f64,
    );
    l.insert("emu.build_s", tracer.span_s("emu.build"));
    l.insert("emu.inject_s", tracer.span_s("emu.inject"));
    // A handler's self time is its span minus the sends made inside it.
    let self_s = |r: &RoleProbe| r.handle.sum_s() - r.send.sum_s();
    l.insert("rm.slave_handle_s", self_s(&probes.slave));
    l.insert("rm.slave_calls", probes.slave.handle.count() as f64);
    l.insert("eslurm.master_handle_s", self_s(&probes.master));
    l.insert("eslurm.master_calls", probes.master.handle.count() as f64);
    l.insert("eslurm.satellite_handle_s", self_s(&probes.satellite));
    l.insert(
        "eslurm.satellite_calls",
        probes.satellite.handle.count() as f64,
    );
}

/// The passes and replays only a traced run makes. Without faults
/// (`des_sweep`) the same input runs once more on two shards; its outcome
/// must equal `baseline`'s bit for bit. `l` already holds the traced
/// pass's metrics.
pub fn extras(
    p: &DesParams,
    seed: u64,
    baseline: &Pass,
    l: &mut BTreeMap<&'static str, f64>,
) -> Result<(), Violation> {
    let jobs = generate_jobs(p, seed);
    if !p.faults {
        let mut wiring = Wiring::bare(p.config(), p.slaves, seed);
        wiring.shards = 2;
        let mut sim = build_plain(wiring);
        let run = drive(
            &mut sim,
            p.satellites,
            &jobs,
            p.horizon(),
            &mut Tracer::new(seed),
        )?;
        ensure(run.outcome_fp == baseline.outcome_fp, || {
            format!(
                "two-shard outcome {:016x} differs from serial {:016x}",
                run.outcome_fp, baseline.outcome_fp
            )
        })?;
        l.insert("emu.workers2_wall_ratio", run.wall_s / baseline.wall_s);
    }
    let predictor = p.faults.then(|| oracle(&fault_plan(p, seed), seed));
    replay::topology(l, p, &jobs, predictor);
    replay::keyed_queue(l, l["simclock.keyed_depth"] as u64, seed);
    Ok(())
}
