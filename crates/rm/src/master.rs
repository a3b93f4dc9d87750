//! What every master shares — its [`MasterCost`], [`FrontDesk`] and
//! [`JobBook`] — and the centralized master daemon (`slurmctld` /
//! `pbs_server` / `sge_qmaster` analogue), parameterized by an [`RmProfile`].
//!
//! The centralized master carries the full per-node and per-job state of
//! the cluster, performs liveness tracking in the profile's style, and
//! launches/terminates jobs through the profile's fan-out — everything
//! that makes a centralized RM's master node the hot spot the paper's
//! Fig. 7 measures.

use crate::profile::{Fanout, HeartbeatMode, RmProfile};
use crate::proto::{send_tree, AckTally, CtlKind, NodeSlice, RmMsg};
use emu::{Actor, Context, NodeId};
use obs::{Counter, EventKind, FlowKind, Hist, LabeledGauge, MetricId, Recorder, TraceContext};
use simclock::{SimSpan, SimTime};
use std::collections::BTreeMap;

/// Completed-job record kept by the master (drives Fig. 7(f)).
#[derive(Clone, Copy, Debug)]
pub struct JobRecord {
    /// Job id.
    pub job: u64,
    /// Submission time.
    pub submitted: SimTime,
    /// All launch acks collected (processes running everywhere).
    pub launch_done: SimTime,
    /// All terminate acks collected (resources reclaimed).
    pub finished: SimTime,
    /// Nodes the job used.
    pub nodes: u32,
}

/// What the experiments read off any RM's master, centralized or
/// distributed: completed jobs and served user requests.
pub trait MasterLog {
    /// Completed jobs, in completion order.
    fn records(&self) -> &[JobRecord];
    /// `(request id, response latency)` for served user requests.
    fn query_log(&self) -> &[(u64, SimSpan)];
}

/// What a master daemon pays for its work and its state, the same nine
/// constants on every RM. They are calibrated so the 4K-node emulation
/// lands in the ballpark of Fig. 7 (e.g. Slurm ≈ 10 GB virtual memory,
/// ESlurm's master < 100 sockets); the *orderings* are what the
/// architecture dictates. The five baseline profiles and `EslurmConfig`'s
/// defaults are calibrated this way.
#[derive(Clone, Copy, Debug)]
pub struct MasterCost {
    /// Master daemon CPU charged per message handled.
    pub msg_cpu: SimSpan,
    /// Master daemon CPU charged per job scheduled (allocation logic).
    pub sched_cpu: SimSpan,
    /// Baseline master virtual memory (code + arenas + mapped files).
    pub base_virt: u64,
    /// Baseline master resident memory.
    pub base_real: u64,
    /// Virtual memory pinned per managed node.
    pub per_node_virt: u64,
    /// Resident memory pinned per managed node.
    pub per_node_real: u64,
    /// Virtual memory pinned per active job.
    pub per_job_virt: u64,
    /// Resident memory pinned per active job.
    pub per_job_real: u64,
    /// Bytes of job history the master retains after a job completes (a
    /// quarter of them resident) — the unbounded growth observed on Slurm
    /// in §II-B.
    pub job_record_leak: u64,
}

/// A master's serial front desk, the same on every RM: messages are
/// served in arrival order, so a user request lands behind whatever storm
/// is in progress, and is answered when the backlog ahead of it clears.
pub struct FrontDesk {
    /// What the master pays for its work and its state.
    pub cost: MasterCost,
    /// When the work accepted so far is done.
    busy_until: SimTime,
    /// Requests waiting on the backlog: id → (asker, arrival).
    queries: BTreeMap<u64, (NodeId, SimTime)>,
    /// `(request id, response latency)` of answered requests.
    log: Vec<(u64, SimSpan)>,
}

impl FrontDesk {
    /// Charge `cost` of daemon work: CPU accounting plus the serial work
    /// backlog that delays user-request replies.
    pub fn track_work(&mut self, ctx: &mut dyn Context<RmMsg>, cost: SimSpan) {
        ctx.charge_cpu(cost);
        self.busy_until = self.busy_until.max(ctx.now()) + cost;
    }

    /// Charge one message's daemon work.
    pub fn handle(&mut self, ctx: &mut dyn Context<RmMsg>) {
        self.track_work(ctx, self.cost.msg_cpu);
    }

    /// Charge one control message to `node`: a message's daemon work, plus
    /// an ephemeral connection open for `socket` (`None` where the master
    /// keeps a persistent connection to `node`).
    pub fn contact(&mut self, ctx: &mut dyn Context<RmMsg>, node: NodeId, socket: Option<SimSpan>) {
        self.handle(ctx);
        if let Some(lifetime) = socket {
            ctx.open_socket_for(node, lifetime);
        }
    }

    /// Accept user request `id` from `asker`. Answering needs a consistent
    /// snapshot of the global job/node state — a scheduling decision that
    /// waits behind the backlog — so the reply timer `token` is armed for
    /// when the backlog clears; the master hands it to [`FrontDesk::reply`].
    pub fn take_query(&mut self, ctx: &mut dyn Context<RmMsg>, asker: NodeId, id: u64, token: u64) {
        self.queries.insert(id, (asker, ctx.now()));
        self.track_work(ctx, self.cost.sched_cpu);
        ctx.set_timer(self.busy_until - ctx.now(), token);
    }

    /// Answer request `id`, recording its latency into `obs` and the log.
    pub fn reply(&mut self, ctx: &mut dyn Context<RmMsg>, id: u64, obs: &Recorder) {
        let Some((asker, arrived)) = self.queries.remove(&id) else {
            return;
        };
        let latency = ctx.now() - arrived;
        obs.inc(Counter::QueriesServed);
        obs.observe(Hist::QueryLatencyUs, latency.as_micros());
        let me = ctx.me().0;
        obs.event_at(ctx.now(), me, EventKind::QueryServed, asker.0 as u64, 0);
        self.log.push((id, latency));
        ctx.send(asker, RmMsg::StatusReply { id });
    }

    /// `(request id, response latency)` for answered requests.
    pub fn query_log(&self) -> &[(u64, SimSpan)] {
        &self.log
    }
}

impl JobRecord {
    /// The paper's job occupation time: submission → full resource release.
    pub fn occupation(&self) -> SimSpan {
        self.finished - self.submitted
    }
}

/// Where a job is in its life at the master.
#[derive(Debug, PartialEq, Eq)]
enum Phase {
    Launching,
    Running,
    Terminating,
}

/// One job of a [`JobBook`], plus `X`, what the master's fan-out keeps.
pub struct BookedJob<X> {
    /// The job's nodes.
    pub nodes: NodeSlice,
    runtime: SimSpan,
    submitted: SimTime,
    launch_done: Option<SimTime>,
    phase: Phase,
    /// The acks of the phase's fan-out (the master sets `expected`).
    pub acks: AckTally,
    /// Causal-trace root of the job's dispatch flow.
    pub trace: Option<TraceContext>,
    /// The master's own per-job fan-out state.
    pub fanout: X,
}

/// A master's front desk and job table, and all it does with a job that
/// does not depend on how the job's control messages reach its nodes: the
/// base memory charge, admission, the run window, the cancel rule and
/// retirement. The master fans each phase out and feeds the acks to
/// [`JobBook::ack`].
pub struct JobBook<X = ()> {
    /// The master's backlog, costs and user requests.
    pub desk: FrontDesk,
    jobs: BTreeMap<u64, BookedJob<X>>,
    /// Where job telemetry goes.
    pub obs: Recorder,
    /// The virtual memory the job and node records account for, so
    /// footprint exports can break it out from transport buffers.
    bytes: LabeledGauge,
}

impl<X: Default> JobBook<X> {
    /// An empty book of a master that pays `cost`.
    pub fn new(cost: MasterCost) -> Self {
        let desk = FrontDesk {
            cost,
            busy_until: SimTime::ZERO,
            queries: BTreeMap::new(),
            log: Vec::new(),
        };
        JobBook {
            desk,
            jobs: BTreeMap::new(),
            obs: Recorder::disabled(),
            bytes: LabeledGauge::default(),
        }
    }

    /// Record job telemetry into `obs`, and the bookkeeping bytes into
    /// `bytes`.
    pub fn observe(&mut self, obs: &Recorder, bytes: LabeledGauge) {
        self.obs = obs.clone();
        self.bytes = bytes;
    }

    /// Charge the memory of the master and its `nodes` compute nodes.
    pub fn start(&self, ctx: &mut dyn Context<RmMsg>, nodes: usize) {
        let c = &self.desk.cost;
        let virt = (c.base_virt + nodes as u64 * c.per_node_virt) as i64;
        ctx.alloc_virt(virt);
        self.bytes.add(virt);
        ctx.alloc_real((c.base_real + nodes as u64 * c.per_node_real) as i64);
    }

    /// Schedule `job`, which runs `run_us` µs on `nodes` once launched, pin
    /// its memory and root its dispatch trace; the master then fans its
    /// launch out.
    pub fn admit(&mut self, ctx: &mut dyn Context<RmMsg>, job: u64, nodes: NodeSlice, run_us: u64) {
        let c = self.desk.cost;
        self.desk.track_work(ctx, c.sched_cpu);
        ctx.alloc_virt(c.per_job_virt as i64);
        ctx.alloc_real(c.per_job_real as i64);
        self.bytes.add(c.per_job_virt as i64);
        self.obs.inc(Counter::JobsSubmitted);
        let (now, me) = (ctx.now(), ctx.me().0);
        let width = nodes.len() as u64;
        self.obs.event_at(now, me, EventKind::JobSubmit, job, width);
        let trace = ctx.trace_begin(FlowKind::Dispatch);
        let booked = BookedJob {
            nodes,
            runtime: SimSpan::from_micros(run_us),
            submitted: now,
            launch_done: None,
            phase: Phase::Launching,
            acks: AckTally::default(),
            trace,
            fanout: X::default(),
        };
        self.jobs.insert(job, booked);
    }

    /// `job` while the master holds it, with the desk its fan-out charges.
    pub fn job(&mut self, job: u64) -> Option<(&mut BookedJob<X>, &mut FrontDesk)> {
        Some((self.jobs.get_mut(&job)?, &mut self.desk))
    }

    /// Count a `kind` ack covering `count` nodes toward `job`'s phase; the
    /// last one completes it. A launch then arms the master's timer
    /// `run_token` for the runtime ([`JobBook::run_out`]); a termination
    /// frees the job's memory but for the history it leaks, and pushes its
    /// record onto `records`. Acks of another phase, a running job or an
    /// unknown one count for nothing.
    pub fn ack(
        &mut self,
        ctx: &mut dyn Context<RmMsg>,
        job: u64,
        kind: CtlKind,
        count: u32,
        run_token: u64,
        records: &mut Vec<JobRecord>,
    ) {
        let Some(booked) = self.jobs.get_mut(&job) else {
            return;
        };
        let expected = match booked.phase {
            Phase::Launching => CtlKind::Launch,
            Phase::Terminating => CtlKind::Terminate,
            Phase::Running => return,
        };
        if kind != expected || !booked.acks.ack(count) {
            return;
        }
        if booked.phase == Phase::Launching {
            booked.phase = Phase::Running;
            booked.launch_done = Some(ctx.now());
            ctx.set_timer(booked.runtime, run_token);
            return;
        }
        let booked = self.jobs.remove(&job).expect("job vanished");
        let c = self.desk.cost;
        self.desk.track_work(ctx, c.sched_cpu);
        self.obs.inc(Counter::JobsCompleted);
        let (now, me) = (ctx.now(), ctx.me().0);
        let kind = EventKind::JobComplete;
        self.obs.span_from(booked.submitted, now, me, kind, job, 0);
        let keep = c.job_record_leak as i64;
        ctx.alloc_virt(-(c.per_job_virt as i64) + keep);
        ctx.alloc_real(-(c.per_job_real as i64) + keep / 4);
        self.bytes.add(-(c.per_job_virt as i64) + keep);
        records.push(JobRecord {
            job,
            submitted: booked.submitted,
            launch_done: booked.launch_done.unwrap_or(now),
            finished: now,
            nodes: booked.nodes.len() as u32,
        });
    }

    /// `job`'s run timer fired: `true` when it was still running and now
    /// terminates, after a scheduling decision; the master fans that out.
    pub fn run_out(&mut self, ctx: &mut dyn Context<RmMsg>, job: u64) -> bool {
        let ended = self.end(job);
        if ended {
            self.desk.track_work(ctx, self.desk.cost.sched_cpu);
        }
        ended
    }

    /// A user cancels `job` (a scheduling decision): `true` when it was
    /// running and now terminates early, which the master fans out. A job
    /// launching, terminating or unknown is left alone.
    pub fn cancel(&mut self, ctx: &mut dyn Context<RmMsg>, job: u64) -> bool {
        self.desk.track_work(ctx, self.desk.cost.sched_cpu);
        self.end(job)
    }

    /// Move a running `job` to terminating; `false` if it is not running.
    fn end(&mut self, job: u64) -> bool {
        match self.jobs.get_mut(&job) {
            Some(booked) if booked.phase == Phase::Running => {
                booked.phase = Phase::Terminating;
                true
            }
            _ => false,
        }
    }
}

const TOKEN_POLL: u64 = 0;
// Per-job timers: token = job * 4 + k.
const JOB_RUN_DONE: u64 = 1;
const JOB_SEQ_STEP: u64 = 2;
const QUERY_REPLY: u64 = 3;

/// The centralized master actor.
pub struct CentralizedMaster {
    profile: RmProfile,
    slaves: Vec<u32>,
    /// Desk and job table; each job's `usize` is the next of its nodes the
    /// sequential fan-out contacts.
    book: JobBook<usize>,
    /// Completed jobs, in completion order.
    pub records: Vec<JobRecord>,
}

impl CentralizedMaster {
    /// A master managing `slaves` (their node ids) under `profile`.
    pub fn new(profile: RmProfile, slaves: Vec<u32>) -> Self {
        CentralizedMaster {
            book: JobBook::new(profile.cost),
            profile,
            slaves,
            records: Vec::new(),
        }
    }

    /// Record job and query telemetry into `recorder`, and the job book's
    /// bytes into `rm_bookkeeping_bytes{component=rm.master}`.
    pub fn with_obs(mut self, recorder: Recorder) -> Self {
        let bytes = MetricId::new("rm_bookkeeping_bytes").with("component", "rm.master");
        self.book.observe(&recorder, recorder.labeled_gauge(bytes));
        self
    }

    /// The profile in force.
    pub fn profile(&self) -> &RmProfile {
        &self.profile
    }

    fn begin_ctl(&mut self, ctx: &mut dyn Context<RmMsg>, job: u64, kind: CtlKind) {
        let socket = self.profile.socket();
        let (state, desk) = self.book.job(job).expect("ctl for unknown job");
        state.acks = AckTally::default();
        state.fanout = 0;
        ctx.trace_adopt(state.trace);
        match self.profile.fanout {
            Fanout::Tree { width } => {
                let charge = |ctx: &mut dyn Context<RmMsg>, head| desk.contact(ctx, head, socket);
                (state.acks.expected, _) =
                    send_tree(ctx, job, kind, &state.nodes, width.into(), charge);
            }
            Fanout::Sequential => {
                state.acks.expected = state.nodes.len() as u32;
                // Contact the first node now; the rest are paced by timer.
                self.seq_step(ctx, job, kind);
            }
        }
    }

    fn seq_step(&mut self, ctx: &mut dyn Context<RmMsg>, job: u64, kind: CtlKind) {
        let socket = self.profile.socket();
        let Some((state, desk)) = self.book.job(job) else {
            return;
        };
        if state.fanout >= state.nodes.len() {
            return;
        }
        ctx.trace_adopt(state.trace);
        let head = state.nodes.nodes()[state.fanout];
        state.fanout += 1;
        desk.contact(ctx, NodeId(head), socket);
        let i = state.fanout - 1;
        ctx.send(
            NodeId(head),
            RmMsg::JobCtl {
                job,
                kind,
                list: state.nodes.slice(i, i),
                width: 2,
            },
        );
        if state.fanout < state.nodes.len() {
            let term_bit = (matches!(kind, CtlKind::Terminate) as u64) << 63;
            ctx.set_timer(self.profile.seq_gap, (job * 4 + JOB_SEQ_STEP) | term_bit);
        }
    }
}

impl MasterLog for CentralizedMaster {
    fn records(&self) -> &[JobRecord] {
        &self.records
    }
    fn query_log(&self) -> &[(u64, SimSpan)] {
        self.book.desk.query_log()
    }
}

impl Actor<RmMsg> for CentralizedMaster {
    fn on_start(&mut self, ctx: &mut dyn Context<RmMsg>) {
        self.book.start(ctx, self.slaves.len());
        if self.profile.persistent_connections {
            for &s in &self.slaves {
                ctx.open_socket(NodeId(s));
            }
        }
        if let HeartbeatMode::MasterPolls { interval } = self.profile.heartbeat {
            ctx.set_timer(interval, TOKEN_POLL);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Context<RmMsg>, from: NodeId, msg: RmMsg) {
        match msg {
            RmMsg::SubmitJob {
                job,
                nodes,
                runtime_us,
            } => {
                self.book.admit(ctx, job, nodes, runtime_us);
                self.begin_ctl(ctx, job, CtlKind::Launch);
            }
            RmMsg::CtlAck { job, kind, count } => {
                self.book.desk.handle(ctx);
                let token = job * 4 + JOB_RUN_DONE;
                self.book
                    .ack(ctx, job, kind, count, token, &mut self.records);
            }
            RmMsg::Heartbeat { node } => {
                self.book.desk.handle(ctx);
                ctx.send(NodeId(node), RmMsg::HeartbeatAck);
            }
            RmMsg::PollReply { .. } | RmMsg::Register { .. } => self.book.desk.handle(ctx),
            RmMsg::CancelJob { job } if self.book.cancel(ctx, job) => {
                self.begin_ctl(ctx, job, CtlKind::Terminate);
            }
            RmMsg::StatusQuery { id } => {
                let token = id * 4 + QUERY_REPLY;
                self.book.desk.take_query(ctx, from, id, token);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Context<RmMsg>, token: u64) {
        if token == TOKEN_POLL {
            if let HeartbeatMode::MasterPolls { interval } = self.profile.heartbeat {
                let socket = self.profile.socket();
                for &s in &self.slaves {
                    self.book.desk.contact(ctx, NodeId(s), socket);
                    ctx.send(NodeId(s), RmMsg::Poll);
                }
                ctx.set_timer(interval, TOKEN_POLL);
            }
            return;
        }
        let seq_term = token & (1 << 63) != 0;
        let base = token & !(1 << 63);
        let job = base / 4;
        match base % 4 {
            JOB_RUN_DONE if self.book.run_out(ctx, job) => {
                self.begin_ctl(ctx, job, CtlKind::Terminate);
            }
            JOB_SEQ_STEP => {
                let kind = if seq_term {
                    CtlKind::Terminate
                } else {
                    CtlKind::Launch
                };
                self.seq_step(ctx, job, kind);
            }
            QUERY_REPLY => self.book.desk.reply(ctx, job, &self.book.obs), // the id sits in the job slot
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{actors, RmNode};
    use emu::{SimCluster, SimConfig};

    type Sim = SimCluster<RmMsg, RmNode>;

    fn cluster(profile: RmProfile, n_compute: usize, seed: u64) -> Sim {
        let nodes = actors(profile, n_compute, &Recorder::disabled());
        SimCluster::new(nodes, SimConfig::new(1 + n_compute, seed))
    }

    /// Hand the master job 1 over the first `count` compute nodes at `at`.
    fn submit_job(sim: &mut Sim, at: SimTime, count: u32, runtime: SimSpan) {
        let nodes = NodeSlice::from_nodes(1..=count);
        let runtime_us = runtime.as_micros();
        let msg = RmMsg::SubmitJob {
            job: 1,
            nodes,
            runtime_us,
        };
        sim.inject(at, NodeId::MASTER, NodeId::MASTER, msg);
    }

    fn master(sim: &Sim) -> &CentralizedMaster {
        match sim.actor(NodeId::MASTER) {
            RmNode::Master(m) => m,
            RmNode::Slave(_) => unreachable!("node 0 is always the master"),
        }
    }

    fn run_one_job(profile: RmProfile, n_compute: usize, job_nodes: u32) -> (SimSpan, SimSpan) {
        let mut sim = cluster(profile, n_compute, 11);
        let runtime = SimSpan::from_secs(10);
        submit_job(&mut sim, SimTime::from_secs(1), job_nodes, runtime);
        sim.run_until(SimTime::from_secs(300));
        let master = master(&sim);
        assert_eq!(
            master.records.len(),
            1,
            "{} job did not finish",
            master.profile().name
        );
        let r = master.records[0];
        (r.occupation(), r.launch_done - r.submitted)
    }

    #[test]
    fn tree_rm_occupation_close_to_runtime() {
        let (occ, launch) = run_one_job(RmProfile::slurm(), 256, 256);
        assert!(launch < SimSpan::from_secs(1), "launch took {launch}");
        assert!(occ >= SimSpan::from_secs(10));
        assert!(occ < SimSpan::from_secs(12), "occupation {occ}");
    }

    #[test]
    fn sequential_rm_occupation_blows_up_with_size() {
        let (small, _) = run_one_job(RmProfile::torque(), 256, 32);
        let (big, _) = run_one_job(RmProfile::torque(), 256, 256);
        // 8 ms per node, twice (launch + terminate): 256 nodes ≈ +4 s.
        assert!(
            big > small + SimSpan::from_secs(2),
            "small {small} big {big}"
        );
    }

    #[test]
    fn polling_masters_accumulate_cpu() {
        let mut sim = cluster(RmProfile::sge(), 100, 5);
        sim.run_until(SimTime::from_secs(120));
        let cpu_sge = sim.meter(NodeId::MASTER).cpu_time();
        let mut sim2 = cluster(RmProfile::slurm(), 100, 5);
        sim2.run_until(SimTime::from_secs(120));
        let cpu_slurm = sim2.meter(NodeId::MASTER).cpu_time();
        assert!(
            cpu_sge > cpu_slurm * 3,
            "SGE {cpu_sge} should dwarf Slurm {cpu_slurm}"
        );
    }

    #[test]
    fn persistent_profiles_hold_sockets() {
        let mut sim = cluster(RmProfile::openpbs(), 100, 7);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.meter(NodeId::MASTER).sockets(), 100);
        let mut sim2 = cluster(RmProfile::slurm(), 100, 7);
        sim2.run_until(SimTime::from_secs(5));
        assert!(sim2.meter(NodeId::MASTER).sockets() < 10);
    }
}
