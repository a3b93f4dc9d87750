//! The centralized master daemon (`slurmctld` / `pbs_server` / `sge_qmaster`
//! analogue), parameterized by an [`RmProfile`].
//!
//! It carries the full per-node and per-job state of the cluster, performs
//! liveness tracking in the profile's style, and launches/terminates jobs
//! through the profile's fan-out — everything that makes a centralized RM's
//! master node the hot spot the paper's Fig. 7 measures.

use crate::profile::{Fanout, HeartbeatMode, RmProfile};
use crate::proto::{CtlKind, NodeSlice, RmMsg};
use emu::{Actor, Context, NodeId};
use obs::{Counter, EventKind, FlowKind, Hist, LabeledGauge, MetricId, Recorder, TraceContext};
use simclock::{SimSpan, SimTime};
use std::collections::BTreeMap;
use topology::split_balanced;

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

impl JobRecord {
    /// The paper's job occupation time: submission → full resource release.
    pub fn occupation(&self) -> SimSpan {
        self.finished - self.submitted
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Phase {
    Launching,
    Running,
    Terminating,
}

struct JobState {
    nodes: NodeSlice,
    runtime: SimSpan,
    submitted: SimTime,
    launch_done: Option<SimTime>,
    phase: Phase,
    acked: u32,
    expected_acks: u32,
    /// Next node index to contact (sequential fan-out only).
    seq_next: usize,
    /// Causal-trace root for this job's dispatch flow (the centralized
    /// baselines trace the same flow kinds as the ESlurm tree, so
    /// `eslurm critical-path` comparisons line up).
    trace: Option<TraceContext>,
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
    jobs: BTreeMap<u64, JobState>,
    /// Completed jobs, in completion order.
    pub records: Vec<JobRecord>,
    /// The daemon's work backlog: messages are served in arrival order,
    /// so a user request lands behind whatever storm is in progress.
    busy_until: SimTime,
    pending_queries: BTreeMap<u64, NodeId>,
    query_log: Vec<(u64, SimSpan)>,
    query_arrival: BTreeMap<u64, SimTime>,
    obs: Recorder,
    /// Bookkeeping bytes (`rm_bookkeeping_bytes{component=rm.master}`):
    /// the virtual memory the daemon's job/node records account for,
    /// mirrored into the labeled registry so footprint exports can break
    /// it out from transport buffers. No-op when `obs` is disabled.
    book_mem: LabeledGauge,
}

impl CentralizedMaster {
    /// A master managing `slaves` (their node ids) under `profile`.
    pub fn new(profile: RmProfile, slaves: Vec<u32>) -> Self {
        CentralizedMaster {
            profile,
            slaves,
            jobs: BTreeMap::new(),
            records: Vec::new(),
            busy_until: SimTime::ZERO,
            pending_queries: BTreeMap::new(),
            query_log: Vec::new(),
            query_arrival: BTreeMap::new(),
            obs: Recorder::disabled(),
            book_mem: LabeledGauge::default(),
        }
    }

    /// Record job and query telemetry into `recorder`.
    pub fn with_obs(mut self, recorder: Recorder) -> Self {
        if recorder.enabled() {
            self.book_mem = recorder.labeled_gauge(
                MetricId::new("rm_bookkeeping_bytes").with("component", "rm.master"),
            );
        }
        self.obs = recorder;
        self
    }

    /// The profile in force.
    pub fn profile(&self) -> &RmProfile {
        &self.profile
    }

    /// Charge `cost` of daemon work: CPU accounting plus the serial work
    /// backlog that delays user-request replies. Free-standing over the
    /// backlog field so callers holding other field borrows can use it.
    fn track_work(busy_until: &mut SimTime, ctx: &mut dyn Context<RmMsg>, cost: SimSpan) {
        ctx.charge_cpu(cost);
        *busy_until = (*busy_until).max(ctx.now()) + cost;
    }

    fn begin_ctl(&mut self, ctx: &mut dyn Context<RmMsg>, job: u64, kind: CtlKind) {
        let state = self.jobs.get_mut(&job).expect("ctl for unknown job");
        state.acked = 0;
        state.seq_next = 0;
        ctx.trace_adopt(state.trace);
        match self.profile.fanout {
            Fanout::Direct => {
                state.expected_acks = state.nodes.len() as u32;
                for i in 0..state.nodes.len() {
                    let head = state.nodes.nodes()[i];
                    Self::track_work(&mut self.busy_until, ctx, self.profile.msg_cpu);
                    if !self.profile.persistent_connections {
                        ctx.open_socket_for(NodeId(head), self.profile.conn_lifetime);
                    }
                    ctx.send(
                        NodeId(head),
                        RmMsg::JobCtl {
                            job,
                            kind,
                            list: state.nodes.slice(i, i),
                            width: 2,
                        },
                    );
                }
            }
            Fanout::Tree { width } => {
                let w = (width as usize).max(2);
                let n = state.nodes.len();
                let k = if n < w { n } else { w };
                let chunks = split_balanced(n, k);
                state.expected_acks = chunks.len() as u32;
                for (lo, len) in chunks {
                    let head = state.nodes.nodes()[lo];
                    Self::track_work(&mut self.busy_until, ctx, self.profile.msg_cpu);
                    if !self.profile.persistent_connections {
                        ctx.open_socket_for(NodeId(head), self.profile.conn_lifetime);
                    }
                    ctx.send(
                        NodeId(head),
                        RmMsg::JobCtl {
                            job,
                            kind,
                            list: state.nodes.slice(lo + 1, lo + len),
                            width,
                        },
                    );
                }
            }
            Fanout::Sequential => {
                state.expected_acks = state.nodes.len() as u32;
                // Contact the first node now; the rest are paced by timer.
                self.seq_step(ctx, job, kind);
            }
        }
    }

    fn seq_step(&mut self, ctx: &mut dyn Context<RmMsg>, job: u64, kind: CtlKind) {
        let Some(state) = self.jobs.get_mut(&job) else {
            return;
        };
        if state.seq_next >= state.nodes.len() {
            return;
        }
        ctx.trace_adopt(state.trace);
        let head = state.nodes.nodes()[state.seq_next];
        state.seq_next += 1;
        Self::track_work(&mut self.busy_until, ctx, self.profile.msg_cpu);
        if !self.profile.persistent_connections {
            ctx.open_socket_for(NodeId(head), self.profile.conn_lifetime);
        }
        let i = state.seq_next - 1;
        ctx.send(
            NodeId(head),
            RmMsg::JobCtl {
                job,
                kind,
                list: state.nodes.slice(i, i),
                width: 2,
            },
        );
        if state.seq_next < state.nodes.len() {
            let term_bit = (matches!(kind, CtlKind::Terminate) as u64) << 63;
            ctx.set_timer(self.profile.seq_gap, (job * 4 + JOB_SEQ_STEP) | term_bit);
        }
    }

    fn ctl_complete(&mut self, ctx: &mut dyn Context<RmMsg>, job: u64) {
        let state = self.jobs.get_mut(&job).expect("complete for unknown job");
        match state.phase {
            Phase::Launching => {
                state.phase = Phase::Running;
                state.launch_done = Some(ctx.now());
                let runtime = state.runtime;
                ctx.set_timer(runtime, job * 4 + JOB_RUN_DONE);
            }
            Phase::Terminating => {
                let state = self.jobs.remove(&job).expect("job vanished");
                Self::track_work(&mut self.busy_until, ctx, self.profile.sched_cpu);
                self.obs.inc(Counter::JobsCompleted);
                self.obs.span_from(
                    state.submitted,
                    ctx.now(),
                    ctx.me().0,
                    EventKind::JobComplete,
                    job,
                    0,
                );
                // Release per-job memory, keep the leaked history bytes.
                let keep = self.profile.job_record_leak as i64;
                ctx.alloc_virt(-(self.profile.per_job_virt as i64) + keep);
                ctx.alloc_real(-(self.profile.per_job_real as i64) + keep / 4);
                self.book_mem
                    .add(-(self.profile.per_job_virt as i64) + keep);
                self.records.push(JobRecord {
                    job,
                    submitted: state.submitted,
                    launch_done: state.launch_done.unwrap_or(ctx.now()),
                    finished: ctx.now(),
                    nodes: state.nodes.len() as u32,
                });
            }
            Phase::Running => {}
        }
    }
}

impl MasterLog for CentralizedMaster {
    fn records(&self) -> &[JobRecord] {
        &self.records
    }
    fn query_log(&self) -> &[(u64, SimSpan)] {
        &self.query_log
    }
}

impl Actor<RmMsg> for CentralizedMaster {
    fn on_start(&mut self, ctx: &mut dyn Context<RmMsg>) {
        ctx.alloc_virt(
            (self.profile.base_virt + self.slaves.len() as u64 * self.profile.per_node_virt) as i64,
        );
        self.book_mem.add(
            (self.profile.base_virt + self.slaves.len() as u64 * self.profile.per_node_virt) as i64,
        );
        ctx.alloc_real(
            (self.profile.base_real + self.slaves.len() as u64 * self.profile.per_node_real) as i64,
        );
        if self.profile.persistent_connections {
            for &s in &self.slaves {
                ctx.open_socket(NodeId(s));
            }
        }
        if let HeartbeatMode::MasterPolls { interval } = self.profile.heartbeat {
            ctx.set_timer(interval, TOKEN_POLL);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Context<RmMsg>, _from: NodeId, msg: RmMsg) {
        match msg {
            RmMsg::SubmitJob {
                job,
                nodes,
                runtime_us,
            } => {
                Self::track_work(&mut self.busy_until, ctx, self.profile.sched_cpu);
                ctx.alloc_virt(self.profile.per_job_virt as i64);
                ctx.alloc_real(self.profile.per_job_real as i64);
                self.book_mem.add(self.profile.per_job_virt as i64);
                self.obs.inc(Counter::JobsSubmitted);
                self.obs.event_at(
                    ctx.now(),
                    ctx.me().0,
                    EventKind::JobSubmit,
                    job,
                    nodes.len() as u64,
                );
                let trace = ctx.trace_begin(FlowKind::Dispatch);
                self.jobs.insert(
                    job,
                    JobState {
                        nodes,
                        runtime: SimSpan::from_micros(runtime_us),
                        submitted: ctx.now(),
                        launch_done: None,
                        phase: Phase::Launching,
                        acked: 0,
                        expected_acks: 0,
                        seq_next: 0,
                        trace,
                    },
                );
                self.begin_ctl(ctx, job, CtlKind::Launch);
            }
            RmMsg::CtlAck {
                job,
                kind,
                count: _,
            } => {
                Self::track_work(&mut self.busy_until, ctx, self.profile.msg_cpu);
                let Some(state) = self.jobs.get_mut(&job) else {
                    return;
                };
                let expected_kind = match state.phase {
                    Phase::Launching => CtlKind::Launch,
                    Phase::Terminating => CtlKind::Terminate,
                    Phase::Running => return,
                };
                if kind != expected_kind {
                    return;
                }
                state.acked += 1;
                if state.acked >= state.expected_acks {
                    self.ctl_complete(ctx, job);
                }
            }
            RmMsg::Heartbeat { .. } => {
                Self::track_work(&mut self.busy_until, ctx, self.profile.msg_cpu);
                if let RmMsg::Heartbeat { node } = msg {
                    ctx.send(NodeId(node), RmMsg::HeartbeatAck);
                }
            }
            RmMsg::PollReply { .. } => {
                Self::track_work(&mut self.busy_until, ctx, self.profile.msg_cpu);
            }
            RmMsg::Register { .. } => {
                Self::track_work(&mut self.busy_until, ctx, self.profile.msg_cpu);
            }
            RmMsg::CancelJob { job } => {
                Self::track_work(&mut self.busy_until, ctx, self.profile.sched_cpu);
                // Cancelling a running job is an early termination: reuse
                // the terminate broadcast so resources are reclaimed
                // everywhere. Launching jobs finish their launch first
                // (the run timer then never fires for cancelled state).
                if let Some(state) = self.jobs.get(&job) {
                    match state.phase {
                        Phase::Running => {
                            let state = self.jobs.get_mut(&job).expect("just looked up");
                            state.phase = Phase::Terminating;
                            self.begin_ctl(ctx, job, CtlKind::Terminate);
                        }
                        Phase::Launching | Phase::Terminating => {
                            // Already on its way in or out; the pending
                            // lifecycle events complete the cleanup.
                        }
                    }
                }
            }
            RmMsg::StatusQuery { id } => {
                // Answering needs a consistent snapshot of the global
                // job/node state — a scheduler-weight operation that waits
                // behind the backlog.
                self.query_arrival.insert(id, ctx.now());
                Self::track_work(&mut self.busy_until, ctx, self.profile.sched_cpu);
                self.pending_queries.insert(id, _from);
                let delay = self.busy_until - ctx.now();
                ctx.set_timer(delay, id * 4 + QUERY_REPLY);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Context<RmMsg>, token: u64) {
        if token == TOKEN_POLL {
            if let HeartbeatMode::MasterPolls { interval } = self.profile.heartbeat {
                for i in 0..self.slaves.len() {
                    let s = self.slaves[i];
                    Self::track_work(&mut self.busy_until, ctx, self.profile.msg_cpu);
                    if !self.profile.persistent_connections {
                        ctx.open_socket_for(NodeId(s), self.profile.conn_lifetime);
                    }
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
            JOB_RUN_DONE => {
                if let Some(state) = self.jobs.get_mut(&job) {
                    if state.phase != Phase::Running {
                        return; // cancelled while running: cleanup underway
                    }
                    state.phase = Phase::Terminating;
                    Self::track_work(&mut self.busy_until, ctx, self.profile.sched_cpu);
                    self.begin_ctl(ctx, job, CtlKind::Terminate);
                }
            }
            JOB_SEQ_STEP => {
                let kind = if seq_term {
                    CtlKind::Terminate
                } else {
                    CtlKind::Launch
                };
                self.seq_step(ctx, job, kind);
            }
            QUERY_REPLY => {
                let id = job; // token layout shares the id slot
                if let Some(asker) = self.pending_queries.remove(&id) {
                    if let Some(arrived) = self.query_arrival.remove(&id) {
                        let latency = ctx.now() - arrived;
                        self.obs.inc(Counter::QueriesServed);
                        self.obs.observe(Hist::QueryLatencyUs, latency.as_micros());
                        self.obs.event_at(
                            ctx.now(),
                            ctx.me().0,
                            EventKind::QueryServed,
                            asker.0 as u64,
                            0,
                        );
                        self.query_log.push((id, latency));
                    }
                    ctx.send(asker, RmMsg::StatusReply { id });
                }
            }
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
    fn job_memory_is_released_with_leak() {
        let profile = RmProfile::slurm();
        let per_job = profile.per_job_virt;
        let leak = profile.job_record_leak;
        let mut sim = cluster(profile, 64, 3);
        sim.run_until(SimTime::from_millis(10));
        let before = sim.meter(NodeId::MASTER).virt_mem();
        let runtime = SimSpan::from_secs(5);
        submit_job(&mut sim, SimTime::from_millis(20), 64, runtime);
        sim.run_until(SimTime::from_secs(2));
        let during = sim.meter(NodeId::MASTER).virt_mem();
        assert_eq!(during, before + per_job);
        sim.run_until(SimTime::from_secs(100));
        let after = sim.meter(NodeId::MASTER).virt_mem();
        assert_eq!(after, before + leak, "leak not retained correctly");
    }

    #[test]
    fn cancellation_reclaims_resources_early() {
        let mut sim = cluster(RmProfile::slurm(), 64, 3);
        submit_job(&mut sim, SimTime::from_secs(1), 64, SimSpan::from_secs(600));
        sim.inject(
            SimTime::from_secs(60),
            NodeId(1),
            NodeId::MASTER,
            RmMsg::CancelJob { job: 1 },
        );
        sim.run_until(SimTime::from_secs(300));
        let rec = master(&sim)
            .records
            .first()
            .copied()
            .expect("job cleaned up");
        let occ = rec.occupation().as_secs_f64();
        assert!((59.0..80.0).contains(&occ), "occupation {occ}s");
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
