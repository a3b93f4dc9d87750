//! The ESlurm master daemon (paper §III): keeps the global view of
//! resources and jobs, but offloads every large-scale communication to the
//! satellite layer — dynamic satellite allocation (Eq. 1), round-robin
//! mapping, BT/HB failure detection with the Table II state machine,
//! task reassignment, and master takeover after the reassignment threshold.

use crate::config::{partition, satellites_needed, EslurmConfig};
use crate::fsm::{SatEvent, SatFsm, SatState};
use emu::{Actor, Context, NodeId};
use obs::{
    Counter, EventKind, FlowKind, Gauge, Hist, LabeledCounter, MetricId, Recorder, TraceContext,
};
use rm::master::{JobRecord, MasterLog};
use rm::proto::{CtlKind, NodeSlice, RmMsg};
use simclock::{SimSpan, SimTime};
use std::collections::{BTreeMap, VecDeque};
use topology::split_balanced;

const TOKEN_SWEEP: u64 = 0;
const TOKEN_SAT_HB: u64 = 1;
const TOKEN_DISPATCH: u64 = 2;
const TOKEN_BASE: u64 = 8;
const JOB_RUN_DONE: u64 = 3;
const TASK_TIMEOUT: u64 = 4;
const QUERY_REPLY: u64 = 5;
/// Sweep pseudo-job ids live above this bit.
const SWEEP_BIT: u64 = 1 << 62;

/// One completed heartbeat sweep (drives Fig. 11a).
#[derive(Clone, Copy, Debug)]
pub struct SweepRecord {
    /// When the sweep started.
    pub started: SimTime,
    /// Submission-to-last-report latency.
    pub completion: SimSpan,
    /// Nodes confirmed alive.
    pub reached: u32,
}

enum JobKind {
    Real { runtime: SimSpan },
    Sweep,
}

struct JobState {
    kind: JobKind,
    nodes: NodeSlice,
    submitted: SimTime,
    launch_done: Option<SimTime>,
    phase: CtlKind,
    tasks_total: u32,
    tasks_done: u32,
    reached: u32,
    /// Causal-trace root for this job's flow (dispatch or sweep); `None`
    /// unless the recorder has causal tracing on.
    trace: Option<TraceContext>,
}

struct Task {
    job: u64,
    kind: CtlKind,
    list: NodeSlice,
    sat: Option<usize>,
    attempts: u32,
    done: bool,
    /// Takeover aggregation (when the master relays directly).
    takeover_expected: u32,
    takeover_received: u32,
    takeover_reached: u32,
    /// Causal context the task's broadcast sends attach to (copied from
    /// the job at creation, replaced by a recovery root on takeover).
    trace: Option<TraceContext>,
    /// When this task's broadcast was last sent out (start of the timeout
    /// window a later `TASK_TIMEOUT` relabels as backoff).
    sent_at: SimTime,
}

/// The master's working state and its reports, which callers read
/// through accessors; only `records` stays an inline field.
struct MasterState {
    cfg: EslurmConfig,
    slaves: NodeSlice,
    satellites: Vec<u32>,
    fsm: Vec<SatFsm>,
    hb_pending: Vec<bool>,
    rr: usize,
    jobs: BTreeMap<u64, JobState>,
    tasks: BTreeMap<u64, Task>,
    dispatch_q: VecDeque<u64>,
    dispatching: bool,
    next_task: u64,
    sweep_seq: u64,
    /// Serial work backlog (delays user-request replies).
    busy_until: SimTime,
    pending_queries: BTreeMap<u64, NodeId>,
    query_arrival: BTreeMap<u64, SimTime>,
    obs: Recorder,
    /// Per-satellite task-assignment counters (`tasks_assigned{sat=..}`),
    /// the tree-level footprint breakdown behind the aggregate
    /// [`Counter::TasksAssigned`]. Empty when `obs` is disabled.
    sat_tasks: Vec<LabeledCounter>,
    sweeps: Vec<SweepRecord>,
    reassignments: u64,
    takeovers: u64,
    query_log: Vec<(u64, SimSpan)>,
}

/// The ESlurm master actor.
pub struct EslurmMaster {
    /// Boxed, reports included: there is one master among up to a million
    /// compute daemons, and `EslurmNode` is as large as its largest
    /// variant. Only `records` stays inline, as a public field.
    st: Box<MasterState>,
    /// Completed jobs, in completion order.
    pub records: Vec<JobRecord>,
}

impl EslurmMaster {
    /// A master over `slaves` (compute node ids) and `satellites`.
    pub fn new(cfg: EslurmConfig, slaves: Vec<u32>, satellites: Vec<u32>) -> Self {
        let m = satellites.len();
        assert!(m >= 1, "ESlurm needs at least one satellite");
        EslurmMaster {
            st: Box::new(MasterState {
                cfg,
                slaves: NodeSlice::new(slaves),
                satellites,
                fsm: vec![SatFsm::new(); m],
                hb_pending: vec![false; m],
                rr: 0,
                jobs: BTreeMap::new(),
                tasks: BTreeMap::new(),
                dispatch_q: VecDeque::new(),
                dispatching: false,
                next_task: 0,
                sweep_seq: 0,
                busy_until: SimTime::ZERO,
                pending_queries: BTreeMap::new(),
                query_arrival: BTreeMap::new(),
                obs: Recorder::disabled(),
                sat_tasks: Vec::new(),
                sweeps: Vec::new(),
                reassignments: 0,
                takeovers: 0,
                query_log: Vec::new(),
            }),
            records: Vec::new(),
        }
    }

    /// Completed heartbeat sweeps.
    pub fn sweeps(&self) -> &[SweepRecord] {
        &self.st.sweeps
    }

    /// Broadcast tasks handed to a different satellite after a failure.
    pub fn reassignments(&self) -> u64 {
        self.st.reassignments
    }

    /// Broadcast tasks the master had to handle itself.
    pub fn takeovers(&self) -> u64 {
        self.st.takeovers
    }

    /// Record job/task/FSM telemetry into `obs` (builder-style).
    pub fn with_obs(mut self, obs: Recorder) -> Self {
        if obs.enabled() {
            self.st.sat_tasks = (1..=self.st.satellites.len())
                .map(|i| {
                    obs.labeled_counter(
                        MetricId::new("tasks_assigned").with("sat", format!("sat{i}")),
                    )
                })
                .collect();
        }
        self.st.obs = obs;
        self
    }

    /// Apply an FSM event to satellite `idx`, tracing the transition if
    /// the observable state actually changed.
    fn apply_fsm(&mut self, idx: usize, event: SatEvent, now: SimTime) {
        let before = self.st.fsm[idx].state(now);
        let after = self.st.fsm[idx].apply(event, now);
        if before != after {
            self.st.obs.inc(Counter::FsmTransitions);
            self.st.obs.event_at(
                now,
                self.st.satellites[idx],
                EventKind::FsmTransition,
                before.wire_id() as u64,
                after.wire_id() as u64,
            );
        }
    }

    /// Track serial daemon work (CPU + reply backlog).
    fn track_work(busy_until: &mut SimTime, ctx: &mut dyn Context<RmMsg>, cost: SimSpan) {
        ctx.charge_cpu(cost);
        *busy_until = (*busy_until).max(ctx.now()) + cost;
    }

    /// Current FSM state of satellite `idx`.
    pub fn satellite_state(&self, idx: usize, now: SimTime) -> SatState {
        self.st.fsm[idx].state(now)
    }

    fn start_ctl(&mut self, ctx: &mut dyn Context<RmMsg>, job: u64, kind: CtlKind) {
        let state = self.st.jobs.get_mut(&job).expect("ctl for unknown job");
        state.phase = kind;
        state.tasks_done = 0;
        state.reached = 0;
        let trace = state.trace;
        let list = state.nodes.clone();
        let n = satellites_needed(list.len(), self.st.cfg.eq1_width, self.st.satellites.len());
        let parts = partition(list.len(), n);
        state.tasks_total = parts.len() as u32;
        let task_ids: Vec<u64> = parts
            .iter()
            .map(|&(lo, len)| {
                let id = self.st.next_task;
                self.st.next_task += 1;
                self.st.tasks.insert(
                    id,
                    Task {
                        job,
                        kind,
                        list: list.slice(lo, lo + len),
                        sat: None,
                        attempts: 0,
                        done: false,
                        takeover_expected: 0,
                        takeover_received: 0,
                        takeover_reached: 0,
                        trace,
                        sent_at: SimTime::ZERO,
                    },
                );
                id
            })
            .collect();
        for id in task_ids {
            self.assign_task(ctx, id);
        }
        self.st
            .obs
            .gauge_set(Gauge::TasksInFlight, self.st.tasks.len() as i64);
    }

    /// Round-robin over RUNNING satellites; `None` if the pool is dry.
    fn next_satellite(&mut self, now: SimTime) -> Option<usize> {
        let m = self.st.satellites.len();
        for k in 0..m {
            let idx = (self.st.rr + k) % m;
            if self.st.fsm[idx].is_available(now) {
                self.st.rr = (idx + 1) % m;
                return Some(idx);
            }
        }
        None
    }

    fn assign_task(&mut self, ctx: &mut dyn Context<RmMsg>, task_id: u64) {
        match self.next_satellite(ctx.now()) {
            Some(idx) => {
                self.apply_fsm(idx, SatEvent::TaskAssigned, ctx.now());
                self.st.obs.inc(Counter::TasksAssigned);
                if let Some(c) = self.st.sat_tasks.get(idx) {
                    c.inc();
                }
                let sat_node = self.st.satellites[idx] as u64;
                let task = self
                    .st
                    .tasks
                    .get_mut(&task_id)
                    .expect("assigning unknown task");
                task.sat = Some(idx);
                self.st.obs.event_at(
                    ctx.now(),
                    ctx.me().0,
                    EventKind::TaskAssign,
                    task.job,
                    sat_node,
                );
                self.st.dispatch_q.push_back(task_id);
                if !self.st.dispatching {
                    self.st.dispatching = true;
                    ctx.set_timer(self.st.cfg.task_prep_cpu, TOKEN_DISPATCH);
                }
            }
            None => self.take_over(ctx, task_id),
        }
    }

    /// The master handles a broadcast itself (reassignment threshold
    /// exceeded or no satellite available) — correctness over offload.
    fn take_over(&mut self, ctx: &mut dyn Context<RmMsg>, task_id: u64) {
        self.st.takeovers += 1;
        self.st.obs.inc(Counter::Takeovers);
        let task = self
            .st
            .tasks
            .get_mut(&task_id)
            .expect("takeover of unknown task");
        task.sat = None;
        // A takeover is the failure-recovery flow: root a fresh trace here
        // so the master's direct relay fan-out is attributed to recovery
        // rather than to the original dispatch/sweep.
        if let Some(rec) = ctx.trace_begin(FlowKind::Recovery) {
            task.trace = Some(rec);
        }
        self.st
            .obs
            .event_at(ctx.now(), ctx.me().0, EventKind::TaskTakeover, task.job, 0);
        if task.list.is_empty() {
            let (job, kind) = (task.job, task.kind);
            task.done = true;
            self.task_completed(ctx, job, kind, 0);
            return;
        }
        let w = self.st.cfg.relay_width.max(2);
        let task_len = task.list.len();
        let k = if task_len < w { task_len } else { w };
        let chunks = split_balanced(task_len, k);
        task.takeover_expected = chunks.len() as u32;
        task.sent_at = ctx.now();
        let (job, kind) = (task.job, task.kind);
        let list = task.list.clone();
        for (lo, len) in chunks {
            let head = list.nodes()[lo];
            Self::track_work(&mut self.st.busy_until, ctx, self.st.cfg.msg_cpu);
            ctx.open_socket_for(NodeId(head), self.st.cfg.conn_lifetime);
            ctx.send(
                NodeId(head),
                RmMsg::JobCtl {
                    job,
                    kind,
                    list: list.slice(lo + 1, lo + len),
                    width: w as u16,
                },
            );
        }
        let depth = topology::relay_depth(task_len, w) as u64;
        ctx.set_timer(
            self.st.cfg.task_timeout * (depth + 1),
            task_id * TOKEN_BASE + TASK_TIMEOUT,
        );
    }

    fn task_completed(
        &mut self,
        ctx: &mut dyn Context<RmMsg>,
        job: u64,
        kind: CtlKind,
        reached: u32,
    ) {
        let (is_sweep, runtime) = {
            let Some(state) = self.st.jobs.get_mut(&job) else {
                return;
            };
            if state.phase != kind {
                return; // stale completion from a previous phase
            }
            state.tasks_done += 1;
            state.reached += reached;
            if state.tasks_done < state.tasks_total {
                return;
            }
            match state.kind {
                JobKind::Sweep => (true, SimSpan::ZERO),
                JobKind::Real { runtime } => (false, runtime),
            }
        };
        // Whole broadcast finished.
        if is_sweep {
            let state = self.st.jobs.remove(&job).expect("sweep vanished");
            let completion = ctx.now() - state.submitted;
            self.st.obs.inc(Counter::SweepsDone);
            self.st
                .obs
                .observe(Hist::SweepCompletionUs, completion.as_micros());
            self.st.obs.span_from(
                state.submitted,
                ctx.now(),
                ctx.me().0,
                EventKind::SweepDone,
                job & !SWEEP_BIT,
                state.reached as u64,
            );
            self.st.sweeps.push(SweepRecord {
                started: state.submitted,
                completion,
                reached: state.reached,
            });
            return;
        }
        match kind {
            CtlKind::Launch => {
                let state = self.st.jobs.get_mut(&job).expect("job vanished");
                state.launch_done = Some(ctx.now());
                ctx.set_timer(runtime, job * TOKEN_BASE + JOB_RUN_DONE);
            }
            CtlKind::Terminate => {
                let state = self.st.jobs.remove(&job).expect("job vanished");
                self.st.obs.inc(Counter::JobsCompleted);
                self.st.obs.span_from(
                    state.submitted,
                    ctx.now(),
                    ctx.me().0,
                    EventKind::JobComplete,
                    job,
                    0,
                );
                Self::track_work(&mut self.st.busy_until, ctx, self.st.cfg.sched_cpu);
                let keep = self.st.cfg.job_record_leak as i64;
                ctx.alloc_virt(-(self.st.cfg.per_job_virt as i64) + keep);
                ctx.alloc_real(-(self.st.cfg.per_job_real as i64) + keep / 4);
                self.records.push(JobRecord {
                    job,
                    submitted: state.submitted,
                    launch_done: state.launch_done.unwrap_or(ctx.now()),
                    finished: ctx.now(),
                    nodes: state.nodes.len() as u32,
                });
            }
            CtlKind::Ping => {}
        }
    }

    fn start_sweep(&mut self, ctx: &mut dyn Context<RmMsg>) {
        let job = SWEEP_BIT | self.st.sweep_seq;
        self.st.sweep_seq += 1;
        Self::track_work(&mut self.st.busy_until, ctx, self.st.cfg.sched_cpu);
        let trace = ctx.trace_begin(FlowKind::Sweep);
        self.st.jobs.insert(
            job,
            JobState {
                kind: JobKind::Sweep,
                nodes: self.st.slaves.clone(),
                submitted: ctx.now(),
                launch_done: None,
                phase: CtlKind::Ping,
                tasks_total: 0,
                tasks_done: 0,
                reached: 0,
                trace,
            },
        );
        self.start_ctl(ctx, job, CtlKind::Ping);
    }
}

impl MasterLog for EslurmMaster {
    fn records(&self) -> &[JobRecord] {
        &self.records
    }
    fn query_log(&self) -> &[(u64, SimSpan)] {
        &self.st.query_log
    }
}

impl Actor<RmMsg> for EslurmMaster {
    fn on_start(&mut self, ctx: &mut dyn Context<RmMsg>) {
        ctx.alloc_virt(
            (self.st.cfg.base_virt + self.st.slaves.len() as u64 * self.st.cfg.per_node_virt)
                as i64,
        );
        ctx.alloc_real(
            (self.st.cfg.base_real + self.st.slaves.len() as u64 * self.st.cfg.per_node_real)
                as i64,
        );
        // Probe the satellite pool right away so it is RUNNING before the
        // first jobs arrive; subsequent rounds follow the configured period.
        ctx.set_timer(SimSpan::from_millis(10), TOKEN_SAT_HB);
        ctx.set_timer(self.st.cfg.hb_sweep_interval, TOKEN_SWEEP);
    }

    fn on_message(&mut self, ctx: &mut dyn Context<RmMsg>, from: NodeId, msg: RmMsg) {
        match msg {
            RmMsg::SubmitJob {
                job,
                nodes,
                runtime_us,
            } => {
                Self::track_work(&mut self.st.busy_until, ctx, self.st.cfg.sched_cpu);
                ctx.alloc_virt(self.st.cfg.per_job_virt as i64);
                ctx.alloc_real(self.st.cfg.per_job_real as i64);
                self.st.obs.inc(Counter::JobsSubmitted);
                self.st.obs.event_at(
                    ctx.now(),
                    ctx.me().0,
                    EventKind::JobSubmit,
                    job,
                    nodes.len() as u64,
                );
                let trace = ctx.trace_begin(FlowKind::Dispatch);
                self.st.jobs.insert(
                    job,
                    JobState {
                        kind: JobKind::Real {
                            runtime: SimSpan::from_micros(runtime_us),
                        },
                        nodes,
                        submitted: ctx.now(),
                        launch_done: None,
                        phase: CtlKind::Launch,
                        tasks_total: 0,
                        tasks_done: 0,
                        reached: 0,
                        trace,
                    },
                );
                self.start_ctl(ctx, job, CtlKind::Launch);
            }
            RmMsg::BcastDone {
                task,
                job,
                kind,
                reached,
                ok: _,
            } => {
                Self::track_work(&mut self.st.busy_until, ctx, self.st.cfg.msg_cpu);
                let Some(t) = self.st.tasks.get_mut(&task) else {
                    return;
                };
                if t.done {
                    return;
                }
                t.done = true;
                if let Some(idx) = t.sat {
                    self.apply_fsm(idx, SatEvent::BtSuccess, ctx.now());
                }
                self.st.tasks.remove(&task);
                self.st
                    .obs
                    .gauge_set(Gauge::TasksInFlight, self.st.tasks.len() as i64);
                self.task_completed(ctx, job, kind, reached);
            }
            RmMsg::CtlAck { job, kind, count } => {
                // Ack for a master-takeover relay.
                Self::track_work(&mut self.st.busy_until, ctx, self.st.cfg.msg_cpu);
                let found = self.st.tasks.iter_mut().find(|(_, t)| {
                    t.job == job && t.kind == kind && !t.done && t.takeover_expected > 0
                });
                if let Some((&id, t)) = found {
                    t.takeover_received += 1;
                    t.takeover_reached += count;
                    if t.takeover_received >= t.takeover_expected {
                        t.done = true;
                        let reached = t.takeover_reached;
                        self.st.tasks.remove(&id);
                        self.task_completed(ctx, job, kind, reached);
                    }
                }
            }
            RmMsg::CancelJob { job } => {
                Self::track_work(&mut self.st.busy_until, ctx, self.st.cfg.sched_cpu);
                let cancellable = self
                    .st
                    .jobs
                    .get(&job)
                    .map(|s| {
                        matches!(s.kind, JobKind::Real { .. })
                            && s.phase == CtlKind::Launch
                            && s.tasks_done >= s.tasks_total
                    })
                    .unwrap_or(false);
                // Note: a launch-phase job whose broadcast completed is in
                // its run window (phase stays Launch until the run timer
                // flips it). Cancel = start the terminate broadcast early;
                // the stale run timer is ignored by the phase check in
                // task bookkeeping.
                if cancellable {
                    self.start_ctl(ctx, job, CtlKind::Terminate);
                }
            }
            RmMsg::StatusQuery { id } => {
                self.st.query_arrival.insert(id, ctx.now());
                Self::track_work(&mut self.st.busy_until, ctx, self.st.cfg.sched_cpu);
                self.st.pending_queries.insert(id, from);
                let delay = self.st.busy_until - ctx.now();
                ctx.set_timer(delay, id * TOKEN_BASE + QUERY_REPLY);
            }
            RmMsg::SatHeartbeatAck { state } => {
                Self::track_work(&mut self.st.busy_until, ctx, self.st.cfg.msg_cpu);
                if let Some(idx) = self.st.satellites.iter().position(|&s| s == from.0) {
                    self.st.hb_pending[idx] = false;
                    let _ = SatState::from_wire(state);
                    self.apply_fsm(idx, SatEvent::HbSuccess, ctx.now());
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Context<RmMsg>, token: u64) {
        match token {
            TOKEN_SWEEP => {
                self.start_sweep(ctx);
                ctx.set_timer(self.st.cfg.hb_sweep_interval, TOKEN_SWEEP);
                return;
            }
            TOKEN_SAT_HB => {
                // Unanswered probes from the previous round are failures.
                for idx in 0..self.st.satellites.len() {
                    if self.st.hb_pending[idx] {
                        self.st.hb_pending[idx] = false;
                        self.apply_fsm(idx, SatEvent::HbFailure, ctx.now());
                    }
                }
                for idx in 0..self.st.satellites.len() {
                    if self.st.fsm[idx].state(ctx.now()) == SatState::Down {
                        continue; // needs administrator intervention
                    }
                    Self::track_work(&mut self.st.busy_until, ctx, self.st.cfg.msg_cpu);
                    ctx.open_socket_for(NodeId(self.st.satellites[idx]), self.st.cfg.conn_lifetime);
                    ctx.send(NodeId(self.st.satellites[idx]), RmMsg::SatHeartbeat);
                    self.st.hb_pending[idx] = true;
                }
                ctx.set_timer(self.st.cfg.sat_hb_interval, TOKEN_SAT_HB);
                return;
            }
            TOKEN_DISPATCH => {
                if let Some(task_id) = self.st.dispatch_q.pop_front() {
                    if let Some(t) = self.st.tasks.get_mut(&task_id) {
                        if !t.done {
                            if let Some(idx) = t.sat {
                                Self::track_work(
                                    &mut self.st.busy_until,
                                    ctx,
                                    self.st.cfg.task_prep_cpu,
                                );
                                ctx.trace_adopt(t.trace);
                                t.sent_at = ctx.now();
                                let sat_node = NodeId(self.st.satellites[idx]);
                                ctx.open_socket_for(sat_node, self.st.cfg.conn_lifetime);
                                ctx.send(
                                    sat_node,
                                    RmMsg::BcastTask {
                                        task: task_id,
                                        job: t.job,
                                        kind: t.kind,
                                        list: t.list.clone(),
                                        width: self.st.cfg.relay_width as u16,
                                    },
                                );
                                // Timeout covers satellite processing plus
                                // the depth-scaled relay round trip below it.
                                let proc = SimSpan(
                                    self.st.cfg.sat_per_node_cpu.as_micros()
                                        * t.list.len().max(1) as u64,
                                );
                                let depth =
                                    topology::relay_depth(t.list.len(), self.st.cfg.relay_width)
                                        as u64;
                                ctx.set_timer(
                                    self.st.cfg.task_timeout * (depth + 2) + proc,
                                    task_id * TOKEN_BASE + TASK_TIMEOUT,
                                );
                            }
                        }
                    }
                }
                if self.st.dispatch_q.is_empty() {
                    self.st.dispatching = false;
                } else {
                    ctx.set_timer(self.st.cfg.task_prep_cpu, TOKEN_DISPATCH);
                }
                return;
            }
            _ => {}
        }
        let id = token / TOKEN_BASE;
        match token % TOKEN_BASE {
            JOB_RUN_DONE => {
                // Skip jobs already heading out (e.g. cancelled mid-run).
                let still_running = self
                    .st
                    .jobs
                    .get(&id)
                    .map(|s| s.phase == CtlKind::Launch)
                    .unwrap_or(false);
                if still_running {
                    Self::track_work(&mut self.st.busy_until, ctx, self.st.cfg.sched_cpu);
                    if let Some(s) = self.st.jobs.get(&id) {
                        ctx.trace_adopt(s.trace);
                    }
                    self.start_ctl(ctx, id, CtlKind::Terminate);
                }
            }
            QUERY_REPLY => {
                if let Some(asker) = self.st.pending_queries.remove(&id) {
                    if let Some(arrived) = self.st.query_arrival.remove(&id) {
                        let latency = ctx.now() - arrived;
                        self.st.obs.inc(Counter::QueriesServed);
                        self.st
                            .obs
                            .observe(Hist::QueryLatencyUs, latency.as_micros());
                        self.st.obs.event_at(
                            ctx.now(),
                            ctx.me().0,
                            EventKind::QueryServed,
                            asker.0 as u64,
                            0,
                        );
                        self.st.query_log.push((id, latency));
                    }
                    ctx.send(asker, RmMsg::StatusReply { id });
                }
            }
            TASK_TIMEOUT => {
                let Some(t) = self.st.tasks.get_mut(&id) else {
                    return;
                };
                if t.done {
                    return;
                }
                // The flow sat idle from the last broadcast until this
                // deadline: relabel the window as timeout backoff and resume
                // the trace for whatever the retry/takeover sends next.
                if let Some(tc) = t.trace {
                    ctx.trace_backoff(&tc, t.sent_at);
                    ctx.trace_adopt(Some(tc));
                }
                if t.takeover_expected > 0 {
                    // Master's own relay: close it out with partial coverage.
                    t.done = true;
                    let (job, kind, reached) = (t.job, t.kind, t.takeover_reached);
                    self.st.tasks.remove(&id);
                    self.task_completed(ctx, job, kind, reached);
                    return;
                }
                // Satellite failed to report: BT-failure, reassign or take
                // over (paper threshold: 2 reassignments).
                let job = t.job;
                t.attempts += 1;
                let attempts = t.attempts;
                if let Some(idx) = t.sat.take() {
                    self.apply_fsm(idx, SatEvent::BtFailure, ctx.now());
                }
                if attempts <= self.st.cfg.reassign_threshold {
                    self.st.reassignments += 1;
                    self.st.obs.inc(Counter::TaskRetries);
                    self.st.obs.event_at(
                        ctx.now(),
                        ctx.me().0,
                        EventKind::TaskRetry,
                        job,
                        attempts as u64,
                    );
                    self.assign_task(ctx, id);
                } else {
                    self.take_over(ctx, id);
                }
            }
            _ => {}
        }
    }
}
