//! The ESlurm master daemon (paper §III): keeps the global view of
//! resources and jobs, but offloads every large-scale communication to the
//! satellite layer — dynamic satellite allocation (Eq. 1), round-robin
//! mapping, BT/HB failure detection with the Table II state machine,
//! task reassignment, and master takeover after the reassignment threshold.
//! Its job life is the `rm::master::JobBook` every RM's master keeps.

use crate::config::{satellites_needed, EslurmConfig};
use crate::fsm::{SatEvent, SatFsm, SatState};
use emu::{Actor, Context, NodeId};
use obs::{
    Counter, EventKind, FlowKind, Gauge, Hist, LabeledCounter, LabeledGauge, MetricId, Recorder,
    TraceContext,
};
use rm::master::{JobBook, JobRecord, MasterLog};
use rm::proto::{send_tree, AckTally, CtlKind, NodeSlice, RmMsg};
use simclock::{SimSpan, SimTime};
use std::collections::{BTreeMap, VecDeque};

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

/// A heartbeat sweep in flight: a `Ping` over every compute node, fanned
/// out like a job's broadcast but holding no memory and leaving a
/// [`SweepRecord`], not a `JobRecord`.
struct Sweep {
    started: SimTime,
    /// The sweep's satellite tasks: one "ack" per finished task.
    tasks: AckTally,
    /// Causal-trace root of the sweep flow; `None` unless the recorder has
    /// causal tracing on.
    trace: Option<TraceContext>,
}

struct Task {
    job: u64,
    kind: CtlKind,
    list: NodeSlice,
    sat: Option<usize>,
    attempts: u32,
    done: bool,
    /// Acks of the master's own relay after a takeover; none expected
    /// before one.
    takeover: AckTally,
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
    /// The job table; a job's "acks" are its phase's finished satellite
    /// tasks.
    book: JobBook,
    /// Sweeps in flight, keyed by `SWEEP_BIT | sequence number`.
    sweeping: BTreeMap<u64, Sweep>,
    tasks: BTreeMap<u64, Task>,
    dispatch_q: VecDeque<u64>,
    dispatching: bool,
    next_task: u64,
    sweep_seq: u64,
    obs: Recorder,
    /// Per-satellite task-assignment counters (`tasks_assigned{sat=..}`),
    /// the tree-level footprint breakdown behind the aggregate
    /// [`Counter::TasksAssigned`]. Empty when `obs` is disabled.
    sat_tasks: Vec<LabeledCounter>,
    sweeps: Vec<SweepRecord>,
    reassignments: u64,
    takeovers: u64,
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
                book: JobBook::new(cfg.cost),
                cfg,
                slaves: NodeSlice::new(slaves),
                satellites,
                fsm: vec![SatFsm::new(); m],
                hb_pending: vec![false; m],
                rr: 0,
                sweeping: BTreeMap::new(),
                tasks: BTreeMap::new(),
                dispatch_q: VecDeque::new(),
                dispatching: false,
                next_task: 0,
                sweep_seq: 0,
                obs: Recorder::disabled(),
                sat_tasks: Vec::new(),
                sweeps: Vec::new(),
                reassignments: 0,
                takeovers: 0,
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

    /// Record job/task/FSM telemetry into `obs` (builder-style). No
    /// bookkeeping-bytes series: its gauge stays inert.
    pub fn with_obs(mut self, obs: Recorder) -> Self {
        self.st.book.observe(&obs, LabeledGauge::default());
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

    /// Current FSM state of satellite `idx`.
    pub fn satellite_state(&self, idx: usize, now: SimTime) -> SatState {
        self.st.fsm[idx].state(now)
    }

    /// Fan phase `kind` of `job` (a sweep's `Ping`, or a booked job's
    /// launch or terminate) out as Eq. 1's satellite tasks.
    fn start_ctl(&mut self, ctx: &mut dyn Context<RmMsg>, job: u64, kind: CtlKind) {
        let st = &mut *self.st;
        let (list, trace, tasks) = match st.sweeping.get_mut(&job) {
            Some(sweep) => (st.slaves.clone(), sweep.trace, &mut sweep.tasks),
            None => {
                let (booked, _) = st.book.job(job).expect("ctl for unknown job");
                (booked.nodes.clone(), booked.trace, &mut booked.acks)
            }
        };
        let n = satellites_needed(list.len(), st.cfg.eq1_width, st.satellites.len());
        // The per-satellite sub-lists.
        let parts = topology::balanced_chunks(list.len(), n);
        *tasks = AckTally {
            expected: parts.len() as u32,
            ..AckTally::default()
        };
        let task_ids: Vec<u64> = parts
            .map(|(lo, len)| {
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
                        takeover: AckTally::default(),
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
        task.sent_at = ctx.now();
        let (desk, cfg) = (&mut self.st.book.desk, &self.st.cfg);
        let socket = Some(cfg.conn_lifetime);
        let charge = |ctx: &mut dyn Context<RmMsg>, head| desk.contact(ctx, head, socket);
        let (job, kind, width) = (task.job, task.kind, cfg.relay_width);
        let depth;
        (task.takeover.expected, depth) = send_tree(ctx, job, kind, &task.list, width, charge);
        ctx.set_timer(
            cfg.task_timeout * (depth + 1),
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
        let st = &mut *self.st;
        let Some(sweep) = st.sweeping.get_mut(&job) else {
            let token = job * TOKEN_BASE + JOB_RUN_DONE;
            st.book
                .ack(ctx, job, kind, reached, token, &mut self.records);
            return;
        };
        if !sweep.tasks.ack(reached) {
            return; // not the last task
        }
        // Whole sweep finished.
        let sweep = st.sweeping.remove(&job).expect("sweep vanished");
        let completion = ctx.now() - sweep.started;
        st.obs.inc(Counter::SweepsDone);
        st.obs
            .observe(Hist::SweepCompletionUs, completion.as_micros());
        st.obs.span_from(
            sweep.started,
            ctx.now(),
            ctx.me().0,
            EventKind::SweepDone,
            job & !SWEEP_BIT,
            sweep.tasks.reached as u64,
        );
        st.sweeps.push(SweepRecord {
            started: sweep.started,
            completion,
            reached: sweep.tasks.reached,
        });
    }

    fn start_sweep(&mut self, ctx: &mut dyn Context<RmMsg>) {
        let job = SWEEP_BIT | self.st.sweep_seq;
        self.st.sweep_seq += 1;
        let desk = &mut self.st.book.desk;
        desk.track_work(ctx, desk.cost.sched_cpu);
        let trace = ctx.trace_begin(FlowKind::Sweep);
        let sweep = Sweep {
            started: ctx.now(),
            tasks: AckTally::default(),
            trace,
        };
        self.st.sweeping.insert(job, sweep);
        self.start_ctl(ctx, job, CtlKind::Ping);
    }
}

impl MasterLog for EslurmMaster {
    fn records(&self) -> &[JobRecord] {
        &self.records
    }
    fn query_log(&self) -> &[(u64, SimSpan)] {
        self.st.book.desk.query_log()
    }
}

impl Actor<RmMsg> for EslurmMaster {
    fn on_start(&mut self, ctx: &mut dyn Context<RmMsg>) {
        self.st.book.start(ctx, self.st.slaves.len());
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
                self.st.book.admit(ctx, job, nodes, runtime_us);
                self.start_ctl(ctx, job, CtlKind::Launch);
            }
            RmMsg::BcastDone {
                task,
                job,
                kind,
                reached,
                ok: _,
            } => {
                self.st.book.desk.handle(ctx);
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
                self.st.book.desk.handle(ctx);
                let found = self.st.tasks.iter_mut().find(|(_, t)| {
                    t.job == job && t.kind == kind && !t.done && t.takeover.expected > 0
                });
                if let Some((&id, t)) = found {
                    if t.takeover.ack(count) {
                        t.done = true;
                        let reached = t.takeover.reached;
                        self.st.tasks.remove(&id);
                        self.task_completed(ctx, job, kind, reached);
                    }
                }
            }
            RmMsg::CancelJob { job } if self.st.book.cancel(ctx, job) => {
                self.start_ctl(ctx, job, CtlKind::Terminate);
            }
            RmMsg::StatusQuery { id } => {
                let token = id * TOKEN_BASE + QUERY_REPLY;
                self.st.book.desk.take_query(ctx, from, id, token);
            }
            RmMsg::SatHeartbeatAck { state } => {
                self.st.book.desk.handle(ctx);
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
                    let sat = NodeId(self.st.satellites[idx]);
                    let socket = Some(self.st.cfg.conn_lifetime);
                    self.st.book.desk.contact(ctx, sat, socket);
                    ctx.send(sat, RmMsg::SatHeartbeat);
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
                                self.st.book.desk.track_work(ctx, self.st.cfg.task_prep_cpu);
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
            JOB_RUN_DONE if self.st.book.run_out(ctx, id) => {
                let (booked, _) = self.st.book.job(id).expect("just ended");
                ctx.trace_adopt(booked.trace);
                self.start_ctl(ctx, id, CtlKind::Terminate);
            }
            QUERY_REPLY => self.st.book.desk.reply(ctx, id, &self.st.obs),
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
                if t.takeover.expected > 0 {
                    // Master's own relay: close it out with partial coverage.
                    t.done = true;
                    let (job, kind, reached) = (t.job, t.kind, t.takeover.reached);
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
