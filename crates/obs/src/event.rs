//! Trace events: the span/instant taxonomy shared by every layer.
//!
//! An event is six machine words — timestamp, duration, node, kind, and
//! two kind-specific arguments — so recording one is a `Vec::push` under
//! a short critical section and two same-seed runs can be compared with
//! `==` on the collected vectors.

/// What happened. Each kind documents the meaning of the generic `a`/`b`
/// arguments carried by [`TraceEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span: a message in flight (`a` = destination node, `b` = modelled
    /// wire size in bytes). Emitted on the sender's track, `ts` = the send
    /// call, `dur` = transmit queueing + gap + link latency.
    MsgSend,
    /// Instant: a message delivered (`a` = source node, `b` = wire bytes).
    MsgRecv,
    /// Instant: a message dropped at a down node (`a` = source node).
    MsgDrop,
    /// Span: daemon CPU charged while handling one message (`a` = source
    /// node, `b` = wire bytes).
    MsgProcess,
    /// Instant: node went down per the fault plan.
    NodeDown,
    /// Instant: node came back up.
    NodeUp,
    /// Instant: job accepted by a master (`a` = job id, `b` = task count).
    JobSubmit,
    /// Span: job lifetime, submission → terminate complete (`a` = job id).
    JobComplete,
    /// Instant: broadcast task handed to a satellite (`a` = job id,
    /// `b` = satellite node).
    TaskAssign,
    /// Instant: task timed out and was reassigned (`a` = job id,
    /// `b` = attempt number).
    TaskRetry,
    /// Instant: master took a task over itself (`a` = job id).
    TaskTakeover,
    /// Span: satellite servicing a task, receipt → done (`a` = job id).
    TaskService,
    /// Span: heartbeat sweep, start → all reports in (`a` = sweep seq,
    /// `b` = nodes swept).
    SweepDone,
    /// Instant: satellite FSM transition observed at the master
    /// (`a` = old state wire id, `b` = new state wire id). Node is the
    /// satellite that changed.
    FsmTransition,
    /// Instant: scheduler started the queue-head job in FIFO order
    /// (`a` = job id, `b` = nodes granted).
    BackfillHeadStart,
    /// Instant: scheduler backfilled a job out of order (`a` = job id,
    /// `b` = nodes granted).
    BackfillFill,
    /// Instant: job killed at its walltime limit (`a` = job id).
    JobKill,
    /// Instant: killed job resubmitted with a doubled limit (`a` = job id,
    /// `b` = resubmit count).
    JobResubmit,
    /// Instant: user status query answered (`a` = querying node).
    QueryServed,
}

impl EventKind {
    /// Stable snake_case name used in exports and filters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::MsgSend => "msg_send",
            EventKind::MsgRecv => "msg_recv",
            EventKind::MsgDrop => "msg_drop",
            EventKind::MsgProcess => "msg_process",
            EventKind::NodeDown => "node_down",
            EventKind::NodeUp => "node_up",
            EventKind::JobSubmit => "job_submit",
            EventKind::JobComplete => "job_complete",
            EventKind::TaskAssign => "task_assign",
            EventKind::TaskRetry => "task_retry",
            EventKind::TaskTakeover => "task_takeover",
            EventKind::TaskService => "task_service",
            EventKind::SweepDone => "sweep_done",
            EventKind::FsmTransition => "fsm_transition",
            EventKind::BackfillHeadStart => "backfill_head_start",
            EventKind::BackfillFill => "backfill_fill",
            EventKind::JobKill => "job_kill",
            EventKind::JobResubmit => "job_resubmit",
            EventKind::QueryServed => "query_served",
        }
    }

    /// Chrome-trace category ("cat" field); groups related kinds so they
    /// can be toggled together in the Perfetto UI.
    pub fn category(self) -> &'static str {
        match self {
            EventKind::MsgSend
            | EventKind::MsgRecv
            | EventKind::MsgDrop
            | EventKind::MsgProcess => "net",
            EventKind::NodeDown | EventKind::NodeUp => "fault",
            EventKind::JobSubmit | EventKind::JobComplete => "job",
            EventKind::TaskAssign
            | EventKind::TaskRetry
            | EventKind::TaskTakeover
            | EventKind::TaskService => "task",
            EventKind::SweepDone | EventKind::FsmTransition | EventKind::QueryServed => "ctl",
            EventKind::BackfillHeadStart
            | EventKind::BackfillFill
            | EventKind::JobKill
            | EventKind::JobResubmit => "sched",
        }
    }

    /// Names for the `a`/`b` arguments (empty string = unused).
    pub fn arg_names(self) -> (&'static str, &'static str) {
        match self {
            EventKind::MsgSend => ("dst", "bytes"),
            EventKind::MsgRecv | EventKind::MsgProcess => ("src", "bytes"),
            EventKind::MsgDrop => ("src", ""),
            EventKind::NodeDown | EventKind::NodeUp => ("", ""),
            EventKind::JobSubmit => ("job", "tasks"),
            EventKind::JobComplete
            | EventKind::TaskTakeover
            | EventKind::TaskService
            | EventKind::JobKill => ("job", ""),
            EventKind::TaskAssign => ("job", "sat"),
            EventKind::TaskRetry => ("job", "attempt"),
            EventKind::JobResubmit => ("job", "resubmits"),
            EventKind::SweepDone => ("seq", "nodes"),
            EventKind::FsmTransition => ("from", "to"),
            EventKind::BackfillHeadStart | EventKind::BackfillFill => ("job", "nodes"),
            EventKind::QueryServed => ("client", ""),
        }
    }
}

/// One recorded event. `dur_us == 0` renders as a Chrome-trace instant
/// ("i"), anything else as a complete span ("X").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start timestamp, µs of virtual time.
    pub ts_us: u64,
    /// Span duration in µs; zero for instants.
    pub dur_us: u64,
    /// The node (Chrome-trace tid) this event belongs to.
    pub node: u32,
    /// What happened.
    pub kind: EventKind,
    /// First kind-specific argument (see [`EventKind`] docs).
    pub a: u64,
    /// Second kind-specific argument.
    pub b: u64,
}

impl TraceEvent {
    /// An instant event (zero duration).
    pub fn instant(ts_us: u64, node: u32, kind: EventKind, a: u64, b: u64) -> Self {
        TraceEvent {
            ts_us,
            dur_us: 0,
            node,
            kind,
            a,
            b,
        }
    }

    /// A complete span.
    pub fn span(ts_us: u64, dur_us: u64, node: u32, kind: EventKind, a: u64, b: u64) -> Self {
        TraceEvent {
            ts_us,
            dur_us,
            node,
            kind,
            a,
            b,
        }
    }
}
