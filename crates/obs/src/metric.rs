//! Static metric ids and the fixed-bucket histogram.
//!
//! Every metric the reproduction records is named here, once, as an enum
//! variant with a compile-time index — recording a counter is an array
//! index plus a `Cell` add, never a hash lookup. Histograms use
//! fixed bucket bounds chosen per metric so that two runs (or two nodes)
//! can be merged and compared bucket-by-bucket.

use std::cell::Cell;

/// Monotone event counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Messages handed to the transport.
    MsgsSent,
    /// Messages dropped because the destination was down at delivery.
    MsgsDropped,
    /// Node outages that began (fault-plan ground truth).
    NodeDowns,
    /// Node outages that ended.
    NodeUps,
    /// Jobs submitted to a master.
    JobsSubmitted,
    /// Jobs that completed their terminate broadcast.
    JobsCompleted,
    /// Broadcast tasks assigned to satellites.
    TasksAssigned,
    /// Broadcast tasks re-assigned after a satellite failure.
    TaskRetries,
    /// Broadcast tasks the master relayed itself.
    Takeovers,
    /// Satellite FSM state changes observed by the master.
    FsmTransitions,
    /// Heartbeat sweeps completed.
    SweepsDone,
    /// Job-control messages executed on compute nodes.
    CtlExecuted,
    /// Jobs started from the queue head (FIFO order).
    BackfillHeadStarts,
    /// Jobs started out of order by backfill.
    BackfillFills,
    /// Jobs killed at their walltime limit.
    JobsKilled,
    /// Killed jobs resubmitted with a doubled limit.
    JobsResubmitted,
    /// User status queries answered.
    QueriesServed,
    /// TCP-modelled sockets opened (both endpoints counted once).
    SocketsOpened,
    /// TCP-modelled sockets closed.
    SocketsClosed,
    /// Payload bytes handed to the transport.
    BytesSent,
    /// Monitoring alerts raised by the alert bus.
    AlertsRaised,
    /// Monitoring sensor scans executed by a predictor.
    SensorScans,
}

/// Number of counter ids (array size for the recorder).
pub const N_COUNTERS: usize = Counter::SensorScans as usize + 1;

impl Counter {
    /// Stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::MsgsSent => "msgs_sent",
            Counter::MsgsDropped => "msgs_dropped",
            Counter::NodeDowns => "node_downs",
            Counter::NodeUps => "node_ups",
            Counter::JobsSubmitted => "jobs_submitted",
            Counter::JobsCompleted => "jobs_completed",
            Counter::TasksAssigned => "tasks_assigned",
            Counter::TaskRetries => "task_retries",
            Counter::Takeovers => "takeovers",
            Counter::FsmTransitions => "fsm_transitions",
            Counter::SweepsDone => "sweeps_done",
            Counter::CtlExecuted => "ctl_executed",
            Counter::BackfillHeadStarts => "backfill_head_starts",
            Counter::BackfillFills => "backfill_fills",
            Counter::JobsKilled => "jobs_killed",
            Counter::JobsResubmitted => "jobs_resubmitted",
            Counter::QueriesServed => "queries_served",
            Counter::SocketsOpened => "sockets_opened",
            Counter::SocketsClosed => "sockets_closed",
            Counter::BytesSent => "bytes_sent",
            Counter::AlertsRaised => "alerts_raised",
            Counter::SensorScans => "sensor_scans",
        }
    }

    /// One-line description used as the Prometheus `# HELP` text.
    pub fn help(self) -> &'static str {
        match self {
            Counter::MsgsSent => "Messages handed to the transport.",
            Counter::MsgsDropped => "Messages dropped because the destination was down.",
            Counter::NodeDowns => "Node outages that began (fault-plan ground truth).",
            Counter::NodeUps => "Node outages that ended.",
            Counter::JobsSubmitted => "Jobs submitted to a master.",
            Counter::JobsCompleted => "Jobs that completed their terminate broadcast.",
            Counter::TasksAssigned => "Broadcast tasks assigned to satellites.",
            Counter::TaskRetries => "Broadcast tasks re-assigned after a satellite failure.",
            Counter::Takeovers => "Broadcast tasks the master relayed itself.",
            Counter::FsmTransitions => "Satellite FSM state changes observed by the master.",
            Counter::SweepsDone => "Heartbeat sweeps completed.",
            Counter::CtlExecuted => "Job-control messages executed on compute nodes.",
            Counter::BackfillHeadStarts => "Jobs started from the queue head in FIFO order.",
            Counter::BackfillFills => "Jobs started out of order by backfill.",
            Counter::JobsKilled => "Jobs killed at their walltime limit.",
            Counter::JobsResubmitted => "Killed jobs resubmitted with a doubled limit.",
            Counter::QueriesServed => "User status queries answered.",
            Counter::SocketsOpened => "TCP-modelled sockets opened.",
            Counter::SocketsClosed => "TCP-modelled sockets closed.",
            Counter::BytesSent => "Payload bytes handed to the transport.",
            Counter::AlertsRaised => "Monitoring alerts raised by the alert bus.",
            Counter::SensorScans => "Monitoring sensor scans executed by a predictor.",
        }
    }

    /// All counters, in index order.
    pub fn all() -> [Counter; N_COUNTERS] {
        [
            Counter::MsgsSent,
            Counter::MsgsDropped,
            Counter::NodeDowns,
            Counter::NodeUps,
            Counter::JobsSubmitted,
            Counter::JobsCompleted,
            Counter::TasksAssigned,
            Counter::TaskRetries,
            Counter::Takeovers,
            Counter::FsmTransitions,
            Counter::SweepsDone,
            Counter::CtlExecuted,
            Counter::BackfillHeadStarts,
            Counter::BackfillFills,
            Counter::JobsKilled,
            Counter::JobsResubmitted,
            Counter::QueriesServed,
            Counter::SocketsOpened,
            Counter::SocketsClosed,
            Counter::BytesSent,
            Counter::AlertsRaised,
            Counter::SensorScans,
        ]
    }
}

/// Last-write-wins instantaneous values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Broadcast tasks currently outstanding at the ESlurm master.
    TasksInFlight,
    /// Jobs waiting in the scheduler queue.
    QueueDepth,
    /// Jobs currently holding nodes in the scheduler.
    JobsRunning,
    /// Backfill reservations currently held for waiting jobs.
    Reservations,
}

/// Number of gauge ids.
pub const N_GAUGES: usize = Gauge::Reservations as usize + 1;

impl Gauge {
    /// Stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::TasksInFlight => "tasks_in_flight",
            Gauge::QueueDepth => "queue_depth",
            Gauge::JobsRunning => "jobs_running",
            Gauge::Reservations => "reservations",
        }
    }

    /// One-line description used as the Prometheus `# HELP` text.
    pub fn help(self) -> &'static str {
        match self {
            Gauge::TasksInFlight => "Broadcast tasks outstanding at the ESlurm master.",
            Gauge::QueueDepth => "Jobs waiting in the scheduler queue.",
            Gauge::JobsRunning => "Jobs currently holding nodes in the scheduler.",
            Gauge::Reservations => "Backfill reservations held for waiting jobs.",
        }
    }

    /// All gauges, in index order.
    pub fn all() -> [Gauge; N_GAUGES] {
        [
            Gauge::TasksInFlight,
            Gauge::QueueDepth,
            Gauge::JobsRunning,
            Gauge::Reservations,
        ]
    }
}

/// Fixed-bucket histograms. Each id carries its own bucket bounds so the
/// shape is identical across runs and nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// One-way flight time of a message, µs (transmit-gap queueing plus
    /// link latency).
    HopLatencyUs,
    /// Daemon CPU charged while handling one delivered message, µs.
    MsgProcessUs,
    /// Heartbeat sweep completion (submission → last report), µs.
    SweepCompletionUs,
    /// Satellite task service time (receipt → done report), µs.
    TaskServiceUs,
    /// User status-query response latency, µs.
    QueryLatencyUs,
    /// Scheduler wait time (submission → final start), seconds.
    JobWaitS,
    /// Bounded slowdown of a completed job, milli-units (1000 = 1.0; the
    /// fair-metric denominator floors runtime at τ=10s).
    BoundedSlowdownMilli,
}

/// Number of histogram ids.
pub const N_HISTS: usize = Hist::BoundedSlowdownMilli as usize + 1;

/// Shared bucket ladder for microsecond-scale latencies.
const US_BOUNDS: &[u64] = &[
    10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000,
    500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
];

/// Bucket ladder for second-scale waits.
const S_BOUNDS: &[u64] = &[
    1, 5, 15, 60, 300, 900, 1_800, 3_600, 7_200, 14_400, 43_200, 86_400,
];

/// Bucket ladder for bounded slowdown in milli-units (1.0x .. 100x).
const SLOWDOWN_MILLI_BOUNDS: &[u64] = &[
    1_000, 1_200, 1_500, 2_000, 3_000, 5_000, 10_000, 20_000, 50_000, 100_000,
];

impl Hist {
    /// Stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Hist::HopLatencyUs => "hop_latency_us",
            Hist::MsgProcessUs => "msg_process_us",
            Hist::SweepCompletionUs => "sweep_completion_us",
            Hist::TaskServiceUs => "task_service_us",
            Hist::QueryLatencyUs => "query_latency_us",
            Hist::JobWaitS => "job_wait_s",
            Hist::BoundedSlowdownMilli => "bounded_slowdown_milli",
        }
    }

    /// One-line description used as the Prometheus `# HELP` text.
    pub fn help(self) -> &'static str {
        match self {
            Hist::HopLatencyUs => "One-way message flight time, microseconds.",
            Hist::MsgProcessUs => "Daemon CPU charged per delivered message, microseconds.",
            Hist::SweepCompletionUs => "Heartbeat sweep completion time, microseconds.",
            Hist::TaskServiceUs => "Satellite task service time, microseconds.",
            Hist::QueryLatencyUs => "User status-query response latency, microseconds.",
            Hist::JobWaitS => "Scheduler job wait time, seconds.",
            Hist::BoundedSlowdownMilli => "Bounded slowdown of completed jobs, milli-units.",
        }
    }

    /// Upper-inclusive bucket bounds; values above the last bound land in
    /// an implicit overflow bucket.
    pub fn bounds(self) -> &'static [u64] {
        match self {
            Hist::HopLatencyUs
            | Hist::MsgProcessUs
            | Hist::SweepCompletionUs
            | Hist::TaskServiceUs
            | Hist::QueryLatencyUs => US_BOUNDS,
            Hist::JobWaitS => S_BOUNDS,
            Hist::BoundedSlowdownMilli => SLOWDOWN_MILLI_BOUNDS,
        }
    }

    /// All histograms, in index order.
    pub fn all() -> [Hist; N_HISTS] {
        [
            Hist::HopLatencyUs,
            Hist::MsgProcessUs,
            Hist::SweepCompletionUs,
            Hist::TaskServiceUs,
            Hist::QueryLatencyUs,
            Hist::JobWaitS,
            Hist::BoundedSlowdownMilli,
        ]
    }
}

/// A fixed-bucket histogram with exact sum/count.
///
/// # Bucketing convention
///
/// Bounds are **upper-inclusive** and strictly increasing. A value `v`
/// lands in the first bucket whose bound `b` satisfies `v <= b`; in
/// particular a value exactly on a boundary lands in the bucket that
/// boundary names, never the next one. Values above the last bound land
/// in the implicit **overflow bucket** at index `bounds.len()` (so
/// `counts` is always `bounds.len() + 1` long). This matches the
/// Prometheus `le` (less-or-equal) semantics and is deterministic: the
/// same value always lands in the same bucket — see [`bucket_index`].
///
/// Counts and `sum` use wrapping `u64` arithmetic; with the
/// microsecond/second scales recorded here, overflow would take >500 000
/// years of virtual time, so no saturation logic is spent on it.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    /// One slot per bound plus the overflow bucket.
    counts: Vec<Cell<u64>>,
    sum: Cell<u64>,
    count: Cell<u64>,
}

/// Add `n` to a counter cell, wrapping (as every count and sum here does).
#[inline]
pub(crate) fn bump(c: &Cell<u64>, n: u64) {
    c.set(c.get().wrapping_add(n));
}

/// The bucket index `value` lands in for upper-inclusive `bounds`:
/// the first index with `value <= bounds[i]`, or `bounds.len()` (the
/// overflow bucket) when the value exceeds every bound.
#[inline]
pub fn bucket_index(bounds: &[u64], value: u64) -> usize {
    bounds.partition_point(|&b| b < value)
}

impl Histogram {
    /// An empty histogram over the given upper-inclusive bounds.
    pub fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must rise");
        Histogram {
            bounds,
            counts: vec![Cell::new(0); bounds.len() + 1],
            sum: Cell::new(0),
            count: Cell::new(0),
        }
    }

    /// Record one observation (see the type docs for the bucket
    /// convention).
    pub fn observe(&self, value: u64) {
        bump(&self.counts[bucket_index(self.bounds, value)], 1);
        bump(&self.sum, value);
        bump(&self.count, 1);
    }

    /// The observation count and sum, without copying the buckets.
    pub(crate) fn count_sum(&self) -> (u64, u64) {
        (self.count.get(), self.sum.get())
    }

    /// The bucket bounds this histogram was built with.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Immutable snapshot of the current contents.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            bounds: self.bounds,
            counts: self.counts.iter().map(Cell::get).collect(),
            sum: self.sum.get(),
            count: self.count.get(),
        }
    }
}

/// A point-in-time copy of one histogram's contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Upper-inclusive bucket bounds (the last slot of `counts` is the
    /// overflow bucket).
    pub bounds: &'static [u64],
    /// Per-bucket observation counts, `bounds.len() + 1` long.
    pub counts: Vec<u64>,
    /// Exact sum of all observed values.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

impl HistSnapshot {
    /// Exact mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the smallest bucket whose cumulative count covers
    /// quantile `q` (`0.0..=1.0`); `None` when empty. Values in the
    /// overflow bucket report the last finite bound.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target.max(1) {
                return Some(*self.bounds.get(i).unwrap_or(self.bounds.last()?));
            }
        }
        self.bounds.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_upper_inclusive_with_overflow() {
        const BOUNDS: &[u64] = &[10, 100, 1000];
        let h = Histogram::new(BOUNDS);
        h.observe(1); // <= 10
        h.observe(10); // <= 10 (inclusive)
        h.observe(11); // <= 100
        h.observe(1000); // <= 1000
        h.observe(5000); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1 + 10 + 11 + 1000 + 5000);
        assert!((s.mean() - 6022.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn every_boundary_value_lands_in_its_own_bucket() {
        // The convention: v == bound lands in the bucket that bound names.
        const BOUNDS: &[u64] = &[10, 100, 1000];
        for (i, &b) in BOUNDS.iter().enumerate() {
            assert_eq!(bucket_index(BOUNDS, b), i, "boundary {b} drifted");
            assert_eq!(bucket_index(BOUNDS, b + 1), i + 1, "boundary {b}+1 drifted");
        }
        // And the same holds on the real ladders.
        for h in Hist::all() {
            let bounds = h.bounds();
            for (i, &b) in bounds.iter().enumerate() {
                assert_eq!(bucket_index(bounds, b), i);
            }
        }
    }

    #[test]
    fn over_max_values_land_in_overflow_deterministically() {
        const BOUNDS: &[u64] = &[10, 100];
        let h = Histogram::new(BOUNDS);
        h.observe(101); // one past the last bound
        h.observe(u64::MAX); // as far over as possible
        let s = h.snapshot();
        assert_eq!(s.counts, vec![0, 0, 2]);
        assert_eq!(bucket_index(BOUNDS, 101), BOUNDS.len());
        assert_eq!(bucket_index(BOUNDS, u64::MAX), BOUNDS.len());
        // Overflow observations still count toward quantiles, reported at
        // the last finite bound.
        assert_eq!(s.quantile_bound(0.99), Some(100));
    }

    #[test]
    fn zero_lands_in_the_first_bucket() {
        const BOUNDS: &[u64] = &[10, 100];
        assert_eq!(bucket_index(BOUNDS, 0), 0);
        let h = Histogram::new(BOUNDS);
        h.observe(0);
        assert_eq!(h.snapshot().counts, vec![1, 0, 0]);
    }

    #[test]
    fn quantile_bound_walks_buckets() {
        const BOUNDS: &[u64] = &[10, 100, 1000];
        let h = Histogram::new(BOUNDS);
        for _ in 0..9 {
            h.observe(5);
        }
        h.observe(500);
        let s = h.snapshot();
        assert_eq!(s.quantile_bound(0.5), Some(10));
        assert_eq!(s.quantile_bound(0.95), Some(1000));
        assert_eq!(s.quantile_bound(1.0), Some(1000));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new(Hist::HopLatencyUs.bounds());
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile_bound(0.5), None);
    }

    #[test]
    fn ids_are_dense_and_named() {
        for (i, c) in Counter::all().iter().enumerate() {
            assert_eq!(*c as usize, i);
            assert!(!c.name().is_empty());
        }
        for (i, g) in Gauge::all().iter().enumerate() {
            assert_eq!(*g as usize, i);
        }
        for (i, h) in Hist::all().iter().enumerate() {
            assert_eq!(*h as usize, i);
            assert!(!h.bounds().is_empty());
        }
    }
}
