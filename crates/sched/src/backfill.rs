//! An event-driven cluster scheduling simulator with EASY backfill — the
//! algorithm the paper uses for every RM in §VII-D ("we use the backfill
//! scheduling algorithm for all RMs").
//!
//! The simulator charges each job an RM-dependent dispatch and cleanup
//! overhead (nodes are occupied while the RM launches processes and
//! reclaims resources — the "job occupation time" of Fig. 7(f)), plans
//! backfill reservations from walltime *limits* supplied by a
//! [`LimitPolicy`], kills jobs that exceed their limit (with
//! resubmission), and can suspend scheduling during RM outages (the
//! Slurm crash/reboot cycles observed in §II-B).

use crate::metrics::{bounded_slowdown, ScheduleReport};
use crate::policy::{LimitInfo, LimitPolicy};
use crate::priority::{FactorCtx, FactorShare};
use crate::profile_resv::AvailabilityProfile;
use crate::SchedPolicies;
use obs::audit::{Decision, DecisionLog, EstSource, EstimateRef, SkipReason};
use obs::{Counter, EventKind, Gauge, Hist, MetricId, Recorder, Sampler};
use simclock::{EventQueue, SimSpan, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use workload::Job;

/// Per-RM dispatch cost model: how long nodes stay occupied around the
/// actual computation.
#[derive(Clone, Debug)]
pub struct DispatchModel {
    /// Fixed resource-allocation + process-spawn latency per job.
    pub dispatch: SimSpan,
    /// Additional launch latency per node of the job (fan-out cost).
    pub dispatch_per_node: SimSpan,
    /// Fixed resource-reclaim latency at job end.
    pub cleanup: SimSpan,
    /// Additional reclaim latency per node.
    pub cleanup_per_node: SimSpan,
}

impl DispatchModel {
    /// A near-ideal RM (negligible overhead).
    pub fn ideal() -> Self {
        DispatchModel {
            dispatch: SimSpan::from_millis(50),
            dispatch_per_node: SimSpan::from_micros(20),
            cleanup: SimSpan::from_millis(50),
            cleanup_per_node: SimSpan::from_micros(20),
        }
    }

    /// Launch overhead for a job of `nodes` nodes.
    pub fn launch(&self, nodes: u32) -> SimSpan {
        self.dispatch + self.dispatch_per_node * nodes as u64
    }

    /// Cleanup overhead for a job of `nodes` nodes.
    pub fn teardown(&self, nodes: u32) -> SimSpan {
        self.cleanup + self.cleanup_per_node * nodes as u64
    }

    /// Total occupation time of a job that computes for `run`.
    pub fn occupation(&self, nodes: u32, run: SimSpan) -> SimSpan {
        self.launch(nodes) + run + self.teardown(nodes)
    }
}

/// Scheduling discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedAlgo {
    /// Strict FIFO: nothing runs ahead of the queue head.
    Fcfs,
    /// EASY backfill (reservation for the head only) — the paper's
    /// configuration for every RM.
    #[default]
    Easy,
    /// Conservative backfill: every queued job holds a reservation; a
    /// candidate may start only where it delays nobody's reservation.
    Conservative,
}

/// Configuration of one scheduling simulation.
#[derive(Clone, Debug)]
pub struct BackfillConfig {
    /// Cluster size in nodes.
    pub nodes: u32,
    /// Scheduling discipline (EASY backfill by default).
    pub algo: SchedAlgo,
    /// RM overhead model.
    pub dispatch: DispatchModel,
    /// Resubmissions allowed after a kill before the job is abandoned.
    /// Each resubmission doubles the previous limit.
    pub max_resubmits: u32,
    /// Windows during which the RM is down and cannot schedule
    /// (running jobs continue; queued work accumulates).
    pub rm_outages: Vec<(SimTime, SimSpan)>,
    /// Telemetry sink for scheduling decisions (disabled by default).
    pub obs: Recorder,
    /// Virtual-time series sink: on the sampler's cadence the simulator
    /// records `sched_busy_nodes` and snapshots `obs` (queue depth, jobs
    /// running, reservations). Disabled by default.
    pub sampler: Sampler,
    /// Optional `run=<label>` attached to sampled series, so several
    /// simulations (e.g. the Fig. 10 RM sweep) can share one store.
    pub run_label: Option<String>,
    /// Per-job decision audit log (disabled by default). Auditing is
    /// non-perturbing: the simulation makes identical policy calls and
    /// produces bit-identical outcomes whether the log is enabled or not.
    pub audit: DecisionLog,
    /// Multi-tenant policy layers: partition routing/limits, fair-share
    /// accounting, and queue-ordering priority. The default bundle is
    /// bit-identical to a policy-unaware scheduler.
    pub policies: SchedPolicies,
}

impl BackfillConfig {
    /// A clean configuration for `nodes` nodes.
    pub fn new(nodes: u32) -> Self {
        BackfillConfig {
            nodes,
            algo: SchedAlgo::Easy,
            dispatch: DispatchModel::ideal(),
            max_resubmits: 3,
            rm_outages: Vec::new(),
            obs: Recorder::disabled(),
            sampler: Sampler::disabled(),
            run_label: None,
            audit: DecisionLog::disabled(),
            policies: SchedPolicies::default(),
        }
    }
}

/// What a scheduling pass needs to turn a queue entry down, 16 bytes: a
/// pass over a deep queue reads these densely and reaches the entry's
/// [`Queued`] record (and `jobs[]`) only for a candidate that fits the
/// free nodes.
#[derive(Clone, Copy)]
struct ScanKey {
    /// Planned node occupation at the current limit (launch + limit +
    /// teardown): what a reservation must leave room for.
    occupied: SimSpan,
    /// Requested nodes clamped to the cluster; [`ScanKey::TOMBSTONE`]'s
    /// width once the entry has left the queue.
    width: u32,
    /// Last skip reason logged for this entry — audit deduplication only
    /// (queue scans re-derive the same verdict every event, so only
    /// changes are logged). Written solely when auditing is enabled and
    /// never read by scheduling decisions.
    last_skip: Option<SkipReason>,
}

impl ScanKey {
    /// Wider than any cluster (`u32::MAX` nodes is not a cluster this
    /// simulator is for), and already "logged" as out of nodes: a scan
    /// steps over a started entry on its too-wide path, silently, with no
    /// test of its own.
    const TOMBSTONE: ScanKey = ScanKey {
        occupied: SimSpan::ZERO,
        width: u32::MAX,
        last_skip: Some(SkipReason::NoFreeNodes),
    };

    fn is_live(&self) -> bool {
        self.width != u32::MAX
    }
}

/// The rest of a queue entry: read when the job starts, ends, is ranked
/// or is written to the audit log.
#[derive(Clone, Copy)]
struct Queued {
    job: usize,
    limit: SimSpan,
    resubmits: u32,
    original_submit: SimTime,
    /// The estimate the current limit was derived from (audit provenance).
    est: EstimateRef,
    /// Index of the partition the job routed to (0 under the trivial set).
    part: u32,
    /// Composed priority in milli-units, recomputed before each
    /// scheduling pass when the priority layer is non-uniform; the queue
    /// sorts on this integer (stable, descending).
    prio_milli: i64,
    /// Last priority recorded in the audit log (`i64::MIN` = never) —
    /// audit deduplication only, in the `last_skip` style.
    logged_prio: i64,
}

/// Keys per [`Block`].
const BLOCK: usize = 64;

/// Width classes: class ⌈log2 width⌉, with 0- and 1-node jobs in class 0,
/// so every `u32` width falls in one of 33.
const CLASSES: usize = 33;

fn width_class(width: u32) -> usize {
    (u32::BITS - width.saturating_sub(1).leading_zeros()) as usize
}

/// What a pass needs to step over 64 consecutive queue keys unread: the
/// least live width, and per width class the least planned occupation of
/// a live key. Classes are stored apart and folded at query time (a stored
/// running minimum would cost every push 33 writes).
#[derive(Clone, Copy, PartialEq)]
struct Block {
    narrowest: u32,
    shortest: [SimSpan; CLASSES],
}

impl Block {
    const EMPTY: Block = Block {
        narrowest: u32::MAX,
        shortest: [SimSpan(u64::MAX); CLASSES],
    };

    fn of(keys: &[ScanKey]) -> Block {
        let mut b = Block::EMPTY;
        keys.iter().filter(|k| k.is_live()).for_each(|k| b.add(k));
        b
    }

    fn add(&mut self, key: &ScanKey) {
        self.narrowest = self.narrowest.min(key.width);
        let c = &mut self.shortest[width_class(key.width)];
        *c = (*c).min(key.occupied);
    }

    /// Whether a live key of the block may pass EASY's start test: width
    /// within `free`, and within `extra` or planned to end within `budget`
    /// (the time left before the head's reservation). Every class that
    /// holds a width within `free` is consulted, so a `false` is exact and
    /// a `true` only says "read the keys".
    fn admits(&self, free: u32, extra: u32, budget: SimSpan) -> bool {
        self.narrowest <= free.min(extra)
            || (self.narrowest <= free
                && self.shortest[..=width_class(free)]
                    .iter()
                    .any(|&o| o <= budget))
    }
}

/// The wait queue, in scheduling order: scan keys and records in parallel
/// arrays, and one [`Block`] summary per 64 keys. An entry that starts is
/// overwritten by a tombstone instead of shifting everything behind it;
/// [`Queue::tidy`] squeezes tombstones out between passes, so an index is
/// stable for the length of a pass.
#[derive(Default)]
struct Queue {
    keys: Vec<ScanKey>,
    recs: Vec<Queued>,
    /// `blocks[b]` summarises the live keys of `keys[64b..64(b + 1)]`.
    blocks: Vec<Block>,
    /// Index of the first live entry (`keys.len()` when there is none):
    /// the head is never a tombstone.
    head: usize,
    /// Live entries.
    live: usize,
    /// No live entry is narrower than this (exact after a compaction, a
    /// lower bound in between: removals leave it alone).
    narrowest: u32,
}

impl Queue {
    fn len(&self) -> usize {
        self.live
    }

    fn push(&mut self, key: ScanKey, rec: Queued) {
        debug_assert!(key.is_live(), "a u32::MAX-node cluster is not supported");
        self.narrowest = if self.live == 0 {
            key.width
        } else {
            self.narrowest.min(key.width)
        };
        if self.keys.len().is_multiple_of(BLOCK) {
            self.blocks.push(Block::EMPTY);
        }
        self.blocks
            .last_mut()
            .expect("a block per 64 keys")
            .add(&key);
        self.keys.push(key);
        self.recs.push(rec);
        self.live += 1;
    }

    /// The entry at the front of the queue.
    fn front(&self) -> Option<(ScanKey, Queued)> {
        (self.live > 0).then(|| (self.keys[self.head], self.recs[self.head]))
    }

    /// Take the live entry at `i` out of the queue.
    fn take(&mut self, i: usize) -> Queued {
        debug_assert!(self.keys[i].is_live());
        self.keys[i] = ScanKey::TOMBSTONE;
        // Keys ahead of the head are dead: a shallow queue, whose starts
        // are mostly head starts, re-reads only the block's live tail.
        let b = i / BLOCK;
        let end = self.keys.len().min((b + 1) * BLOCK);
        self.blocks[b] = Block::of(&self.keys[(b * BLOCK).max(self.head)..end]);
        self.live -= 1;
        if i == self.head {
            self.head += 1;
            while self.keys.get(self.head).is_some_and(|k| !k.is_live()) {
                self.head += 1;
            }
        }
        self.recs[i]
    }

    /// Between passes: squeeze the dead entries out once they are a
    /// quarter of the arrays, so a removal pays for four moves at most and
    /// a scan of a deep queue reads at most a third more keys than are
    /// live.
    fn tidy(&mut self) {
        let dead = self.keys.len() - self.live;
        if dead > 16 && dead * 4 > self.keys.len() {
            self.compact();
        }
    }

    fn compact(&mut self) {
        let mut kept = 0;
        self.narrowest = u32::MAX;
        for i in self.head..self.keys.len() {
            if self.keys[i].is_live() {
                self.narrowest = self.narrowest.min(self.keys[i].width);
                self.keys[kept] = self.keys[i];
                self.recs[kept] = self.recs[i];
                kept += 1;
            }
        }
        debug_assert_eq!(kept, self.live);
        self.keys.truncate(kept);
        self.recs.truncate(kept);
        self.head = 0;
        self.summarize();
    }

    /// Rebuild every block summary from the keys.
    fn summarize(&mut self) {
        self.blocks.clear();
        self.blocks.extend(self.keys.chunks(BLOCK).map(Block::of));
    }

    /// The first index from `i` on that an EASY pass with `free` nodes
    /// free, `extra` spare at the reservation and `budget` left before it
    /// must look at: a key that fits `free` or, audited, whose
    /// `NoFreeNodes` verdict is news to the log. Unaudited, a block whose
    /// summary admits no start is stepped over unread; every key in it is
    /// one the pass would turn down with a verdict that writes nothing.
    fn next_candidate(
        &self,
        mut i: usize,
        free: u32,
        extra: u32,
        budget: SimSpan,
        audit: bool,
    ) -> Option<usize> {
        if audit {
            // The log wants every verdict that changed: read every key, in
            // one scan (block by block, the audited run took ≈ 12 % longer).
            let news =
                |k: &ScanKey| k.width <= free || k.last_skip != Some(SkipReason::NoFreeNodes);
            return self.keys[i..].iter().position(news).map(|ahead| i + ahead);
        }
        for b in i / BLOCK..self.blocks.len() {
            let end = self.keys.len().min((b + 1) * BLOCK);
            if self.blocks[b].admits(free, extra, budget) {
                if let Some(ahead) = self.keys[i..end].iter().position(|k| k.width <= free) {
                    return Some(i + ahead);
                }
            }
            i = end;
        }
        None
    }

    /// Record a backfill skip of entry `i`, deduplicated per entry by
    /// reason — queue scans re-derive the same verdict every event, so
    /// only changes are logged. The dedup marker lives in the scan key,
    /// so the steady-state cost on an audited scan is one field compare.
    fn record_skip(
        &mut self,
        i: usize,
        reason: SkipReason,
        now: SimTime,
        jobs: &[Job],
        cfg: &BackfillConfig,
    ) {
        if !cfg.audit.enabled() || self.keys[i].last_skip == Some(reason) {
            return;
        }
        self.keys[i].last_skip = Some(reason);
        let q = &self.recs[i];
        cfg.audit.record(
            now.as_micros(),
            jobs[q.job].id.0,
            q.est,
            Decision::SkippedBackfill { reason },
        );
    }

    /// Recompute every queued job's multifactor priority and keep the
    /// queue sorted by it (descending; the sort is stable, so equal
    /// priorities keep arrival order — and the uniform composer returns
    /// without touching the queue at all, preserving bit-identical FIFO
    /// behavior). Material priority changes are recorded in the audit log
    /// with each factor's weighted contribution.
    fn reorder_by_priority(&mut self, now: SimTime, jobs: &[Job], cfg: &BackfillConfig) {
        if cfg.policies.priority.is_uniform() || self.live == 0 {
            return;
        }
        // Ranks are positions among live entries.
        if self.keys.len() > self.live {
            self.compact();
        }
        let ctx_of = |q: &Queued| FactorCtx {
            now,
            submit: q.original_submit,
            cluster_nodes: cfg.nodes,
            partition: cfg.policies.partitions.get(q.part as usize),
            fairshare: &cfg.policies.fairshare,
        };
        for q in &mut self.recs {
            q.prio_milli = cfg
                .policies
                .priority
                .priority_milli(&jobs[q.job], &ctx_of(q));
        }
        // Descending, stably. Most passes only confirm the order they
        // inherited; the two arrays are permuted when one does not.
        let by_prio = |q: &Queued| Reverse(q.prio_milli);
        if !self.recs.is_sorted_by_key(by_prio) {
            let mut order: Vec<usize> = (0..self.live).collect();
            order.sort_by_key(|&i| by_prio(&self.recs[i]));
            self.keys = order.iter().map(|&i| self.keys[i]).collect();
            self.recs = order.iter().map(|&i| self.recs[i]).collect();
            self.summarize();
        }
        if !cfg.audit.enabled() {
            return;
        }
        // Log first rankings and drifts past ~1.5% of the last logged value:
        // enough for `why-job` to show why a job ranked where it did, without
        // re-logging every age tick. Never read by scheduling decisions.
        let mut shares: Vec<FactorShare> = Vec::new();
        for (rank, q) in self.recs.iter_mut().enumerate() {
            if q.logged_prio != i64::MIN
                && (q.prio_milli - q.logged_prio).abs() < (q.logged_prio.abs() / 64).max(1)
            {
                continue;
            }
            let total = cfg
                .policies
                .priority
                .score_into(&jobs[q.job], &ctx_of(q), &mut shares);
            debug_assert_eq!(total, q.prio_milli);
            q.logged_prio = q.prio_milli;
            cfg.audit.record(
                now.as_micros(),
                jobs[q.job].id.0,
                q.est,
                Decision::PriorityRanked {
                    priority_milli: q.prio_milli,
                    rank: rank as u32,
                    factors: shares.iter().map(|s| (s.name, s.milli)).collect(),
                },
            );
        }
    }
}

#[derive(Clone, Copy)]
struct Running {
    nodes: u32,
    /// Job id, so reservations can name their blockers.
    job_id: u64,
    /// Partition holding the nodes (releases its capacity at end).
    part: u32,
}

/// Where a running job sits in [`RunningSet`]: when the scheduler believes
/// its nodes free up (limit-based), then its slot.
type RunKey = (SimTime, u32);

/// The running jobs, ordered by planned end. Jobs that plan to end at the
/// same instant are ordered by slot, and a starting job takes the lowest
/// free slot: the order a per-pass stable sort of a slot table gives, which
/// decides how many spare nodes a reservation sees when planned ends tie.
#[derive(Default)]
struct RunningSet {
    by_end: BTreeMap<RunKey, Running>,
    free_slots: BinaryHeap<Reverse<u32>>,
}

impl RunningSet {
    fn len(&self) -> usize {
        self.by_end.len()
    }

    fn insert(&mut self, planned_end: SimTime, r: Running) -> RunKey {
        // Every slot below the high-water mark is running or in the heap.
        let high_water = (self.by_end.len() + self.free_slots.len()) as u32;
        let slot = self.free_slots.pop().map_or(high_water, |s| s.0);
        self.by_end.insert((planned_end, slot), r);
        (planned_end, slot)
    }

    fn remove(&mut self, key: RunKey) -> Running {
        self.free_slots.push(Reverse(key.1));
        self.by_end.remove(&key).expect("ending a job twice")
    }

    /// `(planned end, job)` in the order the nodes are planned to free up.
    fn iter(&self) -> impl Iterator<Item = (SimTime, &Running)> {
        self.by_end.iter().map(|(&(end, _), r)| (end, r))
    }

    /// The counterfactual blocker set of a reservation at `shadow`: the
    /// running jobs whose planned ends the reservation waits behind, in
    /// deterministic (end time, job id) order.
    fn blockers(&self, shadow: SimTime) -> Vec<u64> {
        let mut blockers: Vec<(SimTime, u64)> = self
            .by_end
            .range(..=(shadow, u32::MAX))
            .map(|(&(end, _), r)| (end, r.job_id))
            .collect();
        blockers.sort();
        blockers.into_iter().map(|(_, id)| id).collect()
    }
}

/// Deduplication state for the audit log: steady-state scheduling passes
/// re-derive the same blocked head and reservation every event, so only
/// *changes* are recorded (per-job skip dedup lives in the entry's
/// [`ScanKey`], keeping the queue scan allocation- and lookup-free).
/// Touched only when auditing is enabled; never feeds back into
/// scheduling decisions.
#[derive(Default)]
struct AuditCursor {
    /// Last job recorded as the blocked head of the queue.
    last_head: Option<u64>,
    /// Last `(head job, reservation start µs)` recorded.
    last_resv: Option<(u64, u64)>,
}

impl AuditCursor {
    /// A job left the queue (started or was resubmitted): forget its
    /// deduplication state so fresh decisions are recorded next pass.
    fn forget(&mut self, job_id: u64) {
        if self.last_head == Some(job_id) {
            self.last_head = None;
        }
        if self.last_resv.is_some_and(|(j, _)| j == job_id) {
            self.last_resv = None;
        }
    }

    /// Record the blocked head and its reservation, when either changed.
    fn head_blocked(
        &mut self,
        now: SimTime,
        head_id: u64,
        est: EstimateRef,
        at: SimTime,
        running: &RunningSet,
        cfg: &BackfillConfig,
    ) {
        if !cfg.audit.enabled() {
            return;
        }
        if self.last_head != Some(head_id) {
            self.last_head = Some(head_id);
            cfg.audit
                .record(now.as_micros(), head_id, est, Decision::HeadOfQueue);
        }
        if at != SimTime(u64::MAX) && self.last_resv != Some((head_id, at.as_micros())) {
            self.last_resv = Some((head_id, at.as_micros()));
            cfg.audit.record(
                now.as_micros(),
                head_id,
                est,
                Decision::ReservationPlaced {
                    at_us: at.as_micros(),
                    blockers: running.blockers(at),
                },
            );
        }
    }
}

enum Ev {
    Arrive(usize),
    /// Nodes release; payload describes what ended.
    End {
        run: RunKey,
        queued: Queued,
        started: SimTime,
        killed: bool,
    },
    RmUp,
}

/// Everything a scheduling pass reads and writes: the planner is this
/// state plus [`SchedState::schedule`], a step function of `now` that
/// emits `End` events. [`simulate`] drives it from its own event loop; a
/// master actor that owns the queue can drive the same step from
/// submission, completion and node-down messages.
struct SchedState {
    /// Nodes not held by a running job.
    free: u32,
    queue: Queue,
    running: RunningSet,
    /// Nodes each partition currently occupies (all in partition 0 under
    /// the trivial set, where no capacity is ever consulted).
    part_busy: Vec<u32>,
    cursor: AuditCursor,
}

/// Run the simulation: `jobs` through a cluster of `cfg.nodes` nodes with
/// walltime limits from `policy`.
///
/// ```
/// use sched::prelude::{simulate, BackfillConfig, UserLimit};
/// use workload::TraceConfig;
///
/// let jobs = TraceConfig::small(200, 7).generate();
/// let report = simulate(&jobs, &mut UserLimit::default(), &BackfillConfig::new(256));
/// assert_eq!(report.completed + report.abandoned, 200);
/// assert!(report.utilization() <= 1.0);
/// ```
pub fn simulate(
    jobs: &[Job],
    policy: &mut dyn LimitPolicy,
    cfg: &BackfillConfig,
) -> ScheduleReport {
    let _mem = obs::tag_scope(obs::MemTag::Sched);
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| jobs[i].submit);

    // Arrivals are already sorted: a cursor over `order` merges with a
    // queue that holds only `RmUp` and `End`. At one instant an arrival
    // goes first, then `RmUp`, then `End` — the order one queue gave them
    // when every arrival was pushed before every `RmUp`, and those before
    // any `End`.
    let mut arrived = 0;
    let mut events: EventQueue<Ev> = EventQueue::new();
    for &(at, dur) in &cfg.rm_outages {
        events.push(at + dur, Ev::RmUp);
    }

    let mut st = SchedState::new(cfg);
    let mut report = ScheduleReport {
        nodes: cfg.nodes,
        ..Default::default()
    };

    let in_outage = |t: SimTime, cfg: &BackfillConfig| {
        cfg.rm_outages
            .iter()
            .any(|&(at, dur)| t >= at && t < at + dur)
    };

    let tick = cfg.sampler.interval();
    let mut next_due = tick.map(|i| SimTime::ZERO + i);

    loop {
        let arrival = order
            .get(arrived)
            .filter(|&&i| events.peek_time().is_none_or(|t| jobs[i].submit <= t));
        let (now, ev) = if let Some(&i) = arrival {
            arrived += 1;
            (jobs[i].submit, Ev::Arrive(i))
        } else if let Some(next) = events.pop() {
            next
        } else {
            break;
        };
        // Catch the sampling cadence up to `now`: each tick records the
        // state as of the last event processed before it.
        if let (Some(i), Some(due)) = (tick, next_due.as_mut()) {
            while *due <= now && cfg.sampler.due(*due) {
                sample_tick(cfg, *due, st.free);
                *due += i;
            }
        }
        match ev {
            Ev::Arrive(i) => {
                let mut info = policy.limit_info(&jobs[i]);
                let width = jobs[i].nodes.min(cfg.nodes);
                let mut part = 0u32;
                if !cfg.policies.partitions.is_trivial() {
                    part = cfg.policies.partitions.route(width) as u32;
                    apply_partition_limits(cfg, part, &mut info);
                }
                if cfg.audit.enabled() {
                    cfg.audit
                        .record(now.as_micros(), jobs[i].id.0, info.est, Decision::Submitted);
                }
                st.enqueue(
                    cfg,
                    width,
                    Queued {
                        job: i,
                        limit: info.limit,
                        resubmits: 0,
                        original_submit: jobs[i].submit,
                        est: info.est,
                        part,
                        prio_milli: 0,
                        logged_prio: i64::MIN,
                    },
                );
            }
            Ev::End {
                run,
                queued,
                started,
                killed,
            } => {
                let r = st.release(run);
                let job = &jobs[queued.job];
                // The machine time was consumed whether the job completed
                // or was killed: fair-share charges both.
                if cfg.policies.fairshare.enabled() {
                    let cores = r.nodes as u64 * job.cores_per_node.max(1) as u64;
                    cfg.policies
                        .fairshare
                        .charge(job.user.0, cores, now - started, now);
                }
                if killed {
                    report.killed += 1;
                    cfg.obs.inc(Counter::JobsKilled);
                    cfg.obs.event_at(now, 0, EventKind::JobKill, job.id.0, 0);
                    if cfg.audit.enabled() {
                        cfg.audit.record(
                            now.as_micros(),
                            job.id.0,
                            queued.est,
                            Decision::KilledAtLimit {
                                limit_us: queued.limit.as_micros(),
                                actual_us: job.actual_runtime.as_micros(),
                            },
                        );
                    }
                    record_accuracy(
                        cfg,
                        &queued.est,
                        queued.est.value_us as i64 - job.actual_runtime.as_micros() as i64,
                        true,
                    );
                    if queued.resubmits < cfg.max_resubmits {
                        cfg.obs.inc(Counter::JobsResubmitted);
                        cfg.obs.event_at(
                            now,
                            0,
                            EventKind::JobResubmit,
                            job.id.0,
                            queued.resubmits as u64 + 1,
                        );
                        // The policy is consulted unconditionally so its
                        // internal state cannot diverge with auditing off.
                        let mut next = policy.resubmit_info(
                            job,
                            LimitInfo {
                                limit: queued.limit,
                                est: queued.est,
                            },
                            queued.resubmits + 1,
                        );
                        if !cfg.policies.partitions.is_trivial() {
                            // The resubmission ladder cannot climb past the
                            // partition's hard cap.
                            if let Some(m) =
                                cfg.policies.partitions.get(queued.part as usize).max_time
                            {
                                next.limit = next.limit.min(m);
                            }
                        }
                        if cfg.audit.enabled() {
                            st.cursor.forget(job.id.0);
                            cfg.audit.record(
                                now.as_micros(),
                                job.id.0,
                                next.est,
                                Decision::Resubmitted {
                                    attempt: queued.resubmits + 1,
                                    new_limit_us: next.limit.as_micros(),
                                },
                            );
                        }
                        // r.nodes is the clamped width the job ran at.
                        st.enqueue(
                            cfg,
                            r.nodes,
                            Queued {
                                limit: next.limit,
                                est: next.est,
                                resubmits: queued.resubmits + 1,
                                ..queued
                            },
                        );
                    } else {
                        report.abandoned += 1;
                    }
                } else {
                    report.completed += 1;
                    let wait = started - queued.original_submit;
                    cfg.obs
                        .observe(Hist::JobWaitS, wait.as_micros() / 1_000_000);
                    report.total_wait += wait;
                    let e = report.per_user.entry(job.user.0).or_default();
                    e.0 += 1;
                    e.1 += wait;
                    let sd = bounded_slowdown(wait, job.actual_runtime);
                    report.total_slowdown += sd;
                    cfg.obs
                        .observe(Hist::BoundedSlowdownMilli, (sd * 1000.0) as u64);
                    // r.nodes is the clamped allocation actually held.
                    report.useful_node_secs += r.nodes as f64 * job.actual_runtime.as_secs_f64();
                    if cfg.audit.enabled() {
                        cfg.audit.record(
                            now.as_micros(),
                            job.id.0,
                            queued.est,
                            Decision::Completed {
                                est_error_us: queued.est.value_us as i64
                                    - job.actual_runtime.as_micros() as i64,
                            },
                        );
                    }
                    record_accuracy(
                        cfg,
                        &queued.est,
                        queued.est.value_us as i64 - job.actual_runtime.as_micros() as i64,
                        false,
                    );
                    policy.on_complete(job, now);
                }
                report.makespan = report.makespan.max(now);
            }
            Ev::RmUp => {}
        }
        if in_outage(now, cfg) {
            continue; // the RM is down: no scheduling decisions
        }
        st.schedule(now, &mut events, jobs, cfg, &mut report);
    }
    report
}

/// Apply the routed partition's time policies to a fresh limit: the
/// default walltime replaces a policy default, and the hard cap clamps
/// whatever survives. Only called under a non-trivial partition set.
fn apply_partition_limits(cfg: &BackfillConfig, part: u32, info: &mut LimitInfo) {
    let p = cfg.policies.partitions.get(part as usize);
    if info.est.source == EstSource::Default {
        if let Some(d) = p.default_time {
            info.limit = d;
            info.est = EstimateRef::new(d.as_micros(), EstSource::Default);
        }
    }
    if let Some(m) = p.max_time {
        info.limit = info.limit.min(m);
    }
}

/// Per-source / per-cluster estimator accuracy into the labeled metric
/// registry, from where `Sampler::snapshot` feeds the SeriesStore and
/// `export::to_prometheus` the text exposition. Signed error is
/// estimate − actual in µs; a kill joins the estimate to a lower bound of
/// the actual runtime.
fn record_accuracy(cfg: &BackfillConfig, est: &EstimateRef, err_us: i64, killed: bool) {
    if !cfg.obs.enabled() {
        return;
    }
    let src = est.source.name();
    let family = if err_us < 0 {
        "est_underestimates"
    } else {
        "est_overestimates"
    };
    cfg.obs
        .labeled_counter(MetricId::new(family).with("source", src))
        .inc();
    if killed {
        cfg.obs
            .labeled_counter(MetricId::new("est_kills").with("source", src))
            .inc();
    }
    let abs_s = err_us.unsigned_abs() / 1_000_000;
    cfg.obs
        .labeled_hist(
            MetricId::new("est_abs_err_s").with("source", src),
            EST_ERR_BOUNDS,
        )
        .observe(abs_s);
    if let Some(c) = est.cluster {
        cfg.obs
            .labeled_hist(
                MetricId::new("est_abs_err_s").with("cluster", c.to_string()),
                EST_ERR_BOUNDS,
            )
            .observe(abs_s);
    }
}

/// Bucket ladder for absolute estimate error, seconds (same shape as the
/// job-wait ladder).
const EST_ERR_BOUNDS: &[u64] = &[
    1, 5, 15, 60, 300, 900, 1_800, 3_600, 7_200, 14_400, 43_200, 86_400,
];

/// One sampling-cadence tick: the busy-node series plus a snapshot of the
/// scheduling gauges/counters living in `cfg.obs`.
fn sample_tick(cfg: &BackfillConfig, t: SimTime, free: u32) {
    let mut id = MetricId::new("sched_busy_nodes");
    if let Some(run) = &cfg.run_label {
        id = id.with("run", run.clone());
    }
    cfg.sampler.record(t, id, (cfg.nodes - free) as f64);
    cfg.sampler.snapshot(t, &cfg.obs);
}

impl SchedState {
    fn new(cfg: &BackfillConfig) -> Self {
        SchedState {
            free: cfg.nodes,
            queue: Queue::default(),
            running: RunningSet::default(),
            part_busy: vec![0; cfg.policies.partitions.len()],
            cursor: AuditCursor::default(),
        }
    }

    /// Append a job of clamped `width` to the back of the queue.
    fn enqueue(&mut self, cfg: &BackfillConfig, width: u32, rec: Queued) {
        let key = ScanKey {
            occupied: cfg.dispatch.occupation(width, rec.limit),
            width,
            last_skip: None,
        };
        self.queue.push(key, rec);
    }

    /// A running job's nodes come back.
    fn release(&mut self, run: RunKey) -> Running {
        let r = self.running.remove(run);
        self.free += r.nodes;
        self.part_busy[r.part as usize] -= r.nodes;
        r
    }

    /// Nodes a partition may still take on (`u32::MAX` when uncapped, as
    /// the one partition of the trivial set always is).
    fn part_headroom(&self, cfg: &BackfillConfig, part: u32) -> u32 {
        match cfg.policies.partitions.get(part as usize).capacity {
            Some(cap) => cap.saturating_sub(self.part_busy[part as usize]),
            None => u32::MAX,
        }
    }

    /// Publish queue/occupancy/reservation gauges after a scheduling pass.
    fn gauges(&self, cfg: &BackfillConfig, reservations: i64) {
        if cfg.obs.enabled() {
            cfg.obs
                .gauge_set(Gauge::QueueDepth, self.queue.len() as i64);
            cfg.obs
                .gauge_set(Gauge::JobsRunning, self.running.len() as i64);
            cfg.obs.gauge_set(Gauge::Reservations, reservations);
        }
    }

    /// One scheduling pass at `now`.
    fn schedule(
        &mut self,
        now: SimTime,
        events: &mut EventQueue<Ev>,
        jobs: &[Job],
        cfg: &BackfillConfig,
        report: &mut ScheduleReport,
    ) {
        self.queue.tidy();
        // A non-uniform priority layer re-sorts the queue before every pass;
        // the uniform default returns immediately, leaving arrival order.
        self.queue.reorder_by_priority(now, jobs, cfg);
        // Start jobs in queue order while they fit (cluster + partition).
        while let Some((key, head)) = self.queue.front() {
            if key.width > self.free || key.width > self.part_headroom(cfg, head.part) {
                break;
            }
            self.queue.take(self.queue.head);
            cfg.obs.inc(Counter::BackfillHeadStarts);
            cfg.obs.event_at(
                now,
                0,
                EventKind::BackfillHeadStart,
                jobs[head.job].id.0,
                key.width as u64,
            );
            self.start(now, head, events, jobs, cfg, report);
        }
        match cfg.algo {
            // FIFO plans no reservations at all.
            SchedAlgo::Fcfs => self.gauges(cfg, 0),
            SchedAlgo::Conservative => {
                self.conservative_pass(now, events, jobs, cfg, report);
                // Every job still queued holds a profile reservation.
                self.gauges(cfg, self.queue.len() as i64);
            }
            SchedAlgo::Easy => {
                // EASY holds exactly one reservation: the blocked head's.
                let blocked = self.queue.len() > 0;
                if blocked {
                    self.easy_pass(now, events, jobs, cfg, report);
                }
                self.gauges(cfg, blocked as i64);
            }
        }
    }

    /// EASY backfill behind a blocked head: reserve for the head, then
    /// start whatever fits the free nodes without delaying it.
    fn easy_pass(
        &mut self,
        now: SimTime,
        events: &mut EventQueue<Ev>,
        jobs: &[Job],
        cfg: &BackfillConfig,
        report: &mut ScheduleReport,
    ) {
        let (head_key, head) = self.queue.front().expect("EASY pass without a head");
        let head_id = jobs[head.job].id.0;
        let head_nodes = head_key.width;

        // EASY reservation for the head: walk planned ends, soonest first,
        // until enough nodes accumulate — both cluster-wide and, when the
        // head's partition is capped, within that partition (releases from
        // other partitions do not relieve a partition-full head).
        let mut acc = self.free;
        let mut part_acc = self.part_headroom(cfg, head.part);
        let mut shadow = SimTime(u64::MAX);
        let mut extra = 0u32;
        for (end, r) in self.running.iter() {
            acc += r.nodes;
            if r.part == head.part {
                part_acc = part_acc.saturating_add(r.nodes);
            }
            if acc >= head_nodes && part_acc >= head_nodes {
                shadow = end;
                extra = acc - head_nodes;
                break;
            }
        }

        self.cursor
            .head_blocked(now, head_id, head.est, shadow, &self.running, cfg);

        // Backfill the rest of the queue. No entry is narrower than
        // `narrowest`, so once fewer nodes are free nothing more can start
        // and the pass is over; only the audit log still wants the
        // `NoFreeNodes` verdicts that changed. A capped partition is the
        // one test that needs the record of a candidate that will not
        // start.
        let audit = cfg.audit.enabled();
        let capped = !cfg.policies.partitions.is_trivial();
        // Saturating: a job run past its limit leaves a shadow behind
        // `now`, and then nothing fits before it (a zero budget admits
        // more than that, never less).
        let budget = shadow - now;
        let mut i = self.queue.head + 1;
        while self.free >= self.queue.narrowest || audit {
            // On to the next entry that can use the free nodes, or whose
            // `NoFreeNodes` is news to the log (a tombstone is neither),
            // stepping over every block in which nothing can start.
            let free = self.free;
            let next = self.queue.next_candidate(i, free, extra, budget, audit);
            let Some(next) = next else { break };
            i = next;
            let key = self.queue.keys[i];
            let skip = if key.width > free {
                SkipReason::NoFreeNodes
            } else if capped && key.width > self.part_headroom(cfg, self.queue.recs[i].part) {
                SkipReason::PartitionFull
            } else {
                let fits_before_shadow = now + key.occupied <= shadow;
                if fits_before_shadow || key.width <= extra {
                    let cand = self.queue.take(i);
                    let cand_id = jobs[cand.job].id.0;
                    cfg.obs.inc(Counter::BackfillFills);
                    cfg.obs
                        .event_at(now, 0, EventKind::BackfillFill, cand_id, key.width as u64);
                    if audit {
                        // Slack left before the head's reservation (zero when
                        // the job rode the reservation's spare nodes instead).
                        let slack_us = if fits_before_shadow {
                            shadow.as_micros() - (now + key.occupied).as_micros()
                        } else {
                            0
                        };
                        cfg.audit.record(
                            now.as_micros(),
                            cand_id,
                            cand.est,
                            Decision::Backfilled {
                                slack_us,
                                head_job: head_id,
                            },
                        );
                    }
                    self.start(now, cand, events, jobs, cfg, report);
                    if !fits_before_shadow {
                        extra -= key.width;
                    }
                    i += 1;
                    continue;
                }
                SkipReason::WouldDelayHead
            };
            self.queue.record_skip(i, skip, now, jobs, cfg);
            i += 1;
        }
    }

    /// Conservative backfill: walk the queue in order, give every job its
    /// earliest profile reservation, and start the ones whose reservation is
    /// *now*.
    fn conservative_pass(
        &mut self,
        now: SimTime,
        events: &mut EventQueue<Ev>,
        jobs: &[Job],
        cfg: &BackfillConfig,
        report: &mut ScheduleReport,
    ) {
        let mut profile = AvailabilityProfile::new(now, cfg.nodes);
        for (planned_end, r) in self.running.iter() {
            // A job whose planned end coincides with `now` still holds its
            // nodes: its End event sits at the same timestamp later in the
            // event order, and `free` is only incremented when it processes.
            // Keep such nodes reserved for an instant so this pass cannot
            // hand them out before they are physically released.
            let end = planned_end.max(now + SimSpan::from_micros(1));
            profile.reserve(now, end, r.nodes);
        }
        for i in self.queue.head..self.queue.keys.len() {
            let key = self.queue.keys[i];
            if !key.is_live() {
                continue;
            }
            let q = self.queue.recs[i];
            let job_id = jobs[q.job].id.0;
            let nodes = key.width;
            let start_at = profile.earliest_fit(now, nodes, key.occupied);
            profile.reserve(start_at, start_at + key.occupied, nodes);
            // Whoever has nothing live in front of it is the head.
            let is_head = i == self.queue.head;
            if start_at == now && nodes > self.part_headroom(cfg, q.part) {
                // The cluster-wide profile found room now, but the job's
                // partition is at capacity (reservations are partition-blind
                // planning constructs; actual starts are not).
                self.queue
                    .record_skip(i, SkipReason::PartitionFull, now, jobs, cfg);
            } else if start_at == now {
                self.queue.take(i);
                let (counter, kind) = if is_head {
                    (Counter::BackfillHeadStarts, EventKind::BackfillHeadStart)
                } else {
                    (Counter::BackfillFills, EventKind::BackfillFill)
                };
                cfg.obs.inc(counter);
                cfg.obs.event_at(now, 0, kind, job_id, nodes as u64);
                if cfg.audit.enabled() && !is_head {
                    // Started out of queue order: a conservative backfill.
                    // The profile guarantees zero slack is stolen from any
                    // reservation, so slack is reported against the head's.
                    let (_, head) = self.queue.front().expect("a backfill has a head");
                    cfg.audit.record(
                        now.as_micros(),
                        job_id,
                        q.est,
                        Decision::Backfilled {
                            slack_us: 0,
                            head_job: jobs[head.job].id.0,
                        },
                    );
                }
                self.start(now, q, events, jobs, cfg, report);
            } else if is_head {
                self.cursor
                    .head_blocked(now, job_id, q.est, start_at, &self.running, cfg);
            } else if nodes > self.free {
                self.queue
                    .record_skip(i, SkipReason::NoFreeNodes, now, jobs, cfg);
            } else {
                // Nodes are physically free, but starting now would push
                // back someone's profile reservation.
                self.queue
                    .record_skip(i, SkipReason::WouldDelayReservation, now, jobs, cfg);
            }
        }
    }

    /// Start `q` (already taken out of the queue) on its nodes.
    fn start(
        &mut self,
        now: SimTime,
        q: Queued,
        events: &mut EventQueue<Ev>,
        jobs: &[Job],
        cfg: &BackfillConfig,
        report: &mut ScheduleReport,
    ) {
        let job = &jobs[q.job];
        let nodes = job.nodes.min(cfg.nodes);
        debug_assert!(nodes <= self.free);
        self.free -= nodes;
        self.part_busy[q.part as usize] += nodes;

        if cfg.audit.enabled() {
            self.cursor.forget(job.id.0);
            cfg.audit.record(
                now.as_micros(),
                job.id.0,
                q.est,
                Decision::Started { nodes },
            );
        }

        // Jobs die at their walltime limit, as on every production RM.
        let killed = job.actual_runtime > q.limit;
        let run = if killed { q.limit } else { job.actual_runtime };
        let occupied = cfg.dispatch.occupation(nodes, run);
        let planned = cfg.dispatch.occupation(nodes, q.limit);

        // Root-only dispatch trace: queue wait is submission→start, processing
        // is the modelled launch overhead, so `eslurm critical-path` can rank
        // scheduler-level dispatches alongside the RM broadcast trees.
        cfg.obs.causal_root(
            obs::FlowKind::Dispatch,
            0,
            q.original_submit.as_micros(),
            (now - q.original_submit).as_micros(),
            cfg.dispatch.launch(nodes).as_micros(),
        );

        report.occupied_node_secs += nodes as f64 * occupied.as_secs_f64();

        let run = self.running.insert(
            now + planned,
            Running {
                nodes,
                job_id: job.id.0,
                part: q.part,
            },
        );
        events.push(
            now + occupied,
            Ev::End {
                run,
                queued: q,
                started: now,
                killed,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{OracleLimit, UserLimit};
    use crate::priority::MultifactorPriority;
    use proptest::prelude::*;
    use workload::{JobId, TraceConfig, UserId};

    fn job(id: u64, nodes: u32, submit_s: u64, runtime_s: u64, est_s: u64) -> Job {
        Job {
            id: JobId(id),
            name: format!("j{id}"),
            user: UserId(0),
            nodes,
            cores_per_node: 1,
            submit: SimTime::from_secs(submit_s),
            user_estimate: Some(SimSpan::from_secs(est_s)),
            actual_runtime: SimSpan::from_secs(runtime_s),
        }
    }

    fn zero_overhead(nodes: u32) -> BackfillConfig {
        BackfillConfig {
            dispatch: DispatchModel {
                dispatch: SimSpan::ZERO,
                dispatch_per_node: SimSpan::ZERO,
                cleanup: SimSpan::ZERO,
                cleanup_per_node: SimSpan::ZERO,
            },
            ..BackfillConfig::new(nodes)
        }
    }

    #[test]
    fn fifo_when_no_backfill_possible() {
        // Two full-cluster jobs: strictly sequential.
        let jobs = vec![job(0, 4, 0, 100, 200), job(1, 4, 0, 100, 200)];
        let r = simulate(&jobs, &mut UserLimit::default(), &zero_overhead(4));
        assert_eq!(r.completed, 2);
        assert_eq!(r.makespan, SimTime::from_secs(200));
        // Second job waited 100 s.
        assert_eq!(r.total_wait, SimSpan::from_secs(100));
    }

    #[test]
    fn backfill_lets_short_job_jump_without_delaying_head() {
        // t=0: big job takes all 4 nodes for 100 s.
        // t=1: another 4-node job queues (head, reserved at t=100).
        // t=2: a 1-node 50 s job arrives — it fits before the reservation
        //      and must backfill... but 0 nodes are free while the big job
        //      runs, so it cannot. Give the first job 3 nodes instead.
        let jobs = vec![
            job(0, 3, 0, 100, 100),
            job(1, 4, 1, 100, 100),
            job(2, 1, 2, 50, 50),
        ];
        let r = simulate(&jobs, &mut UserLimit::default(), &zero_overhead(4));
        assert_eq!(r.completed, 3);
        // Job 2 backfills at t=2 on the free node, done by t=52 < 100.
        // Head (job 1) starts at t=100: wait 99. Job 2 wait: 0.
        assert_eq!(r.total_wait, SimSpan::from_secs(99));
        assert_eq!(r.makespan, SimTime::from_secs(200));
    }

    #[test]
    fn backfill_does_not_delay_reserved_head() {
        // A long job that WOULD delay the head must not backfill.
        let jobs = vec![
            job(0, 3, 0, 100, 100),
            job(1, 4, 1, 100, 100),
            job(2, 1, 2, 500, 500), // too long to finish before t=100
        ];
        let r = simulate(&jobs, &mut UserLimit::default(), &zero_overhead(4));
        // Head starts at t=100 (wait 99); job 2 runs after at t=200 (the
        // extra-nodes condition fails because head needs the whole
        // cluster).
        assert_eq!(r.completed, 3);
        assert_eq!(r.makespan, SimTime::from_secs(700));
    }

    #[test]
    fn extra_nodes_backfill_allows_long_narrow_jobs() {
        // Head needs 2 of 4 nodes; a long 1-node job can run on the spare
        // capacity without delaying it.
        let jobs = vec![
            job(0, 4, 0, 100, 100),
            job(1, 2, 1, 100, 100),   // head after job0
            job(2, 1, 2, 1000, 1000), // narrow + long
        ];
        let r = simulate(&jobs, &mut UserLimit::default(), &zero_overhead(4));
        assert_eq!(r.completed, 3);
        // Job 2 starts right when job 0 ends (t=100) alongside the head,
        // running on the spare two nodes until t=1100.
        assert_eq!(r.makespan, SimTime::from_secs(1100));
    }

    #[test]
    fn kill_at_limit_and_resubmit() {
        // Job underestimates: killed at 50 s, resubmitted with 100 s limit,
        // completes on the second attempt.
        let jobs = vec![job(0, 1, 0, 80, 50)];
        let r = simulate(&jobs, &mut UserLimit::default(), &zero_overhead(2));
        assert_eq!(r.killed, 1);
        assert_eq!(r.completed, 1);
        assert_eq!(r.abandoned, 0);
        // 50 wasted + 80 useful node-seconds occupied.
        assert!((r.occupied_node_secs - 130.0).abs() < 1e-6);
        assert!((r.useful_node_secs - 80.0).abs() < 1e-6);
    }

    #[test]
    fn chronic_underestimate_is_abandoned() {
        let jobs = vec![job(0, 1, 0, 10_000, 1)];
        let mut cfg = zero_overhead(1);
        cfg.max_resubmits = 2;
        let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
        // Limits 1, 2, 4 — all kills, then abandoned.
        assert_eq!(r.killed, 3);
        assert_eq!(r.abandoned, 1);
        assert_eq!(r.completed, 0);
    }

    #[test]
    fn oracle_limits_avoid_kills() {
        let jobs = TraceConfig::small(300, 17).generate();
        let r = simulate(&jobs, &mut OracleLimit, &BackfillConfig::new(1024));
        assert_eq!(r.killed, 0);
        assert_eq!(r.completed, 300);
    }

    #[test]
    fn dispatch_overhead_inflates_occupation() {
        let mut cfg = zero_overhead(1);
        cfg.dispatch = DispatchModel {
            dispatch: SimSpan::from_secs(5),
            dispatch_per_node: SimSpan::ZERO,
            cleanup: SimSpan::from_secs(5),
            cleanup_per_node: SimSpan::ZERO,
        };
        let jobs = vec![job(0, 1, 0, 100, 200)];
        let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
        assert!((r.occupied_node_secs - 110.0).abs() < 1e-6);
        assert_eq!(r.makespan, SimTime::from_secs(110));
    }

    #[test]
    fn rm_outage_delays_scheduling() {
        let mut cfg = zero_overhead(4);
        cfg.rm_outages = vec![(SimTime::from_secs(10), SimSpan::from_secs(100))];
        // Job arrives during the outage; it can only start once the RM is
        // back at t=110.
        let jobs = vec![job(0, 1, 50, 10, 20)];
        let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
        assert_eq!(r.completed, 1);
        assert_eq!(r.total_wait, SimSpan::from_secs(60));
    }

    #[test]
    fn arrival_then_rm_up_then_end_at_one_instant() {
        // At t=100 job 1 arrives, the RM comes back from [50, 100) and job
        // 0 ends. The arrival goes first, so job 1 queues behind a busy
        // node and is handed the node only when the end releases it.
        struct Log(Vec<String>);
        impl LimitPolicy for Log {
            fn limit(&mut self, job: &Job) -> SimSpan {
                self.0.push(format!("limit {}", job.id.0));
                job.user_estimate.expect("test jobs carry an estimate")
            }
            fn on_complete(&mut self, job: &Job, now: SimTime) {
                self.0
                    .push(format!("complete {} @{}", job.id.0, now.as_secs()));
            }
            fn name(&self) -> String {
                "log".into()
            }
        }
        let jobs = vec![job(0, 1, 0, 100, 100), job(1, 1, 100, 10, 10)];
        let mut cfg = zero_overhead(1);
        cfg.rm_outages = vec![(SimTime::from_secs(50), SimSpan::from_secs(50))];
        cfg.audit = DecisionLog::unbounded();
        let mut log = Log(Vec::new());
        let r = simulate(&jobs, &mut log, &cfg);
        assert_eq!(
            log.0,
            ["limit 0", "limit 1", "complete 0 @100", "complete 1 @110"]
        );
        let decisions: Vec<(u64, Decision)> = cfg
            .audit
            .for_job(1)
            .into_iter()
            .map(|r| (r.t_us / 1_000_000, r.decision))
            .collect();
        assert_eq!(
            decisions,
            [
                (100, Decision::Submitted),
                (100, Decision::HeadOfQueue),
                (
                    100,
                    Decision::ReservationPlaced {
                        at_us: 100_000_000,
                        blockers: vec![0]
                    }
                ),
                (100, Decision::Started { nodes: 1 }),
                (110, Decision::Completed { est_error_us: 0 }),
            ]
        );
        assert_eq!((r.completed, r.total_wait), (2, SimSpan::ZERO));
        assert_eq!(r.makespan, SimTime::from_secs(110));
    }

    #[test]
    fn oversized_jobs_clamp_to_cluster() {
        // A job requesting more nodes than exist still runs (clamped),
        // rather than deadlocking the queue.
        let jobs = vec![job(0, 100, 0, 10, 20)];
        let r = simulate(&jobs, &mut UserLimit::default(), &zero_overhead(4));
        assert_eq!(r.completed, 1);
    }

    #[test]
    fn per_user_stats_accumulate() {
        let jobs = TraceConfig::small(400, 71).generate();
        let r = simulate(&jobs, &mut UserLimit::default(), &BackfillConfig::new(256));
        let total: usize = r.per_user.values().map(|(n, _)| n).sum();
        assert_eq!(total, r.completed);
        assert!(r.wait_unfairness() >= 1.0);
        assert!(!r.user_mean_waits().is_empty());
    }

    #[test]
    fn utilization_saturates_under_load() {
        let jobs: Vec<Job> = (0..200).map(|i| job(i, 1, 0, 1000, 1500)).collect();
        let r = simulate(&jobs, &mut UserLimit::default(), &zero_overhead(50));
        // 200 jobs × 1000 s on 50 nodes = 4 batches, fully packed.
        assert!(r.utilization() > 0.99, "{}", r.utilization());
        assert_eq!(r.completed, 200);
    }

    #[test]
    fn fcfs_never_backfills() {
        // The EASY backfill scenario: under FCFS the short job must wait
        // behind the blocked head instead of jumping ahead.
        let jobs = vec![
            job(0, 3, 0, 100, 100),
            job(1, 4, 1, 100, 100),
            job(2, 1, 2, 50, 50),
        ];
        let mut cfg = zero_overhead(4);
        cfg.algo = SchedAlgo::Fcfs;
        let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
        assert_eq!(r.completed, 3);
        // Job 2 runs only after the head (100..200): total waits 99 + 198.
        assert_eq!(r.total_wait, SimSpan::from_secs(99 + 198));
    }

    #[test]
    fn conservative_backfills_harmless_jobs() {
        // Same scenario: the 50 s job delays nobody, so conservative
        // backfill starts it immediately, like EASY.
        let jobs = vec![
            job(0, 3, 0, 100, 100),
            job(1, 4, 1, 100, 100),
            job(2, 1, 2, 50, 50),
        ];
        let mut cfg = zero_overhead(4);
        cfg.algo = SchedAlgo::Conservative;
        let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
        assert_eq!(r.completed, 3);
        assert_eq!(r.total_wait, SimSpan::from_secs(99));
    }

    #[test]
    fn conservative_respects_all_reservations() {
        // Queue: head B needs the whole cluster (reserved at t=100);
        // C (2 nodes, 100 s) is reserved right after B; a 1-node job D
        // with a 250 s limit would fit the idle node now under EASY's
        // extra-node rule only if it spares the head — but it would push
        // C's reservation back, which conservative backfill must refuse.
        let jobs = vec![
            job(0, 3, 0, 100, 100), // running
            job(1, 4, 1, 100, 100), // head, reserved [100, 200)
            job(2, 2, 2, 100, 100), // reserved [200, 300)
            job(3, 1, 3, 250, 250), // would overlap C's reservation
        ];
        let mut cfg = zero_overhead(4);
        cfg.algo = SchedAlgo::Conservative;
        let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
        assert_eq!(r.completed, 4);
        // D fits alongside C at t=200 (C takes 2 nodes of 4, D takes 1):
        // waits: B 99, C 198, D 197.
        assert_eq!(r.total_wait, SimSpan::from_secs(99 + 198 + 197));
    }

    #[test]
    fn algorithms_conserve_jobs_on_random_traces() {
        let jobs = TraceConfig::small(800, 61).generate();
        for algo in [SchedAlgo::Fcfs, SchedAlgo::Easy, SchedAlgo::Conservative] {
            let mut cfg = BackfillConfig::new(256);
            cfg.algo = algo;
            let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
            assert_eq!(r.completed + r.abandoned, 800, "{algo:?}");
        }
    }

    #[test]
    fn backfilling_beats_fcfs_on_wait() {
        let jobs = TraceConfig::small(1200, 62).generate();
        let wait_for = |algo| {
            let mut cfg = BackfillConfig::new(128);
            cfg.algo = algo;
            simulate(&jobs, &mut UserLimit::default(), &cfg).avg_wait()
        };
        let fcfs = wait_for(SchedAlgo::Fcfs);
        let easy = wait_for(SchedAlgo::Easy);
        assert!(easy < fcfs, "EASY {easy} should beat FCFS {fcfs}");
    }

    #[test]
    fn better_estimates_dont_hurt_throughput() {
        let jobs = TraceConfig::small(1500, 23).generate();
        let cfg = BackfillConfig::new(256);
        let user = simulate(&jobs, &mut UserLimit::default(), &cfg);
        let oracle = simulate(&jobs, &mut OracleLimit, &cfg);
        assert!(oracle.avg_wait() <= user.avg_wait().mul_f64(1.2));
        assert_eq!(oracle.killed, 0);
    }

    /// The planner driven by hand, one pass at a time, so a test can look
    /// at the state between passes.
    struct Planner<'a> {
        st: SchedState,
        events: EventQueue<Ev>,
        report: ScheduleReport,
        jobs: &'a [Job],
        cfg: &'a BackfillConfig,
    }

    impl<'a> Planner<'a> {
        fn new(jobs: &'a [Job], cfg: &'a BackfillConfig) -> Self {
            Planner {
                st: SchedState::new(cfg),
                events: EventQueue::new(),
                report: ScheduleReport::default(),
                jobs,
                cfg,
            }
        }

        /// Queue `jobs[i]` at its own estimate.
        fn submit(&mut self, i: usize) {
            let job = &self.jobs[i];
            let limit = job.user_estimate.expect("test jobs carry an estimate");
            self.st.enqueue(
                self.cfg,
                job.nodes.min(self.cfg.nodes),
                Queued {
                    job: i,
                    limit,
                    resubmits: 0,
                    original_submit: job.submit,
                    est: EstimateRef::new(limit.as_micros(), EstSource::User),
                    part: 0,
                    prio_milli: 0,
                    logged_prio: i64::MIN,
                },
            );
        }

        fn pass(&mut self, now: SimTime) {
            self.st
                .schedule(now, &mut self.events, self.jobs, self.cfg, &mut self.report);
        }

        /// Release the nodes of the next job to end; returns when.
        fn next_end(&mut self) -> SimTime {
            match self.events.pop() {
                Some((now, Ev::End { run, .. })) => {
                    self.st.release(run);
                    now
                }
                _ => panic!("no job is running"),
            }
        }

        /// Ids of the queued jobs, front to back.
        fn queued(&self) -> Vec<u64> {
            let q = &self.st.queue;
            (q.head..q.keys.len())
                .filter(|&i| q.keys[i].is_live())
                .map(|i| self.jobs[q.recs[i].job].id.0)
                .collect()
        }
    }

    fn started_at(log: &DecisionLog, job: u64) -> Vec<u64> {
        log.for_job(job)
            .iter()
            .filter(|r| matches!(r.decision, Decision::Started { .. }))
            .map(|r| r.t_us / 1_000_000)
            .collect()
    }

    #[test]
    fn a_pass_cut_short_at_zero_free_nodes_loses_nothing() {
        // Job 0 holds the whole cluster; every pass until it ends stops
        // before looking at a single candidate. The release at t=100 must
        // still start the head and the narrow job behind it.
        let jobs = vec![
            job(0, 4, 0, 100, 100),
            job(1, 2, 1, 100, 100),
            job(2, 1, 2, 10, 10),
        ];
        let mut cfg = zero_overhead(4);
        let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
        assert_eq!(r.completed, 3);
        assert_eq!(r.total_wait, SimSpan::from_secs(99 + 98));
        assert_eq!(r.makespan, SimTime::from_secs(200));
        // An audited pass reads on past the cut, to the same outcome, and
        // logs the verdict the cut stands for.
        cfg.audit = DecisionLog::unbounded();
        let audited = simulate(&jobs, &mut UserLimit::default(), &cfg);
        assert_eq!(format!("{audited:?}"), format!("{r:?}"));
        assert_eq!(started_at(&cfg.audit, 1), [100]);
        assert_eq!(started_at(&cfg.audit, 2), [100]);
        let skipped = |job| {
            cfg.audit.for_job(job).iter().any(|r| {
                r.decision
                    == Decision::SkippedBackfill {
                        reason: SkipReason::NoFreeNodes,
                    }
            })
        };
        assert!(!skipped(1), "the head is never a backfill candidate");
        assert!(skipped(2));
    }

    #[test]
    fn tombstones_never_surface() {
        // 0 runs; 1 is a blocked head; 2 and 3 backfill from the middle of
        // the queue and leave tombstones between the head and 4.
        let jobs = vec![
            job(0, 6, 0, 100, 100),
            job(1, 8, 0, 100, 100),
            job(2, 1, 0, 50, 50),
            job(3, 1, 0, 50, 50),
            job(4, 4, 0, 500, 500),
        ];
        for algo in [SchedAlgo::Easy, SchedAlgo::Conservative] {
            let mut cfg = zero_overhead(8);
            cfg.algo = algo;
            cfg.obs = Recorder::full();
            let mut p = Planner::new(&jobs, &cfg);
            (0..jobs.len()).for_each(|i| p.submit(i));
            p.pass(SimTime::ZERO);
            assert_eq!(p.queued(), [1, 4], "{algo:?}");
            assert_eq!(p.st.queue.keys.len(), 5, "{algo:?}: nothing shifted");
            assert_eq!(cfg.obs.gauge(Gauge::QueueDepth), 2, "{algo:?}");
            assert_eq!(cfg.obs.gauge(Gauge::JobsRunning), 3, "{algo:?}");
            // Conservative: one reservation per queued job, none for a
            // tombstone.
            let reservations = if algo == SchedAlgo::Easy { 1 } else { 2 };
            assert_eq!(cfg.obs.gauge(Gauge::Reservations), reservations);

            // 2 and 3 end at t=50 and free two nodes: nothing fits.
            assert_eq!(p.next_end(), SimTime::from_secs(50));
            assert_eq!(p.next_end(), SimTime::from_secs(50));
            p.pass(SimTime::from_secs(50));
            assert_eq!(p.queued(), [1, 4], "{algo:?}");

            // 0 ends: the head starts, and the new head is 4, not a
            // tombstone.
            let now = p.next_end();
            p.pass(now);
            assert_eq!(p.queued(), [4], "{algo:?}");
            let (key, head) = p.st.queue.front().expect("4 is queued");
            assert!(key.is_live());
            assert_eq!(jobs[head.job].id.0, 4);
            assert_eq!(cfg.obs.gauge(Gauge::QueueDepth), 1, "{algo:?}");
            assert_eq!(cfg.obs.gauge(Gauge::Reservations), 1, "{algo:?}");
            assert_eq!(p.st.free, 0);
        }
    }

    /// Whether EASY's start test could pass for `k` (a capped partition
    /// may still turn it down): the keys a block walk must not step over.
    fn may_start(k: &ScanKey, free: u32, extra: u32, budget: SimSpan) -> bool {
        k.is_live() && k.width <= free && (k.width <= extra || k.occupied <= budget)
    }

    /// Every index a full walk from `i` stops at, as `easy_pass` takes
    /// it; fails on a stepped-over key that could start.
    fn walk(
        q: &Queue,
        mut i: usize,
        free: u32,
        extra: u32,
        budget: SimSpan,
        audit: bool,
    ) -> Vec<usize> {
        let mut stops = Vec::new();
        loop {
            let next = q.next_candidate(i, free, extra, budget, audit);
            let upto = next.unwrap_or(q.keys.len());
            if let Some(k) = q.keys[i..upto]
                .iter()
                .find(|k| may_start(k, free, extra, budget))
            {
                panic!(
                    "stepped over a width-{} key occupying {:?} (free {free}, extra {extra}, budget {budget:?})",
                    k.width, k.occupied
                );
            }
            let Some(next) = next else { return stops };
            stops.push(next);
            i = next + 1;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Random queues (0-node and cluster-wide jobs among them) through
        /// pushes, takes, compactions, audit markers and multifactor
        /// permutes. After every mutation each block summary equals one
        /// rebuilt from its keys; at every step, for a random `(free,
        /// extra, shadow − now)`, an unaudited walk steps over no key that
        /// could start, and an audited walk stops exactly where a linear
        /// scan of the keys does.
        #[test]
        fn block_walk_never_skips_a_startable_key(
            nodes in 1u32..200,
            ops in prop::collection::vec(
                (0u8..10, any::<u32>(), 0u64..4_000, (any::<u32>(), any::<u32>(), 0u64..5_000)),
                1..500,
            ),
        ) {
            let mut cfg = zero_overhead(nodes);
            cfg.policies =
                SchedPolicies::default().with_priority(MultifactorPriority::slurm_default());
            let mut jobs: Vec<Job> = Vec::new();
            let mut q = Queue::default();
            let mut now = 0u64;
            for (op, pick, span, (free, extra, budget)) in ops {
                match op {
                    // Push: a cluster-wide, a 0-node or an arbitrary width.
                    0..=3 => {
                        let width = match pick % 8 {
                            0 => nodes,
                            1 => 0,
                            _ => pick % (nodes + 1),
                        };
                        let id = jobs.len();
                        jobs.push(job(id as u64, width, now, span, span));
                        let key = ScanKey {
                            occupied: SimSpan::from_secs(span),
                            width,
                            last_skip: None,
                        };
                        q.push(
                            key,
                            Queued {
                                job: id,
                                limit: SimSpan::from_secs(span),
                                resubmits: 0,
                                original_submit: SimTime::from_secs(now),
                                est: EstimateRef::new(0, EstSource::User),
                                part: 0,
                                prio_milli: 0,
                                logged_prio: i64::MIN,
                            },
                        );
                    }
                    // Take a live entry.
                    4 | 5 if q.len() > 0 => {
                        let live: Vec<usize> =
                            (q.head..q.keys.len()).filter(|&i| q.keys[i].is_live()).collect();
                        q.take(live[pick as usize % live.len()]);
                    }
                    6 => q.tidy(),
                    7 if q.keys.len() > q.live => q.compact(),
                    // A logged `NoFreeNodes` verdict: read by audited walks.
                    8 if !q.keys.is_empty() => {
                        let i = pick as usize % q.keys.len();
                        if q.keys[i].is_live() {
                            q.keys[i].last_skip = Some(SkipReason::NoFreeNodes);
                        }
                    }
                    // Time passes and the queue is re-ranked.
                    _ => {
                        now += span;
                        q.reorder_by_priority(SimTime::from_secs(now), &jobs, &cfg);
                    }
                }
                let rebuilt: Vec<Block> = q.keys.chunks(BLOCK).map(Block::of).collect();
                prop_assert!(q.blocks == rebuilt, "summaries drifted after op {op}");

                let free = free % (nodes + 2);
                let extra = extra % (nodes + 2);
                let budget = match budget {
                    0 => SimSpan(u64::MAX),
                    s => SimSpan::from_secs(s),
                };
                let from = (pick as usize) % (q.keys.len() + 1);
                walk(&q, from, free, extra, budget, false);
                let linear: Vec<usize> = (from..q.keys.len())
                    .filter(|&i| {
                        let k = &q.keys[i];
                        k.width <= free || k.last_skip != Some(SkipReason::NoFreeNodes)
                    })
                    .collect();
                prop_assert_eq!(walk(&q, from, free, extra, budget, true), linear);
            }
        }
    }

    #[test]
    fn resubmission_joins_the_back_after_compaction() {
        let jobs: Vec<Job> = (0..60)
            .map(|i| job(i, 1 + i as u32 % 7, 0, 10, 10))
            .collect();
        let cfg = zero_overhead(64);
        let mut p = Planner::new(&jobs, &cfg);
        (0..jobs.len()).for_each(|i| p.submit(i));
        // Take the head, then every entry that is not a multiple of three.
        let q = &mut p.st.queue;
        let killed = q.take(0);
        for i in (1..60).filter(|i| i % 3 != 0) {
            q.take(i);
        }
        assert_eq!(q.head, 3);
        assert_eq!(q.keys.len(), 60);
        q.tidy();
        assert_eq!((q.head, q.keys.len(), q.len()), (0, 19, 19));
        // Exact again: the narrowest survivor is job 21 (width 1).
        assert_eq!(q.narrowest, 1);
        p.st.enqueue(&cfg, 1, killed);
        let want: Vec<u64> = (3..60).step_by(3).chain([0]).collect();
        assert_eq!(p.queued(), want);
    }

    #[test]
    fn equal_planned_ends_keep_a_fixed_order() {
        // 9 (1 node) and 3 (3 nodes) start together and plan to end
        // together, 9 in the lower slot. The head (7) needs four of six
        // nodes with two free: walking 9 then 3 reaches four nodes at job
        // 3 with two to spare, so the long two-node job 8 may ride the
        // spare nodes. (Walking 3 first would leave one.)
        let jobs = vec![
            job(9, 1, 0, 100, 100),
            job(3, 3, 0, 100, 100),
            job(7, 4, 1, 50, 50),
            job(8, 2, 2, 1000, 1000),
        ];
        let mut cfg = zero_overhead(6);
        cfg.audit = DecisionLog::unbounded();
        simulate(&jobs, &mut UserLimit::default(), &cfg);
        assert_eq!(started_at(&cfg.audit, 8), [2]);
        // The reservation names its blockers by (planned end, job id),
        // whatever their slots.
        let blockers: Vec<Vec<u64>> = cfg
            .audit
            .for_job(7)
            .into_iter()
            .filter_map(|r| match r.decision {
                Decision::ReservationPlaced { at_us, blockers } => {
                    assert_eq!(at_us, 100_000_000);
                    Some(blockers)
                }
                _ => None,
            })
            .collect();
        assert_eq!(blockers, [vec![3, 9]]);
    }

    #[test]
    fn accuracy_series_reach_the_metrics_registry() {
        // One chronic underestimate (killed, then resubmitted to
        // completion) and one overestimate: the prediction-vs-actual joins
        // must land in the labeled registry the sampler snapshots.
        let jobs = vec![job(0, 2, 0, 300, 100), job(1, 2, 0, 100, 200)];
        let mut cfg = zero_overhead(4);
        cfg.obs = Recorder::full();
        let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
        assert!(r.killed >= 1, "scenario must kill the underestimate");
        assert_eq!(r.completed, 2);
        let snap = cfg.obs.labeled_snapshot();
        let has = |name: &str| snap.iter().any(|(id, _)| id.name() == name);
        assert!(has("est_underestimates"));
        assert!(has("est_overestimates"));
        assert!(has("est_kills"));
        assert!(has("est_abs_err_s"));
        // Every accuracy series carries a source attribution label.
        for (id, _) in snap.iter().filter(|(id, _)| id.name().starts_with("est_")) {
            assert!(
                id.labels()
                    .iter()
                    .any(|(k, _)| *k == "source" || *k == "cluster"),
                "{} lost its attribution label",
                id.name()
            );
        }
    }
}
