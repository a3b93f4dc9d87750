//! Differential oracle for the scheduling planner.
//!
//! `sched::simulate` plans from a width-keyed scan over a tombstoned queue
//! and an ordered set of planned ends. This file keeps the straightforward
//! planner it replaced — a plain `Vec` queue scanned in full, running
//! slots collected and sorted on every pass — as a reference simulator
//! built from the public API only, and checks on small clusters that both
//! produce the same `ScheduleReport` (every field, floats by bits) **and**
//! the same decision-log JSONL, for every algorithm × uniform/multifactor
//! priority × an RM outage window.
//!
//! Slow in debug builds, where it shrinks itself to a smoke run; CI runs
//! the full suite with `--release`.

use eslurm_suite::obs::audit::{Decision, DecisionLog, EstimateRef, SkipReason};
use eslurm_suite::sched::prelude::{
    bounded_slowdown, simulate, AvailabilityProfile, BackfillConfig, DispatchModel, FactorCtx,
    FairShareLedger, LimitInfo, LimitPolicy, MultifactorPriority, SchedAlgo, SchedPolicies,
    ScheduleReport, UserLimit,
};
use eslurm_suite::simclock::{EventQueue, SimSpan, SimTime};
use eslurm_suite::workload::{Job, JobId, UserId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

// ---------------------------------------------------------------------
// The reference: one queue `Vec`, one `Vec` of running slots, every pass
// looks at everything.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Q {
    job: usize,
    limit: SimSpan,
    resubmits: u32,
    est: EstimateRef,
    last_skip: Option<SkipReason>,
    prio: i64,
    logged_prio: i64,
}

#[derive(Clone, Copy)]
struct R {
    nodes: u32,
    planned_end: SimTime,
    job_id: u64,
}

enum Ev {
    Arrive(usize),
    End {
        slot: usize,
        q: Q,
        started: SimTime,
        killed: bool,
    },
    RmUp,
}

struct Reference<'a> {
    jobs: &'a [Job],
    cfg: &'a BackfillConfig,
    free: u32,
    queue: Vec<Q>,
    running: Vec<Option<R>>,
    events: EventQueue<Ev>,
    report: ScheduleReport,
    last_head: Option<u64>,
    last_resv: Option<(u64, u64)>,
}

impl Reference<'_> {
    fn log(&self, now: SimTime, job: &Job, est: EstimateRef, d: Decision) {
        self.cfg.audit.record(now.as_micros(), job.id.0, est, d);
    }

    fn forget(&mut self, job_id: u64) {
        if self.last_head == Some(job_id) {
            self.last_head = None;
        }
        if self.last_resv.is_some_and(|(j, _)| j == job_id) {
            self.last_resv = None;
        }
    }

    fn width(&self, q: &Q) -> u32 {
        self.jobs[q.job].nodes.min(self.cfg.nodes)
    }

    fn skip(&mut self, now: SimTime, i: usize, reason: SkipReason) {
        if self.queue[i].last_skip != Some(reason) {
            self.queue[i].last_skip = Some(reason);
            let q = self.queue[i];
            self.log(
                now,
                &self.jobs[q.job],
                q.est,
                Decision::SkippedBackfill { reason },
            );
        }
    }

    fn blockers(&self, until: SimTime) -> Vec<u64> {
        let mut b: Vec<(SimTime, u64)> = self
            .running
            .iter()
            .flatten()
            .filter(|r| r.planned_end <= until)
            .map(|r| (r.planned_end, r.job_id))
            .collect();
        b.sort();
        b.into_iter().map(|(_, id)| id).collect()
    }

    fn head_and_reservation(&mut self, now: SimTime, head: Q, at: SimTime) {
        let job = &self.jobs[head.job];
        if self.last_head != Some(job.id.0) {
            self.last_head = Some(job.id.0);
            self.log(now, job, head.est, Decision::HeadOfQueue);
        }
        if at != SimTime(u64::MAX) && self.last_resv != Some((job.id.0, at.as_micros())) {
            self.last_resv = Some((job.id.0, at.as_micros()));
            let blockers = self.blockers(at);
            self.log(
                now,
                job,
                head.est,
                Decision::ReservationPlaced {
                    at_us: at.as_micros(),
                    blockers,
                },
            );
        }
    }

    fn start(&mut self, now: SimTime, q: Q) {
        let job = &self.jobs[q.job];
        let nodes = self.width(&q);
        self.free -= nodes;
        self.forget(job.id.0);
        self.log(now, job, q.est, Decision::Started { nodes });
        let killed = job.actual_runtime > q.limit;
        let run = if killed { q.limit } else { job.actual_runtime };
        let occupied = self.cfg.dispatch.occupation(nodes, run);
        self.report.occupied_node_secs += nodes as f64 * occupied.as_secs_f64();
        let r = R {
            nodes,
            planned_end: now + self.cfg.dispatch.occupation(nodes, q.limit),
            job_id: job.id.0,
        };
        let slot = match self.running.iter().position(|r| r.is_none()) {
            Some(s) => s,
            None => {
                self.running.push(None);
                self.running.len() - 1
            }
        };
        self.running[slot] = Some(r);
        self.events.push(
            now + occupied,
            Ev::End {
                slot,
                q,
                started: now,
                killed,
            },
        );
    }

    fn reorder(&mut self, now: SimTime) {
        let pol = &self.cfg.policies;
        if pol.priority.is_uniform() || self.queue.is_empty() {
            return;
        }
        let ctx = |q: &Q| FactorCtx {
            now,
            submit: self.jobs[q.job].submit,
            cluster_nodes: self.cfg.nodes,
            fairshare: &pol.fairshare,
        };
        for i in 0..self.queue.len() {
            let q = self.queue[i];
            self.queue[i].prio = pol.priority.priority_milli(&self.jobs[q.job], &ctx(&q));
        }
        self.queue.sort_by_key(|q| std::cmp::Reverse(q.prio));
        let mut shares = Vec::new();
        for rank in 0..self.queue.len() {
            let q = self.queue[rank];
            if q.logged_prio != i64::MIN
                && (q.prio - q.logged_prio).abs() < (q.logged_prio.abs() / 64).max(1)
            {
                continue;
            }
            pol.priority
                .score_into(&self.jobs[q.job], &ctx(&q), &mut shares);
            self.queue[rank].logged_prio = q.prio;
            self.log(
                now,
                &self.jobs[q.job],
                q.est,
                Decision::PriorityRanked {
                    priority_milli: q.prio,
                    rank: rank as u32,
                    factors: shares.clone(),
                },
            );
        }
    }

    /// The planner: one pass over everything.
    fn schedule(&mut self, now: SimTime) {
        self.reorder(now);
        while let Some(&head) = self.queue.first() {
            let nodes = self.width(&head);
            if nodes > self.free {
                break;
            }
            self.queue.remove(0);
            self.start(now, head);
        }
        match self.cfg.algo {
            SchedAlgo::Fcfs => {}
            SchedAlgo::Easy => self.easy(now),
            SchedAlgo::Conservative => self.conservative(now),
        }
    }

    fn easy(&mut self, now: SimTime) {
        let Some(&head) = self.queue.first() else {
            return;
        };
        let head_nodes = self.width(&head);
        let mut ends: Vec<R> = self.running.iter().flatten().copied().collect();
        ends.sort_by_key(|r| r.planned_end);
        let mut acc = self.free;
        let (mut shadow, mut extra) = (SimTime(u64::MAX), 0);
        for r in ends {
            acc += r.nodes;
            if acc >= head_nodes {
                (shadow, extra) = (r.planned_end, acc - head_nodes);
                break;
            }
        }
        self.head_and_reservation(now, head, shadow);
        let mut i = 1;
        while i < self.queue.len() {
            let cand = self.queue[i];
            let nodes = self.width(&cand);
            if nodes > self.free {
                self.skip(now, i, SkipReason::NoFreeNodes);
            } else {
                let done = now + self.cfg.dispatch.occupation(nodes, cand.limit);
                if done <= shadow || nodes <= extra {
                    self.queue.remove(i);
                    self.log(
                        now,
                        &self.jobs[cand.job],
                        cand.est,
                        Decision::Backfilled {
                            slack_us: shadow.as_micros().saturating_sub(done.as_micros()),
                            head_job: self.jobs[head.job].id.0,
                        },
                    );
                    self.start(now, cand);
                    if done > shadow {
                        extra -= nodes;
                    }
                    continue;
                }
                self.skip(now, i, SkipReason::WouldDelayHead);
            }
            i += 1;
        }
    }

    fn conservative(&mut self, now: SimTime) {
        let mut profile = AvailabilityProfile::new(now, self.cfg.nodes);
        for r in self.running.iter().flatten() {
            let end = r.planned_end.max(now + SimSpan::from_micros(1));
            profile.reserve(now, end, r.nodes);
        }
        let mut i = 0;
        while i < self.queue.len() {
            let q = self.queue[i];
            let nodes = self.width(&q);
            let occupied = self.cfg.dispatch.occupation(nodes, q.limit);
            let at = profile.earliest_fit(now, nodes, occupied);
            profile.reserve(at, at + occupied, nodes);
            if at == now {
                self.queue.remove(i);
                if i > 0 {
                    let head_job = self.jobs[self.queue[0].job].id.0;
                    self.log(
                        now,
                        &self.jobs[q.job],
                        q.est,
                        Decision::Backfilled {
                            slack_us: 0,
                            head_job,
                        },
                    );
                }
                self.start(now, q);
                continue;
            } else if i == 0 {
                self.head_and_reservation(now, q, at);
            } else if nodes > self.free {
                self.skip(now, i, SkipReason::NoFreeNodes);
            } else {
                self.skip(now, i, SkipReason::WouldDelayReservation);
            }
            i += 1;
        }
    }

    fn arrive(&mut self, now: SimTime, i: usize, policy: &mut dyn LimitPolicy) {
        let job = &self.jobs[i];
        let info = policy.limit_info(job);
        self.log(now, job, info.est, Decision::Submitted);
        self.queue.push(Q {
            job: i,
            limit: info.limit,
            resubmits: 0,
            est: info.est,
            last_skip: None,
            prio: 0,
            logged_prio: i64::MIN,
        });
    }

    fn end(
        &mut self,
        now: SimTime,
        r: R,
        q: Q,
        started: SimTime,
        killed: bool,
        policy: &mut dyn LimitPolicy,
    ) {
        self.free += r.nodes;
        let job = &self.jobs[q.job];
        let pol = &self.cfg.policies;
        if pol.fairshare.enabled() {
            let cores = r.nodes as u64 * job.cores_per_node.max(1) as u64;
            pol.fairshare.charge(job.user.0, cores, now - started, now);
        }
        self.report.makespan = self.report.makespan.max(now);
        let est_error_us = q.est.value_us as i64 - job.actual_runtime.as_micros() as i64;
        if !killed {
            let wait = started - job.submit;
            self.report.completed += 1;
            self.report.total_wait += wait;
            let e = self.report.per_user.entry(job.user.0).or_default();
            e.0 += 1;
            e.1 += wait;
            self.report.total_slowdown += bounded_slowdown(wait, job.actual_runtime);
            self.report.useful_node_secs += r.nodes as f64 * job.actual_runtime.as_secs_f64();
            self.log(now, job, q.est, Decision::Completed { est_error_us });
            policy.on_complete(job, now);
            return;
        }
        self.report.killed += 1;
        self.log(
            now,
            job,
            q.est,
            Decision::KilledAtLimit {
                limit_us: q.limit.as_micros(),
                actual_us: job.actual_runtime.as_micros(),
            },
        );
        if q.resubmits >= self.cfg.max_resubmits {
            self.report.abandoned += 1;
            return;
        }
        let prev = LimitInfo {
            limit: q.limit,
            est: q.est,
        };
        let next = policy.resubmit_info(job, prev, q.resubmits + 1);
        self.forget(job.id.0);
        self.log(
            now,
            job,
            next.est,
            Decision::Resubmitted {
                attempt: q.resubmits + 1,
                new_limit_us: next.limit.as_micros(),
            },
        );
        self.queue.push(Q {
            limit: next.limit,
            est: next.est,
            resubmits: q.resubmits + 1,
            last_skip: None,
            ..q
        });
    }
}

fn reference_simulate(
    jobs: &[Job],
    policy: &mut dyn LimitPolicy,
    cfg: &BackfillConfig,
) -> ScheduleReport {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| jobs[i].submit);
    let mut events = EventQueue::new();
    for &i in &order {
        events.push(jobs[i].submit, Ev::Arrive(i));
    }
    for &(at, dur) in &cfg.rm_outages {
        events.push(at + dur, Ev::RmUp);
    }
    let mut s = Reference {
        jobs,
        cfg,
        free: cfg.nodes,
        queue: Vec::new(),
        running: Vec::new(),
        events,
        report: ScheduleReport {
            nodes: cfg.nodes,
            ..Default::default()
        },
        last_head: None,
        last_resv: None,
    };
    while let Some((now, ev)) = s.events.pop() {
        match ev {
            Ev::Arrive(i) => s.arrive(now, i, policy),
            Ev::End {
                slot,
                q,
                started,
                killed,
            } => {
                let r = s.running[slot].take().expect("slot ended twice");
                s.end(now, r, q, started, killed, policy);
            }
            Ev::RmUp => {}
        }
        let down = |&(at, dur): &(SimTime, SimSpan)| now >= at && now < at + dur;
        if !cfg.rm_outages.iter().any(down) {
            s.schedule(now);
        }
    }
    s.report
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// One point of the configuration cross product.
#[derive(Clone, Copy, Debug)]
struct Scenario {
    algo: SchedAlgo,
    multifactor: bool,
    outage: bool,
    /// Launch and teardown cost the same at every width, so jobs of
    /// different widths can plan to end at the same instant (the order of
    /// such ties decides a reservation's spare nodes).
    flat_dispatch: bool,
}

const ALGOS: [SchedAlgo; 3] = [SchedAlgo::Fcfs, SchedAlgo::Easy, SchedAlgo::Conservative];

impl Scenario {
    const COUNT: usize = 24;

    fn all() -> impl Iterator<Item = Scenario> {
        (0..Self::COUNT).map(|i| Scenario {
            algo: ALGOS[i % 3],
            multifactor: i / 3 % 2 == 1,
            outage: i / 6 % 2 == 1,
            flat_dispatch: i / 12 % 2 == 1,
        })
    }

    /// A fresh configuration (the fair-share ledger is shared state, so
    /// each run gets its own).
    fn config(&self, nodes: u32, horizon: SimSpan, audit: DecisionLog) -> BackfillConfig {
        let mut policies = SchedPolicies::default();
        if self.multifactor {
            policies = policies
                .with_priority(MultifactorPriority::slurm_default())
                .with_fairshare(FairShareLedger::new(SimSpan::from_hours(1), 4));
        }
        let rm_outages = if self.outage {
            vec![(SimTime::ZERO + horizon / 3, horizon / 4)]
        } else {
            Vec::new()
        };
        let mut dispatch = DispatchModel::ideal();
        if self.flat_dispatch {
            dispatch.dispatch_per_node = SimSpan::ZERO;
            dispatch.cleanup_per_node = SimSpan::ZERO;
        }
        BackfillConfig {
            algo: self.algo,
            dispatch,
            max_resubmits: 2,
            rm_outages,
            audit,
            policies,
            ..BackfillConfig::new(nodes)
        }
    }
}

/// An overloaded burst of small jobs. Values are drawn from short ladders
/// so equal planned ends, equal widths and same-instant arrivals are
/// common; widths run from 0 to past the cluster size (both clamp edges);
/// a third of the jobs underestimate their runtime (kills, resubmissions)
/// and a fifth give no estimate at all (the policy's default limit).
fn burst(seed: u64, nodes: u32, n: usize) -> (Vec<Job>, SimSpan) {
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon_s = n as u64 * 12;
    let jobs = (0..n)
        .map(|i| {
            let width = match rng.random_range(0..10u32) {
                0..=4 => rng.random_range(1..=3),
                5..=7 => rng.random_range(1..=nodes / 2),
                8 => rng.random_range(nodes / 2..=nodes + 2),
                _ => rng.random_range(0..=1),
            };
            let runtime = 50 * rng.random_range(1..=20u64);
            let user_estimate = match rng.random_range(0..15u32) {
                0..=4 => Some(runtime / 2 + 25),
                5..=11 => Some(runtime * rng.random_range(1..=4u64)),
                _ => None,
            };
            Job {
                id: JobId(i as u64),
                name: format!("j{i}"),
                user: UserId(rng.random_range(0..6)),
                nodes: width,
                cores_per_node: rng.random_range(0..=4),
                submit: SimTime::from_secs(10 * rng.random_range(0..=horizon_s / 10)),
                user_estimate: user_estimate.map(SimSpan::from_secs),
                actual_runtime: SimSpan::from_secs(runtime),
            }
        })
        .collect();
    (jobs, SimSpan::from_secs(horizon_s))
}

fn report_bits(r: &ScheduleReport) -> String {
    format!(
        "{r:?} bits {:x} {:x} {:x}",
        r.occupied_node_secs.to_bits(),
        r.useful_node_secs.to_bits(),
        r.total_slowdown.to_bits()
    )
}

/// Run both planners on one scenario; audited, so the reports are also
/// those of an audited run (non-perturbation is `tests/sched_audit.rs`'s).
fn check(sc: Scenario, seed: u64, nodes: u32, n: usize) {
    let (jobs, horizon) = burst(seed, nodes, n);
    let label = format!("{sc:?} seed={seed} nodes={nodes} jobs={n}");

    let log = DecisionLog::unbounded();
    let cfg = sc.config(nodes, horizon, log.clone());
    let got = simulate(&jobs, &mut UserLimit::default(), &cfg);

    let ref_log = DecisionLog::unbounded();
    let ref_cfg = sc.config(nodes, horizon, ref_log.clone());
    let want = reference_simulate(&jobs, &mut UserLimit::default(), &ref_cfg);

    assert_eq!(got.completed + got.abandoned, n, "{label}: jobs lost");
    assert_eq!(report_bits(&got), report_bits(&want), "{label}: report");
    let (a, b) = (log.to_jsonl(), ref_log.to_jsonl());
    if a != b {
        let line = a.lines().zip(b.lines()).position(|(x, y)| x != y);
        let at = line.unwrap_or(a.lines().count().min(b.lines().count()));
        panic!(
            "{label}: decision logs diverge at record {at}:\n  simulate : {:?}\n  reference: {:?}",
            a.lines().nth(at),
            b.lines().nth(at)
        );
    }

    // The unaudited run takes the pass's early exit; it must land on the
    // same outcome.
    let plain = sc.config(nodes, horizon, DecisionLog::disabled());
    let unaudited = simulate(&jobs, &mut UserLimit::default(), &plain);
    assert_eq!(
        report_bits(&unaudited),
        report_bits(&want),
        "{label}: unaudited report"
    );
}

/// An unoptimized build (tier-1 `cargo test`) runs a smoke-sized suite;
/// the full one is CI's `--release` step.
const FULL: bool = !cfg!(debug_assertions);

#[test]
fn every_configuration_matches_the_reference() {
    for sc in Scenario::all() {
        check(sc, 7, 24, if FULL { 160 } else { 90 });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if FULL { 96 } else { 8 }))]

    #[test]
    fn simulate_matches_the_full_scan_reference(
        seed in any::<u64>(),
        nodes in 8u32..=64,
        n in 50usize..=400,
        scenario in 0..Scenario::COUNT,
    ) {
        check(Scenario::all().nth(scenario).unwrap(), seed, nodes, n);
    }
}
