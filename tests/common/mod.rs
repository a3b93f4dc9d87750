//! What the DES integration suites share: the fixed-seed reference
//! scenario (an `eslurm::Scenario`), the outcome fingerprint, and the one
//! non-perturbation check every instrument is held to. A suite keeps only
//! what is specific to its instrument and names in its header what it
//! delegates here.
#![allow(dead_code)] // each suite uses its own subset

use eslurm_suite::eslurm::prelude::*;
use eslurm_suite::obs::{export, Sampler};

/// Satellites and compute nodes of the reference scenario.
pub const SATELLITES: usize = 3;
pub const SLAVES: usize = 180;

/// The reference scenario, fault-free: 3 satellites, 180 compute nodes,
/// seed 33, 12 jobs, to t=600s. Arm instruments in its `run`.
pub fn scenario() -> Scenario<EslurmConfig> {
    let cfg = EslurmConfig {
        n_satellites: SATELLITES,
        eq1_width: 48,
        relay_width: 8,
        hb_sweep_interval: SimSpan::from_secs(60),
        sat_hb_interval: SimSpan::from_secs(5),
        ..Default::default()
    };
    scenario_on(cfg)
}

/// The reference scenario's 180 compute nodes, seed, 12 jobs and horizon
/// on any stack.
pub fn scenario_on<S: Stack>(stack: S) -> Scenario<S> {
    let jobs = (0..12u64).map(|j| {
        let start = (j as usize * 13) % (SLAVES - 48);
        Arrival {
            at: SimTime::from_secs(10 + j * 25),
            job: j,
            nodes: start..start + 40,
            runtime: SimSpan::from_secs(20 + (j % 4) * 15),
        }
    });
    Scenario::new(stack, SLAVES, 33, SimTime::from_secs(600)).arrivals(jobs)
}

/// [`scenario`] with its two mid-run compute-node outages.
pub fn faulted() -> Scenario<EslurmConfig> {
    let outage = |slave: u32, down_s, up_s| Outage {
        node: NodeId(slave),
        down_at: SimTime::from_secs(down_s),
        up_at: SimTime::from_secs(up_s),
    };
    scenario().outages(FaultPlan::from_outages(
        SLAVES,
        vec![outage(17, 90, 400), outage(101, 150, 2000)],
    ))
}

/// The scenario's 1 Hz footprint sampler (first 300 s).
pub fn sampler() -> Sampler {
    Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(300))
}

/// Everything a run decided: clock, event and drop counts, every job
/// record, every node's meter.
pub fn outcome_fingerprint<S: Stack>(
    sys: &System<S>,
) -> (SimTime, u64, u64, Vec<String>, Vec<String>) {
    let records: Vec<String> = sys
        .master()
        .records()
        .iter()
        .map(|r| format!("{:?}", r))
        .collect();
    let meters: Vec<String> = (0..1 + sys.n_satellites + sys.n_slaves)
        .map(|i| {
            let m = sys.sim.meter(NodeId(i as u32));
            format!(
                "{:?}|{:?}|{:?}|{:?}|{:?}",
                m.cpu_time(),
                m.msg_counts(),
                m.peak_sockets(),
                m.sockets(),
                m.peak_mem()
            )
        })
        .collect();
    (
        sys.sim.now(),
        sys.sim.events_processed(),
        sys.sim.dropped_messages(),
        records,
        meters,
    )
}

/// One finished run of a scenario with the handles it recorded
/// into.
pub struct Sampled<S: Stack = EslurmConfig> {
    pub sys: System<S>,
    pub rec: Recorder,
    pub sampler: Sampler,
}

/// The faulted scenario with a fresh `recorder()`, the 1 Hz sampler, and
/// whatever `arm` chains on.
pub fn sampled_run(
    recorder: fn() -> Recorder,
    arm: impl FnOnce(EslurmSystemBuilder) -> EslurmSystemBuilder,
) -> Sampled {
    sampled_run_of(faulted(), recorder, arm)
}

/// `scenario` with a fresh `recorder()`, the 1 Hz sampler, and whatever
/// `arm` chains on.
pub fn sampled_run_of<S: Stack>(
    scenario: Scenario<S>,
    recorder: fn() -> Recorder,
    arm: impl FnOnce(SystemBuilder<S>) -> SystemBuilder<S>,
) -> Sampled<S> {
    let (rec, sampler) = (recorder(), sampler());
    let sys = scenario.run(|b| arm(b.obs(rec.clone()).sampler(sampler.clone())));
    Sampled { sys, rec, sampler }
}

/// The contract every instrument signs: arming it changes nothing the
/// simulation or a virtual-time export can see. Runs the faulted scenario
/// plain, then with a fresh `handle()` chained onto the builder by `arm` (a
/// builder method: `EslurmSystemBuilder::slo`), and compares outcome
/// fingerprint, sampler CSV, Chrome trace and event JSONL. `recorder` picks
/// what the runs record: `Recorder::metrics_only` is the cheap shape, under
/// `Recorder::full` the trace exports are dense. Returns the armed run with
/// its handle, for the instrument's own checks.
pub fn assert_non_perturbing<H: Clone>(
    recorder: fn() -> Recorder,
    handle: impl FnOnce() -> H,
    arm: impl FnOnce(EslurmSystemBuilder, H) -> EslurmSystemBuilder,
) -> (Sampled, H) {
    assert_non_perturbing_on(faulted, recorder, handle, arm)
}

/// [`assert_non_perturbing`] on the `scenario()` of any stack.
pub fn assert_non_perturbing_on<S: Stack, H: Clone>(
    scenario: impl Fn() -> Scenario<S>,
    recorder: fn() -> Recorder,
    handle: impl FnOnce() -> H,
    arm: impl FnOnce(SystemBuilder<S>, H) -> SystemBuilder<S>,
) -> (Sampled<S>, H) {
    let exports = |r: &Sampled<S>| {
        let events = r.rec.events();
        (
            outcome_fingerprint(&r.sys),
            r.sampler.to_csv(),
            export::ChromeTrace {
                events: &events,
                ..Default::default()
            }
            .render(),
            export::to_jsonl(&events),
        )
    };
    let plain = sampled_run_of(scenario(), recorder, |b| b);
    let (fp, csv, chrome, jsonl) = exports(&plain);
    assert_eq!(fp.3.len(), 12, "jobs lost in the plain run");
    assert!(csv.lines().count() > 100, "expected a dense CSV");
    if plain.rec.events_enabled() {
        assert!(plain.rec.events().len() > 1000, "trace suspiciously small");
    }
    let h = handle();
    let armed = sampled_run_of(scenario(), recorder, |b| arm(b, h.clone()));
    let (a_fp, a_csv, a_chrome, a_jsonl) = exports(&armed);
    assert_eq!(a_fp, fp, "outcomes changed when armed");
    assert_eq!(a_csv, csv, "sampler CSV changed when armed");
    assert_eq!(a_chrome, chrome, "Chrome trace changed when armed");
    assert_eq!(a_jsonl, jsonl, "event JSONL changed when armed");
    (armed, h)
}

/// The reference fault scenario of the trace suites: a 32-node deployment
/// whose only satellite (node 1) is down during the first job's dispatch
/// window, forcing BT-failure retries and a takeover-free recovery, plus
/// periodic heartbeat sweeps. Two jobs, run to t=180s.
pub fn satellite_outage_run(seed: u64, rec: Recorder) -> EslurmSystem {
    let cfg = EslurmConfig {
        n_satellites: 1,
        eq1_width: 32,
        relay_width: 8,
        ..Default::default()
    };
    // The outage is the satellite's, so it is a plan of the whole layout.
    let plan = FaultPlan::from_outages(
        1 + 1 + 32,
        vec![Outage {
            node: NodeId(1),
            down_at: SimTime::from_secs(4),
            up_at: SimTime::from_secs(60),
        }],
    );
    let jobs = [(1, 5, 0..16), (2, 70, 16..32)].map(|(job, at, nodes)| Arrival {
        at: SimTime::from_secs(at),
        job,
        nodes,
        runtime: SimSpan::from_secs(10),
    });
    Scenario::new(cfg, 32, seed, SimTime::from_secs(180))
        .arrivals(jobs.into_iter())
        .run(|b| b.obs(rec).faults(plan))
}
