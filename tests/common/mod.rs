//! What the DES integration suites share: the fixed-seed reference
//! scenario, the outcome fingerprint, and the one non-perturbation check
//! every instrument is held to. A suite keeps only what is specific to its
//! instrument and names in its header what it delegates here.
#![allow(dead_code)] // each suite uses its own subset

use eslurm_suite::eslurm::prelude::*;
use eslurm_suite::obs::{export, Sampler};

/// Satellites and compute nodes of the reference scenario.
pub const SATELLITES: usize = 3;
pub const SLAVES: usize = 180;

pub fn cfg(m: usize) -> EslurmConfig {
    EslurmConfig {
        n_satellites: m,
        eq1_width: 48,
        relay_width: 8,
        hb_sweep_interval: SimSpan::from_secs(60),
        sat_hb_interval: SimSpan::from_secs(5),
        ..Default::default()
    }
}

/// The reference scenario, fault-free: 3 satellites, 180 compute nodes,
/// seed 33. Chain instruments onto it, then [`run`] it.
pub fn scenario() -> EslurmSystemBuilder {
    EslurmSystemBuilder::new(cfg(SATELLITES), SLAVES, 33)
}

/// [`scenario`] with its two mid-run compute-node outages.
pub fn faulted() -> EslurmSystemBuilder {
    let first_slave = 1 + SATELLITES;
    let outage = |slave: usize, down_s, up_s| Outage {
        node: NodeId((first_slave + slave) as u32),
        down_at: SimTime::from_secs(down_s),
        up_at: SimTime::from_secs(up_s),
    };
    scenario().faults(FaultPlan::from_outages(
        first_slave + SLAVES,
        vec![outage(17, 90, 400), outage(101, 150, 2000)],
    ))
}

/// Build, submit the scenario's 12 jobs, run to t=600s.
pub fn run(builder: EslurmSystemBuilder) -> EslurmSystem {
    let mut sys = builder.build();
    for j in 0..12u64 {
        let start = (j as usize * 13) % (SLAVES - 48);
        sys.submit(
            SimTime::from_secs(10 + j * 25),
            j,
            start..start + 40,
            SimSpan::from_secs(20 + (j % 4) * 15),
        );
    }
    sys.sim.run_until(SimTime::from_secs(600));
    sys
}

/// The scenario's 1 Hz footprint sampler (first 300 s).
pub fn sampler() -> Sampler {
    Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(300))
}

/// Everything a run decided: clock, event and drop counts, every job
/// record, every node's meter.
pub fn outcome_fingerprint(sys: &EslurmSystem) -> (SimTime, u64, u64, Vec<String>, Vec<String>) {
    let records: Vec<String> = sys
        .master()
        .records
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

/// One finished run of the faulted scenario with the handles it recorded
/// into.
pub struct Sampled {
    pub sys: EslurmSystem,
    pub rec: Recorder,
    pub sampler: Sampler,
}

/// The faulted scenario on `shards` shards with a fresh `recorder()`, the
/// 1 Hz sampler, and whatever `arm` chains on.
pub fn sampled_run(
    shards: usize,
    recorder: fn() -> Recorder,
    arm: impl FnOnce(EslurmSystemBuilder) -> EslurmSystemBuilder,
) -> Sampled {
    let (rec, sampler) = (recorder(), sampler());
    let builder = faulted()
        .shards(shards)
        .obs(rec.clone())
        .sampler(sampler.clone());
    Sampled {
        sys: run(arm(builder)),
        rec,
        sampler,
    }
}

/// The contract every instrument signs: arming it changes nothing the
/// simulation or a virtual-time export can see. Runs the faulted scenario
/// plain on one shard, then with a fresh `handle()` chained onto the
/// builder by `arm` (a builder method: `EslurmSystemBuilder::slo`) on one
/// shard and on four, and compares outcome fingerprint, sampler CSV,
/// Chrome trace and event JSONL. `recorder` picks what the runs record:
/// `Recorder::metrics_only` is the cheap shape, under `Recorder::full` the
/// trace exports are dense. Returns the armed runs with their handles, in
/// shard order, for the instrument's own checks.
pub fn assert_non_perturbing<H: Clone>(
    recorder: fn() -> Recorder,
    handle: impl Fn() -> H,
    arm: impl Fn(EslurmSystemBuilder, H) -> EslurmSystemBuilder,
) -> Vec<(Sampled, H)> {
    let exports = |r: &Sampled| {
        let events = r.rec.events();
        (
            outcome_fingerprint(&r.sys),
            r.sampler.to_csv(),
            export::to_chrome_trace(&events),
            export::to_jsonl(&events),
        )
    };
    let plain = sampled_run(1, recorder, |b| b);
    let (fp, csv, chrome, jsonl) = exports(&plain);
    assert_eq!(fp.3.len(), 12, "jobs lost in the plain run");
    assert!(csv.lines().count() > 100, "expected a dense CSV");
    if plain.rec.events_enabled() {
        assert!(plain.rec.events().len() > 1000, "trace suspiciously small");
    }
    [1usize, 4]
        .into_iter()
        .map(|shards| {
            let h = handle();
            let armed = sampled_run(shards, recorder, |b| arm(b, h.clone()));
            let (a_fp, a_csv, a_chrome, a_jsonl) = exports(&armed);
            assert_eq!(a_fp, fp, "{shards}-shard outcomes changed when armed");
            assert_eq!(a_csv, csv, "{shards}-shard sampler CSV changed when armed");
            assert_eq!(a_chrome, chrome, "{shards}-shard Chrome trace differs");
            assert_eq!(a_jsonl, jsonl, "{shards}-shard event JSONL differs");
            (armed, h)
        })
        .collect()
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
    let plan = FaultPlan::from_outages(
        1 + 1 + 32,
        vec![Outage {
            node: NodeId(1),
            down_at: SimTime::from_secs(4),
            up_at: SimTime::from_secs(60),
        }],
    );
    let mut sys = EslurmSystemBuilder::new(cfg, 32, seed)
        .obs(rec)
        .faults(plan)
        .build();
    for (job, at, nodes) in [(1, 5, 0..16), (2, 70, 16..32)] {
        sys.submit(SimTime::from_secs(at), job, nodes, SimSpan::from_secs(10));
    }
    sys.sim.run_until(SimTime::from_secs(180));
    sys
}
