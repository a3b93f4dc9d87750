//! End-to-end integration: a full ESlurm deployment (master, satellites,
//! and compute nodes) on the discrete-event emulator, with a live
//! workload, ground-truth failures, and a monitoring-fed FP-Tree
//! constructor.

use eslurm_suite::emu::{FaultPlan, NodeId, Outage};
use eslurm_suite::eslurm::{EslurmConfig, EslurmSystemBuilder, SatState};
use eslurm_suite::monitoring::OraclePredictor;
use eslurm_suite::simclock::{SimSpan, SimTime};
#[allow(
    clippy::disallowed_types,
    reason = "the frozen end-to-end benchmark shares its predictor as an `Arc<Mutex<..>>`"
)]
use std::sync::{Arc, Mutex};

fn cfg(m: usize) -> EslurmConfig {
    EslurmConfig {
        n_satellites: m,
        eq1_width: 64,
        relay_width: 8,
        hb_sweep_interval: SimSpan::from_secs(60),
        sat_hb_interval: SimSpan::from_secs(5),
        ..Default::default()
    }
}

#[test]
fn workload_completes_with_failures_and_prediction() {
    let n_slaves = 300;
    let m = 3;
    let total = 1 + m + n_slaves;
    // Ten compute nodes fail mid-run and come back later.
    let outages: Vec<Outage> = (0..10)
        .map(|i| Outage {
            node: NodeId((1 + m + 20 + i * 7) as u32),
            down_at: SimTime::from_secs(100 + i as u64 * 5),
            up_at: SimTime::from_secs(2000),
        })
        .collect();
    let plan = FaultPlan::from_outages(total, outages);
    let predictor = OraclePredictor::new(plan.clone(), SimSpan::from_secs(120), 3);
    #[allow(
        clippy::disallowed_types,
        reason = "the frozen end-to-end benchmark shares its predictor as an `Arc<Mutex<..>>`"
    )]
    let mut sys = EslurmSystemBuilder::new(cfg(m), n_slaves, 21)
        .faults(plan)
        .predictor(Arc::new(Mutex::new(predictor)))
        .build();

    // Submit 40 jobs over the first ten minutes, avoiding the failed range
    // only sometimes — the RM must cope either way.
    for j in 0..40u64 {
        let start = (j as usize * 7) % (n_slaves - 64);
        sys.submit(
            SimTime::from_secs(10 + j * 15),
            j,
            start..start + 32,
            SimSpan::from_secs(30 + (j % 5) * 10),
        );
    }
    sys.sim.run_until(SimTime::from_secs(1800));

    let master = sys.master();
    // Every job's lifecycle finished (launch → run → terminate) even
    // though some of its nodes were down (partial acks + timeouts).
    assert_eq!(master.records.len(), 40, "jobs lost");
    for r in &master.records {
        let occ = r.occupation().as_secs_f64();
        assert!(occ < 120.0, "job {} occupation {occ}s", r.job);
    }
    // Sweeps ran and reported most nodes alive.
    assert!(!master.sweeps().is_empty());
    let last = master.sweeps().last().unwrap();
    assert!(
        last.reached >= (n_slaves - 12) as u32,
        "last sweep reached only {} of {}",
        last.reached,
        n_slaves
    );

    // All satellites stayed healthy (RUNNING, or BUSY with an in-flight
    // sweep at the instant we stopped the clock).
    for i in 0..m {
        let st = master.satellite_state(i, sys.sim.now());
        assert!(
            matches!(st, SatState::Running | SatState::Busy),
            "satellite {i} ended in {st:?}"
        );
    }

    // FP-Trees were built and placed suspects on leaves.
    let mut seen = 0;
    let mut on_leaves = 0;
    for i in 0..m {
        seen += sys.satellite(i).fp_stats().suspects_seen;
        on_leaves += sys.satellite(i).fp_stats().suspects_on_leaves;
    }
    assert!(seen > 0, "predictor never fed the FP-Tree constructor");
    assert!(
        on_leaves as f64 >= 0.8 * seen as f64,
        "placement ratio {on_leaves}/{seen} below the paper's 81.7%"
    );
}

#[test]
fn satellite_crash_recovers_and_fsm_tracks_it() {
    let n_slaves = 120;
    let m = 2;
    let total = 1 + m + n_slaves;
    // Satellite 1 (node id 1) dies at t=30s and recovers at t=300s.
    let plan = FaultPlan::from_outages(
        total,
        vec![Outage {
            node: NodeId(1),
            down_at: SimTime::from_secs(30),
            up_at: SimTime::from_secs(300),
        }],
    );
    let mut sys = EslurmSystemBuilder::new(cfg(m), n_slaves, 5)
        .faults(plan)
        .build();
    for j in 0..20u64 {
        sys.submit(
            SimTime::from_secs(35 + j * 10),
            j,
            0..80,
            SimSpan::from_secs(20),
        );
    }
    sys.sim.run_until(SimTime::from_secs(250));
    {
        let master = sys.master();
        assert_eq!(master.records.len(), 20, "jobs lost to the satellite crash");
        assert!(
            master.reassignments() + master.takeovers() > 0,
            "satellite failure never handled"
        );
        // While down, the FSM shows FAULT (not yet 20 min → not DOWN).
        let st = master.satellite_state(0, sys.sim.now());
        assert!(
            matches!(st, SatState::Fault | SatState::Down),
            "state {st:?}"
        );
    }
    // After recovery, heartbeats bring it back to RUNNING.
    sys.sim.run_until(SimTime::from_secs(400));
    assert_eq!(
        sys.master().satellite_state(0, sys.sim.now()),
        SatState::Running,
        "satellite did not rejoin the pool"
    );
}

#[test]
fn identical_seeds_identical_outcomes() {
    let run = |seed: u64| {
        let mut sys = EslurmSystemBuilder::new(cfg(2), 100, seed).build();
        for j in 0..10u64 {
            sys.submit(SimTime::from_secs(5 + j), j, 0..50, SimSpan::from_secs(15));
        }
        sys.sim.run_until(SimTime::from_secs(600));
        let m = sys.master();
        let occs: Vec<u64> = m
            .records
            .iter()
            .map(|r| r.occupation().as_micros())
            .collect();
        (sys.sim.events_processed(), occs, m.sweeps().len())
    };
    assert_eq!(run(9), run(9));
    // A different seed shifts latency jitter, so occupations differ.
    assert_ne!(run(9).1, run(10).1);
}
