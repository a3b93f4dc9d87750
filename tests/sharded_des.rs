//! The key-invariance guarantee of the sharded DES, end to end: a full
//! ESlurm deployment run over 1/2/4/8 event-queue shards produces
//! **bit-identical outcomes** (job records, clocks, event counts, meters)
//! and **byte-identical observability exports** (Chrome trace, event
//! JSONL, metrics CSV) — the obs pipeline must not be able to tell the
//! layouts apart.

use eslurm_suite::emu::{FaultPlan, NodeId, Outage};
use eslurm_suite::eslurm::{EslurmConfig, EslurmSystem, EslurmSystemBuilder};
use eslurm_suite::obs::{export, Recorder, Sampler};
use eslurm_suite::simclock::{SimSpan, SimTime};

fn cfg(m: usize) -> EslurmConfig {
    EslurmConfig {
        n_satellites: m,
        eq1_width: 48,
        relay_width: 8,
        hb_sweep_interval: SimSpan::from_secs(60),
        sat_hb_interval: SimSpan::from_secs(5),
        ..Default::default()
    }
}

/// A fixed-seed ESlurm scenario: 3 satellites, 180 compute nodes, a couple
/// of mid-run outages, 12 jobs. Runs to t=600s.
fn run(shards: usize, obs: Recorder, sampler: Sampler) -> EslurmSystem {
    let m = 3;
    let n_slaves = 180;
    let total = 1 + m + n_slaves;
    let plan = FaultPlan::from_outages(
        total,
        vec![
            Outage {
                node: NodeId((1 + m + 17) as u32),
                down_at: SimTime::from_secs(90),
                up_at: SimTime::from_secs(400),
            },
            Outage {
                node: NodeId((1 + m + 101) as u32),
                down_at: SimTime::from_secs(150),
                up_at: SimTime::from_secs(2000),
            },
        ],
    );
    let mut sys = EslurmSystemBuilder::new(cfg(m), n_slaves, 33)
        .faults(plan)
        .obs(obs)
        .sampler(sampler)
        .shards(shards)
        .build();
    for j in 0..12u64 {
        let start = (j as usize * 13) % (n_slaves - 48);
        sys.submit(
            SimTime::from_secs(10 + j * 25),
            j,
            &(start..start + 40).collect::<Vec<_>>(),
            SimSpan::from_secs(20 + (j % 4) * 15),
        );
    }
    sys.sim.run_until(SimTime::from_secs(600));
    sys
}

fn outcome_fingerprint(sys: &EslurmSystem) -> (SimTime, u64, u64, Vec<String>, Vec<String>) {
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

/// Every shard count reproduces the 1-shard outcomes exactly.
#[test]
fn sharded_eslurm_outcomes_are_bit_identical() {
    let serial = run(1, Recorder::metrics_only(), Sampler::disabled());
    let baseline = outcome_fingerprint(&serial);
    assert_eq!(baseline.3.len(), 12, "jobs lost in the baseline run");
    for shards in [2usize, 4, 8] {
        let sys = run(shards, Recorder::metrics_only(), Sampler::disabled());
        assert_eq!(
            outcome_fingerprint(&sys),
            baseline,
            "{shards}-shard outcomes diverged from serial"
        );
    }
}

/// The sampler CSV is byte-identical across shard counts.
#[test]
fn sharded_metrics_csv_is_byte_identical() {
    let make = |shards| {
        let s = Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(300));
        run(shards, Recorder::metrics_only(), s.clone());
        s.to_csv()
    };
    let serial_csv = make(1);
    assert!(serial_csv.lines().count() > 100, "expected a dense CSV");
    for shards in [2usize, 4, 8] {
        assert_eq!(
            make(shards),
            serial_csv,
            "{shards}-shard sampler CSV differs from serial"
        );
    }
}

/// Under full tracing the Chrome trace and event JSONL come out
/// byte-identical to the 1-shard run (the exports "must not notice").
#[test]
fn sharded_trace_exports_are_byte_identical() {
    let serial_rec = Recorder::full();
    let _serial = run(1, serial_rec.clone(), Sampler::disabled());
    let serial_chrome = export::to_chrome_trace(&serial_rec.events());
    let serial_jsonl = export::to_jsonl(&serial_rec.events());
    assert!(serial_rec.events().len() > 1000, "trace suspiciously small");

    for shards in [2usize, 4, 8] {
        let rec = Recorder::full();
        run(shards, rec.clone(), Sampler::disabled());
        assert_eq!(
            export::to_chrome_trace(&rec.events()),
            serial_chrome,
            "{shards}-shard Chrome trace differs"
        );
        assert_eq!(
            export::to_jsonl(&rec.events()),
            serial_jsonl,
            "{shards}-shard event JSONL differs"
        );
    }
}
