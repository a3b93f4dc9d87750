//! The wall-clock engine profiler's non-perturbation guarantee, end to
//! end: the same fixed-seed ESlurm scenario as `sharded_des.rs` produces
//! **bit-identical outcomes** and **byte-identical virtual-time exports**
//! (Chrome trace, event JSONL, metrics CSV) with the profiler on or off,
//! on one shard and on four — and the profile itself satisfies its own
//! accounting invariants (queue + busy is exactly the measured wall time,
//! per-shard event counts sum to the engine's total, the cross-shard
//! matrix counts exactly the deliveries that cross a shard boundary).

use eslurm_suite::emu::{FaultPlan, NodeId, Outage};
use eslurm_suite::eslurm::{EslurmConfig, EslurmSystem, EslurmSystemBuilder};
use eslurm_suite::obs::{export, EngineProfiler, EventKind, Recorder, Sampler};
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

/// The `sharded_des.rs` scenario — 3 satellites, 180 compute nodes, two
/// mid-run outages, 12 jobs, run to t=600s — with an engine profiler
/// threaded through the builder.
fn run(shards: usize, obs: Recorder, sampler: Sampler, engine: EngineProfiler) -> EslurmSystem {
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
        .engine_profile(engine)
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

/// Profiling on vs. off changes nothing the simulation can observe: same
/// outcomes and a byte-identical sampler CSV, on one shard and on four.
#[test]
fn profiled_runs_are_bit_identical_to_unprofiled() {
    for shards in [1usize, 4] {
        let make = |engine: EngineProfiler| {
            let s = Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(300));
            let sys = run(shards, Recorder::metrics_only(), s.clone(), engine);
            (outcome_fingerprint(&sys), s.to_csv())
        };
        let (plain_fp, plain_csv) = make(EngineProfiler::disabled());
        let profiler = EngineProfiler::enabled();
        let (prof_fp, prof_csv) = make(profiler.clone());
        assert_eq!(
            prof_fp, plain_fp,
            "{shards}-shard outcomes changed under profiling"
        );
        assert_eq!(
            prof_csv, plain_csv,
            "{shards}-shard sampler CSV changed under profiling"
        );
        assert!(
            profiler.report().is_some(),
            "{shards}-shard profiler produced no report"
        );
    }
}

/// The virtual-time trace exports (Chrome JSON without the engine track,
/// event JSONL) are byte-identical with the profiler armed — the
/// wall-clock domain cannot leak into them.
#[test]
fn profiled_trace_exports_are_byte_identical() {
    let plain_rec = Recorder::full();
    let _ = run(
        1,
        plain_rec.clone(),
        Sampler::disabled(),
        EngineProfiler::disabled(),
    );
    let plain_chrome = export::to_chrome_trace(&plain_rec.events());
    let plain_jsonl = export::to_jsonl(&plain_rec.events());
    assert!(plain_rec.events().len() > 1000, "trace suspiciously small");

    for shards in [1usize, 4] {
        let rec = Recorder::full();
        let profiler = EngineProfiler::enabled();
        let _ = run(shards, rec.clone(), Sampler::disabled(), profiler.clone());
        assert_eq!(
            export::to_chrome_trace(&rec.events()),
            plain_chrome,
            "{shards}-shard profiled Chrome trace differs"
        );
        assert_eq!(
            export::to_jsonl(&rec.events()),
            plain_jsonl,
            "{shards}-shard profiled event JSONL differs"
        );
        // The combined export only *adds* the pid-2 engine track; the
        // virtual-time lanes stay untouched inside it.
        let combined = export::to_chrome_trace_full(&rec.events(), &[], &[], &profiler.spans());
        assert!(
            combined.contains("engine (wall-clock)"),
            "combined export is missing the engine track"
        );
    }
}

/// The profile's own accounting on a 4-shard run with sampling and full
/// tracing armed: every measured interval splits into queue then busy, so
/// the two sum to the shard's wall time exactly; sampling ticks belong to
/// no shard; and the pair matrix counts exactly the sends whose endpoints
/// the builder's FP-Tree partition puts on different shards.
#[test]
fn profiler_accounting_invariants_hold() {
    let (m, n_slaves, shards) = (3usize, 180usize, 4usize);
    let rec = Recorder::full();
    let sampler = Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(300));
    let profiler = EngineProfiler::enabled();
    let sys = run(shards, rec.clone(), sampler, profiler.clone());
    let report = profiler.report().expect("profiler attached");
    assert_eq!(report.shards.len(), shards);
    for s in &report.shards {
        assert_eq!(
            s.queue_ns + s.busy_ns,
            s.wall_ns,
            "shard {}: queue + busy != wall",
            s.shard
        );
    }
    assert!(report.imbalance() >= 1.0);

    // 1 Hz sampling until t=300 s, plus the kill tick that retires it.
    let ticks = 300 + 1;
    assert_eq!(
        report.total_events(),
        sys.sim.events_processed() - ticks,
        "per-shard event counts must sum to the engine total less sampling ticks"
    );

    // The partition `EslurmSystemBuilder::shards` documents: master on
    // shard 0, satellite i and the i-th compute block on shard i mod k.
    let k = shards.min(m);
    let mut shard_of = vec![0usize; 1 + m + n_slaves];
    for i in 0..m {
        shard_of[1 + i] = i % k;
    }
    let blocks = eslurm_suite::eslurm::config::partition(n_slaves, m);
    for (i, &(start, len)) in blocks.iter().enumerate() {
        for j in start..start + len {
            shard_of[1 + m + j] = i % k;
        }
    }
    let crossing = rec
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::MsgSend)
        .filter(|e| shard_of[e.node as usize] != shard_of[e.a as usize])
        .count() as u64;
    assert!(crossing > 0, "no cross-shard traffic seen");
    assert_eq!(report.cross_shard_total(), crossing);
}
