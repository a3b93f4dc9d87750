//! The tagged tracking allocator's non-perturbation guarantee, end to
//! end: the same fixed-seed ESlurm scenario as `engine_profile.rs`
//! produces **bit-identical outcomes** and **byte-identical virtual-time
//! exports** (Chrome trace, event JSONL, metrics CSV) with the heap
//! profiler armed or not, on one shard and on four. The `mem_host_*` series
//! live in the sampler's separate host store and never reach the default
//! CSV — host-memory is its own measurement domain (DESIGN §15), like the
//! wall-clock engine profile.
//!
//! When the `mem-profile` feature is off the profiler is compiled out
//! entirely and `MemProfiler::enabled()` hands back a disabled handle, so
//! every assertion here holds trivially in that configuration too — the
//! suite runs in both CI modes.

use eslurm_suite::emu::{FaultPlan, NodeId, Outage};
use eslurm_suite::eslurm::{EslurmConfig, EslurmSystem, EslurmSystemBuilder};
use eslurm_suite::obs::{export, mem_profile_compiled, MemProfiler, Recorder, Sampler};
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
/// mid-run outages, 12 jobs, run to t=600s — with a heap profiler
/// threaded through the builder.
fn run(shards: usize, obs: Recorder, sampler: Sampler, mem: MemProfiler) -> EslurmSystem {
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
        .mem_profile(mem)
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

/// Heap profiling on vs. off changes nothing the simulation can observe:
/// same outcomes and a byte-identical virtual-time sampler CSV, on one
/// shard and on four. The `mem_host_*` series go to the separate host store and
/// appear only when the profiler is armed (and the feature compiled).
#[test]
fn profiled_runs_are_bit_identical_to_unprofiled() {
    for shards in [1usize, 4] {
        let make = |mem: MemProfiler| {
            let s = Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(300));
            let sys = run(shards, Recorder::metrics_only(), s.clone(), mem);
            (outcome_fingerprint(&sys), s.to_csv(), s.host_csv())
        };
        let (plain_fp, plain_csv, plain_host) = make(MemProfiler::disabled());
        assert!(
            !plain_host.contains("mem_host_"),
            "disabled profiler must leave the host store empty"
        );
        let profiler = MemProfiler::enabled();
        let (prof_fp, prof_csv, prof_host) = make(profiler.clone());
        assert_eq!(
            prof_fp, plain_fp,
            "{shards}-shard outcomes changed under heap profiling"
        );
        assert_eq!(
            prof_csv, plain_csv,
            "{shards}-shard sampler CSV changed under heap profiling"
        );
        if mem_profile_compiled() {
            assert!(
                prof_host.contains("mem_host_live_bytes_total"),
                "{shards}-shard armed run recorded no host series"
            );
            assert!(
                profiler.report().is_some(),
                "{shards}-shard profiler produced no report"
            );
        } else {
            assert!(
                !prof_host.contains("mem_host_"),
                "feature-off handle must stay inert"
            );
            assert!(profiler.report().is_none());
        }
    }
}

/// The virtual-time trace exports (Chrome JSON, event JSONL) are
/// byte-identical with the heap profiler armed — the host-memory domain
/// cannot leak into them.
#[test]
fn profiled_trace_exports_are_byte_identical() {
    let plain_rec = Recorder::full();
    let _ = run(
        1,
        plain_rec.clone(),
        Sampler::disabled(),
        MemProfiler::disabled(),
    );
    let plain_chrome = export::to_chrome_trace(&plain_rec.events());
    let plain_jsonl = export::to_jsonl(&plain_rec.events());
    assert!(plain_rec.events().len() > 1000, "trace suspiciously small");

    for shards in [1usize, 4] {
        let rec = Recorder::full();
        let profiler = MemProfiler::enabled();
        let _ = run(shards, rec.clone(), Sampler::disabled(), profiler);
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
    }
}

/// With the feature compiled, the armed run attributes activity to the
/// subsystems this scenario actually exercises: the DES shard loop, the
/// master FSM, and the satellites all show allocations, and the totals
/// obey live <= peak per tag.
#[cfg(feature = "mem-profile")]
#[test]
fn attribution_covers_the_exercised_subsystems() {
    let profiler = MemProfiler::enabled();
    let sys = run(
        1,
        Recorder::disabled(),
        Sampler::disabled(),
        profiler.clone(),
    );
    assert!(sys.sim.events_processed() > 0);
    let report = profiler.report().expect("feature on, handle armed");
    let tags: Vec<&str> = report.tags.iter().map(|t| t.tag.as_str()).collect();
    for expected in ["master", "satellite", "des-shard0"] {
        assert!(
            tags.contains(&expected),
            "tag `{expected}` missing from report (got {tags:?})"
        );
    }
    for t in &report.tags {
        assert!(
            t.live_bytes <= t.peak_bytes,
            "tag {}: live {} > peak {}",
            t.tag,
            t.live_bytes,
            t.peak_bytes
        );
        assert_eq!(
            t.classes.iter().sum::<u64>(),
            t.allocs,
            "tag {}: size-class counts must sum to allocs",
            t.tag
        );
    }
    let total = report.total_allocs();
    assert!(total > 0, "armed run recorded no allocations");
}
