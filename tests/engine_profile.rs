//! The wall-clock engine profiler's non-perturbation guarantee, end to
//! end: the shared fixed-seed scenario produces **bit-identical outcomes**
//! and **byte-identical virtual-time exports** (Chrome trace, event JSONL,
//! metrics CSV) with the profiler on or off, on one shard and on four —
//! and the profile itself satisfies its own accounting invariants (queue +
//! busy is exactly the measured wall time, per-shard event counts sum to
//! the engine's total, the cross-shard matrix counts exactly the
//! deliveries that cross a shard boundary).
//!
//! The on/off comparison is `common::assert_non_perturbing`; the
//! accounting invariants and the engine track are this suite's own.

mod common;

use common::{assert_non_perturbing, sampled_run, SATELLITES, SLAVES};
use eslurm_suite::eslurm::EslurmSystemBuilder;
use eslurm_suite::obs::export::ChromeTrace;
use eslurm_suite::obs::{EngineProfiler, EventKind, Recorder};

/// The shared check, with a fresh profiler armed on every run.
fn armed_with(recorder: fn() -> Recorder) -> Vec<(common::Sampled, EngineProfiler)> {
    assert_non_perturbing(
        recorder,
        EngineProfiler::enabled,
        EslurmSystemBuilder::engine_profile,
    )
}

/// Profiling on vs. off changes nothing the simulation can observe: same
/// outcomes and a byte-identical sampler CSV, on one shard and on four.
#[test]
fn profiled_runs_are_bit_identical_to_unprofiled() {
    for (run, profiler) in armed_with(Recorder::metrics_only) {
        assert!(
            profiler.report().is_some(),
            "{}-shard profiler produced no report",
            run.sys.sim.shard_count()
        );
    }
}

/// The virtual-time trace exports (Chrome JSON without the engine track,
/// event JSONL) are byte-identical with the profiler armed — the
/// wall-clock domain cannot leak into them.
#[test]
fn profiled_trace_exports_are_byte_identical() {
    for (run, profiler) in armed_with(Recorder::full) {
        // The combined export only *adds* the pid-2 engine track; the
        // virtual-time lanes stay untouched inside it.
        let combined = ChromeTrace {
            events: &run.rec.events(),
            engine: &profiler.spans(),
            ..Default::default()
        }
        .render();
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
    let (m, n_slaves, shards) = (SATELLITES, SLAVES, 4usize);
    let profiler = EngineProfiler::enabled();
    let run = sampled_run(shards, Recorder::full, |b| {
        b.engine_profile(profiler.clone())
    });
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
        run.sys.sim.events_processed() - ticks,
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
    let crossing = run
        .rec
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::MsgSend)
        .filter(|e| shard_of[e.node as usize] != shard_of[e.a as usize])
        .count() as u64;
    assert!(crossing > 0, "no cross-shard traffic seen");
    assert_eq!(report.cross_shard_total(), crossing);
}
