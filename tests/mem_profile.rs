//! The tagged tracking allocator's non-perturbation guarantee, end to
//! end: the shared fixed-seed ESlurm scenario of `tests/common`
//! produces **bit-identical outcomes** and **byte-identical virtual-time
//! exports** (Chrome trace, event JSONL, metrics CSV) with the heap
//! profiler armed or not, on one shard and on four. The `mem_host_*` series
//! live in the sampler's separate host store and never reach the default
//! CSV — host-memory is its own measurement domain (DESIGN §15).
//!
//! When the `mem-profile` feature is off the profiler is compiled out
//! entirely and `MemProfiler::enabled()` hands back a disabled handle, so
//! every assertion here holds trivially in that configuration too — the
//! suite runs in both CI modes.
//!
//! The armed-vs-plain comparison is `common::assert_non_perturbing`; the
//! host-store separation and the tag attribution are this suite's own.

mod common;

use common::{assert_non_perturbing, sampled_run};
use eslurm_suite::eslurm::EslurmSystemBuilder;
use eslurm_suite::obs::{mem_profile_compiled, MemProfiler, Recorder};

/// The allocator counters are process-global: a report read while a
/// sibling test thread allocates is not one consistent snapshot. Every
/// test here holds this lock, so the file's tests run one at a time.
static ALLOCATOR: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    // A test that failed while holding the lock must not fail the rest.
    ALLOCATOR.lock().unwrap_or_else(|e| e.into_inner())
}

/// Heap profiling on vs. off changes nothing the simulation can observe:
/// same outcomes and a byte-identical virtual-time sampler CSV, on one
/// shard and on four. The `mem_host_*` series go to the separate host store and
/// appear only when the profiler is armed (and the feature compiled).
#[test]
fn profiled_runs_are_bit_identical_to_unprofiled() {
    let _serial = one_at_a_time();
    let plain = sampled_run(1, Recorder::metrics_only, |b| b);
    assert!(
        !plain.sampler.host_csv().contains("mem_host_"),
        "disabled profiler must leave the host store empty"
    );
    let armed = assert_non_perturbing(
        Recorder::metrics_only,
        MemProfiler::enabled,
        EslurmSystemBuilder::mem_profile,
    );
    for (run, profiler) in armed {
        let shards = run.sys.sim.shard_count();
        let host = run.sampler.host_csv();
        if mem_profile_compiled() {
            assert!(
                host.contains("mem_host_live_bytes_total"),
                "{shards}-shard armed run recorded no host series"
            );
            assert!(
                profiler.report().is_some(),
                "{shards}-shard profiler produced no report"
            );
        } else {
            assert!(
                !host.contains("mem_host_"),
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
    let _serial = one_at_a_time();
    assert_non_perturbing(
        Recorder::full,
        MemProfiler::enabled,
        EslurmSystemBuilder::mem_profile,
    );
}

/// With the feature compiled, the armed run attributes activity to the
/// subsystems this scenario actually exercises: the DES shard loop, the
/// master FSM, and the satellites all show allocations, and the totals
/// obey live <= peak per tag.
#[cfg(feature = "mem-profile")]
#[test]
fn attribution_covers_the_exercised_subsystems() {
    let _serial = one_at_a_time();
    let profiler = MemProfiler::enabled();
    let sys = common::run(common::faulted().mem_profile(profiler.clone()));
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
