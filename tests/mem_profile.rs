//! The tagged tracking allocator's non-perturbation guarantee, end to
//! end: the shared fixed-seed ESlurm scenario of `tests/common`
//! produces **bit-identical outcomes** and **byte-identical virtual-time
//! exports** (Chrome trace, event JSONL, metrics CSV) with the heap
//! profiler armed or not. The profiler is a
//! report around a run (DESIGN §15): armed before it, read after it, and
//! never handed to the engine.
//!
//! When the `mem-profile` feature is off the profiler is compiled out
//! entirely and `MemProfiler::enabled()` hands back a disabled handle, so
//! every assertion here holds trivially in that configuration too — the
//! suite runs in both CI modes.
//!
//! The armed-vs-plain comparison is `common::assert_non_perturbing`; the
//! report and its tag attribution are this suite's own.

mod common;

use common::assert_non_perturbing;
use eslurm_suite::eslurm::EslurmSystemBuilder;
use eslurm_suite::obs::{mem_profile_compiled, MemProfiler, Recorder};

/// The allocator counters are process-global: a report read while a
/// sibling test thread allocates is not one consistent snapshot. Every
/// test here holds this lock, so the file's tests run one at a time.
#[allow(
    clippy::disallowed_types,
    reason = "the test harness runs these tests on several threads against one collector"
)]
static ALLOCATOR: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    // A test that failed while holding the lock must not fail the rest.
    ALLOCATOR.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arming is `MemProfiler::enabled()` itself, before the run: the builder
/// is handed nothing.
fn armed_before(builder: EslurmSystemBuilder, _: MemProfiler) -> EslurmSystemBuilder {
    builder
}

/// Heap profiling on vs. off changes nothing the simulation can observe:
/// same outcomes and a byte-identical virtual-time sampler CSV. The armed
/// handle reports exactly when the feature compiled the collector in.
#[test]
fn profiled_runs_are_bit_identical_to_unprofiled() {
    let _serial = one_at_a_time();
    let (_, profiler) =
        assert_non_perturbing(Recorder::metrics_only, MemProfiler::enabled, armed_before);
    assert_eq!(
        profiler.report().is_some(),
        mem_profile_compiled(),
        "the profiler must report iff the collector is compiled in"
    );
}

/// The virtual-time trace exports (Chrome JSON, event JSONL) are
/// byte-identical with the heap profiler armed — the host-memory domain
/// cannot leak into them.
#[test]
fn profiled_trace_exports_are_byte_identical() {
    let _serial = one_at_a_time();
    assert_non_perturbing(Recorder::full, MemProfiler::enabled, armed_before);
}

/// With the feature compiled, the armed run attributes activity to the
/// subsystems this scenario actually exercises: the DES engine loop, the
/// master FSM, and the satellites all show allocations, and the totals
/// obey live <= peak per tag.
#[cfg(feature = "mem-profile")]
#[test]
fn attribution_covers_the_exercised_subsystems() {
    let _serial = one_at_a_time();
    let profiler = MemProfiler::enabled();
    let sys = common::run(common::faulted());
    assert!(sys.sim.events_processed() > 0);
    let report = profiler.report().expect("feature on, handle armed");
    for expected in ["master", "satellite", "des"] {
        let tag = report.tags.iter().find(|t| t.tag == expected);
        assert!(
            tag.is_some_and(|t| t.allocs > 0),
            "tag `{expected}` got no allocations attributed"
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
