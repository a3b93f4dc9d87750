//! The key-invariance guarantee of the sharded DES, end to end: a full
//! ESlurm deployment run over 1/2/4/8 event-queue shards produces
//! **bit-identical outcomes** (job records, clocks, event counts, meters)
//! and **byte-identical observability exports** (Chrome trace, event
//! JSONL, metrics CSV) — the obs pipeline must not be able to tell the
//! layouts apart.
//!
//! Scenario and `outcome_fingerprint` come from `tests/common`; the
//! 1/2/4/8 sweep is this suite's own.

mod common;

use common::{faulted, outcome_fingerprint, run};
use eslurm_suite::obs::{export, Recorder};

/// Every shard count reproduces the 1-shard outcomes exactly.
#[test]
fn sharded_eslurm_outcomes_are_bit_identical() {
    let make = |shards| run(faulted().shards(shards).obs(Recorder::metrics_only()));
    let baseline = outcome_fingerprint(&make(1));
    assert_eq!(baseline.3.len(), 12, "jobs lost in the baseline run");
    for shards in [2usize, 4, 8] {
        assert_eq!(
            outcome_fingerprint(&make(shards)),
            baseline,
            "{shards}-shard outcomes diverged from serial"
        );
    }
}

/// The sampler CSV is byte-identical across shard counts.
#[test]
fn sharded_metrics_csv_is_byte_identical() {
    let make = |shards| {
        let s = common::sampler();
        run(faulted()
            .shards(shards)
            .obs(Recorder::metrics_only())
            .sampler(s.clone()));
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
    let make = |shards| {
        let rec = Recorder::full();
        run(faulted().shards(shards).obs(rec.clone()));
        let events = rec.events();
        assert!(events.len() > 1000, "trace suspiciously small");
        (export::to_chrome_trace(&events), export::to_jsonl(&events))
    };
    let (serial_chrome, serial_jsonl) = make(1);
    for shards in [2usize, 4, 8] {
        let (chrome, jsonl) = make(shards);
        assert_eq!(chrome, serial_chrome, "{shards}-shard Chrome trace differs");
        assert_eq!(jsonl, serial_jsonl, "{shards}-shard event JSONL differs");
    }
}
