//! Observability integration: a small faulted DES run must leave a
//! coherent trace — fault markers where the outage schedule says, task
//! retries when a satellite dies holding a dispatch, virtual-time
//! monotone instants, and bitwise-identical traces for identical seeds.
//!
//! The faulted scenario itself is `common::satellite_outage_run`.

mod common;

use eslurm_suite::eslurm::prelude::*;

fn faulted_run(seed: u64) -> (Recorder, usize) {
    let rec = Recorder::full();
    let sys = common::satellite_outage_run(seed, rec.clone());
    (rec, sys.master().records.len())
}

#[test]
fn faulted_run_emits_fault_and_retry_events() {
    let (rec, completed) = faulted_run(11);
    assert_eq!(completed, 2, "both jobs should finish despite the outage");

    let events = rec.events();
    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();

    // The outage schedule has exactly one down/up pair on node 1.
    assert_eq!(count(EventKind::NodeDown), 1);
    assert_eq!(count(EventKind::NodeUp), 1);
    let down = events
        .iter()
        .find(|e| e.kind == EventKind::NodeDown)
        .unwrap();
    assert_eq!(down.node, 1);
    assert_eq!(down.ts_us, SimTime::from_secs(4).as_micros());

    // The dead satellite never reports: the master must retry the task.
    assert!(
        rec.counter(Counter::TaskRetries) >= 1,
        "no task retries recorded: {}",
        rec.summary()
    );
    assert!(count(EventKind::TaskRetry) >= 1);
    let retry = events
        .iter()
        .find(|e| e.kind == EventKind::TaskRetry)
        .unwrap();
    assert_eq!(retry.a, 1, "retry should name the stranded job");
    assert!(retry.b >= 1, "retry records the attempt number");

    // Transport spans made it in, and counters agree with the trace.
    assert_eq!(
        count(EventKind::MsgSend) as u64,
        rec.counter(Counter::MsgsSent)
    );
    assert_eq!(
        count(EventKind::NodeDown) as u64,
        rec.counter(Counter::NodeDowns)
    );
}

#[test]
fn instant_events_are_monotone_in_virtual_time() {
    let (rec, _) = faulted_run(11);
    // Instants are stamped at the moment they are recorded, and the DES
    // processes events in virtual-time order — so in recording order the
    // instant timestamps never go backwards. (Spans may start earlier:
    // e.g. a job-completion span opens at submission time.)
    let instants: Vec<u64> = rec
        .events()
        .iter()
        .filter(|e| e.dur_us == 0)
        .map(|e| e.ts_us)
        .collect();
    assert!(instants.len() > 100, "expected a busy trace");
    assert!(
        instants.windows(2).all(|w| w[0] <= w[1]),
        "instant timestamps regressed"
    );
}

#[test]
fn same_seed_runs_record_identical_traces() {
    let (a, _) = faulted_run(42);
    let (b, _) = faulted_run(42);
    let (ea, eb) = (a.events(), b.events());
    assert_eq!(ea.len(), eb.len());
    assert_eq!(ea, eb, "same-seed traces must be bitwise identical");
    assert_eq!(a.counter(Counter::MsgsSent), b.counter(Counter::MsgsSent));

    let (c, _) = faulted_run(43);
    assert_ne!(ea, c.events(), "different seeds should visibly differ");
}

#[test]
fn chrome_export_of_a_real_run_parses() {
    let (rec, _) = faulted_run(7);
    let recorded = rec.events();
    let json = obs::export::ChromeTrace {
        events: &recorded,
        ..Default::default()
    }
    .render();
    let v: serde::Value = serde_json::from_str(&json).expect("chrome trace is valid JSON");
    let events = match v.get("traceEvents") {
        Some(serde::Value::Array(a)) => a,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    };
    assert_eq!(events.len(), recorded.len());
    // Chrome requires ph/ts/pid/tid/name on every record; exporter sorts
    // by timestamp so Perfetto ingests without complaints.
    let mut last_ts = 0.0f64;
    for e in events {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(e.get(key).is_some(), "event missing {key}: {e:?}");
        }
        let ts = match e.get("ts") {
            Some(serde::Value::Number(n)) => n.as_f64(),
            other => panic!("ts not a number: {other:?}"),
        };
        assert!(ts >= last_ts, "exporter output not sorted by ts");
        last_ts = ts;
    }
}
