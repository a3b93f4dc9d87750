//! Metrics-pipeline integration: the sampler → exposition → diff path must
//! hold end-to-end on a real emulated run — strictly well-formed Prometheus
//! text, CSV that round-trips through the regression gate with a zero
//! self-diff, and byte-identical CSV for identical seeds — and the bytes
//! of all three exports pinned, so a cheaper recording path cannot drift
//! them.

mod common;

use eslurm_suite::eslurm::prelude::*;
use eslurm_suite::obs::{compare_csv, export, DiffOptions, MetricId, Sampler};

/// A 32-node two-satellite deployment with a mid-run satellite outage,
/// sampled at 1 Hz for two virtual minutes.
fn sampled_run(seed: u64, rec: Recorder) -> (Recorder, Sampler) {
    let horizon = SimTime::from_secs(120);
    let sampler = Sampler::every_until(SimSpan::from_secs(1), horizon);
    let plan = FaultPlan::from_outages(
        1 + 2 + 32,
        vec![Outage {
            node: NodeId(1),
            down_at: SimTime::from_secs(30),
            up_at: SimTime::from_secs(80),
        }],
    );
    let cfg = EslurmConfig {
        n_satellites: 2,
        ..Default::default()
    };
    let mut sys = EslurmSystemBuilder::new(cfg, 32, seed)
        .obs(rec.clone())
        .sampler(sampler.clone())
        .faults(plan)
        .build();
    for (i, start) in [5u64, 20, 45, 90].iter().enumerate() {
        sys.submit(
            SimTime::from_secs(*start),
            i as u64 + 1,
            0..16,
            SimSpan::from_secs(15),
        );
    }
    sys.sim.run_until(horizon);
    (rec, sampler)
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        && !name.starts_with(|c: char| c.is_ascii_digit())
}

/// The family a sample line belongs to: histogram series suffixes hang off
/// the family that declared the `# TYPE`.
fn family_of(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = name.strip_suffix(suffix) {
            return stripped;
        }
    }
    name
}

#[test]
fn prometheus_exposition_is_strictly_well_formed() {
    let (rec, _) = sampled_run(7, Recorder::metrics_only());
    let text = export::to_prometheus(&rec);
    assert!(!text.is_empty());
    assert!(text.ends_with('\n'), "exposition must end with a newline");

    let mut typed: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut samples = 0usize;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP needs name + text");
            assert!(valid_metric_name(name), "bad HELP name {name:?}");
            assert!(!help.is_empty(), "empty HELP for {name}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE needs name + kind");
            assert!(valid_metric_name(name), "bad TYPE name {name:?}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram" | "untyped"),
                "unknown TYPE {kind:?} for {name}"
            );
            assert!(typed.insert(name.to_string()), "duplicate TYPE for {name}");
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form: {line:?}");
        // A sample: `name value` or `name{k="v",...} value`.
        let (series, value) = line.rsplit_once(' ').expect("sample needs a value");
        let name = match series.split_once('{') {
            None => series,
            Some((name, labels)) => {
                let labels = labels.strip_suffix('}').expect("unclosed label braces");
                for pair in labels.split("\",") {
                    let (k, v) = pair.split_once("=\"").expect("label needs k=\"v\"");
                    assert!(valid_metric_name(k), "bad label key {k:?} in {line:?}");
                    let v = v.strip_suffix('"').unwrap_or(v);
                    assert!(
                        !v.contains('"') && !v.contains('\n'),
                        "unescaped label value {v:?}"
                    );
                }
                name
            }
        };
        assert!(valid_metric_name(name), "bad sample name {name:?}");
        assert!(
            name.starts_with("eslurm_"),
            "sample {name} missing the eslurm_ namespace"
        );
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value {value:?} on {line:?}"
        );
        assert!(
            typed.contains(family_of(name)),
            "sample {name} has no preceding # TYPE"
        );
        samples += 1;
    }
    assert!(samples > 20, "suspiciously few samples: {samples}");
}

#[test]
fn csv_round_trip_self_diff_is_zero() {
    let (_, sampler) = sampled_run(7, Recorder::metrics_only());
    let csv = sampler.to_csv();
    assert!(csv.lines().count() > 100, "expected a dense series CSV");

    // Footprint gating and gate-all must both see identical runs as clean.
    for gate_all in [false, true] {
        let opts = DiffOptions {
            gate_all,
            ..Default::default()
        };
        let report = compare_csv(&csv, &csv, &opts).expect("self-diff parses");
        assert!(report.only_in_base.is_empty() && report.only_in_new.is_empty());
        assert!(!report.deltas.is_empty(), "self-diff compared nothing");
        assert!(report.regressions().is_empty(), "self-diff regressed");
        for d in &report.deltas {
            assert_eq!(
                d.pct, 0.0,
                "{} {} drifted on identical input",
                d.metric, d.stat
            );
        }
    }
}

#[test]
fn injected_regression_trips_the_gate() {
    let (_, sampler) = sampled_run(7, Recorder::metrics_only());
    let base = Sampler::every(SimSpan::from_secs(1));
    let bloated = Sampler::every(SimSpan::from_secs(1));
    let id = || MetricId::new("footprint_virt_bytes").with("node", "master");
    for s in 0..30u64 {
        let t = SimTime::from_secs(s);
        base.record(t, id(), 1000.0);
        bloated.record(t, id(), 1200.0); // +20 % over a 5 % threshold
    }
    let report = compare_csv(&base.to_csv(), &bloated.to_csv(), &DiffOptions::default())
        .expect("diff parses");
    assert!(
        !report.regressions().is_empty(),
        "a 20% footprint increase must trip the 5% gate"
    );
    // The other direction is an improvement, never a regression.
    let report = compare_csv(&bloated.to_csv(), &base.to_csv(), &DiffOptions::default())
        .expect("diff parses");
    assert!(report.regressions().is_empty());
    drop(sampler);
}

#[test]
fn same_seed_runs_emit_byte_identical_csv() {
    let (_, a) = sampled_run(42, Recorder::metrics_only());
    let (_, b) = sampled_run(42, Recorder::metrics_only());
    assert_eq!(a.to_csv(), b.to_csv(), "same-seed CSVs must match bytewise");

    let (_, c) = sampled_run(43, Recorder::metrics_only());
    assert_ne!(
        a.to_csv(),
        c.to_csv(),
        "different seeds should visibly differ"
    );
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(series CSV, Prometheus text, summary JSON, send-metric series)`
/// hashes of the common faulted scenario, sampled at 1 Hz. The last hash
/// covers the per-tick `msgs_sent`, `bytes_sent` and
/// `hop_latency_us{stat=count|sum}` points, the metrics the engine records
/// at each send.
fn export_hashes() -> [u64; 4] {
    let run = common::sampled_run(Recorder::metrics_only, |b| b);
    let store = run.sampler.store();
    let hop = || MetricId::new("hop_latency_us");
    let mut sends = Vec::new();
    for id in [
        MetricId::new("msgs_sent"),
        MetricId::new("bytes_sent"),
        hop().with("stat", "count"),
        hop().with("stat", "sum"),
    ] {
        let pts = store.get(&id).expect("send metric sampled");
        assert_eq!(pts.len(), 300, "{id}: one point per tick");
        for p in pts {
            sends.extend(p.t_us.to_le_bytes());
            sends.extend(p.value.to_bits().to_le_bytes());
        }
    }
    [
        fnv1a(run.sampler.to_csv().as_bytes()),
        fnv1a(export::to_prometheus(&run.rec).as_bytes()),
        fnv1a(export::summary_to_json(&run.rec.summary()).as_bytes()),
        fnv1a(&sends),
    ]
}

/// The export bytes of a sampled run, pinned: series id order, every
/// rendered value, and send metrics that reach the recorder before each
/// tick reads it and before the run returns.
#[test]
fn sampled_exports_match_the_pinned_hashes() {
    const PINNED: [u64; 4] = [
        0x8d54_3ed9_6fce_710f,
        0xf7a3_85a9_d2a8_de83,
        0x32bc_db2b_8d27_3b1a,
        0x6446_1a5d_87fc_1042,
    ];
    let got = export_hashes();
    assert_eq!(got, PINNED, "got {got:x?}, pinned {PINNED:x?}");
}
