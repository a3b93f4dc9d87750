//! The online SLO engine's non-perturbation guarantee, end to end: the
//! shared fixed-seed scenario (faulted on ESlurm, fault-free on a
//! centralized Slurm deployment of the same jobs) produces **bit-identical
//! outcomes** and **byte-identical virtual-time exports** (Chrome trace,
//! event JSONL, metrics CSV) with the SLO engine armed or not — plus the
//! detection behaviour itself: a tight objective breaches with a sane
//! detection latency, and breaches land as instants on their own export
//! track.
//!
//! The armed-vs-plain comparison is `common::assert_non_perturbing` (and
//! `assert_non_perturbing_on` for Slurm);
//! breach detection and the SLO track are this suite's own.

mod common;

use common::{assert_non_perturbing, assert_non_perturbing_on, sampled_run, scenario_on};
use eslurm_suite::eslurm::{EslurmSystemBuilder, SystemBuilder};
use eslurm_suite::obs::export::{self, ChromeTrace};
use eslurm_suite::obs::{Recorder, SloEngine, SloEventKind, SloSpec};
use eslurm_suite::rm::RmProfile;

/// A spec set with one objective tight enough to breach in this scenario
/// (sweeps take milliseconds, the target is 1µs) and one that must stay
/// green.
fn tight_slo() -> SloEngine {
    SloEngine::new(vec![
        SloSpec::sweep_p99(1.0),
        SloSpec::master_inbox(100_000.0),
    ])
}

/// SLOs on vs. off changes nothing the simulation can observe: same
/// outcomes and a byte-identical sampler CSV.
#[test]
fn slo_runs_are_bit_identical_to_plain() {
    let (_, slo) =
        assert_non_perturbing(Recorder::metrics_only, tight_slo, EslurmSystemBuilder::slo);
    let report = slo.report().expect("armed engine reports");
    assert!(report.evals_total > 0, "engine never ticked");
    assert!(
        report.total_breaches() > 0,
        "tight objective never breached"
    );
}

/// The same contract on a centralized stack: the reference scenario on
/// Slurm keeps its outcome fingerprint, sampler CSV, Chrome trace and
/// event JSONL with the SLO engine armed. It runs fault-free: under the
/// two outages Slurm never records the four jobs that hold a down node
/// at their launch or end, and the check wants all twelve jobs done.
#[test]
fn slo_runs_on_slurm_are_bit_identical_to_plain() {
    let slurm = || scenario_on(RmProfile::slurm());
    let (_, slo) = assert_non_perturbing_on(slurm, Recorder::full, tight_slo, SystemBuilder::slo);
    let report = slo.report().expect("armed engine reports");
    assert!(report.evals_total > 0, "engine never ticked");
}

/// The virtual-time trace exports (base Chrome JSON, event JSONL) are
/// byte-identical with the SLO engine armed, and the combined export only
/// *adds* the pid-3 SLO track with the breach instants.
#[test]
fn slo_trace_exports_are_byte_identical_plus_breach_track() {
    let (run, slo) = assert_non_perturbing(Recorder::full, tight_slo, EslurmSystemBuilder::slo);
    let rec_events = run.rec.events();

    // An empty SLO event list leaves even the combined export unchanged.
    let with_track = |slo| ChromeTrace {
        events: &rec_events,
        slo,
        ..Default::default()
    };
    assert_eq!(
        with_track(&[]).render(),
        export::to_chrome_trace(&rec_events),
        "empty SLO track must not change the combined export"
    );

    // With events, the combined export gains the named SLO track and a
    // breach instant; the SLO JSONL names the breached spec.
    let events = slo.events();
    assert!(!events.is_empty());
    let combined = with_track(&events).render();
    assert!(combined.contains("\"name\":\"slo\""), "missing slo track");
    assert!(
        combined.contains("breach:sweep_p99_us"),
        "missing breach instant"
    );
    let jsonl = export::slo_to_jsonl(&events);
    assert!(jsonl.contains("\"kind\":\"breach\""));
    assert!(jsonl.contains("\"slo\":\"sweep_p99_us\""));
}

/// The detection behaviour itself: the tight objective breaches, the
/// green objective does not, and detection latency is positive and
/// bounded by the slow window.
#[test]
fn tight_objective_breaches_with_sane_latency() {
    let slo = tight_slo();
    sampled_run(Recorder::metrics_only, |b| b.slo(slo.clone()));
    let report = slo.report().expect("armed engine reports");
    let sweep = &report.specs[0];
    assert_eq!(sweep.name, "sweep_p99_us");
    assert!(sweep.breaches > 0, "tight sweep objective must breach");
    let detect = sweep.detect_us.expect("breach records detect latency");
    assert!(
        detect > 0 && detect <= 300_000_000,
        "detect_us={detect} outside (0, slow window]"
    );
    let inbox = &report.specs[1];
    assert_eq!(inbox.breaches, 0, "generous inbox bound must stay green");
    assert!(report
        .events
        .iter()
        .any(|e| e.kind == SloEventKind::Breach && e.name == "sweep_p99_us"));
    assert_eq!(report.unmet(), 1);
}
