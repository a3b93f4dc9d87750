//! Causal-trace integration: the `TraceContext` propagated on message
//! envelopes must reconstruct into deterministic causal trees whose
//! critical-path decomposition sums exactly to the end-to-end latency,
//! must not perturb the simulation when the recorder is off (or on), and
//! must rebuild a known relay as the tree *shape* it was sent along.
//!
//! The faulted scenario itself is `common::satellite_outage_run`.

mod common;

use eslurm_suite::eslurm::prelude::*;
use obs::causal::{render_critical_path, render_flow_summaries};
use obs::{build_traces, flow_summaries, FlowKind, TraceTree};

fn faulted_run(seed: u64, rec: Recorder) -> (Recorder, EslurmSystem) {
    let sys = common::satellite_outage_run(seed, rec.clone());
    (rec, sys)
}

/// Render every trace's critical path plus the flow summaries — the same
/// text `eslurm critical-path` prints, as one comparable report.
fn full_report(trees: &[TraceTree]) -> String {
    let mut out = String::new();
    for t in trees {
        out.push_str(&render_critical_path(&t.critical_path()));
    }
    out.push_str(&render_flow_summaries(&flow_summaries(trees)));
    out
}

#[test]
fn same_seed_runs_render_byte_identical_reports() {
    let (a, _) = faulted_run(42, Recorder::full());
    let (b, _) = faulted_run(42, Recorder::full());
    let (ra, rb) = (a.causal_records(), b.causal_records());
    assert!(!ra.is_empty(), "faulted run recorded no causal records");
    assert_eq!(ra, rb, "same-seed causal records must be identical");
    let report_a = full_report(&build_traces(&ra));
    let report_b = full_report(&build_traces(&rb));
    assert!(!report_a.is_empty());
    assert_eq!(
        report_a, report_b,
        "same-seed critical-path reports must be byte-identical"
    );
}

#[test]
fn per_hop_attribution_sums_to_end_to_end_latency() {
    let (rec, _) = faulted_run(42, Recorder::full());
    let trees = build_traces(&rec.causal_records());
    assert!(
        trees.len() >= 3,
        "expected several traces, got {}",
        trees.len()
    );
    // The faulted scenario exercises all three flow kinds.
    for kind in [FlowKind::Dispatch, FlowKind::Sweep, FlowKind::Recovery] {
        assert!(
            trees.iter().any(|t| t.flow == kind),
            "no {} trace recorded",
            kind.name()
        );
    }
    for t in &trees {
        let cp = t.critical_path();
        assert_eq!(
            cp.component_sum_us(),
            cp.end_to_end_us,
            "trace {}: components must sum exactly to end-to-end latency\n{}",
            t.trace,
            render_critical_path(&cp)
        );
    }
    // The dead satellite's dispatch timeouts are attributed as backoff
    // intervals on the affected traces.
    let total_backoffs: usize = trees.iter().map(|t| t.backoffs.len()).sum();
    assert!(
        total_backoffs > 0,
        "faulted run should record backoff intervals"
    );
}

#[test]
fn causal_tracing_does_not_perturb_the_simulation() {
    let (_, plain) = faulted_run(42, Recorder::disabled());
    let (_, traced) = faulted_run(42, Recorder::full());
    // An enabled recorder queues two extra fault-marker events per outage
    // (pre-existing behavior, so node up/down land in the trace); those
    // markers touch no actor, so everything else must match exactly.
    assert_eq!(
        plain.sim.events_processed() + 2,
        traced.sim.events_processed(),
        "tracing changed the event count beyond the fault markers"
    );
    let (p, t) = (plain.master(), traced.master());
    assert_eq!(p.records.len(), t.records.len());
    for (a, b) in p.records.iter().zip(t.records.iter()) {
        assert_eq!(a.job, b.job);
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.launch_done, b.launch_done);
        assert_eq!(a.finished, b.finished);
    }
    assert_eq!(p.reassignments(), t.reassignments());
    assert_eq!(p.takeovers(), t.takeovers());
    assert_eq!(p.sweeps().len(), t.sweeps().len());
}

/// A minimal fixed-fan-out relay: node 0 roots a dispatch trace and sends
/// to 1 and 2; node 2 forwards to 3 and 4; everyone else just receives.
struct FanOut;

impl Actor<u64> for FanOut {
    fn on_start(&mut self, ctx: &mut dyn Context<u64>) {
        if ctx.me() == NodeId(0) {
            ctx.trace_begin(FlowKind::Dispatch);
            ctx.send(NodeId(1), 7);
            ctx.send(NodeId(2), 7);
        }
    }
    fn on_message(&mut self, ctx: &mut dyn Context<u64>, _from: NodeId, msg: u64) {
        if ctx.me() == NodeId(2) {
            ctx.send(NodeId(3), msg);
            ctx.send(NodeId(4), msg);
        }
    }
}

#[test]
fn fan_out_relay_reconstructs_the_known_tree_shape() {
    let rec = Recorder::full();
    let cfg = SimConfig {
        obs: rec.clone(),
        ..SimConfig::new(5, 9)
    };
    let mut sim = eslurm_suite::emu::SimCluster::new((0..5).map(|_| FanOut).collect(), cfg);
    sim.run_to_quiescence();

    let trees = build_traces(&rec.causal_records());
    assert_eq!(trees.len(), 1, "the relay should record exactly one trace");
    assert_eq!(trees[0].shape(), "dispatch:0(1,2(3,4))");
}
