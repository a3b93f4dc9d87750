//! Exporters: Chrome-trace JSON (for `chrome://tracing` / Perfetto),
//! JSONL, the JSON metrics summary, and the Prometheus text exposition.
//!
//! Every exported field is numeric or a static string from the event
//! taxonomy, so the JSON is assembled by hand — no escaping, no serde
//! dependency, and the output is byte-for-byte deterministic. The
//! Prometheus rendering walks metrics in id order (static ids first,
//! labeled families alphabetically), so it too is reproducible.

use std::fmt::Write as _;

use crate::audit::{Decision, DecisionRecord};
use crate::causal::CausalRecord;
use crate::event::TraceEvent;
use crate::metric::{Counter, Gauge, Hist, HistSnapshot};
use crate::recorder::{LabeledValue, MetricsSummary, Recorder};
use crate::slo::{SloEvent, SLO_TRACK_PID};

/// Append one event as a Chrome-trace JSON object. Spans use ph "X"
/// (complete), instants ph "i" with process scope.
fn push_chrome_event(out: &mut String, e: &TraceEvent) {
    let (an, bn) = e.kind.arg_names();
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":0,\"tid\":{},\"ts\":{}",
        e.kind.name(),
        e.kind.category(),
        e.node,
        e.ts_us
    );
    if e.dur_us > 0 {
        let _ = write!(out, ",\"ph\":\"X\",\"dur\":{}", e.dur_us);
    } else {
        out.push_str(",\"ph\":\"i\",\"s\":\"p\"");
    }
    out.push_str(",\"args\":{");
    let mut first = true;
    for (name, val) in [(an, e.a), (bn, e.b)] {
        if !name.is_empty() {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{val}");
            first = false;
        }
    }
    out.push_str("}}");
}

/// A Chrome-trace document (`{"traceEvents":[...]}`): the node lanes and
/// optional tracks beside them. Every track defaults to empty, and an
/// empty track adds no byte, so `ChromeTrace { events, ..Default::default()
/// }` renders the node lanes alone. Set the tracks you have and take the
/// rest from `..Default::default()`.
#[derive(Clone, Copy, Default)]
pub struct ChromeTrace<'a> {
    /// The node lanes (pid 0, one thread per node), in virtual time.
    pub events: &'a [TraceEvent],
    /// Causal hops, each rendered as a pair of Chrome *flow events*
    /// (`ph:"s"` on the sender at send time, `ph:"f"` binding to the
    /// receiver's enclosing slice at receive time), so Perfetto draws
    /// cross-node arrows from a send to the work it triggered.
    pub flows: &'a [CausalRecord],
    /// The decision audit log as *job lanes*: a second Chrome process
    /// (pid 1, one thread per job id) whose queued→run spans sit next to
    /// the node lanes, with the backfill skips in between.
    pub jobs: &'a [DecisionRecord],
    /// SLO breach / clear transitions as virtual-time instants
    /// on their own track ([`crate::slo::SLO_TRACK_PID`], one thread per
    /// spec), grouped as one "slo" strip in Perfetto.
    pub slo: &'a [SloEvent],
}

impl ChromeTrace<'_> {
    /// Render the document, all tracks merged and sorted by timestamp.
    pub fn render(&self) -> String {
        let mut items: Vec<(u64, String)> = Vec::with_capacity(
            self.events.len() + self.flows.len() * 2 + self.jobs.len() + self.slo.len(),
        );
        for e in self.events {
            let mut s = String::with_capacity(96);
            push_chrome_event(&mut s, e);
            items.push((e.ts_us, s));
        }
        for r in self.flows {
            if let CausalRecord::Hop {
                span,
                flow,
                from,
                to,
                send_us,
                recv_us,
                ..
            } = *r
            {
                items.push((
                    send_us,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"causal\",\"ph\":\"s\",\"id\":{span},\
                         \"pid\":0,\"tid\":{from},\"ts\":{send_us}}}",
                        flow.name()
                    ),
                ));
                items.push((
                    recv_us,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"causal\",\"ph\":\"f\",\"bp\":\"e\",\
                         \"id\":{span},\"pid\":0,\"tid\":{to},\"ts\":{recv_us}}}",
                        flow.name()
                    ),
                ));
            }
        }
        push_job_lane_items(&mut items, self.jobs);
        push_slo_track_items(&mut items, self.slo);
        items.sort_by_key(|(ts, _)| *ts);
        let mut out = String::with_capacity(items.len() * 96 + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, (_, s)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(s);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Fold the audit log into per-job lane items on pid 1: `queued` spans
/// from (re)submission to start, `run` spans from start to completion or
/// kill, and thread-scoped instants for backfill skips.
fn push_job_lane_items(items: &mut Vec<(u64, String)>, audit: &[DecisionRecord]) {
    use std::collections::BTreeMap;
    if audit.is_empty() {
        return;
    }
    items.push((
        0,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
         \"args\":{\"name\":\"jobs\"}}"
            .to_string(),
    ));
    let mut queued_since: BTreeMap<u64, u64> = BTreeMap::new();
    let mut run_since: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
    for r in audit {
        match &r.decision {
            Decision::Submitted | Decision::Resubmitted { .. } => {
                queued_since.insert(r.job, r.t_us);
            }
            Decision::Started { nodes } => {
                if let Some(q0) = queued_since.remove(&r.job) {
                    items.push((
                        q0,
                        format!(
                            "{{\"name\":\"queued\",\"cat\":\"job\",\"ph\":\"X\",\"pid\":1,\
                             \"tid\":{},\"ts\":{q0},\"dur\":{},\
                             \"args\":{{\"est_s\":{},\"source\":\"{}\"}}}}",
                            r.job,
                            r.t_us - q0,
                            r.est.value_us / 1_000_000,
                            r.est.source.name()
                        ),
                    ));
                }
                run_since.insert(r.job, (r.t_us, *nodes));
            }
            Decision::Completed { .. } | Decision::KilledAtLimit { .. } => {
                if let Some((s0, nodes)) = run_since.remove(&r.job) {
                    let name = if matches!(r.decision, Decision::KilledAtLimit { .. }) {
                        "run (killed)"
                    } else {
                        "run"
                    };
                    items.push((
                        s0,
                        format!(
                            "{{\"name\":\"{name}\",\"cat\":\"job\",\"ph\":\"X\",\"pid\":1,\
                             \"tid\":{},\"ts\":{s0},\"dur\":{},\"args\":{{\"nodes\":{nodes}}}}}",
                            r.job,
                            r.t_us - s0,
                        ),
                    ));
                }
            }
            Decision::SkippedBackfill { reason } => {
                items.push((
                    r.t_us,
                    format!(
                        "{{\"name\":\"skip:{}\",\"cat\":\"job\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{}}}}",
                        reason.name(),
                        r.job,
                        r.t_us
                    ),
                ));
            }
            _ => {}
        }
    }
}

/// Fold SLO transitions into their own Chrome process
/// ([`SLO_TRACK_PID`], one thread per spec name, in first-seen order).
/// Virtual-time instants, process-scoped so Perfetto draws a full-height
/// marker at each breach.
fn push_slo_track_items(items: &mut Vec<(u64, String)>, slo: &[SloEvent]) {
    if slo.is_empty() {
        return;
    }
    items.push((
        0,
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{SLO_TRACK_PID},\
             \"args\":{{\"name\":\"slo\"}}}}"
        ),
    ));
    let mut tids: Vec<&str> = Vec::new();
    for e in slo {
        if !tids.iter().any(|n| *n == e.name) {
            let tid = tids.len();
            tids.push(&e.name);
            items.push((
                0,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{SLO_TRACK_PID},\
                     \"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                    e.name
                ),
            ));
        }
    }
    for e in slo {
        let tid = tids.iter().position(|n| *n == e.name).unwrap_or(0);
        items.push((
            e.t_us,
            format!(
                "{{\"name\":\"{}:{}\",\"cat\":\"slo\",\"ph\":\"i\",\"s\":\"p\",\
                 \"pid\":{SLO_TRACK_PID},\"tid\":{tid},\"ts\":{},\
                 \"args\":{{\"value\":{},\"target\":{}}}}}",
                e.kind.as_str(),
                e.name,
                e.t_us,
                chrome_f64(e.value),
                chrome_f64(e.target),
            ),
        ));
    }
}

/// Finite-only `f64` rendering for hand-built JSON (NaN/inf are not valid
/// JSON numbers; clamp them to 0 rather than corrupt the document).
fn chrome_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Render events as JSONL: one flat object per line, in recording order
/// (useful for `jq`/grep pipelines and diffing same-seed runs).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 80);
    for e in events {
        let _ = writeln!(
            out,
            "{{\"ts_us\":{},\"dur_us\":{},\"node\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
            e.ts_us,
            e.dur_us,
            e.node,
            e.kind.name(),
            e.a,
            e.b
        );
    }
    out
}

/// Render a metrics summary as a single JSON object
/// (`{"counters":{...},"gauges":{...},"hists":{...}}`).
pub fn summary_to_json(s: &MetricsSummary) -> String {
    let mut out = String::new();
    out.push_str("{\"counters\":{");
    for (i, (c, v)) in s.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", c.name());
    }
    out.push_str("},\"gauges\":{");
    for (i, (g, v)) in s.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", g.name());
    }
    out.push_str("},\"hists\":{");
    for (i, (h, snap)) in s.hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"sum\":{},\"bounds\":[",
            h.name(),
            snap.count,
            snap.sum
        );
        for (j, b) in snap.bounds.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("],\"buckets\":[");
        for (j, c) in snap.counts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        out.push_str("]}");
    }
    let _ = write!(out, "}},\"n_events\":{}}}", s.n_events);
    out
}

/// Prefix for every exposed metric family, namespacing the reproduction's
/// metrics when scraped alongside other exporters.
pub const PROM_PREFIX: &str = "eslurm_";

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn push_hist_lines(out: &mut String, family: &str, label_prefix: &str, snap: &HistSnapshot) {
    let mut cum = 0u64;
    for (i, b) in snap.bounds.iter().enumerate() {
        cum += snap.counts[i];
        let _ = if label_prefix.is_empty() {
            writeln!(out, "{family}_bucket{{le=\"{b}\"}} {cum}")
        } else {
            writeln!(out, "{family}_bucket{{{label_prefix},le=\"{b}\"}} {cum}")
        };
    }
    let _ = if label_prefix.is_empty() {
        writeln!(out, "{family}_bucket{{le=\"+Inf\"}} {}", snap.count)
    } else {
        writeln!(
            out,
            "{family}_bucket{{{label_prefix},le=\"+Inf\"}} {}",
            snap.count
        )
    };
    if label_prefix.is_empty() {
        let _ = writeln!(out, "{family}_sum {}", snap.sum);
        let _ = writeln!(out, "{family}_count {}", snap.count);
    } else {
        let _ = writeln!(out, "{family}_sum{{{label_prefix}}} {}", snap.sum);
        let _ = writeln!(out, "{family}_count{{{label_prefix}}} {}", snap.count);
    }
}

/// Render a label set (already sorted) as `k1="v1",k2="v2"` with values
/// escaped — no surrounding braces, so histogram lines can append `le`.
fn label_body(labels: &[(&'static str, String)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", crate::label::escape_label_value(v));
    }
    out
}

/// Render every metric the recorder holds in the Prometheus text
/// exposition format: `# HELP` / `# TYPE` per family, cumulative `le`
/// buckets plus `_sum`/`_count` for histograms, label values escaped.
/// A disabled recorder renders to an empty document.
pub fn to_prometheus(rec: &Recorder) -> String {
    let mut out = String::with_capacity(8 * 1024);
    if !rec.enabled() {
        return out;
    }
    for c in Counter::all() {
        let fam = format!("{PROM_PREFIX}{}", c.name());
        let _ = writeln!(out, "# HELP {fam} {}", escape_help(c.help()));
        let _ = writeln!(out, "# TYPE {fam} counter");
        let _ = writeln!(out, "{fam} {}", rec.counter(c));
    }
    for g in Gauge::all() {
        let fam = format!("{PROM_PREFIX}{}", g.name());
        let _ = writeln!(out, "# HELP {fam} {}", escape_help(g.help()));
        let _ = writeln!(out, "# TYPE {fam} gauge");
        let _ = writeln!(out, "{fam} {}", rec.gauge(g));
    }
    for h in Hist::all() {
        let fam = format!("{PROM_PREFIX}{}", h.name());
        let _ = writeln!(out, "# HELP {fam} {}", escape_help(h.help()));
        let _ = writeln!(out, "# TYPE {fam} histogram");
        push_hist_lines(&mut out, &fam, "", &rec.hist(h));
    }
    // Labeled metrics arrive sorted by id (name first), so one pass can
    // emit each family header exactly once. A labeled family may share its
    // name with a fixed counter/gauge (e.g. `tasks_assigned{sat=..}` beside
    // the total) — the format allows one TYPE line per name, so those reuse
    // the header already written above.
    let already_typed: std::collections::HashSet<&'static str> = Counter::all()
        .iter()
        .map(|c| c.name())
        .chain(Gauge::all().iter().map(|g| g.name()))
        .chain(Hist::all().iter().map(|h| h.name()))
        .collect();
    let mut last_family: Option<&'static str> = None;
    for (id, value) in rec.labeled_snapshot() {
        let fam = format!("{PROM_PREFIX}{}", id.name());
        if last_family != Some(id.name()) {
            if !already_typed.contains(id.name()) {
                let kind = match &value {
                    LabeledValue::Counter(_) => "counter",
                    LabeledValue::Gauge(_) => "gauge",
                    LabeledValue::Hist(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {fam} {kind}");
            }
            last_family = Some(id.name());
        }
        let body = label_body(id.labels());
        match value {
            LabeledValue::Counter(v) => {
                let _ = if body.is_empty() {
                    writeln!(out, "{fam} {v}")
                } else {
                    writeln!(out, "{fam}{{{body}}} {v}")
                };
            }
            LabeledValue::Gauge(v) => {
                let _ = if body.is_empty() {
                    writeln!(out, "{fam} {v}")
                } else {
                    writeln!(out, "{fam}{{{body}}} {v}")
                };
            }
            LabeledValue::Hist(snap) => push_hist_lines(&mut out, &fam, &body, &snap),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::label::MetricId;
    use crate::recorder::Recorder;
    use serde::Value;

    fn as_u64(v: &Value) -> Option<u64> {
        match v {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    fn as_str(v: &Value) -> Option<&str> {
        match v {
            Value::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    fn as_array(v: &Value) -> Option<&[Value]> {
        match v {
            Value::Array(a) => Some(a.as_slice()),
            _ => None,
        }
    }

    /// The Chrome-trace document must parse as JSON with the documented
    /// shape: a traceEvents array of objects carrying name/ph/ts/pid/tid,
    /// spans with dur, instants with scope.
    #[test]
    fn chrome_trace_shape_parses() {
        let r = Recorder::full();
        r.span(10, 5, 1, EventKind::MsgSend, 2, 7);
        r.event(20, 2, EventKind::NodeDown, 0, 0);
        r.event(15, 2, EventKind::MsgRecv, 1, 7);
        let events = r.events();
        let doc = ChromeTrace {
            events: &events,
            ..Default::default()
        }
        .render();

        let v = serde_json::parse_value_str(&doc).expect("chrome trace must be valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 3);
        // Sorted by ts on export.
        let ts: Vec<u64> = events
            .iter()
            .map(|e| e.get("ts").and_then(as_u64).unwrap())
            .collect();
        assert_eq!(ts, vec![10, 15, 20]);

        let span = &events[0];
        assert_eq!(span.get("name").and_then(as_str), Some("msg_send"));
        assert_eq!(span.get("ph").and_then(as_str), Some("X"));
        assert_eq!(span.get("dur").and_then(as_u64), Some(5));
        assert_eq!(span.get("pid").and_then(as_u64), Some(0));
        assert_eq!(span.get("tid").and_then(as_u64), Some(1));
        let args = span.get("args").expect("args object");
        assert_eq!(args.get("dst").and_then(as_u64), Some(2));
        assert_eq!(args.get("bytes").and_then(as_u64), Some(7));

        let instant = &events[2];
        assert_eq!(instant.get("ph").and_then(as_str), Some("i"));
        assert_eq!(instant.get("s").and_then(as_str), Some("p"));
        assert!(instant.get("dur").is_none());
        assert_eq!(v.get("displayTimeUnit").and_then(as_str), Some("ms"));
    }

    /// Each causal hop renders as a matched `ph:"s"` / `ph:"f"` flow-event
    /// pair sharing an id, interleaved in timestamp order with the rest of
    /// the trace, and the whole document still parses.
    #[test]
    fn flow_events_pair_send_and_finish() {
        use crate::causal::{CausalRecord, FlowKind};
        let r = Recorder::full();
        r.span(100, 40, 1, EventKind::MsgProcess, 0, 16);
        let root = r.causal_begin(FlowKind::Sweep, 0, 50).expect("causal on");
        let child = r.causal_child(root).expect("child ctx");
        r.causal_record(CausalRecord::Hop {
            trace: root.trace,
            span: child.span,
            parent: root.span,
            flow: FlowKind::Sweep,
            depth: 1,
            from: 0,
            to: 1,
            send_us: 60,
            queue_us: 5,
            link_us: 35,
            recv_us: 100,
            process_us: 40,
        });
        let doc = ChromeTrace {
            events: &r.events(),
            flows: &r.causal_records(),
            ..Default::default()
        }
        .render();
        let v = serde_json::parse_value_str(&doc).expect("flow trace must be valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(as_array)
            .expect("traceEvents array");
        let start = events
            .iter()
            .find(|e| e.get("ph").and_then(as_str) == Some("s"))
            .expect("flow start event");
        let finish = events
            .iter()
            .find(|e| e.get("ph").and_then(as_str) == Some("f"))
            .expect("flow finish event");
        assert_eq!(start.get("cat").and_then(as_str), Some("causal"));
        assert_eq!(start.get("name").and_then(as_str), Some("sweep"));
        assert_eq!(start.get("id"), finish.get("id"));
        assert_eq!(start.get("tid").and_then(as_u64), Some(0));
        assert_eq!(start.get("ts").and_then(as_u64), Some(60));
        assert_eq!(finish.get("tid").and_then(as_u64), Some(1));
        assert_eq!(finish.get("ts").and_then(as_u64), Some(100));
        assert_eq!(finish.get("bp").and_then(as_str), Some("e"));
    }

    /// The audit log renders as a second process of job lanes: queued and
    /// run spans on pid 1 keyed by job id, skips as thread instants, plus
    /// a process_name metadata event — and the document still parses.
    #[test]
    fn job_lanes_render_queue_and_run_spans() {
        use crate::audit::{Decision, DecisionLog, EstSource, EstimateRef, SkipReason};
        let log = DecisionLog::unbounded();
        let est = EstimateRef::new(60_000_000, EstSource::Model).with_cluster(Some(2));
        log.record(1_000, 7, est, Decision::Submitted);
        log.record(
            2_000,
            7,
            est,
            Decision::SkippedBackfill {
                reason: SkipReason::NoFreeNodes,
            },
        );
        log.record(5_000, 7, est, Decision::Started { nodes: 4 });
        log.record(9_000, 7, est, Decision::Completed { est_error_us: 0 });
        let doc = ChromeTrace {
            jobs: &log.records(),
            ..Default::default()
        }
        .render();
        let v = serde_json::parse_value_str(&doc).expect("job-lane trace must be valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(as_array)
            .expect("traceEvents array");
        let by_name = |n: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(as_str) == Some(n))
                .unwrap_or_else(|| panic!("missing event {n}"))
        };
        let queued = by_name("queued");
        assert_eq!(queued.get("pid").and_then(as_u64), Some(1));
        assert_eq!(queued.get("tid").and_then(as_u64), Some(7));
        assert_eq!(queued.get("ts").and_then(as_u64), Some(1_000));
        assert_eq!(queued.get("dur").and_then(as_u64), Some(4_000));
        let args = queued.get("args").expect("queued args");
        assert_eq!(args.get("est_s").and_then(as_u64), Some(60));
        assert_eq!(args.get("source").and_then(as_str), Some("model"));
        let run = by_name("run");
        assert_eq!(run.get("ts").and_then(as_u64), Some(5_000));
        assert_eq!(run.get("dur").and_then(as_u64), Some(4_000));
        let skip = by_name("skip:no_free_nodes");
        assert_eq!(skip.get("ph").and_then(as_str), Some("i"));
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(as_str) == Some("M")));
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let r = Recorder::full();
        r.event(5, 0, EventKind::JobSubmit, 9, 3);
        r.span(6, 2, 1, EventKind::TaskService, 9, 0);
        let text = to_jsonl(&r.events());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = serde_json::parse_value_str(line).expect("each line parses");
            assert!(v.get("ts_us").is_some());
            assert!(v.get("kind").and_then(as_str).is_some());
        }
    }

    #[test]
    fn summary_json_parses_and_round_trips_counts() {
        use crate::metric::{Counter, Hist};
        let r = Recorder::metrics_only();
        r.add(Counter::MsgsSent, 12);
        r.observe(Hist::HopLatencyUs, 150);
        let doc = summary_to_json(&r.summary());
        let v = serde_json::parse_value_str(&doc).expect("summary is valid JSON");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("msgs_sent"))
                .and_then(as_u64),
            Some(12)
        );
        let hist = v
            .get("hists")
            .and_then(|h| h.get("hop_latency_us"))
            .expect("hist entry");
        assert_eq!(hist.get("count").and_then(as_u64), Some(1));
        assert_eq!(hist.get("sum").and_then(as_u64), Some(150));
    }

    #[test]
    fn prometheus_exposition_has_help_type_and_cumulative_buckets() {
        use crate::metric::{Counter, Gauge, Hist};
        let r = Recorder::metrics_only();
        r.add(Counter::MsgsSent, 3);
        r.gauge_set(Gauge::QueueDepth, 4);
        r.observe(Hist::HopLatencyUs, 15); // <= 20 bucket
        r.observe(Hist::HopLatencyUs, 15);
        let text = to_prometheus(&r);
        assert!(text.contains("# HELP eslurm_msgs_sent Messages handed to the transport.\n"));
        assert!(text.contains("# TYPE eslurm_msgs_sent counter\neslurm_msgs_sent 3\n"));
        assert!(text.contains("# TYPE eslurm_queue_depth gauge\neslurm_queue_depth 4\n"));
        assert!(text.contains("# TYPE eslurm_hop_latency_us histogram\n"));
        // Buckets are cumulative: le="10" holds 0, le="20" holds both.
        assert!(text.contains("eslurm_hop_latency_us_bucket{le=\"10\"} 0\n"));
        assert!(text.contains("eslurm_hop_latency_us_bucket{le=\"20\"} 2\n"));
        assert!(text.contains("eslurm_hop_latency_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("eslurm_hop_latency_us_sum 30\n"));
        assert!(text.contains("eslurm_hop_latency_us_count 2\n"));
    }

    #[test]
    fn prometheus_renders_labeled_families_once() {
        let r = Recorder::metrics_only();
        r.labeled_counter(MetricId::new("footprint_rpcs").with("node", "master"))
            .add(7);
        r.labeled_counter(MetricId::new("footprint_rpcs").with("node", "sat1"))
            .inc();
        let text = to_prometheus(&r);
        assert_eq!(
            text.matches("# TYPE eslurm_footprint_rpcs counter").count(),
            1
        );
        assert!(text.contains("eslurm_footprint_rpcs{node=\"master\"} 7\n"));
        assert!(text.contains("eslurm_footprint_rpcs{node=\"sat1\"} 1\n"));
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let r = Recorder::metrics_only();
        r.labeled_gauge(MetricId::new("g").with("k", "a\"b\\c\nd"))
            .set(1);
        let text = to_prometheus(&r);
        assert!(text.contains("eslurm_g{k=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn disabled_recorder_renders_empty() {
        assert!(to_prometheus(&Recorder::disabled()).is_empty());
    }
}
