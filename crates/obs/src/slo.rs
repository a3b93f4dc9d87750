//! Online SLO engine: burn-rate alerting evaluated *during* the run, in
//! virtual time.
//!
//! The PR 3–8 observability layers can prove the paper's latency claims
//! only after a run, by exporting and diffing series. This module closes
//! the loop while the simulation is still running: declarative
//! [`SloSpec`]s (a target plus fast/slow evaluation windows) are checked
//! on every engine sampling tick against the live [`crate::Recorder`]
//! histograms and gauges, using the SRE multi-window burn-rate rule — a
//! breach fires only when *both* the fast and the slow window burn past
//! the threshold, and clears with hysteresis when the fast window cools
//! down. The engine reads the recorder only; the [`crate::Sampler`] gives
//! it its cadence, not its data.
//!
//! Like every obs layer before it, the engine follows the recorder
//! discipline — `Option<Rc<..>>` handle, disabled by default, every call
//! an inlined branch — and is **non-perturbing** when enabled: it only
//! *reads* the recorder between events,
//! writes to its own state, and nothing it produces feeds back into
//! simulation decisions. Outcomes stay bit-identical and virtual-time
//! exports byte-identical with specs armed (pinned by
//! `tests/slo_engine.rs`). It writes no file: a
//! breach is an [`SloEvent`] in the report and on the export track.
//!
//! Breach/clear transitions are kept as [`SloEvent`]s; the
//! Chrome-trace export stamps them as instants on their own track
//! ([`SLO_TRACK_PID`]) so Perfetto shows breaches next to the node lanes
//! without interleaving.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use simclock::{SimSpan, SimTime};

use crate::metric::{bump, Gauge, Hist};
use crate::recorder::Recorder;

/// Chrome-trace process id for the SLO breach track. Virtual-time lanes
/// use pid 0 (nodes) and pid 1 (jobs); pid 2 stays unused so exports
/// written when it held a wall-clock track keep their bytes.
/// Breach instants ride their own pid so they group as one Perfetto track.
pub const SLO_TRACK_PID: u32 = 3;

/// Comparison direction of an SLO target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloOp {
    /// The signal must stay at or below the target (latency-style).
    AtMost,
    /// The signal must stay at or above the target (utilization-style).
    AtLeast,
}

impl SloOp {
    pub fn as_str(self) -> &'static str {
        match self {
            SloOp::AtMost => "<=",
            SloOp::AtLeast => ">=",
        }
    }
}

/// What an SLO watches.
#[derive(Clone, Debug)]
pub enum SloSignal {
    /// A quantile bound of a recorder histogram (cumulative from run
    /// start — the paper-style "p99 so far"). Skipped while the histogram
    /// is empty.
    HistQuantile { hist: Hist, q: f64 },
    /// The instantaneous value of a recorder gauge.
    GaugeValue { gauge: Gauge },
}

impl SloSignal {
    /// Human-readable signal description for reports.
    pub fn describe(&self) -> String {
        match self {
            SloSignal::HistQuantile { hist, q } => format!("{}[p{:.0}]", hist.name(), q * 100.0),
            SloSignal::GaugeValue { gauge } => gauge.name().to_string(),
        }
    }
}

/// One declarative SLO: a signal, a target, and the SRE-style
/// multi-window burn-rate parameters.
///
/// On every evaluation tick the signal is sampled and judged against the
/// target, producing a good/bad verdict. The *burn rate* of a window is
/// the fraction of bad verdicts inside it. A breach opens when both the
/// fast and the slow window burn at or above `burn_threshold` (fast
/// window = responsiveness, slow window = significance); it closes when
/// the fast window's burn falls to `clear_threshold` or below
/// (hysteresis — a breach does not flap at the boundary).
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// Report/alert name, e.g. `sweep_p99`.
    pub name: String,
    /// What to sample.
    pub signal: SloSignal,
    /// Comparison direction.
    pub op: SloOp,
    /// The objective the signal is held to.
    pub target: f64,
    /// Short window: how quickly a breach is detected.
    pub fast_window: SimSpan,
    /// Long window: how much history must agree before alerting.
    pub slow_window: SimSpan,
    /// Bad-verdict fraction at which a window is considered burning.
    pub burn_threshold: f64,
    /// Fast-window burn at or below which an open breach clears.
    pub clear_threshold: f64,
}

impl SloSpec {
    /// A spec with the default burn-rate windows (fast 30 s / slow 5 min,
    /// burn ≥ 0.5, clear ≤ 0.1) — tune fields directly for others.
    pub fn new(name: impl Into<String>, signal: SloSignal, op: SloOp, target: f64) -> Self {
        SloSpec {
            name: name.into(),
            signal,
            op,
            target,
            fast_window: SimSpan::from_secs(30),
            slow_window: SimSpan::from_secs(300),
            burn_threshold: 0.5,
            clear_threshold: 0.1,
        }
    }

    /// Preset: cumulative heartbeat-sweep completion p99 must stay at or
    /// below `target_us` (the paper's §II-B sweep-latency claim).
    pub fn sweep_p99(target_us: f64) -> Self {
        SloSpec::new(
            "sweep_p99_us",
            SloSignal::HistQuantile {
                hist: Hist::SweepCompletionUs,
                q: 0.99,
            },
            SloOp::AtMost,
            target_us,
        )
    }

    /// Preset: cumulative job queue-wait p90 must stay at or below
    /// `target_s` seconds (the §II-B response-time claim).
    pub fn queue_wait_p90(target_s: f64) -> Self {
        SloSpec::new(
            "queue_wait_p90_s",
            SloSignal::HistQuantile {
                hist: Hist::JobWaitS,
                q: 0.90,
            },
            SloOp::AtMost,
            target_s,
        )
    }

    /// Preset: the master's in-flight task backlog must stay at or below
    /// `max_depth` (inbox-depth pressure on the root of the FP-Tree).
    pub fn master_inbox(max_depth: f64) -> Self {
        SloSpec::new(
            "master_inbox_depth",
            SloSignal::GaugeValue {
                gauge: Gauge::TasksInFlight,
            },
            SloOp::AtMost,
            max_depth,
        )
    }

    /// Is `value` within objective?
    fn good(&self, value: f64) -> bool {
        match self.op {
            SloOp::AtMost => value <= self.target,
            SloOp::AtLeast => value >= self.target,
        }
    }
}

/// Kind of an SLO engine transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloEventKind {
    /// A spec's burn rate crossed the threshold in both windows.
    Breach,
    /// An open breach's fast window cooled below the clear threshold.
    Clear,
}

impl SloEventKind {
    pub fn as_str(self) -> &'static str {
        match self {
            SloEventKind::Breach => "breach",
            SloEventKind::Clear => "clear",
        }
    }
}

/// One breach/clear transition, stamped in virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct SloEvent {
    /// Virtual time of the transition, µs.
    pub t_us: u64,
    /// The spec that fired.
    pub name: String,
    /// What happened.
    pub kind: SloEventKind,
    /// Signal value at the transition.
    pub value: f64,
    /// The spec's target.
    pub target: f64,
}

/// Burn-rate state of one spec.
struct SpecState {
    spec: SloSpec,
    /// `(t_us, bad)` verdicts inside the slow window, oldest first.
    verdicts: VecDeque<(u64, bool)>,
    breached: bool,
    evals: u64,
    bad_ticks: u64,
    breaches: u64,
    /// First bad tick of the episode currently accumulating toward (or
    /// holding open) a breach.
    episode_bad_t: Option<u64>,
    first_breach_t: Option<u64>,
    /// First-breach detection latency: breach time minus the episode's
    /// first bad tick.
    detect_us: Option<u64>,
    last_value: Option<f64>,
}

struct SloInner {
    specs: Vec<SpecState>,
    events: Vec<SloEvent>,
}

struct SloShared {
    inner: RefCell<SloInner>,
    /// Wall-clock nanoseconds spent inside `evaluate` (overhead
    /// accounting only — never fed back into the simulation).
    eval_wall_ns: Cell<u64>,
    evals: Cell<u64>,
}

/// Cheaply-cloneable handle to a (possibly disabled) online SLO engine.
/// The default is disabled; clones share the same state.
#[derive(Clone, Default)]
pub struct SloEngine(Option<Rc<SloShared>>);

impl std::fmt::Debug for SloEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("SloEngine(disabled)"),
            Some(s) => {
                write!(
                    f,
                    "SloEngine(enabled, {} specs)",
                    s.inner.borrow().specs.len()
                )
            }
        }
    }
}

impl SloEngine {
    /// A disabled engine: every call is an inlined `None` check.
    pub fn disabled() -> Self {
        SloEngine(None)
    }

    /// An enabled engine evaluating `specs` on every sampling tick.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        SloEngine(Some(Rc::new(SloShared {
            inner: RefCell::new(SloInner {
                specs: specs
                    .into_iter()
                    .map(|spec| SpecState {
                        spec,
                        verdicts: VecDeque::new(),
                        breached: false,
                        evals: 0,
                        bad_ticks: 0,
                        breaches: 0,
                        episode_bad_t: None,
                        first_breach_t: None,
                        detect_us: None,
                        last_value: None,
                    })
                    .collect(),
                events: Vec::new(),
            }),
            eval_wall_ns: Cell::new(0),
            evals: Cell::new(0),
        })))
    }

    /// The paper-claim preset bundle: sweep p99, queue-wait p90, and
    /// master inbox depth (see EXPERIMENTS.md for the §II-B mapping).
    pub fn paper_presets(sweep_p99_us: f64, queue_wait_p90_s: f64, inbox_depth: f64) -> Self {
        SloEngine::new(vec![
            SloSpec::sweep_p99(sweep_p99_us),
            SloSpec::queue_wait_p90(queue_wait_p90_s),
            SloSpec::master_inbox(inbox_depth),
        ])
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Evaluate every spec at virtual time `t`. Called by the engine on
    /// each sampling tick (between events), so an enabled engine needs a
    /// sampling cadence — arm an end-bounded [`crate::Sampler`] on the
    /// cluster. Reads the recorder, writes only its own state:
    /// non-perturbing by construction.
    pub fn evaluate(&self, t: SimTime, rec: &Recorder) {
        let Some(shared) = &self.0 else { return };
        let _mem = crate::alloc::tag_scope(crate::alloc::MemTag::Obs);
        let wall_start = Instant::now();
        let t_us = t.as_micros();
        {
            let mut inner = shared.inner.borrow_mut();
            let SloInner { specs, events } = &mut *inner;
            for st in specs.iter_mut() {
                let Some(v) = sample_signal(&st.spec.signal, rec) else {
                    continue;
                };
                st.evals += 1;
                st.last_value = Some(v);
                let bad = !st.spec.good(v);
                if bad {
                    st.bad_ticks += 1;
                    if st.episode_bad_t.is_none() {
                        st.episode_bad_t = Some(t_us);
                    }
                }
                st.verdicts.push_back((t_us, bad));
                let slow_us = st.spec.slow_window.as_micros();
                while let Some(&(vt, _)) = st.verdicts.front() {
                    if t_us.saturating_sub(vt) > slow_us {
                        st.verdicts.pop_front();
                    } else {
                        break;
                    }
                }
                let fast_us = st.spec.fast_window.as_micros();
                let (mut fast_n, mut fast_bad, mut slow_bad) = (0u64, 0u64, 0u64);
                for &(vt, b) in &st.verdicts {
                    if b {
                        slow_bad += 1;
                    }
                    if t_us.saturating_sub(vt) <= fast_us {
                        fast_n += 1;
                        if b {
                            fast_bad += 1;
                        }
                    }
                }
                let fast_burn = fast_bad as f64 / fast_n.max(1) as f64;
                let slow_burn = slow_bad as f64 / st.verdicts.len().max(1) as f64;
                // A breach needs the verdict history to span the fast
                // window: a single bad tick trivially fills both windows
                // (burn 1.0) the instant a signal first appears, which
                // would collapse every detection latency to zero.
                let window_spanned = st
                    .verdicts
                    .front()
                    .is_some_and(|&(vt, _)| t_us.saturating_sub(vt) >= fast_us);
                if !st.breached
                    && window_spanned
                    && fast_burn >= st.spec.burn_threshold
                    && slow_burn >= st.spec.burn_threshold
                {
                    st.breached = true;
                    st.breaches += 1;
                    if st.first_breach_t.is_none() {
                        st.first_breach_t = Some(t_us);
                        st.detect_us = Some(t_us.saturating_sub(st.episode_bad_t.unwrap_or(t_us)));
                    }
                    events.push(SloEvent {
                        t_us,
                        name: st.spec.name.clone(),
                        kind: SloEventKind::Breach,
                        value: v,
                        target: st.spec.target,
                    });
                } else if st.breached && fast_burn <= st.spec.clear_threshold {
                    st.breached = false;
                    st.episode_bad_t = None;
                    events.push(SloEvent {
                        t_us,
                        name: st.spec.name.clone(),
                        kind: SloEventKind::Clear,
                        value: v,
                        target: st.spec.target,
                    });
                } else if !st.breached && !bad && fast_bad == 0 {
                    // Episode over without a breach: reset detection base.
                    st.episode_bad_t = None;
                }
            }
        }
        bump(&shared.evals, 1);
        bump(&shared.eval_wall_ns, wall_start.elapsed().as_nanos() as u64);
    }

    /// All breach/clear transitions so far, in firing order.
    pub fn events(&self) -> Vec<SloEvent> {
        match &self.0 {
            Some(s) => s.inner.borrow().events.clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot per-spec statistics and events into an owned report, or
    /// `None` when disabled.
    pub fn report(&self) -> Option<SloReport> {
        let s = self.0.as_ref()?;
        let inner = s.inner.borrow();
        Some(SloReport {
            specs: inner
                .specs
                .iter()
                .map(|st| SloSpecReport {
                    name: st.spec.name.clone(),
                    signal: st.spec.signal.describe(),
                    op: st.spec.op,
                    target: st.spec.target,
                    evals: st.evals,
                    bad_ticks: st.bad_ticks,
                    breaches: st.breaches,
                    breached_now: st.breached,
                    detect_us: st.detect_us,
                    last_value: st.last_value,
                })
                .collect(),
            events: inner.events.clone(),
            evals_total: s.evals.get(),
            eval_wall_ns: s.eval_wall_ns.get(),
        })
    }
}

/// Sample one signal, or `None` when it has no data yet.
fn sample_signal(signal: &SloSignal, rec: &Recorder) -> Option<f64> {
    match signal {
        SloSignal::HistQuantile { hist, q } => rec.hist(*hist).quantile_bound(*q).map(|b| b as f64),
        SloSignal::GaugeValue { gauge } => Some(rec.gauge(*gauge) as f64),
    }
}

/// Frozen per-spec numbers from an [`SloEngine::report`] snapshot.
#[derive(Clone, Debug)]
pub struct SloSpecReport {
    pub name: String,
    pub signal: String,
    pub op: SloOp,
    pub target: f64,
    /// Ticks on which the signal produced a value.
    pub evals: u64,
    /// Ticks whose verdict was bad.
    pub bad_ticks: u64,
    /// Breach episodes opened.
    pub breaches: u64,
    pub breached_now: bool,
    /// First-breach detection latency (µs from the episode's first bad
    /// tick to the breach), when a breach has fired.
    pub detect_us: Option<u64>,
    pub last_value: Option<f64>,
}

/// Owned snapshot of the whole SLO evaluation (the `eslurm slo-report`
/// body).
#[derive(Clone, Debug)]
pub struct SloReport {
    pub specs: Vec<SloSpecReport>,
    pub events: Vec<SloEvent>,
    /// Evaluation ticks run.
    pub evals_total: u64,
    /// Wall-clock nanoseconds spent evaluating (overhead accounting;
    /// varies run-to-run by design).
    pub eval_wall_ns: u64,
}

impl SloReport {
    /// Number of specs that breached at least once (the `--check` gate).
    pub fn unmet(&self) -> usize {
        self.specs.iter().filter(|s| s.breaches > 0).count()
    }

    /// Total breach events across specs.
    pub fn total_breaches(&self) -> u64 {
        self.specs.iter().map(|s| s.breaches).sum()
    }

    /// Render the per-spec table plus the event log tail (the
    /// `eslurm slo-report` body).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "slo report: {} spec(s), {} evaluation tick(s)\n\n",
            self.specs.len(),
            self.evals_total
        ));
        out.push_str(
            "spec                  signal                          objective        last      evals    bad  breaches  state    detect_ms\n",
        );
        for s in &self.specs {
            out.push_str(&format!(
                "{:<21} {:<30} {:>2} {:>12} {:>9} {:>10} {:>6} {:>9}  {:<8} {:>8}\n",
                s.name,
                s.signal,
                s.op.as_str(),
                fmt_f64(s.target),
                s.last_value.map_or("-".to_string(), fmt_f64),
                s.evals,
                s.bad_ticks,
                s.breaches,
                if s.breached_now { "BREACH" } else { "ok" },
                s.detect_us
                    .map_or("-".to_string(), |d| format!("{:.1}", d as f64 / 1000.0)),
            ));
        }
        if !self.events.is_empty() {
            out.push_str(&format!("\nevents ({}):\n", self.events.len()));
            for e in self
                .events
                .iter()
                .rev()
                .take(20)
                .collect::<Vec<_>>()
                .iter()
                .rev()
            {
                out.push_str(&format!(
                    "  t={:>10.3}s  {:<9} {:<21} value={} target={}\n",
                    e.t_us as f64 / 1e6,
                    e.kind.as_str(),
                    e.name,
                    fmt_f64(e.value),
                    fmt_f64(e.target),
                ));
            }
        }
        let unmet = self.unmet();
        out.push_str(&format!(
            "\nsummary: {}/{} specs met, {} breach event(s), eval overhead {:.3}ms wall\n",
            self.specs.len() - unmet,
            self.specs.len(),
            self.total_breaches(),
            self.eval_wall_ns as f64 / 1e6,
        ));
        out
    }

    /// CSV exposition: one row per spec, stable header.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "spec,signal,op,target,last_value,evals,bad_ticks,breaches,breached_now,detect_us\n",
        );
        for s in &self.specs {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                s.name,
                s.signal,
                s.op.as_str(),
                fmt_f64(s.target),
                s.last_value.map_or(String::new(), fmt_f64),
                s.evals,
                s.bad_ticks,
                s.breaches,
                s.breached_now,
                s.detect_us.map_or(String::new(), |d| d.to_string()),
            ));
        }
        out
    }

    /// JSON exposition (hand-rendered like the other obs exporters, so
    /// same-state reports are byte-identical).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"specs\":[");
        for (i, s) in self.specs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"signal\":\"{}\",\"op\":\"{}\",\"target\":{},\"last_value\":{},\"evals\":{},\"bad_ticks\":{},\"breaches\":{},\"breached_now\":{},\"detect_us\":{}}}",
                s.name,
                s.signal,
                s.op.as_str(),
                fmt_f64(s.target),
                s.last_value.map_or("null".to_string(), fmt_f64),
                s.evals,
                s.bad_ticks,
                s.breaches,
                s.breached_now,
                s.detect_us.map_or("null".to_string(), |d| d.to_string()),
            ));
        }
        out.push_str(&format!(
            "],\"events\":{},\"unmet\":{},\"evals_total\":{},\"eval_wall_ns\":{}}}",
            self.events.len(),
            self.unmet(),
            self.evals_total,
            self.eval_wall_ns,
        ));
        out
    }
}

/// Deterministic short `f64` rendering for the report bodies.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(engine: &SloEngine, rec: &Recorder, t_s: u64) {
        engine.evaluate(SimTime::from_secs(t_s), rec);
    }

    #[test]
    fn disabled_engine_is_inert() {
        let e = SloEngine::disabled();
        assert!(!e.enabled());
        tick(&e, &Recorder::disabled(), 1);
        assert!(e.events().is_empty());
        assert!(e.report().is_none());
    }

    #[test]
    fn burn_rate_breach_fires_and_clears_with_hysteresis() {
        let mut spec = SloSpec::master_inbox(10.0);
        spec.fast_window = SimSpan::from_secs(3);
        spec.slow_window = SimSpan::from_secs(10);
        let e = SloEngine::new(vec![spec]);
        let rec = Recorder::metrics_only();

        // Healthy for a while: no events.
        rec.gauge_set(Gauge::TasksInFlight, 2);
        for t in 1..=5 {
            tick(&e, &rec, t);
        }
        assert!(e.events().is_empty());

        // Backlog spikes: both windows burn, one breach fires.
        rec.gauge_set(Gauge::TasksInFlight, 50);
        for t in 6..=14 {
            tick(&e, &rec, t);
        }
        let events = e.events();
        assert_eq!(events.len(), 1, "exactly one breach: {events:?}");
        assert_eq!(events[0].kind, SloEventKind::Breach);
        assert!(e.report().unwrap().specs[0].breached_now);

        // Recovery: the fast window cools, the breach clears once.
        rec.gauge_set(Gauge::TasksInFlight, 1);
        for t in 15..=25 {
            tick(&e, &rec, t);
        }
        let events = e.events();
        assert_eq!(events.len(), 2, "breach then clear: {events:?}");
        assert_eq!(events[1].kind, SloEventKind::Clear);

        let report = e.report().unwrap();
        assert_eq!(report.specs[0].breaches, 1);
        assert!(!report.specs[0].breached_now);
        assert_eq!(report.unmet(), 1, "a cleared breach still counts as unmet");
        let detect = report.specs[0].detect_us.expect("detect latency recorded");
        assert!(detect > 0 && detect <= 10_000_000, "detect_us={detect}");
    }

    #[test]
    fn slow_window_gates_short_spikes() {
        let mut spec = SloSpec::master_inbox(10.0);
        spec.fast_window = SimSpan::from_secs(2);
        spec.slow_window = SimSpan::from_secs(60);
        let e = SloEngine::new(vec![spec]);
        let rec = Recorder::metrics_only();
        // A long good history, then a 3-tick spike: the fast window burns
        // but the slow window does not — no breach.
        rec.gauge_set(Gauge::TasksInFlight, 1);
        for t in 1..=40 {
            tick(&e, &rec, t);
        }
        rec.gauge_set(Gauge::TasksInFlight, 99);
        for t in 41..=43 {
            tick(&e, &rec, t);
        }
        assert!(e.events().is_empty(), "short spike must not breach");
    }

    #[test]
    fn hist_quantile_signal_skips_empty_then_judges() {
        let mut spec = SloSpec::sweep_p99(100.0); // 100µs: absurdly tight
        spec.fast_window = SimSpan::from_secs(2);
        spec.slow_window = SimSpan::from_secs(4);
        let e = SloEngine::new(vec![spec]);
        let rec = Recorder::metrics_only();
        // Empty histogram: ticks produce no verdicts.
        for t in 1..=3 {
            tick(&e, &rec, t);
        }
        assert_eq!(e.report().unwrap().specs[0].evals, 0);
        // Slow sweeps arrive: the cumulative p99 exceeds 100µs and burns.
        for _ in 0..50 {
            rec.observe(Hist::SweepCompletionUs, 900_000);
        }
        for t in 4..=10 {
            tick(&e, &rec, t);
        }
        let r = e.report().unwrap();
        assert!(r.specs[0].evals >= 6);
        assert_eq!(r.specs[0].breaches, 1);
        assert_eq!(r.unmet(), 1);
    }

    #[test]
    fn report_renders_all_formats() {
        let e = SloEngine::new(vec![SloSpec::sweep_p99(500_000.0)]);
        let rec = Recorder::metrics_only();
        rec.observe(Hist::SweepCompletionUs, 1_000);
        tick(&e, &rec, 1);
        let r = e.report().unwrap();
        let text = r.render();
        assert!(text.contains("sweep_p99_us"));
        assert!(text.contains("1/1 specs met"));
        let csv = r.to_csv();
        assert!(csv.starts_with("spec,signal,op,target"));
        assert!(csv.lines().count() == 2);
        let json = r.to_json();
        assert!(json.contains("\"unmet\":0"));
        assert!(json.contains("\"breaches\":0"));
        // Zero-spec report renders without panicking.
        let empty = SloEngine::new(Vec::new()).report().unwrap();
        assert!(empty.render().contains("0 spec(s)"));
        assert_eq!(empty.unmet(), 0);
    }
}
