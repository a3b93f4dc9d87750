//! The `Recorder`: a cheaply-cloneable handle every daemon holds.
//!
//! A disabled recorder is a `None` — every recording call is an inlined
//! branch on an `Option` discriminant, so the instrumented hot paths cost
//! nothing when observability is off. An enabled recorder is an `Rc` of
//! one arena of `Cell`s (counters/gauges/histograms) plus, in full-trace
//! mode, a `RefCell`'d event vector: the program is single-threaded, so a
//! record is a plain load and store. Beyond the static metric ids, a
//! labeled registry maps [`MetricId`]s to per-entity cells: registering
//! returns a handle that records into its cell directly, so the registry
//! lookup is paid once per entity, not per sample.
//!
//! No `RefCell` borrow here is held across a call that can reach the same
//! recorder, so no recording call can find its own state borrowed.

use std::cell::{Cell, Ref, RefCell};
use std::collections::BTreeMap;
use std::rc::{Rc, Weak};

use simclock::SimTime;

use crate::causal::{CausalRecord, FlowKind, TraceContext};
use crate::event::{EventKind, TraceEvent};
use crate::label::MetricId;
use crate::metric::{bump, Counter, Gauge, Hist, HistSnapshot, Histogram, N_COUNTERS, N_GAUGES};

enum LabeledCell {
    Counter(Rc<Cell<u64>>),
    Gauge(Rc<Cell<i64>>),
    Hist(Rc<Histogram>),
}

impl LabeledCell {
    fn kind(&self) -> &'static str {
        match self {
            LabeledCell::Counter(_) => "counter",
            LabeledCell::Gauge(_) => "gauge",
            LabeledCell::Hist(_) => "histogram",
        }
    }
}

struct Shared {
    /// Whether `event`/`span` and the causal log keep what they are
    /// handed (full-trace mode).
    record_events: bool,
    counters: [Cell<u64>; N_COUNTERS],
    gauges: [Cell<i64>; N_GAUGES],
    hists: Vec<Histogram>,
    labeled: RefCell<BTreeMap<MetricId, LabeledCell>>,
    events: RefCell<Vec<TraceEvent>>,
    /// Cross-node causal log (see [`crate::causal`]); only populated in
    /// full-trace mode, like `events`.
    causal: RefCell<Vec<CausalRecord>>,
    /// Trace/span id allocators shared by every producer recording here
    /// (the engine and the backfill scheduler), so all hops share one id
    /// space. Ids start at 1.
    next_trace: Cell<u64>,
    next_span: Cell<u64>,
}

impl Shared {
    fn new(record_events: bool) -> Self {
        Shared {
            record_events,
            counters: Default::default(),
            gauges: Default::default(),
            hists: Hist::all()
                .iter()
                .map(|h| Histogram::new(h.bounds()))
                .collect(),
            labeled: RefCell::default(),
            events: RefCell::default(),
            causal: RefCell::default(),
            next_trace: Cell::new(1),
            next_span: Cell::new(1),
        }
    }
}

/// Hand out the next id of an id allocator (wrapping, like the counters).
fn take_id(next: &Cell<u64>) -> u64 {
    next.replace(next.get().wrapping_add(1))
}

/// Handle to a (possibly disabled) metrics + trace sink. Clones share the
/// same sink; the default is disabled.
#[derive(Clone, Default)]
pub struct Recorder(Option<Rc<Shared>>);

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("Recorder(disabled)"),
            Some(s) if s.record_events => f.write_str("Recorder(full)"),
            Some(_) => f.write_str("Recorder(metrics)"),
        }
    }
}

impl Recorder {
    /// The no-op recorder: every call is an inlined early return.
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// Counters/gauges/histograms only — event calls are dropped. Use
    /// when only the summary numbers are wanted (e.g. bench bins).
    pub fn metrics_only() -> Self {
        Recorder(Some(Rc::new(Shared::new(false))))
    }

    /// Metrics plus the full event trace.
    pub fn full() -> Self {
        Recorder(Some(Rc::new(Shared::new(true))))
    }

    /// Whether any recording happens at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Whether the trace is kept: `event`/`span` calls and causal records
    /// (full-trace mode only). Producers check this before doing
    /// non-trivial work just to build an event — formatting, extra clock
    /// reads, allocating trace contexts — so metrics-only runs pay nothing.
    #[inline]
    pub fn events_enabled(&self) -> bool {
        matches!(&self.0, Some(s) if s.record_events)
    }

    /// Increment a counter by 1.
    #[inline]
    pub fn inc(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(s) = &self.0 {
            bump(&s.counters[c as usize], n);
        }
    }

    /// Set a gauge to an absolute value (last write wins).
    #[inline]
    pub fn gauge_set(&self, g: Gauge, v: i64) {
        if let Some(s) = &self.0 {
            s.gauges[g as usize].set(v);
        }
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&self, h: Hist, value: u64) {
        if let Some(s) = &self.0 {
            s.hists[h as usize].observe(value);
        }
    }

    /// Register (or fetch) the labeled counter `id` and return its handle.
    /// Handles from a disabled recorder are inert.
    ///
    /// # Panics
    /// If `id` is already registered as a different metric kind.
    pub fn labeled_counter(&self, id: MetricId) -> LabeledCounter {
        LabeledCounter(self.0.as_ref().map(|s| {
            let mut reg = s.labeled.borrow_mut();
            let cell = reg
                .entry(id.clone())
                .or_insert_with(|| LabeledCell::Counter(Rc::default()));
            match cell {
                LabeledCell::Counter(c) => c.clone(),
                other => panic!("{id} already registered as a {}", other.kind()),
            }
        }))
    }

    /// Register (or fetch) the labeled gauge `id` and return its handle.
    ///
    /// # Panics
    /// If `id` is already registered as a different metric kind.
    pub fn labeled_gauge(&self, id: MetricId) -> LabeledGauge {
        LabeledGauge(self.0.as_ref().map(|s| {
            let mut reg = s.labeled.borrow_mut();
            let cell = reg
                .entry(id.clone())
                .or_insert_with(|| LabeledCell::Gauge(Rc::default()));
            match cell {
                LabeledCell::Gauge(g) => g.clone(),
                other => panic!("{id} already registered as a {}", other.kind()),
            }
        }))
    }

    /// Register (or fetch) the labeled histogram `id` over `bounds` and
    /// return its handle. Re-registration keeps the original bounds.
    ///
    /// # Panics
    /// If `id` is already registered as a different metric kind.
    pub fn labeled_hist(&self, id: MetricId, bounds: &'static [u64]) -> LabeledHist {
        LabeledHist(self.0.as_ref().map(|s| {
            let mut reg = s.labeled.borrow_mut();
            let cell = reg
                .entry(id.clone())
                .or_insert_with(|| LabeledCell::Hist(Rc::new(Histogram::new(bounds))));
            match cell {
                LabeledCell::Hist(h) => h.clone(),
                other => panic!("{id} already registered as a {}", other.kind()),
            }
        }))
    }

    /// Snapshot every labeled metric, in id order.
    pub fn labeled_snapshot(&self) -> Vec<(MetricId, LabeledValue)> {
        match &self.0 {
            Some(s) => s
                .labeled
                .borrow()
                .iter()
                .map(|(id, cell)| {
                    let v = match cell {
                        LabeledCell::Counter(c) => LabeledValue::Counter(c.get()),
                        LabeledCell::Gauge(g) => LabeledValue::Gauge(g.get()),
                        LabeledCell::Hist(h) => LabeledValue::Hist(h.snapshot()),
                    };
                    (id.clone(), v)
                })
                .collect(),
            None => Vec::new(),
        }
    }

    /// The labeled registry borrowed for one read pass, or `None` when
    /// disabled. The sampler's per-tick path: it reads every value in
    /// place, with no id cloned and no histogram bucket copied.
    pub(crate) fn labeled_registry(&self) -> Option<LabeledRegistry<'_>> {
        self.0.as_ref().map(|s| LabeledRegistry {
            sink: s,
            reg: s.labeled.borrow(),
        })
    }

    /// Record an instant event.
    #[inline]
    pub fn event(&self, ts_us: u64, node: u32, kind: EventKind, a: u64, b: u64) {
        if let Some(s) = &self.0 {
            if s.record_events {
                s.events
                    .borrow_mut()
                    .push(TraceEvent::instant(ts_us, node, kind, a, b));
            }
        }
    }

    /// Record a complete span.
    #[inline]
    pub fn span(&self, ts_us: u64, dur_us: u64, node: u32, kind: EventKind, a: u64, b: u64) {
        if let Some(s) = &self.0 {
            if s.record_events {
                s.events
                    .borrow_mut()
                    .push(TraceEvent::span(ts_us, dur_us, node, kind, a, b));
            }
        }
    }

    /// Record an instant event at a virtual-clock timestamp.
    #[inline]
    pub fn event_at(&self, t: SimTime, node: u32, kind: EventKind, a: u64, b: u64) {
        self.event(t.as_micros(), node, kind, a, b);
    }

    /// Record a span between two virtual-clock timestamps (`end >= start`).
    #[inline]
    pub fn span_from(
        &self,
        start: SimTime,
        end: SimTime,
        node: u32,
        kind: EventKind,
        a: u64,
        b: u64,
    ) {
        self.span(
            start.as_micros(),
            end.as_micros().saturating_sub(start.as_micros()),
            node,
            kind,
            a,
            b,
        );
    }

    /// Start a new trace of `flow` rooted at `node`: allocates a trace and
    /// root-span id, records the [`CausalRecord::Root`], and returns the
    /// root context. `None` when causal tracing is off.
    pub fn causal_begin(&self, flow: FlowKind, node: u32, ts_us: u64) -> Option<TraceContext> {
        self.causal_root(flow, node, ts_us, 0, 0)
    }

    /// Like [`Recorder::causal_begin`] but with explicit root attribution —
    /// for transport-less producers (the backfill scheduler) that know how
    /// long the flow queued before starting and what starting it cost.
    pub fn causal_root(
        &self,
        flow: FlowKind,
        node: u32,
        ts_us: u64,
        queue_us: u64,
        process_us: u64,
    ) -> Option<TraceContext> {
        let s = self.0.as_ref()?;
        if !s.record_events {
            return None;
        }
        let trace = take_id(&s.next_trace);
        let span = take_id(&s.next_span);
        s.causal.borrow_mut().push(CausalRecord::Root {
            trace,
            span,
            flow,
            node,
            ts_us,
            queue_us,
            process_us,
        });
        Some(TraceContext {
            trace,
            span,
            depth: 0,
            flow,
        })
    }

    /// Allocate a child context under `parent` (one message hop deeper).
    /// Records nothing yet — the receiving transport completes the hop.
    pub fn causal_child(&self, parent: TraceContext) -> Option<TraceContext> {
        let s = self.0.as_ref()?;
        if !s.record_events {
            return None;
        }
        let span = take_id(&s.next_span);
        Some(TraceContext {
            trace: parent.trace,
            span,
            depth: parent.depth.saturating_add(1),
            flow: parent.flow,
        })
    }

    /// Append a completed causal record (hop or backoff).
    #[inline]
    pub fn causal_record(&self, r: CausalRecord) {
        if let Some(s) = &self.0 {
            if s.record_events {
                s.causal.borrow_mut().push(r);
            }
        }
    }

    /// Record a timeout/retry wait inside `ctx`'s trace over
    /// `[start_us, end_us]` on `node`.
    pub fn causal_backoff(&self, ctx: &TraceContext, node: u32, start_us: u64, end_us: u64) {
        self.causal_record(CausalRecord::Backoff {
            trace: ctx.trace,
            parent: ctx.span,
            node,
            start_us,
            end_us,
        });
    }

    /// Snapshot the causal log in recording order.
    pub fn causal_records(&self) -> Vec<CausalRecord> {
        match &self.0 {
            Some(s) => s.causal.borrow().clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot the recorded events in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.0 {
            Some(s) => s.events.borrow().clone(),
            None => Vec::new(),
        }
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        match &self.0 {
            Some(s) => s.counters[c as usize].get(),
            None => 0,
        }
    }

    /// Current value of a gauge.
    pub fn gauge(&self, g: Gauge) -> i64 {
        match &self.0 {
            Some(s) => s.gauges[g as usize].get(),
            None => 0,
        }
    }

    /// Snapshot of one histogram.
    pub fn hist(&self, h: Hist) -> HistSnapshot {
        match &self.0 {
            Some(s) => s.hists[h as usize].snapshot(),
            None => Histogram::new(h.bounds()).snapshot(),
        }
    }

    /// One histogram's observation count and sum, without copying its
    /// buckets (the sampler records only these two).
    pub(crate) fn hist_count_sum(&self, h: Hist) -> (u64, u64) {
        match &self.0 {
            Some(s) => s.hists[h as usize].count_sum(),
            None => (0, 0),
        }
    }

    /// Snapshot every metric into a summary.
    pub fn summary(&self) -> MetricsSummary {
        MetricsSummary {
            counters: Counter::all()
                .iter()
                .map(|&c| (c, self.counter(c)))
                .collect(),
            gauges: Gauge::all().iter().map(|&g| (g, self.gauge(g))).collect(),
            hists: Hist::all().iter().map(|&h| (h, self.hist(h))).collect(),
            n_events: match &self.0 {
                Some(s) => s.events.borrow().len(),
                None => 0,
            },
        }
    }
}

/// A registered per-entity counter; incrementing is one `Cell` add.
/// Handles from a disabled recorder do nothing.
#[derive(Clone, Debug, Default)]
pub struct LabeledCounter(Option<Rc<Cell<u64>>>);

impl LabeledCounter {
    /// Increment by 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            bump(c, n);
        }
    }

    /// Current value (0 when inert).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }
}

/// A registered per-entity gauge; setting is one `Cell` store.
#[derive(Clone, Debug, Default)]
pub struct LabeledGauge(Option<Rc<Cell<i64>>>);

impl LabeledGauge {
    /// Set to an absolute value (last write wins).
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.set(v);
        }
    }

    /// Adjust by a signed delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.0 {
            g.set(g.get().wrapping_add(delta));
        }
    }

    /// Current value (0 when inert).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.get())
    }
}

/// A registered per-entity histogram; observing writes its cells directly.
#[derive(Clone, Debug, Default)]
pub struct LabeledHist(Option<Rc<Histogram>>);

impl LabeledHist {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.observe(value);
        }
    }

    /// Snapshot the current contents (`None` when inert).
    pub fn snapshot(&self) -> Option<HistSnapshot> {
        self.0.as_ref().map(|h| h.snapshot())
    }
}

/// A borrowed view of a recorder's labeled registry (see
/// [`Recorder::labeled_registry`]).
pub(crate) struct LabeledRegistry<'a> {
    sink: &'a Rc<Shared>,
    reg: Ref<'a, BTreeMap<MetricId, LabeledCell>>,
}

/// Which recorder's registry, at which size, a reader resolved against.
/// Keys differ whenever the set of registered ids may have: a registry
/// only ever grows, and the `Weak` keeps the recorder's allocation alive,
/// so no recorder built after this one is dropped can take its address.
pub(crate) struct RegistryKey(Weak<Shared>, usize);

impl PartialEq for RegistryKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.ptr_eq(&other.0) && self.1 == other.1
    }
}

impl LabeledRegistry<'_> {
    /// The key of this registry as it stands.
    pub(crate) fn key(&self) -> RegistryKey {
        RegistryKey(Rc::downgrade(self.sink), self.reg.len())
    }

    /// Every labeled metric in id order, histograms as `(count, sum)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&MetricId, LabeledRead)> {
        self.reg.iter().map(|(id, cell)| {
            let v = match cell {
                LabeledCell::Counter(c) => LabeledRead::Counter(c.get()),
                LabeledCell::Gauge(g) => LabeledRead::Gauge(g.get()),
                LabeledCell::Hist(h) => {
                    let (count, sum) = h.count_sum();
                    LabeledRead::Hist { count, sum }
                }
            };
            (id, v)
        })
    }
}

/// A labeled metric's value as the sampler records it.
pub(crate) enum LabeledRead {
    Counter(u64),
    Gauge(i64),
    Hist { count: u64, sum: u64 },
}

/// A point-in-time value of one labeled metric.
#[derive(Clone, Debug)]
pub enum LabeledValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(i64),
    /// A histogram's snapshot.
    Hist(HistSnapshot),
}

/// A point-in-time copy of every metric a recorder holds.
#[derive(Clone, Debug)]
pub struct MetricsSummary {
    /// Counter values in id order.
    pub counters: Vec<(Counter, u64)>,
    /// Gauge values in id order.
    pub gauges: Vec<(Gauge, i64)>,
    /// Histogram snapshots in id order.
    pub hists: Vec<(Hist, HistSnapshot)>,
    /// Number of trace events collected alongside the metrics.
    pub n_events: usize,
}

impl std::fmt::Display for MetricsSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== metrics ({} trace events)", self.n_events)?;
        for (c, v) in &self.counters {
            if *v != 0 {
                writeln!(f, "  {:<24} {v}", c.name())?;
            }
        }
        for (g, v) in &self.gauges {
            if *v != 0 {
                writeln!(f, "  {:<24} {v}", g.name())?;
            }
        }
        for (h, s) in &self.hists {
            if s.count != 0 {
                writeln!(
                    f,
                    "  {:<24} n={} mean={:.1} p50<={} p99<={}",
                    h.name(),
                    s.count,
                    s.mean(),
                    s.quantile_bound(0.50).unwrap_or(0),
                    s.quantile_bound(0.99).unwrap_or(0),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        r.inc(Counter::MsgsSent);
        r.observe(Hist::HopLatencyUs, 42);
        r.event(1, 0, EventKind::NodeDown, 0, 0);
        let lc = r.labeled_counter(MetricId::new("x"));
        lc.inc();
        assert!(!r.enabled());
        assert_eq!(r.counter(Counter::MsgsSent), 0);
        assert_eq!(r.hist(Hist::HopLatencyUs).count, 0);
        assert_eq!(lc.get(), 0);
        assert!(r.events().is_empty());
        assert!(r.labeled_snapshot().is_empty());
    }

    #[test]
    fn metrics_only_drops_events_but_keeps_metrics() {
        let r = Recorder::metrics_only();
        r.inc(Counter::MsgsSent);
        r.gauge_set(Gauge::QueueDepth, 7);
        r.event(1, 0, EventKind::NodeDown, 0, 0);
        assert!(r.enabled());
        assert!(!r.events_enabled());
        assert_eq!(r.counter(Counter::MsgsSent), 1);
        assert_eq!(r.gauge(Gauge::QueueDepth), 7);
        assert!(r.events().is_empty());
    }

    #[test]
    fn clones_share_the_sink() {
        let r = Recorder::full();
        let r2 = r.clone();
        r2.add(Counter::JobsSubmitted, 3);
        r2.span(10, 5, 2, EventKind::MsgSend, 1, 0);
        assert_eq!(r.counter(Counter::JobsSubmitted), 3);
        let ev = r.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0], TraceEvent::span(10, 5, 2, EventKind::MsgSend, 1, 0));
        assert_eq!(r.summary().n_events, 1);
    }

    #[test]
    fn labeled_handles_share_cells_by_id() {
        let r = Recorder::metrics_only();
        let a = r.labeled_counter(MetricId::new("sent").with("node", "m"));
        let b = r.labeled_counter(MetricId::new("sent").with("node", "m"));
        let other = r.labeled_counter(MetricId::new("sent").with("node", "s1"));
        a.add(2);
        b.inc();
        other.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(other.get(), 1);
        let snap = r.labeled_snapshot();
        assert_eq!(snap.len(), 2);
        assert!(matches!(snap[0].1, LabeledValue::Counter(3)));
    }

    #[test]
    fn labeled_gauge_and_hist_record() {
        let r = Recorder::metrics_only();
        let g = r.labeled_gauge(MetricId::new("depth").with("rm", "eslurm"));
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        let h = r.labeled_hist(MetricId::new("lat").with("rm", "eslurm"), &[10, 100]);
        h.observe(7);
        h.observe(700);
        let snap = h.snapshot().expect("enabled hist snapshots");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.counts, vec![1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn labeled_kind_mismatch_panics() {
        let r = Recorder::metrics_only();
        let _ = r.labeled_counter(MetricId::new("x"));
        let _ = r.labeled_gauge(MetricId::new("x"));
    }
}
