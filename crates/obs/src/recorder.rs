//! The `Recorder`: a cheaply-cloneable handle every daemon holds.
//!
//! A disabled recorder is a `None` — every recording call is an inlined
//! branch on an `Option` discriminant, so the instrumented hot paths cost
//! nothing when observability is off. An enabled recorder points at one
//! shared arena of relaxed atomics (counters/gauges/histograms) plus, in
//! full-trace mode, a mutex-guarded event vector. Beyond the static metric
//! ids, a labeled registry maps [`MetricId`]s to per-entity cells:
//! registering returns a handle whose recording path is a single relaxed
//! atomic, so the registry lock is paid once per entity, not per sample.
//! An optional flight ring (see [`crate::flight`]) retains the most recent
//! events per node and dumps them when a node goes down.

use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use simclock::SimTime;

use crate::causal::{CausalRecord, FlowKind, TraceContext};
use crate::event::{EventKind, TraceEvent};
use crate::flight::{FlightConfig, FlightRecorder};
use crate::label::MetricId;
use crate::metric::{Counter, Gauge, Hist, HistSnapshot, Histogram, N_COUNTERS, N_GAUGES};

enum LabeledCell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Hist(Arc<Histogram>),
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

struct FlightState {
    ring: Mutex<FlightRecorder>,
    dump_path: Option<PathBuf>,
    /// Triggered-dump dedupe window, µs of virtual time (0 = off).
    cooldown_us: u64,
    /// Virtual time of the last triggered dump; `u64::MAX` = never.
    last_dump_t_us: AtomicU64,
}

/// Source of [`Shared::id`].
static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(0);

struct Shared {
    /// Tells this sink apart from every other one in the process.
    id: u64,
    /// Whether `event`/`span` keep an unbounded trace (the flight ring,
    /// when configured, retains events regardless).
    record_events: bool,
    counters: [AtomicU64; N_COUNTERS],
    gauges: [AtomicI64; N_GAUGES],
    hists: Vec<Histogram>,
    labeled: Mutex<std::collections::BTreeMap<MetricId, LabeledCell>>,
    events: Mutex<Vec<TraceEvent>>,
    flight: Option<FlightState>,
    /// Cross-node causal log (see [`crate::causal`]); only populated in
    /// full-trace mode, like `events`.
    causal: Mutex<Vec<CausalRecord>>,
    /// Trace/span id allocators shared by every producer recording here
    /// (the engine and the backfill scheduler), so all hops share one id
    /// space. Ids start at 1.
    next_trace: AtomicU64,
    next_span: AtomicU64,
}

impl Shared {
    fn new(record_events: bool, flight: Option<FlightConfig>) -> Self {
        Shared {
            id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
            record_events,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicI64::new(0)),
            hists: Hist::all()
                .iter()
                .map(|h| Histogram::new(h.bounds()))
                .collect(),
            labeled: Mutex::new(std::collections::BTreeMap::new()),
            events: Mutex::new(Vec::new()),
            flight: flight.map(|cfg| FlightState {
                ring: Mutex::new(FlightRecorder::new(&cfg)),
                dump_path: cfg.dump_path,
                cooldown_us: cfg.cooldown_us,
                last_dump_t_us: AtomicU64::new(u64::MAX),
            }),
            causal: Mutex::new(Vec::new()),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
        }
    }

    fn push_event(&self, e: TraceEvent) {
        if self.record_events {
            self.events.lock().push(e);
        }
        if let Some(fl) = &self.flight {
            fl.ring.lock().record(e);
            if e.kind == EventKind::NodeDown {
                // Post-mortem context beats hot-path purity here: a node
                // just died, write what we have (tagged, cooldown-deduped).
                let _ = fl.dump_triggered("node_down", e.ts_us);
            }
        }
    }
}

/// Handle to a (possibly disabled) metrics + trace sink. Clones share the
/// same sink; the default is disabled.
#[derive(Clone, Default)]
pub struct Recorder(Option<Arc<Shared>>);

impl FlightState {
    /// Shared triggered-dump path: tagged header, cooldown dedupe. The
    /// cooldown compares virtual times, so it is deterministic for a
    /// seed; `None` means skipped or unconfigured.
    fn dump_triggered(&self, reason: &str, t_us: u64) -> Option<usize> {
        let path = self.dump_path.as_ref()?;
        if self.cooldown_us > 0 {
            let last = self.last_dump_t_us.load(Ordering::Relaxed);
            if last != u64::MAX && t_us.saturating_sub(last) < self.cooldown_us {
                return None;
            }
        }
        self.last_dump_t_us.store(t_us, Ordering::Relaxed);
        self.ring.lock().dump_tagged(path, reason, t_us).ok()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("Recorder(disabled)"),
            Some(s) if s.record_events => f.write_str("Recorder(full)"),
            Some(s) if s.flight.is_some() => f.write_str("Recorder(metrics+flight)"),
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
        Recorder(Some(Arc::new(Shared::new(false, None))))
    }

    /// Metrics plus the full event trace.
    pub fn full() -> Self {
        Recorder(Some(Arc::new(Shared::new(true, None))))
    }

    /// Metrics plus a bounded flight ring of recent events — the
    /// production shape: counters stay cheap, the trace cannot grow
    /// without bound, and a `node_down` auto-dumps the ring.
    pub fn with_flight(cfg: FlightConfig) -> Self {
        Recorder(Some(Arc::new(Shared::new(false, Some(cfg)))))
    }

    /// Whether any recording happens at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Whether `event`/`span` calls are kept — by the unbounded trace, the
    /// flight ring, or both. Check before doing non-trivial work
    /// (formatting, extra clock reads) just to build an event.
    #[inline]
    pub fn events_enabled(&self) -> bool {
        matches!(&self.0, Some(s) if s.record_events || s.flight.is_some())
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
            s.counters[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Set a gauge to an absolute value (last write wins).
    #[inline]
    pub fn gauge_set(&self, g: Gauge, v: i64) {
        if let Some(s) = &self.0 {
            s.gauges[g as usize].store(v, Ordering::Relaxed);
        }
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&self, h: Hist, value: u64) {
        if let Some(s) = &self.0 {
            s.hists[h as usize].observe(value);
        }
    }

    /// Add histogram observations tallied elsewhere: `counts[i]` more
    /// values in bucket `i` of `h`'s bounds (plus the overflow bucket),
    /// summing to `sum` — the same state as observing each one. How a
    /// transport that counts on its own hot path hands the totals over
    /// before anyone reads them.
    ///
    /// # Panics
    /// If `counts` is not `h.bounds().len() + 1` long.
    pub fn merge_hist(&self, h: Hist, counts: &[u64], sum: u64) {
        if let Some(s) = &self.0 {
            s.hists[h as usize].merge(counts, sum);
        }
    }

    /// Register (or fetch) the labeled counter `id` and return its handle.
    /// Handles from a disabled recorder are inert.
    ///
    /// # Panics
    /// If `id` is already registered as a different metric kind.
    pub fn labeled_counter(&self, id: MetricId) -> LabeledCounter {
        LabeledCounter(self.0.as_ref().map(|s| {
            let mut reg = s.labeled.lock();
            let cell = reg
                .entry(id.clone())
                .or_insert_with(|| LabeledCell::Counter(Arc::new(AtomicU64::new(0))));
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
            let mut reg = s.labeled.lock();
            let cell = reg
                .entry(id.clone())
                .or_insert_with(|| LabeledCell::Gauge(Arc::new(AtomicI64::new(0))));
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
            let mut reg = s.labeled.lock();
            let cell = reg
                .entry(id.clone())
                .or_insert_with(|| LabeledCell::Hist(Arc::new(Histogram::new(bounds))));
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
                .lock()
                .iter()
                .map(|(id, cell)| {
                    let v = match cell {
                        LabeledCell::Counter(c) => LabeledValue::Counter(c.load(Ordering::Relaxed)),
                        LabeledCell::Gauge(g) => LabeledValue::Gauge(g.load(Ordering::Relaxed)),
                        LabeledCell::Hist(h) => LabeledValue::Hist(h.snapshot()),
                    };
                    (id.clone(), v)
                })
                .collect(),
            None => Vec::new(),
        }
    }

    /// The labeled registry held locked for one read pass, or `None` when
    /// disabled. The sampler's per-tick path: it reads every value in
    /// place, with no id cloned and no histogram bucket copied.
    pub(crate) fn labeled_registry(&self) -> Option<LabeledRegistry<'_>> {
        self.0.as_ref().map(|s| LabeledRegistry {
            sink: s.id,
            reg: s.labeled.lock(),
        })
    }

    /// Record an instant event.
    #[inline]
    pub fn event(&self, ts_us: u64, node: u32, kind: EventKind, a: u64, b: u64) {
        if let Some(s) = &self.0 {
            if s.record_events || s.flight.is_some() {
                s.push_event(TraceEvent::instant(ts_us, node, kind, a, b));
            }
        }
    }

    /// Record a complete span.
    #[inline]
    pub fn span(&self, ts_us: u64, dur_us: u64, node: u32, kind: EventKind, a: u64, b: u64) {
        if let Some(s) = &self.0 {
            if s.record_events || s.flight.is_some() {
                s.push_event(TraceEvent::span(ts_us, dur_us, node, kind, a, b));
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

    /// Whether causal tracing is on (full-trace mode only). Transports
    /// check this before allocating contexts or touching envelopes, so
    /// metrics-only and flight-only runs pay nothing.
    #[inline]
    pub fn causal_enabled(&self) -> bool {
        matches!(&self.0, Some(s) if s.record_events)
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
        let trace = s.next_trace.fetch_add(1, Ordering::Relaxed);
        let span = s.next_span.fetch_add(1, Ordering::Relaxed);
        s.causal.lock().push(CausalRecord::Root {
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
        let span = s.next_span.fetch_add(1, Ordering::Relaxed);
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
                s.causal.lock().push(r);
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
            Some(s) => s.causal.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot the recorded events in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.0 {
            Some(s) => s.events.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot the flight ring's retained events in recording order
    /// (empty when no flight ring is configured).
    pub fn flight_events(&self) -> Vec<TraceEvent> {
        match &self.0 {
            Some(s) => s
                .flight
                .as_ref()
                .map(|fl| fl.ring.lock().events())
                .unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// Dump the flight ring to its configured path now. Returns the event
    /// count written, or `None` when there is no ring or no dump path.
    /// Manual dumps are headerless and ignore the cooldown (an explicit
    /// request must always write).
    pub fn flight_dump(&self) -> Option<std::io::Result<usize>> {
        let s = self.0.as_ref()?;
        let fl = s.flight.as_ref()?;
        let path = fl.dump_path.as_ref()?;
        Some(fl.ring.lock().dump_to(path))
    }

    /// Dump the flight ring with a `reason` header at virtual time `t_us`
    /// (the externally-triggered shape: SLO breaches, operator requests).
    /// Honors the [`FlightConfig::cooldown_us`] dedupe window — returns
    /// `false` when skipped (disabled, no ring/path, or within cooldown
    /// of the previous triggered dump).
    pub fn flight_dump_tagged(&self, reason: &str, t_us: u64) -> bool {
        let Some(s) = &self.0 else { return false };
        let Some(fl) = &s.flight else { return false };
        fl.dump_triggered(reason, t_us).is_some()
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        match &self.0 {
            Some(s) => s.counters[c as usize].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Current value of a gauge.
    pub fn gauge(&self, g: Gauge) -> i64 {
        match &self.0 {
            Some(s) => s.gauges[g as usize].load(Ordering::Relaxed),
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
                Some(s) => s.events.lock().len(),
                None => 0,
            },
        }
    }
}

/// A registered per-entity counter; incrementing is one relaxed atomic.
/// Handles from a disabled recorder do nothing.
#[derive(Clone, Debug, Default)]
pub struct LabeledCounter(Option<Arc<AtomicU64>>);

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
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when inert).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A registered per-entity gauge; setting is one relaxed atomic store.
#[derive(Clone, Debug, Default)]
pub struct LabeledGauge(Option<Arc<AtomicI64>>);

impl LabeledGauge {
    /// Set to an absolute value (last write wins).
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Adjust by a signed delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 when inert).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A registered per-entity histogram; observing is lock-free.
#[derive(Clone, Debug, Default)]
pub struct LabeledHist(Option<Arc<Histogram>>);

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

/// A locked view of a recorder's labeled registry (see
/// [`Recorder::labeled_registry`]).
pub(crate) struct LabeledRegistry<'a> {
    /// The recorder's [`Shared::id`].
    sink: u64,
    reg: parking_lot::MutexGuard<'a, std::collections::BTreeMap<MetricId, LabeledCell>>,
}

impl LabeledRegistry<'_> {
    /// Changes whenever the set of registered ids may have: the sink
    /// tells recorders apart, and a registry only ever grows.
    pub(crate) fn key(&self) -> (u64, usize) {
        (self.sink, self.reg.len())
    }

    /// Every labeled metric in id order, histograms as `(count, sum)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&MetricId, LabeledRead)> {
        self.reg.iter().map(|(id, cell)| {
            let v = match cell {
                LabeledCell::Counter(c) => LabeledRead::Counter(c.load(Ordering::Relaxed)),
                LabeledCell::Gauge(g) => LabeledRead::Gauge(g.load(Ordering::Relaxed)),
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

    #[test]
    fn flight_mode_keeps_ring_but_not_unbounded_trace() {
        let r = Recorder::with_flight(FlightConfig {
            per_node: 2,
            max_bytes: usize::MAX,
            ..FlightConfig::default()
        });
        assert!(r.events_enabled());
        for i in 0..5 {
            r.event(i, 0, EventKind::MsgRecv, 0, 0);
        }
        assert!(r.events().is_empty(), "no unbounded trace in flight mode");
        let kept: Vec<u64> = r.flight_events().iter().map(|e| e.ts_us).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn node_down_auto_dumps_the_ring() {
        let dir = std::env::temp_dir().join("obs-recorder-flight");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("auto.jsonl");
        let _ = std::fs::remove_file(&path);
        let r = Recorder::with_flight(FlightConfig::dumping_to(&path));
        r.event(5, 1, EventKind::MsgRecv, 0, 0);
        r.event(9, 1, EventKind::NodeDown, 0, 0);
        let text = std::fs::read_to_string(&path).expect("auto-dump written");
        assert!(text.contains("node_down"));
        assert!(text.contains("msg_recv"));
        // Auto-dumps carry the triggered-dump header shape.
        assert!(
            text.starts_with("{\"flight_dump\":{\"reason\":\"node_down\""),
            "missing reason header: {text}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tagged_dumps_dedupe_within_the_cooldown() {
        let dir = std::env::temp_dir().join("obs-recorder-flight");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("cooldown.jsonl");
        let _ = std::fs::remove_file(&path);
        let cfg = FlightConfig::dumping_to(&path).with_cooldown(simclock::SimSpan::from_secs(10));
        let r = Recorder::with_flight(cfg);
        r.event(5, 1, EventKind::MsgRecv, 0, 0);
        assert!(r.flight_dump_tagged("slo_breach:a", 1_000_000));
        // 2s later: inside the 10s window, skipped.
        assert!(!r.flight_dump_tagged("slo_breach:b", 3_000_000));
        let text = std::fs::read_to_string(&path).expect("first dump written");
        assert!(text.contains("slo_breach:a"), "first dump survives: {text}");
        // 11s after the first: outside the window, dumps again.
        assert!(r.flight_dump_tagged("slo_breach:c", 12_000_000));
        let text = std::fs::read_to_string(&path).expect("third dump written");
        assert!(text.contains("slo_breach:c"));
        // Manual dumps ignore the cooldown and stay headerless.
        assert!(matches!(r.flight_dump(), Some(Ok(1))));
        let text = std::fs::read_to_string(&path).expect("manual dump written");
        assert!(!text.contains("flight_dump"), "manual dump grew a header");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mixed_cause_dumps_in_one_window_share_one_snapshot() {
        // An SLO breach and a `node_down` landing inside the same cooldown
        // window must produce exactly one dump — the first cause wins and
        // the second is deduped, never written as a duplicate — while the
        // byte-capped ring behind both causes keeps evicting strictly
        // oldest-first across nodes.
        let dir = std::env::temp_dir().join("obs-recorder-flight");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("mixed.jsonl");
        let _ = std::fs::remove_file(&path);
        let cfg = FlightConfig {
            per_node: 1_000,
            max_bytes: 4 * crate::flight::EVENT_BYTES,
            ..FlightConfig::dumping_to(&path).with_cooldown(simclock::SimSpan::from_secs(60))
        };
        let r = Recorder::with_flight(cfg);
        // Interleave two nodes past the byte cap: only the 4 newest stay.
        for i in 0..6u64 {
            r.event(i + 1, (i % 2) as u32, EventKind::MsgRecv, 0, 0);
        }
        let kept: Vec<u64> = r.flight_events().iter().map(|e| e.ts_us).collect();
        assert_eq!(kept, vec![3, 4, 5, 6], "eviction must be oldest-first");
        // An SLO breach at t=30s dumps the ring...
        assert!(r.flight_dump_tagged("slo_breach:sweep_p99_us", 30_000_000));
        let first = std::fs::read_to_string(&path).expect("breach dump written");
        assert!(first.starts_with("{\"flight_dump\":{\"reason\":\"slo_breach:sweep_p99_us\""));
        // ...then a node goes down 10s later, inside the window: the
        // auto-dump is deduped and the breach snapshot survives untouched.
        r.event(40_000_000, 0, EventKind::NodeDown, 0, 0);
        let after = std::fs::read_to_string(&path).expect("file still present");
        assert_eq!(after, first, "node_down overwrote the in-window dump");
        // Past the window the next cause dumps again, now with the
        // node-down context in the (still byte-capped) ring.
        assert!(r.flight_dump_tagged("slo_breach:queue_wait_p90_s", 95_000_000));
        let third = std::fs::read_to_string(&path).expect("post-window dump");
        assert!(third.contains("queue_wait_p90_s"));
        assert!(third.contains("node_down"));
        assert!(r.flight_events().len() <= 4, "byte cap held across causes");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tagged_dump_without_a_ring_is_a_no_op() {
        assert!(!Recorder::disabled().flight_dump_tagged("x", 0));
        assert!(!Recorder::metrics_only().flight_dump_tagged("x", 0));
        // A ring without a dump path records but never writes.
        let r = Recorder::with_flight(FlightConfig::default());
        r.event(1, 0, EventKind::MsgRecv, 0, 0);
        assert!(!r.flight_dump_tagged("x", 0));
    }
}
