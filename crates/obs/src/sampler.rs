//! The virtual-time metrics sampler.
//!
//! A [`Sampler`] is a cheap-clone handle (same shape as [`Recorder`]:
//! disabled is a `None`, enabled an `Rc` of a `RefCell`'d store) that
//! transports and schedulers call on a configurable `SimTime` cadence.
//! Each tick appends labeled points to its one in-memory [`SeriesStore`],
//! all of them virtual time: per-node resource footprints recorded by the
//! driver (`footprint_*{node=...}`) plus a snapshot of every static
//! counter/gauge/histogram and every labeled metric the paired
//! [`Recorder`] holds. The store then feeds the CSV/Prometheus expositions
//! and the `eslurm-cli diff` regression gate.
//!
//! A tick costs what it records. Each series is resolved to its store
//! slot once — a footprint by `(node, family)`, the static metrics in
//! `all()` order on the first snapshot, the labeled ones whenever the
//! recorder's registry grows or the recorder changes — and every later
//! tick appends by index.
//! Histograms are read as `(count, sum)` in place. A sampler with an end
//! time knows its tick count and sizes each per-tick series for it once.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use simclock::{SimSpan, SimTime};

use crate::label::MetricId;
use crate::metric::{Counter, Gauge, Hist};
use crate::recorder::{LabeledRead, Recorder, RegistryKey};
use crate::series::{SeriesStore, SeriesSummary};

/// Most points a per-tick series reserves up front (1 MiB of points);
/// a longer run grows the series as it goes.
const MAX_RESERVED_TICKS: u64 = 1 << 16;

struct SamplerShared {
    interval: SimSpan,
    until: Option<SimTime>,
    /// Points each per-tick series reserves when created: the tick count
    /// of an end-bounded sampler, else none.
    ticks: usize,
    inner: RefCell<SamplerInner>,
}

#[derive(Default)]
struct SamplerInner {
    store: SeriesStore,
    node_names: BTreeMap<u32, String>,
    /// Store slot of each `family{node=<name>}` footprint series.
    node_slots: BTreeMap<(u32, &'static str), usize>,
    /// Store slots of the static counters, gauges and histogram
    /// `stat=count|sum` series, in `all()` order; empty before the first
    /// snapshot.
    static_slots: Vec<usize>,
    /// Store slots of the labeled series in registry order (two per
    /// histogram), and the registry key they were resolved against.
    labeled_slots: Vec<usize>,
    labeled_key: Option<RegistryKey>,
}

/// Handle to a (possibly disabled) time-series sampling sink. Clones share
/// the same store; the default is disabled, making every call a no-op.
#[derive(Clone, Default)]
pub struct Sampler(Option<Rc<SamplerShared>>);

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("Sampler(disabled)"),
            Some(s) => write!(f, "Sampler(every {:?})", s.interval),
        }
    }
}

impl Sampler {
    /// The no-op sampler: never due, records nothing.
    pub fn disabled() -> Self {
        Sampler(None)
    }

    fn build(interval: SimSpan, until: Option<SimTime>) -> Self {
        let ticks = until.map_or(0, |u| {
            (u.as_micros() / interval.as_micros().max(1)).min(MAX_RESERVED_TICKS) as usize
        });
        Sampler(Some(Rc::new(SamplerShared {
            interval,
            until,
            ticks,
            inner: RefCell::default(),
        })))
    }

    /// A sampler ticking every `interval` with no end time.
    pub fn every(interval: SimSpan) -> Self {
        Sampler::build(interval, None)
    }

    /// A sampler ticking every `interval` until `until` (inclusive).
    pub fn every_until(interval: SimSpan, until: SimTime) -> Self {
        Sampler::build(interval, Some(until))
    }

    /// Whether any sampling happens at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The configured cadence, when enabled.
    pub fn interval(&self) -> Option<SimSpan> {
        self.0.as_ref().map(|s| s.interval)
    }

    /// The configured end time, when one was set.
    pub fn until(&self) -> Option<SimTime> {
        self.0.as_ref().and_then(|s| s.until)
    }

    /// Whether a tick at time `t` should record (enabled and not past the
    /// end time).
    #[inline]
    pub fn due(&self, t: SimTime) -> bool {
        match &self.0 {
            None => false,
            Some(s) => s.until.is_none_or(|u| t <= u),
        }
    }

    /// Give node `id` a stable series label (`node=master` instead of
    /// `node=node0`). Drivers call this once at cluster build time.
    pub fn name_node(&self, id: u32, name: &str) {
        if let Some(s) = &self.0 {
            let mut inner = s.inner.borrow_mut();
            inner.node_names.insert(id, name.to_string());
            // Later points go to the series under the new name.
            inner.node_slots.retain(|&(node, _), _| node != id);
        }
    }

    /// The node ids that were given names, in id order.
    pub fn named_nodes(&self) -> Vec<u32> {
        match &self.0 {
            Some(s) => s.inner.borrow().node_names.keys().copied().collect(),
            None => Vec::new(),
        }
    }

    /// Run `f` against the live series store without cloning it (the SLO
    /// engine's read path — a full [`Sampler::store`] clone per
    /// evaluation tick would dwarf the evaluation itself). `None` when
    /// disabled. Do not record into this sampler from inside `f`: the
    /// store is borrowed, so the write would panic.
    pub fn with_store<R>(&self, f: impl FnOnce(&SeriesStore) -> R) -> Option<R> {
        self.0.as_ref().map(|s| f(&s.inner.borrow().store))
    }

    /// Append one point to an arbitrary series.
    pub fn record(&self, t: SimTime, id: MetricId, value: f64) {
        if let Some(s) = &self.0 {
            s.inner.borrow_mut().store.record(id, t, value);
        }
    }

    /// Append one point to `family{node=<name>}` for node `id`.
    pub fn record_node(&self, t: SimTime, id: u32, family: &'static str, value: f64) {
        if let Some(s) = &self.0 {
            let mut inner = s.inner.borrow_mut();
            let slot = inner.node_slot(id, family, s.ticks);
            inner.store.push(slot, t.as_micros(), value);
        }
    }

    /// Snapshot every metric of `rec` into the store at time `t`: static
    /// counters and gauges by name, histograms as `name{stat=count|sum}`,
    /// and each labeled metric under its own id (labeled histograms add a
    /// `stat` label too).
    pub fn snapshot(&self, t: SimTime, rec: &Recorder) {
        let Some(s) = &self.0 else { return };
        if !rec.enabled() {
            return;
        }
        let _mem = crate::alloc::tag_scope(crate::alloc::MemTag::Obs);
        let t_us = t.as_micros();
        let mut guard = s.inner.borrow_mut();
        let inner = &mut *guard;
        let store = &mut inner.store;
        if inner.static_slots.is_empty() {
            inner.static_slots = static_ids().map(|id| store.slot(id, s.ticks)).collect();
        }
        let hists = Hist::all().map(|h| rec.hist_count_sum(h));
        let values = Counter::all()
            .map(|c| rec.counter(c) as f64)
            .into_iter()
            .chain(Gauge::all().map(|g| rec.gauge(g) as f64))
            .chain(hists.iter().flat_map(|&(n, sum)| [n as f64, sum as f64]));
        for (&slot, v) in inner.static_slots.iter().zip(values) {
            store.push(slot, t_us, v);
        }

        let Some(reg) = rec.labeled_registry() else {
            return;
        };
        let key = reg.key();
        if inner.labeled_key.as_ref() != Some(&key) {
            inner.labeled_slots.clear();
            for (id, v) in reg.iter() {
                if let LabeledRead::Hist { .. } = v {
                    for stat in ["count", "sum"] {
                        let slot = store.slot(id.clone().with("stat", stat), s.ticks);
                        inner.labeled_slots.push(slot);
                    }
                } else {
                    inner.labeled_slots.push(store.slot(id.clone(), s.ticks));
                }
            }
            inner.labeled_key = Some(key);
        }
        let mut slots = inner.labeled_slots.iter().copied();
        let mut push = |v: f64| store.push(slots.next().expect("slot per series"), t_us, v);
        for (_, v) in reg.iter() {
            match v {
                LabeledRead::Counter(c) => push(c as f64),
                LabeledRead::Gauge(g) => push(g as f64),
                LabeledRead::Hist { count, sum } => {
                    push(count as f64);
                    push(sum as f64);
                }
            }
        }
    }

    /// A copy of the collected series.
    pub fn store(&self) -> SeriesStore {
        match &self.0 {
            Some(s) => s.inner.borrow().store.clone(),
            None => SeriesStore::new(),
        }
    }

    /// Render the collected series as CSV (see [`SeriesStore::to_csv`]).
    pub fn to_csv(&self) -> String {
        match &self.0 {
            Some(s) => s.inner.borrow().store.to_csv(),
            None => SeriesStore::new().to_csv(),
        }
    }

    /// Per-series order statistics, in id order.
    pub fn summaries(&self) -> Vec<(MetricId, SeriesSummary)> {
        match &self.0 {
            Some(s) => s.inner.borrow().store.summaries(),
            None => Vec::new(),
        }
    }
}

impl SamplerInner {
    /// The store slot of `family{node=<name>}` for node `id`, resolved on
    /// its first point.
    fn node_slot(&mut self, id: u32, family: &'static str, capacity: usize) -> usize {
        if let Some(&slot) = self.node_slots.get(&(id, family)) {
            return slot;
        }
        let name = self
            .node_names
            .get(&id)
            .cloned()
            .unwrap_or_else(|| format!("node{id}"));
        let slot = self
            .store
            .slot(MetricId::new(family).with("node", name), capacity);
        self.node_slots.insert((id, family), slot);
        slot
    }
}

/// The ids of the static series a snapshot records, in `all()` order.
fn static_ids() -> impl Iterator<Item = MetricId> {
    let hists = Hist::all()
        .into_iter()
        .flat_map(|h| ["count", "sum"].map(|stat| MetricId::new(h.name()).with("stat", stat)));
    Counter::all()
        .map(|c| MetricId::new(c.name()))
        .into_iter()
        .chain(Gauge::all().map(|g| MetricId::new(g.name())))
        .chain(hists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{Counter, Gauge};

    #[test]
    fn disabled_sampler_is_inert() {
        let s = Sampler::disabled();
        assert!(!s.enabled());
        assert!(!s.due(SimTime::ZERO));
        s.record(SimTime::ZERO, MetricId::new("x"), 1.0);
        s.record_node(SimTime::ZERO, 0, "footprint_sockets", 1.0);
        assert!(s.store().is_empty());
    }

    #[test]
    fn due_respects_until() {
        let s = Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(5));
        assert!(s.due(SimTime::from_secs(5)));
        assert!(!s.due(SimTime::from_secs(6)));
        let open = Sampler::every(SimSpan::from_secs(1));
        assert!(open.due(SimTime::from_secs(1_000_000)));
    }

    #[test]
    fn node_names_label_footprint_series() {
        let s = Sampler::every(SimSpan::from_secs(1));
        s.name_node(0, "master");
        s.record_node(SimTime::from_secs(1), 0, "footprint_sockets", 3.0);
        s.record_node(SimTime::from_secs(1), 7, "footprint_sockets", 1.0);
        let store = s.store();
        assert!(store
            .get(&MetricId::new("footprint_sockets").with("node", "master"))
            .is_some());
        assert!(store
            .get(&MetricId::new("footprint_sockets").with("node", "node7"))
            .is_some());
        assert_eq!(s.named_nodes(), vec![0]);
    }

    #[test]
    fn snapshot_captures_recorder_metrics() {
        let rec = Recorder::metrics_only();
        rec.add(Counter::MsgsSent, 5);
        rec.gauge_set(Gauge::QueueDepth, 2);
        let s = Sampler::every(SimSpan::from_secs(1));
        s.snapshot(SimTime::from_secs(1), &rec);
        rec.add(Counter::MsgsSent, 5);
        s.snapshot(SimTime::from_secs(2), &rec);
        let store = s.store();
        let pts = store
            .get(&MetricId::new("msgs_sent"))
            .expect("series exists");
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].value, 5.0);
        assert_eq!(pts[1].value, 10.0);
        let q = store
            .get(&MetricId::new("queue_depth"))
            .expect("gauge series");
        assert_eq!(q[0].value, 2.0);
    }

    /// Resolved slots follow the registry as it grows and as the paired
    /// recorder changes: each value lands in its own id's series.
    #[test]
    fn snapshot_slots_track_registry_growth_and_recorder() {
        let s = Sampler::every(SimSpan::from_secs(1));
        let rec = Recorder::metrics_only();
        rec.labeled_counter(MetricId::new("b").with("k", "1"))
            .add(5);
        s.snapshot(SimTime::from_secs(1), &rec);
        rec.labeled_gauge(MetricId::new("a").with("k", "1")).set(-3);
        rec.labeled_hist(MetricId::new("h").with("k", "1"), &[10])
            .observe(40);
        s.snapshot(SimTime::from_secs(2), &rec);
        // Another recorder with as many labeled ids, all different.
        let other = Recorder::metrics_only();
        for name in ["c", "d", "e"] {
            other.labeled_counter(MetricId::new(name)).add(9);
        }
        s.snapshot(SimTime::from_secs(3), &other);
        // Dropped, its successor may sit at the same address with as many
        // ids, all different again: each still gets its own series.
        drop(other);
        let third = Recorder::metrics_only();
        for (name, v) in [("f", 1), ("g", 2), ("h", 3)] {
            third.labeled_counter(MetricId::new(name)).add(v);
        }
        s.snapshot(SimTime::from_secs(4), &third);
        let store = s.store();
        let values = |id: MetricId| -> Vec<(u64, f64)> {
            let pts = store.get(&id).unwrap_or_else(|| panic!("{id} missing"));
            pts.iter().map(|p| (p.t_us / 1_000_000, p.value)).collect()
        };
        assert_eq!(
            values(MetricId::new("b").with("k", "1")),
            [(1, 5.0), (2, 5.0)]
        );
        assert_eq!(values(MetricId::new("a").with("k", "1")), [(2, -3.0)]);
        let h = || MetricId::new("h").with("k", "1");
        assert_eq!(values(h().with("stat", "count")), [(2, 1.0)]);
        assert_eq!(values(h().with("stat", "sum")), [(2, 40.0)]);
        assert_eq!(values(MetricId::new("e")), [(3, 9.0)]);
        assert_eq!(values(MetricId::new("f")), [(4, 1.0)]);
        assert_eq!(values(MetricId::new("g")), [(4, 2.0)]);
        assert_eq!(values(MetricId::new("h")), [(4, 3.0)]);
        assert_eq!(values(MetricId::new("msgs_sent")).len(), 4);
    }

    #[test]
    fn renaming_a_node_starts_a_new_series() {
        let s = Sampler::every(SimSpan::from_secs(1));
        s.record_node(SimTime::from_secs(1), 4, "footprint_sockets", 1.0);
        s.name_node(4, "sat1");
        s.record_node(SimTime::from_secs(2), 4, "footprint_sockets", 2.0);
        let store = s.store();
        let id = |name: &str| MetricId::new("footprint_sockets").with("node", name);
        assert_eq!(store.get(&id("node4")).map(<[_]>::len), Some(1));
        assert_eq!(store.get(&id("sat1")).map(<[_]>::len), Some(1));
    }

    #[test]
    fn clones_share_the_store() {
        let s = Sampler::every(SimSpan::from_secs(1));
        let s2 = s.clone();
        s2.record(SimTime::ZERO, MetricId::new("x"), 9.0);
        assert_eq!(s.store().n_points(), 1);
    }
}
