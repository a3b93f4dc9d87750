//! Wall-clock engine profiler: where does the DES spend real seconds?
//!
//! Everything else in this crate is **virtual-time** observability — it
//! must be bit-identical run-to-run and byte-identical with tracing on or
//! off. This module is the deliberate exception: an [`EngineProfiler`]
//! measures *wall-clock* time with monotonic [`Instant`] timers so the
//! sharded engine in `emu::sim` can attribute real seconds to event
//! execution vs. queue ops per shard, and tally cross-shard message
//! volume per shard pair.
//!
//! The two clock domains never mix:
//!
//! - The profiler only ever *writes* to its own atomics and span buffers.
//!   It has no handle to the [`crate::Recorder`], no `SimTime` inputs on
//!   the recording path, and nothing it produces feeds back into
//!   simulation decisions — profiling on/off cannot change an outcome or
//!   a virtual-time export byte, by construction.
//! - Wall-clock metric names carry the [`WALLCLOCK_PREFIX`] so the
//!   [`crate::series`] regression gate can exclude them by default (they
//!   vary run-to-run by design).
//! - In the Chrome-trace export the wall-clock track rides its own
//!   process id ([`ENGINE_TRACK_PID`]) so Perfetto never interleaves the
//!   two time bases on one track.
//!
//! The handle follows the recorder discipline: `Option<Arc<..>>`, default
//! disabled, every recording call an inlined branch on the discriminant,
//! relaxed atomics on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

/// Metric-name prefix for all wall-clock series this module emits.
///
/// `eslurm diff` skips metrics with this prefix unless `--include-wallclock`
/// is passed: wall-clock numbers are not reproducible across runs and must
/// not trip the footprint regression gate.
pub const WALLCLOCK_PREFIX: &str = "engine_wall_";

/// Chrome-trace process id for the wall-clock engine track. Virtual-time
/// lanes use pid 0 (nodes) and pid 1 (jobs); keeping the wall-clock spans
/// on their own pid stops the two clock domains from interleaving.
pub const ENGINE_TRACK_PID: u32 = 2;

/// One wall-clock span on the engine track: a contiguous stretch of
/// pop+exec on one shard. Timestamps are nanoseconds since the profiler
/// was created (its monotonic epoch).
#[derive(Debug, Clone, Copy)]
pub struct EngineSpan {
    pub shard: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-shard accumulator. All fields are relaxed atomics: the engine
/// loop is the only writer, and a report may be read while it runs.
#[derive(Default)]
pub struct ShardSlot {
    busy_ns: AtomicU64,
    queue_ns: AtomicU64,
    wall_ns: AtomicU64,
    events: AtomicU64,
    max_queue_depth: AtomicU64,
    pool_slots: AtomicU64,
    pool_free: AtomicU64,
    spans: Mutex<Vec<EngineSpan>>,
    spans_dropped: AtomicU64,
}

impl ShardSlot {
    #[inline]
    pub fn add_busy(&self, ns: u64) {
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }
    #[inline]
    pub fn add_queue(&self, ns: u64) {
        self.queue_ns.fetch_add(ns, Ordering::Relaxed);
    }
    #[inline]
    pub fn add_wall(&self, ns: u64) {
        self.wall_ns.fetch_add(ns, Ordering::Relaxed);
    }
    #[inline]
    pub fn add_events(&self, n: u64) {
        self.events.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn observe_queue_depth(&self, depth: u64) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }
    /// Snapshot the event-slab occupancy gauges (total slots, free slots).
    #[inline]
    pub fn set_pool(&self, slots: u64, free: u64) {
        self.pool_slots.fetch_max(slots, Ordering::Relaxed);
        self.pool_free.store(free, Ordering::Relaxed);
    }
    /// Record a wall-clock span for the Chrome-trace engine track. Bounded:
    /// beyond the per-shard cap, spans are counted as dropped, not stored.
    pub fn push_span(&self, cap: usize, span: EngineSpan) {
        let mut spans = self.spans.lock();
        if spans.len() < cap {
            spans.push(span);
        } else {
            self.spans_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Topology-dependent state, sized once the engine attaches.
struct Topo {
    nshards: usize,
    shards: Vec<Arc<ShardSlot>>,
    /// Cross-shard message counts, `pairs[src * nshards + dst]`.
    pairs: Vec<AtomicU64>,
}

struct EngineShared {
    epoch: Instant,
    span_cap_per_shard: usize,
    topo: OnceLock<Topo>,
}

/// Cheaply-cloneable handle to a (possibly disabled) wall-clock engine
/// profiler. The default is disabled; clones share the same sink.
#[derive(Clone, Default)]
pub struct EngineProfiler(Option<Arc<EngineShared>>);

impl std::fmt::Debug for EngineProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("EngineProfiler(disabled)"),
            Some(s) => match s.topo.get() {
                None => f.write_str("EngineProfiler(enabled, unattached)"),
                Some(t) => write!(f, "EngineProfiler(enabled, {} shards)", t.nshards),
            },
        }
    }
}

/// Default per-shard cap on stored wall-clock spans (~1.5 MB per shard at
/// 24 B/span). Overflow increments a drop counter instead of growing.
pub const DEFAULT_SPAN_CAP: usize = 65_536;

impl EngineProfiler {
    /// A disabled profiler: every call is an inlined `None` check.
    pub fn disabled() -> Self {
        EngineProfiler(None)
    }

    /// An enabled profiler with the default span capacity.
    pub fn enabled() -> Self {
        Self::with_span_capacity(DEFAULT_SPAN_CAP)
    }

    /// An enabled profiler keeping at most `cap` wall-clock spans per
    /// shard (0 disables span storage but keeps all counters).
    pub fn with_span_capacity(cap: usize) -> Self {
        EngineProfiler(Some(Arc::new(EngineShared {
            epoch: Instant::now(),
            span_cap_per_shard: cap,
            topo: OnceLock::new(),
        })))
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Size the per-shard slots and the cross-shard pair matrix. Called by
    /// the engine when a cluster is built; idempotent. A profiler attaches
    /// to one topology for its lifetime — reusing it on a cluster with a
    /// different shard count keeps the first topology and ignores
    /// out-of-range shards (use one profiler per cluster).
    pub fn attach(&self, nshards: usize) {
        if let Some(s) = &self.0 {
            s.topo.get_or_init(|| Topo {
                nshards,
                shards: (0..nshards)
                    .map(|_| Arc::new(ShardSlot::default()))
                    .collect(),
                pairs: (0..nshards * nshards).map(|_| AtomicU64::new(0)).collect(),
            });
        }
    }

    /// Nanoseconds since the profiler's monotonic epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.0 {
            Some(s) => s.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Per-shard recording handle, or `None` when disabled/unattached/out
    /// of range. The engine loop fetches these once per run.
    pub fn shard_slot(&self, shard: usize) -> Option<Arc<ShardSlot>> {
        let s = self.0.as_ref()?;
        let t = s.topo.get()?;
        t.shards.get(shard).cloned()
    }

    /// Per-shard span capacity (for use with [`ShardSlot::push_span`]).
    pub fn span_cap(&self) -> usize {
        self.0.as_ref().map_or(0, |s| s.span_cap_per_shard)
    }

    /// Count one cross-shard message from `src` to `dst`. Safe from any
    /// thread; a no-op when disabled, unattached, or out of range.
    #[inline]
    pub fn count_cross_shard(&self, src: usize, dst: usize) {
        if let Some(s) = &self.0 {
            if let Some(t) = s.topo.get() {
                if src < t.nshards && dst < t.nshards {
                    t.pairs[src * t.nshards + dst].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Snapshot everything into an owned report, or `None` when the
    /// profiler is disabled or never attached to an engine.
    pub fn report(&self) -> Option<EngineReport> {
        let s = self.0.as_ref()?;
        let t = s.topo.get()?;
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let shards = t
            .shards
            .iter()
            .enumerate()
            .map(|(i, sl)| ShardReport {
                shard: i,
                events: ld(&sl.events),
                busy_ns: ld(&sl.busy_ns),
                queue_ns: ld(&sl.queue_ns),
                wall_ns: ld(&sl.wall_ns),
                max_queue_depth: ld(&sl.max_queue_depth),
                pool_slots: ld(&sl.pool_slots),
                pool_free: ld(&sl.pool_free),
            })
            .collect();
        let pairs = (0..t.nshards)
            .map(|src| {
                (0..t.nshards)
                    .map(|dst| ld(&t.pairs[src * t.nshards + dst]))
                    .collect()
            })
            .collect();
        let spans_dropped = t.shards.iter().map(|sl| ld(&sl.spans_dropped)).sum();
        Some(EngineReport {
            shards,
            pairs,
            spans_dropped,
        })
    }

    /// Snapshot the stored wall-clock spans, ordered by shard then start
    /// time (each shard's buffer is already append-ordered).
    pub fn spans(&self) -> Vec<EngineSpan> {
        let mut out = Vec::new();
        if let Some(s) = &self.0 {
            if let Some(t) = s.topo.get() {
                for sl in &t.shards {
                    out.extend(sl.spans.lock().iter().copied());
                }
            }
        }
        out
    }
}

/// Frozen per-shard numbers from an [`EngineProfiler::report`] snapshot.
#[derive(Debug, Clone)]
pub struct ShardReport {
    pub shard: usize,
    pub events: u64,
    pub busy_ns: u64,
    pub queue_ns: u64,
    pub wall_ns: u64,
    pub max_queue_depth: u64,
    pub pool_slots: u64,
    pub pool_free: u64,
}

impl ShardReport {
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.events as f64 / (self.wall_ns as f64 / 1e9)
        }
    }
}

/// Owned snapshot of the whole engine profile.
#[derive(Debug, Clone)]
pub struct EngineReport {
    pub shards: Vec<ShardReport>,
    /// Cross-shard message counts, `pairs[src][dst]` (diagonal unused).
    pub pairs: Vec<Vec<u64>>,
    pub spans_dropped: u64,
}

impl EngineReport {
    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }
    pub fn total_wall_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.wall_ns).sum()
    }
    /// Load imbalance: max busy time over mean busy time across shards.
    /// 1.0 means perfectly balanced; values ≫ 1 flag a hot shard.
    pub fn imbalance(&self) -> f64 {
        let busy: Vec<u64> = self.shards.iter().map(|s| s.busy_ns).collect();
        let total: u64 = busy.iter().sum();
        if total == 0 || busy.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / busy.len() as f64;
        *busy.iter().max().unwrap() as f64 / mean
    }
    pub fn cross_shard_total(&self) -> u64 {
        self.pairs.iter().flatten().sum()
    }
    /// Busiest cross-shard pairs, heaviest first; ties break on (src, dst)
    /// so the ordering is deterministic for a given set of counts.
    pub fn top_pairs(&self, k: usize) -> Vec<(usize, usize, u64)> {
        let mut v: Vec<(usize, usize, u64)> = self
            .pairs
            .iter()
            .enumerate()
            .flat_map(|(src, row)| {
                row.iter()
                    .enumerate()
                    .filter_map(move |(dst, &n)| (src != dst && n > 0).then_some((src, dst, n)))
            })
            .collect();
        v.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        v.truncate(k);
        v
    }

    /// Emit the snapshot as `engine_wall_*` series points (all at `t`) so
    /// it can ride the sampler's CSV/Prometheus expositions. The names
    /// carry [`WALLCLOCK_PREFIX`], which `compare_csv` skips by default.
    pub fn to_series(&self, store: &mut crate::series::SeriesStore, t: simclock::SimTime) {
        use crate::label::MetricId;
        // `MetricId` names are `&'static str`, so each series name is a
        // literal; all of them must carry WALLCLOCK_PREFIX (pinned by a
        // unit test) so the diff gate can skip them wholesale.
        let mut put_shard = |name: &'static str, shard: usize, v: f64| {
            store.record(MetricId::new(name).with("shard", shard.to_string()), t, v);
        };
        for s in &self.shards {
            put_shard("engine_wall_busy_ns", s.shard, s.busy_ns as f64);
            put_shard("engine_wall_queue_ns", s.shard, s.queue_ns as f64);
            put_shard("engine_wall_total_ns", s.shard, s.wall_ns as f64);
            put_shard("engine_wall_events", s.shard, s.events as f64);
            put_shard("engine_wall_events_per_sec", s.shard, s.events_per_sec());
            put_shard(
                "engine_wall_max_queue_depth",
                s.shard,
                s.max_queue_depth as f64,
            );
        }
        store.record(MetricId::new("engine_wall_imbalance"), t, self.imbalance());
        store.record(
            MetricId::new("engine_wall_cross_shard_msgs"),
            t,
            self.cross_shard_total() as f64,
        );
    }

    /// Render the per-shard efficiency table plus the load-imbalance
    /// summary (the `eslurm engine-report` body).
    pub fn render(&self) -> String {
        let pct = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                100.0 * part as f64 / whole as f64
            }
        };
        let mut out = String::new();
        out.push_str(&format!("engine profile: shards={}\n\n", self.shards.len()));
        out.push_str("shard     events      ev/s   busy%  queue%  qdepth   pool\n");
        for s in &self.shards {
            let pool_used = s.pool_slots.saturating_sub(s.pool_free);
            out.push_str(&format!(
                "{:>5} {:>10} {:>9.0} {:>6.1}% {:>6.1}% {:>7} {:>3}/{}\n",
                s.shard,
                s.events,
                s.events_per_sec(),
                pct(s.busy_ns, s.wall_ns),
                pct(s.queue_ns, s.wall_ns),
                s.max_queue_depth,
                pool_used,
                s.pool_slots,
            ));
        }
        out.push('\n');
        out.push_str(&format!(
            "totals: events={} wall={:.3}s imbalance={:.2}x\n",
            self.total_events(),
            self.total_wall_ns() as f64 / 1e9,
            self.imbalance(),
        ));
        let pairs = self.top_pairs(8);
        if !pairs.is_empty() {
            out.push_str(&format!(
                "cross-shard traffic: {} msgs total; top pairs:",
                self.cross_shard_total()
            ));
            for (src, dst, n) in pairs {
                out.push_str(&format!(" {src}->{dst} {n}"));
            }
            out.push('\n');
        }
        if self.spans_dropped > 0 {
            out.push_str(&format!(
                "(wall-clock span buffer full: {} spans dropped)\n",
                self.spans_dropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = EngineProfiler::disabled();
        assert!(!p.is_enabled());
        p.attach(4);
        p.count_cross_shard(0, 1);
        assert!(p.shard_slot(0).is_none());
        assert!(p.report().is_none());
        assert!(p.spans().is_empty());
        assert_eq!(p.now_ns(), 0);
    }

    #[test]
    fn counters_aggregate_into_report() {
        let p = EngineProfiler::enabled();
        assert!(p.report().is_none(), "unattached profiler has no report");
        p.attach(2);
        let s0 = p.shard_slot(0).unwrap();
        let s1 = p.shard_slot(1).unwrap();
        s0.add_busy(300);
        s0.add_queue(200);
        s0.add_wall(500);
        s0.add_events(10);
        s1.add_busy(100);
        s1.add_queue(400);
        s1.add_wall(500);
        s1.add_events(2);
        p.count_cross_shard(0, 1);
        p.count_cross_shard(0, 1);
        p.count_cross_shard(1, 0);

        let r = p.report().unwrap();
        assert_eq!(r.total_events(), 12);
        assert_eq!(r.total_wall_ns(), 1000);
        for s in &r.shards {
            assert_eq!(s.busy_ns + s.queue_ns, s.wall_ns);
        }
        // busy: max 300 over mean 200.
        assert!((r.imbalance() - 1.5).abs() < 1e-9);
        assert_eq!(r.cross_shard_total(), 3);
        assert_eq!(r.top_pairs(8), vec![(0, 1, 2), (1, 0, 1)]);
        let text = r.render();
        assert!(text.contains("shards=2"));
        assert!(text.contains("imbalance=1.50x"));
        assert!(text.contains("0->1 2"));
    }

    #[test]
    fn span_buffer_is_bounded() {
        let p = EngineProfiler::with_span_capacity(2);
        p.attach(1);
        let s = p.shard_slot(0).unwrap();
        for i in 0..5 {
            s.push_span(
                p.span_cap(),
                EngineSpan {
                    shard: 0,
                    start_ns: i,
                    dur_ns: 1,
                },
            );
        }
        assert_eq!(p.spans().len(), 2);
        assert_eq!(p.report().unwrap().spans_dropped, 3);
    }

    #[test]
    fn attach_is_idempotent_and_pins_first_topology() {
        let p = EngineProfiler::enabled();
        p.attach(2);
        p.attach(4);
        let r = p.report().unwrap();
        assert_eq!(r.shards.len(), 2);
        assert!(p.shard_slot(3).is_none());
        p.count_cross_shard(0, 3); // out of range: ignored, no panic
        assert_eq!(p.report().unwrap().cross_shard_total(), 0);
    }

    #[test]
    fn empty_report_renders_cleanly() {
        // An attached profiler whose run never happened: render and
        // to_series must not divide by zero.
        let p = EngineProfiler::enabled();
        p.attach(2);
        let r = p.report().unwrap();
        assert_eq!(r.total_events(), 0);
        assert_eq!(r.imbalance(), 1.0, "no busy time means balanced");
        let text = r.render();
        assert!(text.contains("imbalance=1.00x"));
        assert!(
            !text.contains("cross-shard traffic"),
            "no traffic means no cross-shard section: {text}"
        );
        for line in text.lines() {
            assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
        }
        let mut store = crate::series::SeriesStore::new();
        r.to_series(&mut store, simclock::SimTime::ZERO);
        for (_, pts) in store.iter() {
            for pt in pts {
                assert!(pt.value.is_finite());
            }
        }
    }

    #[test]
    fn single_shard_report_has_no_empty_matrix_rows() {
        let p = EngineProfiler::enabled();
        p.attach(1);
        let s = p.shard_slot(0).unwrap();
        s.add_busy(100);
        s.add_wall(200);
        s.add_events(7);
        let r = p.report().unwrap();
        assert_eq!(r.shards.len(), 1);
        assert_eq!(r.pairs.len(), 1, "1-shard matrix is 1x1");
        assert_eq!(r.imbalance(), 1.0, "one shard is balanced by definition");
        assert!(r.top_pairs(8).is_empty(), "diagonal never counts as a pair");
        let text = r.render();
        assert!(text.contains("shards=1"));
        assert!(!text.contains("cross-shard traffic"));
        assert!(!text.contains("->"), "no pair rows for a single shard");
        let mut store = crate::series::SeriesStore::new();
        r.to_series(&mut store, simclock::SimTime::ZERO);
        // 6 per-shard series for the one shard, plus the 2 globals.
        assert_eq!(store.len(), 8);
        for (_, pts) in store.iter() {
            for pt in pts {
                assert!(pt.value.is_finite());
            }
        }
    }

    #[test]
    fn series_emission_uses_wallclock_prefix() {
        let p = EngineProfiler::enabled();
        p.attach(1);
        let s = p.shard_slot(0).unwrap();
        s.add_busy(100);
        s.add_wall(100);
        s.add_events(1);
        let mut store = crate::series::SeriesStore::new();
        p.report()
            .unwrap()
            .to_series(&mut store, simclock::SimTime::ZERO);
        assert!(!store.is_empty());
        for (id, _) in store.iter() {
            assert!(
                id.name().starts_with(WALLCLOCK_PREFIX),
                "unprefixed metric {:?}",
                id
            );
        }
    }
}
