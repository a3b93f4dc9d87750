//! Host-memory observability: a feature-gated tracking allocator that
//! attributes heap traffic to a thread-local **subsystem tag**.
//!
//! The paper's fig7 claim is about the resource footprint of the
//! management stack itself. The `footprint_*` series model that
//! footprint in *virtual* time; this module measures the reproduction's
//! *real* heap, as a report around a run rather than an instrument inside
//! it (DESIGN §15): arm a [`MemProfiler`], run, read
//! [`MemProfiler::report`]. The engine holds no handle to it and no series
//! carries its numbers.
//!
//! ## Shape
//!
//! - **Compile-time gate.** Everything real lives behind the
//!   `mem-profile` cargo feature. With the feature off (the default and
//!   the tier-1 build) no `#[global_allocator]` is installed, every call
//!   in this module is an empty inline function, and [`TagScope`] is a
//!   zero-sized no-op — the instrumented call sites cost nothing.
//! - **Runtime gate.** With the feature compiled in, stat accounting
//!   still only runs once a [`MemProfiler::enabled`] handle arms the
//!   collector. Allocation headers are always stamped so a free is
//!   charged to the tag that allocated it, and an allocation made while
//!   the collector was off can never drive a live counter negative.
//! - **Tags are thread-local and scoped.** [`tag_scope`] pushes a
//!   [`MemTag`] for the current thread and restores the previous tag on
//!   drop; scopes nest. The engine tags event execution `des`, the
//!   ESlurm/RM FSMs tag their dispatch, backfill
//!   tags `sched`, retraining tags `ml`, and the sampler/SLO tick tags
//!   `obs`; everything else is `untagged`.
//! - **Non-perturbing.** The allocator changes *where* bytes live
//!   (a small header per allocation) and *what is counted*, never what
//!   the simulation computes: outcomes and all virtual-time exports are
//!   bit-identical with the feature on or off (`tests/mem_profile.rs`).
//!
//! ## Reading the numbers
//!
//! Per tag: live bytes, peak bytes, allocation/deallocation counts,
//! cumulative allocated bytes, and a power-of-two size-class histogram.
//! [`MemProfiler::report`] snapshots them relative to the arm-time
//! baseline; `eslurm mem-report` renders the table and `bench_des --mem`
//! pins `allocs_per_event` into `BENCH_DES.json`.

use std::rc::Rc;

#[cfg(feature = "mem-profile")]
use std::alloc::{GlobalAlloc, Layout, System};
#[cfg(feature = "mem-profile")]
use std::cell::Cell;
use std::time::Instant;

/// Subsystem attribution tag for heap traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemTag {
    /// No scope active (thread startup, harness code, test glue).
    Untagged,
    /// The ESlurm master FSM.
    Master,
    /// A satellite FSM.
    Satellite,
    /// The centralized-RM daemons (master + slaves).
    Rm,
    /// Backfill scheduling passes.
    Sched,
    /// Runtime-estimation retraining (k-means + SVR fits).
    Ml,
    /// The observability stack's own work (sampler snapshots, SLO ticks).
    Obs,
    /// DES engine work (event execution).
    Des,
}

/// Total tag slots in the global table.
pub const N_SLOTS: usize = 8;

/// Power-of-two allocation size classes: `<=16B`, `<=32B`, …, `<=1MiB`,
/// `>1MiB`.
pub const N_SIZE_CLASSES: usize = 18;

/// Stable labels for the size classes, smallest first.
pub const SIZE_CLASS_LABELS: [&str; N_SIZE_CLASSES] = [
    "<=16B", "<=32B", "<=64B", "<=128B", "<=256B", "<=512B", "<=1KiB", "<=2KiB", "<=4KiB",
    "<=8KiB", "<=16KiB", "<=32KiB", "<=64KiB", "<=128KiB", "<=256KiB", "<=512KiB", "<=1MiB",
    ">1MiB",
];

/// Size-class index of an allocation of `size` bytes.
pub fn size_class(size: usize) -> usize {
    if size <= 16 {
        return 0;
    }
    // ceil(log2(size)) for size > 16; class 0 is <=16B == 2^4.
    let ceil_log2 = (usize::BITS - (size - 1).leading_zeros()) as usize;
    (ceil_log2 - 4).min(N_SIZE_CLASSES - 1)
}

impl MemTag {
    /// The slot index in the global stat table.
    #[cfg_attr(not(feature = "mem-profile"), allow(dead_code))]
    fn slot(self) -> usize {
        match self {
            MemTag::Untagged => 0,
            MemTag::Master => 1,
            MemTag::Satellite => 2,
            MemTag::Rm => 3,
            MemTag::Sched => 4,
            MemTag::Ml => 5,
            MemTag::Obs => 6,
            MemTag::Des => 7,
        }
    }
}

/// Stable label of a tag slot (`master`, `des`, …).
pub fn slot_label(slot: usize) -> String {
    match slot {
        0 => "untagged",
        1 => "master",
        2 => "satellite",
        3 => "rm",
        4 => "sched",
        5 => "ml",
        6 => "obs",
        7 => "des",
        _ => "invalid",
    }
    .into()
}

/// Whether the tracking allocator was compiled in (`mem-profile`
/// feature). With it off every API here is an inert stub.
#[inline]
pub fn mem_profile_compiled() -> bool {
    cfg!(feature = "mem-profile")
}

// ---------------------------------------------------------------------
// Feature-on collector: global slot table + tracking allocator.
// ---------------------------------------------------------------------

#[cfg(feature = "mem-profile")]
#[allow(
    clippy::disallowed_types,
    reason = "a `GlobalAlloc` must be `Sync`: the collector behind it counts in atomics"
)]
mod collector {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    pub(super) struct Slot {
        pub live: AtomicU64,
        pub peak: AtomicU64,
        pub allocs: AtomicU64,
        pub deallocs: AtomicU64,
        pub alloc_bytes: AtomicU64,
        pub classes: [AtomicU64; N_SIZE_CLASSES],
    }

    impl Slot {
        #[allow(clippy::declare_interior_mutable_const)] // const used only as array-repeat seed
        const NEW: Slot = Slot {
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
            alloc_bytes: AtomicU64::new(0),
            classes: [const { AtomicU64::new(0) }; N_SIZE_CLASSES],
        };
    }

    pub(super) static SLOTS: [Slot; N_SLOTS] = [Slot::NEW; N_SLOTS];
    /// Runtime gate: stats accumulate only while armed.
    pub(super) static ENABLED: AtomicBool = AtomicBool::new(false);

    thread_local! {
        /// Current tag slot of this thread. `const` init: reading it from
        /// inside the allocator must never itself allocate.
        pub(super) static CURRENT: Cell<u8> = const { Cell::new(0) };
    }

    /// Tag word flag: this allocation was counted and its free must
    /// decrement. Slot index lives in the low byte.
    const COUNTED: u64 = 1 << 8;
    const SLOT_MASK: u64 = 0xff;

    #[inline]
    fn header_size(layout: &Layout) -> usize {
        // Big enough for the tag word, and a multiple of the alignment
        // (every align <= 16 divides 16; larger aligns use themselves).
        layout.align().max(16)
    }

    #[inline]
    fn current_slot() -> usize {
        CURRENT.try_with(|c| c.get() as usize).unwrap_or(0)
    }

    #[inline]
    fn record_alloc(slot: usize, size: usize) {
        let s = &SLOTS[slot];
        let live = s.live.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        s.peak.fetch_max(live, Ordering::Relaxed);
        s.allocs.fetch_add(1, Ordering::Relaxed);
        s.alloc_bytes.fetch_add(size as u64, Ordering::Relaxed);
        s.classes[size_class(size)].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn record_dealloc(slot: usize, size: usize) {
        let s = &SLOTS[slot];
        s.live.fetch_sub(size as u64, Ordering::Relaxed);
        s.deallocs.fetch_add(1, Ordering::Relaxed);
    }

    /// The tracking allocator: [`System`] plus a per-allocation header
    /// holding the owning tag slot. The default `realloc`/`alloc_zeroed`
    /// (alloc + copy/zero + dealloc) compose correctly with the header.
    pub struct TrackingAlloc;

    unsafe impl GlobalAlloc for TrackingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let h = header_size(&layout);
            let Some(full_size) = layout.size().checked_add(h) else {
                return std::ptr::null_mut();
            };
            let full = Layout::from_size_align_unchecked(full_size, layout.align());
            let raw = System.alloc(full);
            if raw.is_null() {
                return raw;
            }
            let ptr = raw.add(h);
            let slot = current_slot();
            let counted = ENABLED.load(Ordering::Relaxed);
            let word = slot as u64 | if counted { COUNTED } else { 0 };
            (ptr.sub(8) as *mut u64).write_unaligned(word);
            if counted {
                record_alloc(slot, layout.size());
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            let h = header_size(&layout);
            let word = (ptr.sub(8) as *const u64).read_unaligned();
            if word & COUNTED != 0 {
                record_dealloc((word & SLOT_MASK) as usize, layout.size());
            }
            let full = Layout::from_size_align_unchecked(layout.size() + h, layout.align());
            System.dealloc(ptr.sub(h), full);
        }
    }

    #[global_allocator]
    static GLOBAL: TrackingAlloc = TrackingAlloc;

    pub(super) fn slot_snapshot() -> SlotSnapshot {
        let mut snap = SlotSnapshot::default();
        for (i, s) in SLOTS.iter().enumerate() {
            snap.live[i] = s.live.load(Ordering::Relaxed);
            snap.peak[i] = s.peak.load(Ordering::Relaxed);
            snap.allocs[i] = s.allocs.load(Ordering::Relaxed);
            snap.deallocs[i] = s.deallocs.load(Ordering::Relaxed);
            snap.alloc_bytes[i] = s.alloc_bytes.load(Ordering::Relaxed);
            for (c, cls) in s.classes.iter().enumerate() {
                snap.classes[i][c] = cls.load(Ordering::Relaxed);
            }
        }
        snap
    }
}

#[cfg(feature = "mem-profile")]
pub use collector::TrackingAlloc;

/// A point-in-time copy of every slot's counters.
#[derive(Clone)]
#[cfg_attr(not(feature = "mem-profile"), allow(dead_code))]
struct SlotSnapshot {
    live: [u64; N_SLOTS],
    peak: [u64; N_SLOTS],
    allocs: [u64; N_SLOTS],
    deallocs: [u64; N_SLOTS],
    alloc_bytes: [u64; N_SLOTS],
    classes: [[u64; N_SIZE_CLASSES]; N_SLOTS],
}

impl Default for SlotSnapshot {
    fn default() -> Self {
        SlotSnapshot {
            live: [0; N_SLOTS],
            peak: [0; N_SLOTS],
            allocs: [0; N_SLOTS],
            deallocs: [0; N_SLOTS],
            alloc_bytes: [0; N_SLOTS],
            classes: [[0; N_SIZE_CLASSES]; N_SLOTS],
        }
    }
}

// ---------------------------------------------------------------------
// RAII tag scopes.
// ---------------------------------------------------------------------

/// RAII guard from [`tag_scope`]: restores the thread's previous tag on
/// drop. Zero-sized and inert when `mem-profile` is off.
#[must_use = "a tag scope attributes nothing unless it is held"]
pub struct TagScope {
    #[cfg(feature = "mem-profile")]
    prev: u8,
    #[cfg(not(feature = "mem-profile"))]
    _inert: (),
}

/// Push `tag` for the current thread until the returned guard drops.
/// Scopes nest (the guard restores whatever was active before); the call
/// itself never allocates, so it is safe on any hot path.
#[inline]
pub fn tag_scope(tag: MemTag) -> TagScope {
    #[cfg(feature = "mem-profile")]
    {
        let slot = tag.slot() as u8;
        let prev = collector::CURRENT
            .try_with(|c| c.replace(slot))
            .unwrap_or(0);
        TagScope { prev }
    }
    #[cfg(not(feature = "mem-profile"))]
    {
        let _ = tag;
        TagScope { _inert: () }
    }
}

impl Drop for TagScope {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "mem-profile")]
        {
            let prev = self.prev;
            let _ = collector::CURRENT.try_with(|c| c.set(prev));
        }
    }
}

// ---------------------------------------------------------------------
// The profiler handle + report.
// ---------------------------------------------------------------------

#[cfg_attr(not(feature = "mem-profile"), allow(dead_code))]
struct MemShared {
    /// Per-slot counters at arm time; reports are deltas against this.
    baseline: SlotSnapshot,
    armed_at: Instant,
}

/// Cheaply-cloneable handle to the (possibly disabled) host-memory
/// profiler, following the [`crate::Recorder`] discipline: the default
/// is disabled and every call is an inlined branch. Unlike the other
/// handles the underlying collector is a process-wide singleton (it
/// lives inside the global allocator); the handle contributes the
/// arm-time *baseline* so overlapping profilers each report their own
/// window.
#[derive(Clone, Default)]
pub struct MemProfiler(Option<Rc<MemShared>>);

impl std::fmt::Debug for MemProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("MemProfiler(disabled)"),
            Some(_) => f.write_str("MemProfiler(armed)"),
        }
    }
}

impl MemProfiler {
    /// The no-op profiler.
    pub fn disabled() -> Self {
        MemProfiler(None)
    }

    /// Arm the collector and snapshot the baseline. When the
    /// `mem-profile` feature is off this returns a **disabled** handle —
    /// there is no collector to arm — so callers can gate on
    /// [`MemProfiler::active`] (or [`mem_profile_compiled`]) uniformly.
    pub fn enabled() -> Self {
        #[cfg(feature = "mem-profile")]
        {
            use std::sync::atomic::Ordering;
            collector::ENABLED.store(true, Ordering::Relaxed);
            MemProfiler(Some(Rc::new(MemShared {
                baseline: collector::slot_snapshot(),
                armed_at: Instant::now(),
            })))
        }
        #[cfg(not(feature = "mem-profile"))]
        {
            MemProfiler(None)
        }
    }

    /// Whether this handle is armed (always false feature-off).
    #[inline]
    pub fn active(&self) -> bool {
        self.0.is_some()
    }

    /// Snapshot per-tag stats relative to this handle's arm baseline, or
    /// `None` when disabled. Live/peak bytes are absolute; counts,
    /// cumulative bytes, size classes, and growth are since arm.
    pub fn report(&self) -> Option<MemReport> {
        let shared = self.0.as_ref()?;
        #[cfg(not(feature = "mem-profile"))]
        {
            let _ = shared;
            None
        }
        #[cfg(feature = "mem-profile")]
        {
            let now = collector::slot_snapshot();
            let base = &shared.baseline;
            let mut tags = Vec::new();
            for slot in 0..N_SLOTS {
                let allocs = now.allocs[slot].saturating_sub(base.allocs[slot]);
                let live = now.live[slot];
                let peak = now.peak[slot];
                if allocs == 0 && live == 0 && peak == 0 {
                    continue;
                }
                let classes: Vec<u64> = (0..N_SIZE_CLASSES)
                    .map(|c| now.classes[slot][c].saturating_sub(base.classes[slot][c]))
                    .collect();
                tags.push(MemTagReport {
                    tag: slot_label(slot),
                    live_bytes: live,
                    peak_bytes: peak,
                    allocs,
                    deallocs: now.deallocs[slot].saturating_sub(base.deallocs[slot]),
                    alloc_bytes: now.alloc_bytes[slot].saturating_sub(base.alloc_bytes[slot]),
                    growth_bytes: live as i64 - base.live[slot] as i64,
                    classes,
                });
            }
            Some(MemReport {
                tags,
                elapsed_wall_s: shared.armed_at.elapsed().as_secs_f64(),
            })
        }
    }
}

/// Per-tag numbers inside a [`MemReport`].
#[derive(Clone, Debug)]
pub struct MemTagReport {
    /// Stable tag label (`master`, `des`, …).
    pub tag: String,
    /// Live heap bytes attributed to the tag right now.
    pub live_bytes: u64,
    /// Peak live bytes the tag ever reached (absolute, not since arm).
    pub peak_bytes: u64,
    /// Allocations since the profiler armed.
    pub allocs: u64,
    /// Deallocations since the profiler armed.
    pub deallocs: u64,
    /// Cumulative bytes allocated since arm.
    pub alloc_bytes: u64,
    /// Live bytes now minus live bytes at arm.
    pub growth_bytes: i64,
    /// Allocation counts per size class since arm
    /// ([`SIZE_CLASS_LABELS`] order).
    pub classes: Vec<u64>,
}

/// Owned snapshot from [`MemProfiler::report`] — the `eslurm mem-report`
/// body and the `bench_des --mem` source.
#[derive(Clone, Debug)]
pub struct MemReport {
    /// Tags with any activity, slot order (untagged first, `des` last).
    pub tags: Vec<MemTagReport>,
    /// Wall seconds since the profiler armed (alloc-rate denominator).
    pub elapsed_wall_s: f64,
}

impl MemReport {
    /// Total live bytes across tags.
    pub fn total_live(&self) -> u64 {
        self.tags.iter().map(|t| t.live_bytes).sum()
    }

    /// Sum of per-tag peaks (upper bound on the true global peak).
    pub fn total_peak(&self) -> u64 {
        self.tags.iter().map(|t| t.peak_bytes).sum()
    }

    /// Total allocations since arm.
    pub fn total_allocs(&self) -> u64 {
        self.tags.iter().map(|t| t.allocs).sum()
    }

    /// Tags sorted by live-byte growth since arm, biggest first.
    pub fn top_growth(&self) -> Vec<(&str, i64)> {
        let mut v: Vec<(&str, i64)> = self
            .tags
            .iter()
            .map(|t| (t.tag.as_str(), t.growth_bytes))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v
    }

    /// Render the per-tag table, the aggregate size-class breakdown, and
    /// the top-growth list (the `eslurm mem-report` body).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "host-memory report: {} active tag(s), {:.3}s wall since arm\n\n",
            self.tags.len(),
            self.elapsed_wall_s
        ));
        out.push_str(
            "tag            live_bytes   peak_bytes       allocs     deallocs  alloc_rate/s  growth_bytes\n",
        );
        for t in &self.tags {
            let rate = if self.elapsed_wall_s > 0.0 {
                t.allocs as f64 / self.elapsed_wall_s
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<13} {:>12} {:>12} {:>12} {:>12} {:>13.1} {:>13}\n",
                t.tag, t.live_bytes, t.peak_bytes, t.allocs, t.deallocs, rate, t.growth_bytes,
            ));
        }
        out.push_str(&format!(
            "total         {:>12} {:>12} {:>12}\n",
            self.total_live(),
            self.total_peak(),
            self.total_allocs(),
        ));
        out.push_str("\nsize classes (allocs since arm, all tags):\n");
        for (c, label) in SIZE_CLASS_LABELS.iter().enumerate() {
            let n: u64 = self.tags.iter().map(|t| t.classes[c]).sum();
            if n > 0 {
                out.push_str(&format!("  {label:>8}  {n}\n"));
            }
        }
        out.push_str("\ntop growth since arm:\n");
        for (tag, growth) in self.top_growth().into_iter().take(5) {
            out.push_str(&format!("  {tag:<13} {growth:>+13}\n"));
        }
        out
    }

    /// CSV exposition: one row per tag, size classes as trailing columns.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("tag,live_bytes,peak_bytes,allocs,deallocs,alloc_bytes,growth_bytes");
        for label in SIZE_CLASS_LABELS {
            out.push_str(&format!(",class_{label}"));
        }
        out.push('\n');
        for t in &self.tags {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}",
                t.tag,
                t.live_bytes,
                t.peak_bytes,
                t.allocs,
                t.deallocs,
                t.alloc_bytes,
                t.growth_bytes,
            ));
            for c in &t.classes {
                out.push_str(&format!(",{c}"));
            }
            out.push('\n');
        }
        out
    }

    /// JSON exposition (hand-rendered like the other obs exporters).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"tags\":[");
        for (i, t) in self.tags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let classes: Vec<String> = t.classes.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!(
                "{{\"tag\":\"{}\",\"live_bytes\":{},\"peak_bytes\":{},\"allocs\":{},\"deallocs\":{},\"alloc_bytes\":{},\"growth_bytes\":{},\"classes\":[{}]}}",
                t.tag,
                t.live_bytes,
                t.peak_bytes,
                t.allocs,
                t.deallocs,
                t.alloc_bytes,
                t.growth_bytes,
                classes.join(","),
            ));
        }
        out.push_str(&format!(
            "],\"total_live_bytes\":{},\"total_peak_bytes\":{},\"total_allocs\":{},\"elapsed_wall_s\":{:.3}}}",
            self.total_live(),
            self.total_peak(),
            self.total_allocs(),
            self.elapsed_wall_s,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_are_monotone_and_bounded() {
        assert_eq!(size_class(0), 0);
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(16), 0);
        assert_eq!(size_class(17), 1);
        assert_eq!(size_class(32), 1);
        assert_eq!(size_class(33), 2);
        assert_eq!(size_class(1024), 6);
        assert_eq!(size_class(1 << 20), N_SIZE_CLASSES - 2);
        assert_eq!(size_class((1 << 20) + 1), N_SIZE_CLASSES - 1);
        assert_eq!(size_class(usize::MAX / 2), N_SIZE_CLASSES - 1);
        let mut prev = 0;
        for s in 1..100_000usize {
            let c = size_class(s);
            assert!(c >= prev || c == prev, "class regressed at {s}");
            prev = c;
        }
    }

    #[test]
    fn slot_labels_are_stable_and_unique() {
        let labels: Vec<String> = (0..N_SLOTS).map(slot_label).collect();
        assert_eq!(labels[0], "untagged");
        assert_eq!(labels[1], "master");
        assert_eq!(labels[6], "obs");
        assert_eq!(labels[N_SLOTS - 1], "des");
        assert_eq!(slot_label(N_SLOTS), "invalid");
        let mut sorted = labels.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), N_SLOTS, "duplicate slot label");
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let p = MemProfiler::disabled();
        assert!(!p.active());
        assert!(p.report().is_none());
    }

    #[test]
    fn scopes_nest_and_restore() {
        let _a = tag_scope(MemTag::Master);
        {
            let _b = tag_scope(MemTag::Sched);
            let _c = tag_scope(MemTag::Des);
        }
        // Nothing observable feature-off; feature-on correctness is pinned
        // by `scoped_allocations_are_attributed` below.
    }

    #[cfg(feature = "mem-profile")]
    #[test]
    fn scoped_allocations_are_attributed() {
        let p = MemProfiler::enabled();
        let report_before = p.report().expect("armed profiler reports");
        let ml_before = report_before
            .tags
            .iter()
            .find(|t| t.tag == "ml")
            .map_or(0, |t| t.allocs);
        let held: Vec<u8> = {
            let _scope = tag_scope(MemTag::Ml);
            vec![7u8; 1 << 16]
        };
        let report = p.report().expect("armed profiler reports");
        let ml = report
            .tags
            .iter()
            .find(|t| t.tag == "ml")
            .expect("ml tag active after a tagged allocation");
        assert!(ml.allocs > ml_before, "tagged alloc not counted");
        assert!(ml.live_bytes >= held.len() as u64);
        assert!(ml.peak_bytes >= held.len() as u64);
        assert!(ml.classes[size_class(1 << 16)] > 0, "size class missed");
        drop(held);
        let after = p.report().expect("armed profiler reports");
        let ml_after = after.tags.iter().find(|t| t.tag == "ml").unwrap();
        assert!(
            ml_after.live_bytes < ml.live_bytes,
            "free not charged back to the allocating tag"
        );
    }

    #[cfg(feature = "mem-profile")]
    #[test]
    fn report_renders_all_formats() {
        let p = MemProfiler::enabled();
        let _held: Vec<u64> = {
            let _scope = tag_scope(MemTag::Sched);
            vec![0u64; 4096]
        };
        let r = p.report().unwrap();
        let text = r.render();
        assert!(text.contains("host-memory report"));
        assert!(text.contains("top growth since arm"));
        let csv = r.to_csv();
        assert!(csv.starts_with("tag,live_bytes,peak_bytes,allocs"));
        assert!(csv.contains(",class_<=16B"));
        let json = r.to_json();
        assert!(json.starts_with("{\"tags\":["));
        assert!(json.contains("\"total_allocs\":"));
    }

    #[cfg(not(feature = "mem-profile"))]
    #[test]
    fn feature_off_enabled_handle_is_disabled() {
        let p = MemProfiler::enabled();
        assert!(!p.active());
        assert!(p.report().is_none());
        assert!(!mem_profile_compiled());
    }
}
