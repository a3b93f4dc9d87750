//! Shard-invariant event ordering and a slab-backed keyed queue.
//!
//! The serial [`EventQueue`](crate::EventQueue) breaks ties on *global push
//! order*, which is a total order but not a portable one: the interleaving
//! of pushes depends on how the simulation loop is driven, so two engines
//! that partition the event population differently (one queue vs. one queue
//! per shard) would assign different sequence numbers to the same logical
//! event. [`EventKey`] fixes that by making the tie-breaker a property of
//! the *event itself*:
//!
//! * `time` — the virtual instant the event fires;
//! * `lane` — who created it (`0` for external/system events such as
//!   injected jobs and fault-plan markers, `n + 1` for events created by
//!   node `n`);
//! * `seq` — the creator's own monotonically increasing creation counter.
//!
//! A node's handlers always run in the key order of the node's events, so
//! each node emits events in a deterministic order no matter how the event
//! population is sharded — which makes `(time, lane, seq)` identical across
//! shard counts, and the global sort by key a shard-count-invariant total
//! order. This is the merge rule the engine in `emu::sim` relies on:
//! popping the minimum key across all shard queues replays exactly the
//! 1-shard execution.
//!
//! ## Layout of [`KeyedQueue`]
//!
//! Profiled on the 200,000-node heartbeat-sweep workload, the previous
//! queue (a `BinaryHeap` of 32-byte `(EventKey, slot)` entries over a
//! payload slab) was 35 % of the run: 19 % in the sift of `pop`, 11 % in
//! the rest of `pop`, 5 % in `push`. Nearly all of that is cache misses on
//! the way down the heap, so the layout is chosen to touch as few lines as
//! possible per operation:
//!
//! * The heap is an implicit **4-ary** min-heap of **16-byte** entries
//!   `(time: u64, lane: u32, slot: u32)`. The four children of a node are
//!   one contiguous 64-byte run, and the heap has half the levels of a
//!   binary one, so a sift-down reads about one line per level over half
//!   as many levels. Within a group the least child is picked by a
//!   two-round tournament on index arithmetic (three comparisons, no
//!   data-dependent branch), and `pop` walks the hole to the bottom before
//!   it looks at the displaced last entry, which came from the bottom and
//!   nearly always returns there.
//! * `seq`, the third key component, is stored beside the payload in the
//!   slab slot and is read only to break a `(time, lane)` tie — two events
//!   one creator stamped for the same instant. Every other comparison is
//!   decided by the entry alone. This keeps the entry at 16 bytes without
//!   narrowing `seq`, and the order is still exactly `(time, lane, seq)`.
//! * Payloads never move: a slab (`Vec` arena plus a LIFO free list) holds
//!   `seq` and the event, so `pop` reads one slot — the one whose index the
//!   root entry names, read *before* the sift so that its miss overlaps
//!   the sift's — and the most recently freed slot, still in cache, is the
//!   next one `push` fills.
//!
//! [`KeyedQueue::peek_head`] answers "which shard goes next" from the root
//! entry alone; [`KeyedQueue::peek_key`] also reads the slot for `seq`.

use crate::time::SimTime;

/// Lane reserved for events created outside any node: external injections
/// and build-time markers (e.g. fault-plan annotations). At equal times,
/// system events order before any node-created event.
pub const SYSTEM_LANE: u32 = 0;

/// Canonical, shard-count-invariant identity and ordering of one event:
/// ordered by `(time, lane, seq)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Virtual time the event fires.
    pub time: SimTime,
    /// Creator lane: [`SYSTEM_LANE`] or `node + 1`.
    pub lane: u32,
    /// The creator's per-lane creation counter.
    pub seq: u64,
}

impl EventKey {
    /// The key of an event created by node `node`.
    pub fn for_node(time: SimTime, node: u32, seq: u64) -> Self {
        EventKey {
            time,
            lane: node + 1,
            seq,
        }
    }

    /// The key of a system-lane event (injections, build-time markers).
    pub fn system(time: SimTime, seq: u64) -> Self {
        EventKey {
            time,
            lane: SYSTEM_LANE,
            seq,
        }
    }
}

/// Heap arity: four 16-byte children share one 64-byte line.
const ARITY: usize = 4;

/// Heap entry: the first two key components and the slab slot holding the
/// third (`seq`) and the payload.
#[derive(Clone, Copy)]
struct Entry {
    time: u64,
    lane: u32,
    slot: u32,
}

/// Slab slot: `seq` beside the payload, `None` while on the free list.
struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// A priority queue of events ordered by [`EventKey`], with payloads kept
/// in a slab arena so heap sifts never move them.
pub struct KeyedQueue<E> {
    heap: Vec<Entry>,
    slab: Vec<Slot<E>>,
    free: Vec<u32>,
}

impl<E> Default for KeyedQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> KeyedQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with pre-reserved capacity for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        KeyedQueue {
            heap: Vec::with_capacity(cap),
            slab: Vec::with_capacity(cap),
            free: Vec::new(),
        }
    }

    /// Whether entry `a` orders strictly before entry `b`: by
    /// `(time, lane)`, and by the slots' `seq` only when those tie.
    #[inline]
    fn before(&self, a: Entry, b: Entry) -> bool {
        if (a.time, a.lane) != (b.time, b.lane) {
            return (a.time, a.lane) < (b.time, b.lane);
        }
        self.slab[a.slot as usize].seq < self.slab[b.slot as usize].seq
    }

    /// Place `entry` at `hole` or above: move parents down into the hole
    /// until `entry` no longer orders before the next one.
    #[inline]
    fn sift_up(&mut self, mut hole: usize, entry: Entry) {
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if !self.before(entry, self.heap[parent]) {
                break;
            }
            self.heap[hole] = self.heap[parent];
            hole = parent;
        }
        self.heap[hole] = entry;
    }

    /// Insert `event` under `key`. Keys must be unique (guaranteed by
    /// construction: every creator stamps a fresh `seq`).
    pub fn push(&mut self, key: EventKey, event: E) {
        let filled = Slot {
            seq: key.seq,
            event: Some(event),
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = filled;
                s
            }
            None => {
                self.slab.push(filled);
                (self.slab.len() - 1) as u32
            }
        };
        let entry = Entry {
            time: key.time.0,
            lane: key.lane,
            slot,
        };
        let hole = self.heap.len();
        self.heap.push(entry);
        self.sift_up(hole, entry);
    }

    /// Remove and return the minimum-key event.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        let root = *self.heap.first()?;
        // Read the slot before the sift, not after: it is the one certain
        // cache miss of a pop, and this way it overlaps the sift's own.
        let slot = &mut self.slab[root.slot as usize];
        let event = slot.event.take().expect("keyed queue slot empty");
        let key = EventKey {
            time: SimTime(root.time),
            lane: root.lane,
            seq: slot.seq,
        };
        let last = self.heap.pop().expect("heap has a root");
        let len = self.heap.len();
        if len > 0 {
            // `last` came from the bottom level and nearly always belongs
            // back there, so walk the hole down along the least children
            // without looking at `last`, then sift `last` up from the leaf.
            let mut hole = 0;
            loop {
                let first = hole * ARITY + 1;
                if first >= len {
                    break;
                }
                let least = if first + ARITY <= len {
                    // A full group: a two-round tournament whose picks
                    // are index arithmetic, not branches.
                    let c = &self.heap[first..first + ARITY];
                    let lo = first + usize::from(self.before(c[1], c[0]));
                    let hi = first + 2 + usize::from(self.before(c[3], c[2]));
                    if self.before(self.heap[hi], self.heap[lo]) {
                        hi
                    } else {
                        lo
                    }
                } else {
                    let mut least = first;
                    for child in first + 1..len {
                        if self.before(self.heap[child], self.heap[least]) {
                            least = child;
                        }
                    }
                    least
                };
                self.heap[hole] = self.heap[least];
                hole = least;
            }
            self.sift_up(hole, last);
        }
        self.free.push(root.slot);
        Some((key, event))
    }

    /// `(time, lane)` of the minimum pending key, read from the heap root
    /// alone — enough to pick between queues unless two heads tie, and
    /// then [`peek_key`](Self::peek_key) supplies `seq`.
    pub fn peek_head(&self) -> Option<(SimTime, u32)> {
        self.heap.first().map(|e| (SimTime(e.time), e.lane))
    }

    /// The minimum pending key, if any.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.first().map(|e| EventKey {
            time: SimTime(e.time),
            lane: e.lane,
            seq: self.slab[e.slot as usize].seq,
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total payload slots the slab arena has ever allocated (its memory
    /// footprint in events; slots are recycled, never returned).
    pub fn slab_slots(&self) -> usize {
        self.slab.len()
    }

    /// Slab slots currently on the free list (allocated but unoccupied).
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Reserve space for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
        self.slab.reserve(additional);
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_order_is_time_lane_seq() {
        let t1 = SimTime(10);
        let t2 = SimTime(20);
        assert!(EventKey::system(t1, 99) < EventKey::for_node(t1, 0, 0));
        assert!(EventKey::for_node(t1, 0, 5) < EventKey::for_node(t1, 1, 0));
        assert!(EventKey::for_node(t1, 7, 0) < EventKey::for_node(t1, 7, 1));
        assert!(EventKey::for_node(t1, 999, 999) < EventKey::system(t2, 0));
    }

    #[test]
    fn pops_in_key_order() {
        let mut q = KeyedQueue::new();
        let keys = [
            EventKey::for_node(SimTime(5), 2, 0),
            EventKey::system(SimTime(5), 0),
            EventKey::for_node(SimTime(3), 9, 4),
            EventKey::for_node(SimTime(5), 2, 1),
            EventKey::for_node(SimTime(5), 0, 7),
        ];
        for (i, k) in keys.iter().enumerate() {
            q.push(*k, i);
        }
        let mut got = Vec::new();
        let mut last: Option<EventKey> = None;
        while let Some((k, v)) = q.pop() {
            if let Some(prev) = last {
                assert!(k > prev, "key order violated");
            }
            last = Some(k);
            got.push(v);
        }
        assert_eq!(got, vec![2, 1, 4, 0, 3]);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = KeyedQueue::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                q.push(EventKey::for_node(SimTime(i), 0, round * 100 + i), i);
            }
            while q.pop().is_some() {}
            // After the first round the slab never grows again.
            assert!(q.slab.len() <= 100);
        }
    }

    #[test]
    fn gauges_track_depth_and_slab_occupancy() {
        let mut q = KeyedQueue::new();
        assert_eq!((q.slab_slots(), q.free_slots()), (0, 0));
        for i in 0..8u64 {
            q.push(EventKey::for_node(SimTime(i), 0, i), i);
        }
        for _ in 0..5 {
            q.pop();
        }
        // Draining keeps the slab; freed slots are listed.
        assert_eq!(q.slab_slots(), 8);
        assert_eq!(q.free_slots(), 5);
        q.push(EventKey::for_node(SimTime(99), 0, 99), 99);
        assert_eq!(q.free_slots(), 4, "push reuses a recycled slot");
        assert_eq!(q.slab_slots(), 8);
    }

    #[test]
    fn heap_entry_is_sixteen_bytes() {
        // Four children per 64-byte line; `seq` lives in the slab slot.
        assert_eq!(std::mem::size_of::<Entry>(), 16);
    }

    #[test]
    fn time_lane_ties_pop_in_seq_order() {
        // Same (time, lane) pushed out of seq order, around events that
        // differ in lane only: the slab-side `seq` alone must sort them.
        let mut q = KeyedQueue::new();
        let t = SimTime(7);
        for seq in [5u64, 1, 9, 0, 3] {
            q.push(EventKey::for_node(t, 4, seq), seq);
        }
        q.push(EventKey::for_node(t, 3, 100), 100);
        q.push(EventKey::for_node(t, 5, 0), 200);
        let got: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(got, vec![100, 0, 1, 3, 5, 9, 200]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        proptest! {
            /// Differential test against a `BTreeMap<EventKey, u64>`:
            /// interleaved pushes and pops over two instants and three
            /// lanes, so most comparisons are `(time, lane)` ties decided
            /// by `seq` alone or same-time ties decided by lane, and
            /// freed slots are refilled with new `seq`s all the time.
            #[test]
            fn matches_btreemap_oracle(
                ops in prop::collection::vec((0u8..4, 0u64..2, 0u32..3, 0u64..1000), 1..400)
            ) {
                let mut q: KeyedQueue<u64> = KeyedQueue::new();
                let mut oracle: BTreeMap<EventKey, u64> = BTreeMap::new();
                let mut payload = 0u64;
                let mut peak = 0;
                for (op, time, lane, seq) in ops {
                    if op == 0 {
                        let want = oracle.pop_first();
                        prop_assert_eq!(q.pop(), want);
                    } else {
                        let key = EventKey { time: SimTime(time), lane, seq };
                        // Keys are unique by contract: skip a repeat.
                        if let std::collections::btree_map::Entry::Vacant(v) = oracle.entry(key) {
                            v.insert(payload);
                            q.push(key, payload);
                            payload += 1;
                        }
                    }
                    let head = oracle.keys().next().copied();
                    prop_assert_eq!(q.peek_key(), head);
                    prop_assert_eq!(q.peek_head(), head.map(|k| (k.time, k.lane)));
                    prop_assert_eq!(q.len(), oracle.len());
                    // Slots are recycled: the slab never outgrows the peak.
                    peak = peak.max(q.len());
                    prop_assert_eq!(q.slab_slots(), peak);
                    prop_assert_eq!(q.free_slots(), q.slab_slots() - q.len());
                }
                while let Some(want) = oracle.pop_first() {
                    prop_assert_eq!(q.pop(), Some(want));
                }
                prop_assert_eq!(q.pop(), None);
            }
        }
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = KeyedQueue::new();
        let mut seq = 0u64;
        let mut last: Option<EventKey> = None;
        for step in 0..50u64 {
            for d in 0..4 {
                q.push(EventKey::for_node(SimTime(step * 3 + d), 1, seq), ());
                seq += 1;
            }
            let (k, _) = q.pop().unwrap();
            if let Some(prev) = last {
                assert!(k > prev);
            }
            last = Some(k);
        }
        while let Some((k, _)) = q.pop() {
            assert!(k > last.unwrap());
            last = Some(k);
        }
        assert!(q.is_empty());
    }
}
