//! Canonical event ordering and a slab-backed keyed queue.
//!
//! The [`EventQueue`](crate::EventQueue) breaks ties on *global push
//! order*, which is a total order but not a portable one: the interleaving
//! of pushes depends on how the simulation loop is driven, so two engines
//! that drive the same handlers differently (say, one queue vs. one queue
//! per group of nodes) would assign different sequence numbers to the same
//! logical event. [`EventKey`] fixes that by making the tie-breaker a
//! property of the *event itself*:
//!
//! * `time` — the virtual instant the event fires;
//! * `lane` — who created it (`0` for external/system events such as
//!   injected jobs and fault-plan markers, `n + 1` for events created by
//!   node `n`);
//! * `seq` — the creator's own monotonically increasing creation counter.
//!
//! A node's handlers always run in the key order of the node's events, so
//! each node emits events in a deterministic order no matter how the event
//! population is stored — which makes `(time, lane, seq)` a property of the
//! simulated program, and the sort by key its total order. The engine in
//! `emu::sim` pops its one queue in that order; every fingerprint and
//! export hashes it.
//!
//! ## Layout of [`KeyedQueue`]
//!
//! A DES queue is *monotone*: every event a handler schedules fires no
//! earlier than the event being handled, so no push is earlier than the
//! last pop. The queue is a radix heap built on that rule, with a small
//! heap for the one instant that is due:
//!
//! * The **settled instant** is the time of the last bucket settled (below)
//!   or of the last rebase; no pending event is earlier. Entries *at* it
//!   sit in an implicit **4-ary** min-heap of **16-byte** entries
//!   `(time: u64, lane: u32, slot: u32)`, which orders them by
//!   `(lane, seq)`: their times are all equal, so a heap comparison
//!   skips the time. Four children fill 64 bytes, but the heap's
//!   `Vec<Entry>` is aligned only as the allocator happens to place it:
//!   a probe read its start 48 bytes past a line boundary on the
//!   `des_sweep` benchmark (each sibling group `heap[4k+1..4k+5]` on one
//!   line) and 16 bytes past one on `des_launch` and `pipeline` (every
//!   group across two lines). Aligning it is open work. The least of a
//!   full group is picked by a two-round tournament on index
//!   arithmetic, and `pop` walks the hole to the bottom before it looks
//!   at the displaced last entry.
//! * Entries *later* than it go to one of 256 **buckets**, named by the
//!   highest 4-bit digit in which their time differs from the settled
//!   instant and by their own value in that digit. Bucket `(d, v)` holds
//!   exactly the times that share the settled instant's digits above `d`
//!   and have value `v` in digit `d`, so buckets in `(d, v)` order hold
//!   ever later times, and a bucket of digit 0 holds a single instant. A
//!   push is an append plus a compare against the bucket's least entry,
//!   kept up to date so that [`KeyedQueue::peek_head`] reads the head
//!   without settling anything.
//! * When `pop` finds the heap empty, it **settles**: the lowest occupied
//!   bucket's least time becomes the settled instant, its entries at that
//!   time move into the heap, and the rest drop into buckets of lower
//!   digits (they now differ from the settled instant only below `d`; no
//!   other bucket moves). An entry drops at most 15 times in its life. On
//!   the 16,384-node launch workload that is 2.3 bucket appends per event;
//!   with one-bit digits (64 buckets) it was 4.1, because messages 32–255
//!   µs out fell through five buckets each.
//! * A push earlier than the settled instant breaks the bucket ranges. It
//!   takes a cold **rebase**: the pushed time becomes the settled instant
//!   and every pending entry is re-bucketed against it. The engine never
//!   takes it; the order stays exactly `(time, lane, seq)` for any caller.
//! * Buckets are stacks of 16-entry **chunks** from one pool, and only a
//!   bucket's top chunk can be partly filled. Chunks freed by a settle or
//!   a rebase are kept for reuse only while the pool holds no more than
//!   the pending entries plus one chunk per bucket; past that they go back
//!   to the allocator, and `pop` returns one more whenever the bound
//!   tightens. One growable `Vec` per bucket instead would keep each
//!   bucket's own high-water mark: capacity would follow the sum of the
//!   buckets' peaks, not the pending count.
//! * `seq`, the third key component, is stored beside the payload in the
//!   slab slot and is read only to break a `(time, lane)` tie — two events
//!   one creator stamped for the same instant. This keeps the entry at 16
//!   bytes without narrowing `seq`.
//! * Payloads never move: a slab (`Vec` arena plus a LIFO free list) holds
//!   `seq` and the event, so `pop` reads one slot — the one whose index the
//!   root entry names, read *before* the sift so that, when it is not in
//!   cache yet, its miss overlaps the sift's — and the most recently freed
//!   slot, still in cache, is the next one `push` fills.
//! * Every [`Slot`] is aligned to a 64-byte line, so a slot of at most 64
//!   bytes (the engine's: `seq` plus a 56-byte event) is exactly one line,
//!   and reading it costs one miss, not two. Without the alignment the
//!   slab's buffer starts wherever the allocator puts it (16 or 48 bytes
//!   past a line boundary in the engine), and then every 64-byte slot
//!   straddles two lines. Smaller payloads pay for it in bytes: a `u64`
//!   payload's slot takes 64 bytes, not 16.
//!
//! [`KeyedQueue::peek_head`] answers "when is the next event" from the
//! head entry alone; [`KeyedQueue::peek_event`] also reads the slot for the
//! payload, so a caller can learn what the next event touches one `pop`
//! ahead. [`KeyedQueue::after_head_slot`] goes one event further without
//! reading anything of it: it names the slot of the *second* least entry —
//! the least child of the heap root, or, when the root is alone, the least
//! entry of the lowest occupied bucket — so a caller can prefetch the slot
//! that the `peek_event` after the next `pop` reads. It names nothing when
//! the heap is empty (the second entry would need a bucket scan). A push
//! before that `pop` may make the hint stale; it only ever names a live
//! slot, so a stale hint costs a wasted line, never a wrong answer.
//!
//! Left as they are: `push` reads the free slot it fills (to drop its
//! `None`) before writing it, about a tenth of the samples of the
//! 200,000-node sweep once the slots were aligned, but a trial that
//! wrote the slot without the read (`mem::forget(mem::replace(..))`)
//! measured no gain: the line has to be fetched either way; the chunk
//! append in `bucket_push`, the next-largest line after it; and a
//! smaller event, which needs a smaller message vocabulary first.

use crate::time::SimTime;
use std::cmp::Ordering;

/// Lane reserved for events created outside any node: external injections
/// and build-time markers (e.g. fault-plan annotations). At equal times,
/// system events order before any node-created event.
pub const SYSTEM_LANE: u32 = 0;

/// Canonical identity and ordering of one event: ordered by
/// `(time, lane, seq)`.
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

/// Heap arity: four 16-byte children fill 64 bytes, one line only when
/// the heap's buffer sits 48 bytes past a line boundary, which the
/// allocator does not promise (see the module docs).
const ARITY: usize = 4;

/// Bits per radix digit.
const DIGIT: u32 = 4;

/// Values of one digit.
const RADIX: usize = 1 << DIGIT;

/// Radix buckets: one per (digit position, digit value) pair.
const BUCKETS: usize = 64 / DIGIT as usize * RADIX;

/// Entries per bucket chunk.
const CHUNK: usize = 16;

/// Heap and bucket entry: the first two key components and the slab slot
/// holding the third (`seq`) and the payload.
#[derive(Clone, Copy, Default)]
struct Entry {
    time: u64,
    lane: u32,
    slot: u32,
}

/// Slab slot: `seq` beside the payload, `None` while on the free list.
/// Line-aligned, so a slot of at most 64 bytes is one cache line (see the
/// module docs); [`KeyedQueue::after_head_slot`] hands one out as a
/// prefetch target, and its fields stay private.
#[repr(align(64))]
pub struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// Whether entry `a` orders strictly before entry `b`: by `(time, lane)`,
/// and by the slots' `seq` only when those tie.
#[inline]
fn before<E>(slab: &[Slot<E>], a: Entry, b: Entry) -> bool {
    if (a.time, a.lane) != (b.time, b.lane) {
        return (a.time, a.lane) < (b.time, b.lane);
    }
    slab[a.slot as usize].seq < slab[b.slot as usize].seq
}

/// [`before`] for two heap entries: they share the settled instant's
/// time, so `lane` decides, and `seq` on a `lane` tie.
#[inline]
fn heap_before<E>(slab: &[Slot<E>], a: Entry, b: Entry) -> bool {
    debug_assert_eq!(a.time, b.time, "heap entries share one instant");
    if a.lane != b.lane {
        return a.lane < b.lane;
    }
    slab[a.slot as usize].seq < slab[b.slot as usize].seq
}

/// A fixed-size run of one bucket's entries, linked to the bucket's (full)
/// chunks below it, or to the next spare chunk.
struct Chunk {
    entries: [Entry; CHUNK],
    next: Option<Box<Chunk>>,
}

/// Unlink the first chunk of a spare list.
fn pop_spare(spare: &mut Option<Box<Chunk>>) -> Option<Box<Chunk>> {
    let mut c = spare.take()?;
    *spare = c.next.take();
    Some(c)
}

impl Drop for Chunk {
    fn drop(&mut self) {
        // Unlink iteratively: the default drop recurses once per chunk.
        let mut next = self.next.take();
        while let Some(mut c) = next {
            next = c.next.take();
        }
    }
}

/// One radix bucket: its chunk stack, its entry count, and its least
/// entry, which is meaningful only while the bucket's bit is set in
/// `occupied`. The count lives here, not in the chunk, so an append writes
/// the chunk's line without reading it first; the top chunk holds the
/// entries past the last multiple of [`CHUNK`].
#[derive(Default)]
struct Bucket {
    top: Option<Box<Chunk>>,
    count: usize,
    min: Entry,
}

impl Bucket {
    /// Take the bucket's chunks, top first, and how many entries the top
    /// one holds (every chunk below it is full).
    fn take(&mut self) -> (Option<Box<Chunk>>, usize) {
        let top_len = (std::mem::take(&mut self.count) + CHUNK - 1) % CHUNK + 1;
        (self.top.take(), top_len)
    }
}

/// A priority queue of events ordered by [`EventKey`], with payloads kept
/// in a slab arena so the queue never moves them (see the module docs for
/// the layout).
pub struct KeyedQueue<E> {
    /// No pending event is earlier than this instant.
    settled: u64,
    /// The pending entries at `settled`, as a 4-ary heap.
    heap: Vec<Entry>,
    /// The pending entries later than `settled`.
    buckets: [Bucket; BUCKETS],
    /// Bit `b % 64` of word `b / 64` set iff `buckets[b]` holds an entry.
    occupied: [u64; BUCKETS / 64],
    /// Spare chunks, linked through `next`.
    spare: Option<Box<Chunk>>,
    /// Chunks allocated: in buckets plus spare.
    chunks: usize,
    /// Pending events.
    len: usize,
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
            settled: 0,
            heap: Vec::new(),
            buckets: std::array::from_fn(|_| Bucket::default()),
            occupied: [0; BUCKETS / 64],
            spare: None,
            chunks: 0,
            len: 0,
            slab: Vec::with_capacity(cap),
            free: Vec::new(),
        }
    }

    /// Place `entry` at `hole` or above: move parents down into the hole
    /// until `entry` no longer orders before the next one.
    #[inline]
    fn sift_up(&mut self, mut hole: usize, entry: Entry) {
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if !heap_before(&self.slab, entry, self.heap[parent]) {
                break;
            }
            self.heap[hole] = self.heap[parent];
            hole = parent;
        }
        self.heap[hole] = entry;
    }

    /// The index of the least of the heap children that start at `first`
    /// (`first < self.heap.len()`).
    #[inline(always)]
    fn least_child(&self, first: usize) -> usize {
        let (heap, slab) = (&self.heap, &self.slab);
        let len = heap.len();
        if first + ARITY <= len {
            // A full group: a two-round tournament whose picks are index
            // arithmetic, not branches.
            let c = &heap[first..first + ARITY];
            let lo = first + usize::from(heap_before(slab, c[1], c[0]));
            let hi = first + 2 + usize::from(heap_before(slab, c[3], c[2]));
            if heap_before(slab, heap[hi], heap[lo]) {
                hi
            } else {
                lo
            }
        } else {
            let mut least = first;
            for child in first + 1..len {
                if heap_before(slab, heap[child], heap[least]) {
                    least = child;
                }
            }
            least
        }
    }

    /// Add an entry at the settled instant to the heap.
    #[inline]
    fn heap_push(&mut self, entry: Entry) {
        let hole = self.heap.len();
        self.heap.push(entry);
        self.sift_up(hole, entry);
    }

    /// The lowest occupied bucket, if any.
    #[inline]
    fn lowest(&self) -> Option<usize> {
        let (w, bits) = self
            .occupied
            .iter()
            .enumerate()
            .find(|(_, &bits)| bits != 0)?;
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// Append an entry later than the settled instant to its bucket: the
    /// highest digit in which its time differs from the settled instant,
    /// and its time's value in that digit.
    #[inline(always)]
    fn bucket_push(&mut self, entry: Entry) {
        debug_assert!(entry.time > self.settled);
        let digit = (63 - (entry.time ^ self.settled).leading_zeros()) / DIGIT;
        let value = (entry.time >> (digit * DIGIT)) as usize % RADIX;
        let b = digit as usize * RADIX + value;
        let bucket = &mut self.buckets[b];
        let i = bucket.count % CHUNK;
        match &mut bucket.top {
            Some(c) if i != 0 => c.entries[i] = entry,
            top => {
                let below = top.take();
                *top = Some(Self::new_top(
                    &mut self.spare,
                    &mut self.chunks,
                    below,
                    entry,
                ));
            }
        }
        bucket.count += 1;
        let (word, bit) = (&mut self.occupied[b / 64], 1u64 << (b % 64));
        if *word & bit == 0 || before(&self.slab, entry, bucket.min) {
            bucket.min = entry;
        }
        *word |= bit;
    }

    /// A chunk holding `first`, stacked on `below`: a spare one if any,
    /// else a new allocation.
    #[cold]
    #[inline(never)]
    fn new_top(
        spare: &mut Option<Box<Chunk>>,
        chunks: &mut usize,
        below: Option<Box<Chunk>>,
        first: Entry,
    ) -> Box<Chunk> {
        let mut c = pop_spare(spare).unwrap_or_else(|| {
            *chunks += 1;
            Box::new(Chunk {
                entries: [Entry::default(); CHUNK],
                next: None,
            })
        });
        c.entries[0] = first;
        c.next = below;
        c
    }

    /// Whether the chunk pool holds more than the pending entries plus
    /// one chunk per bucket.
    #[inline]
    fn pool_over_bound(&self) -> bool {
        self.chunks * CHUNK > self.len + BUCKETS * CHUNK
    }

    /// Return an emptied, unlinked chunk: to the spare list while the pool
    /// is within its bound, to the allocator otherwise.
    fn release(&mut self, mut c: Box<Chunk>) {
        if self.pool_over_bound() {
            self.chunks -= 1;
        } else {
            c.next = self.spare.take();
            self.spare = Some(c);
        }
    }

    /// Refill the empty heap from the lowest occupied bucket (see the
    /// module docs).
    fn settle(&mut self, b: usize) {
        self.occupied[b / 64] &= !(1u64 << (b % 64));
        let bucket = &mut self.buckets[b];
        self.settled = bucket.min.time;
        let (mut list, mut n) = bucket.take();
        while let Some(mut c) = list {
            list = c.next.take();
            for &e in &c.entries[..n] {
                if e.time == self.settled {
                    self.heap_push(e);
                } else {
                    self.bucket_push(e);
                }
            }
            n = CHUNK;
            self.release(c);
        }
    }

    /// A push earlier than the settled instant: make its time the settled
    /// instant and re-bucket everything pending against it.
    #[cold]
    #[inline(never)]
    fn rebase(&mut self, entry: Entry) {
        let mut pending: Vec<Entry> = self.heap.drain(..).collect();
        for b in 0..BUCKETS {
            let (mut list, mut n) = self.buckets[b].take();
            while let Some(mut c) = list {
                list = c.next.take();
                pending.extend_from_slice(&c.entries[..n]);
                n = CHUNK;
                self.release(c);
            }
        }
        self.occupied = [0; BUCKETS / 64];
        self.settled = entry.time;
        for e in pending {
            self.bucket_push(e);
        }
        self.heap_push(entry);
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
        self.len += 1;
        match entry.time.cmp(&self.settled) {
            Ordering::Greater => self.bucket_push(entry),
            Ordering::Equal => self.heap_push(entry),
            Ordering::Less => self.rebase(entry),
        }
    }

    /// Remove and return the minimum-key event.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        if self.heap.is_empty() {
            let b = self.lowest()?;
            self.settle(b);
        }
        let root = self.heap[0];
        // Read the slot before the sift, not after: unless the caller has
        // already loaded it (a `peek_event`, or a prefetch of the
        // `after_head_slot` two pops back), it is the one certain cache
        // miss of a pop, and this way it overlaps the sift's own.
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
                let least = self.least_child(first);
                self.heap[hole] = self.heap[least];
                hole = least;
            }
            self.sift_up(hole, last);
        }
        self.free.push(root.slot);
        self.len -= 1;
        if self.pool_over_bound() && pop_spare(&mut self.spare).is_some() {
            self.chunks -= 1;
        }
        Some((key, event))
    }

    /// The minimum pending entry: the heap root, or else the least entry
    /// of the lowest occupied bucket.
    #[inline]
    fn head(&self) -> Option<Entry> {
        match self.heap.first() {
            Some(&e) => Some(e),
            None => self.lowest().map(|b| self.buckets[b].min),
        }
    }

    /// `(time, lane)` of the minimum pending key, read from the head entry
    /// alone.
    pub fn peek_head(&self) -> Option<(SimTime, u32)> {
        self.head().map(|e| (SimTime(e.time), e.lane))
    }

    /// The payload of the minimum pending key: the event the next
    /// [`pop`](Self::pop) returns, left in place.
    #[inline]
    pub fn peek_event(&self) -> Option<&E> {
        let head = self.head()?;
        self.slab[head.slot as usize].event.as_ref()
    }

    /// The slot of the entry after the head: the one the `pop` after next
    /// returns if nothing is pushed before it. A prefetch target only —
    /// the slot is named, not read — and `None` when the heap is empty or
    /// fewer than two events are pending (see the module docs).
    #[inline]
    pub fn after_head_slot(&self) -> Option<&Slot<E>> {
        let next = match self.heap.len() {
            0 => return None,
            1 => self.buckets[self.lowest()?].min,
            // The second least entry is the least child of the root.
            _ => self.heap[self.least_child(1)],
        };
        Some(&self.slab[next.slot as usize])
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        self.slab.reserve(additional);
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        for bucket in &mut self.buckets {
            bucket.take();
        }
        self.spare = None;
        (self.settled, self.occupied) = (0, [0; BUCKETS / 64]);
        (self.chunks, self.len) = (0, 0);
        self.slab.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chunk pool's bound: the pending entries plus one chunk per
    /// bucket.
    fn pool_within_bound<E>(q: &KeyedQueue<E>) -> bool {
        q.chunks * CHUNK <= q.len() + BUCKETS * CHUNK
    }

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
        // Four children per 64 bytes (on one line only if the buffer
        // starts 48 bytes past a boundary, as it did on `des_sweep` but
        // not on `des_launch` or `pipeline`); `seq` lives in the slab slot.
        assert_eq!(std::mem::size_of::<Entry>(), 16);
    }

    #[test]
    fn slots_are_one_line_and_line_aligned() {
        // A 56-byte payload with a niche, like the engine's event: `seq`
        // plus the payload fill one line exactly.
        type Payload = (std::num::NonZeroU64, [u64; 6]);
        assert_eq!(std::mem::size_of::<Payload>(), 56);
        assert_eq!(std::mem::size_of::<Slot<Payload>>(), 64);
        assert_eq!(std::mem::align_of::<Slot<Payload>>(), 64);
        let mut q: KeyedQueue<Payload> = KeyedQueue::with_capacity(3);
        let cap = q.slab.capacity();
        assert_eq!(q.slab.as_ptr() as usize % 64, 0);
        let one = std::num::NonZeroU64::MIN;
        for i in 0..100u64 {
            q.push(EventKey::for_node(SimTime(i), 0, i), (one, [i; 6]));
        }
        assert!(q.slab.capacity() > cap, "the slab grew");
        assert_eq!(q.slab.as_ptr() as usize % 64, 0);
    }

    #[test]
    fn time_lane_ties_pop_in_seq_order() {
        // Same (time, lane) pushed out of seq order, around events that
        // differ in lane only: the slab-side `seq` alone must sort them —
        // in a bucket's least entry (pushed while later than the settled
        // instant) and in the heap.
        let mut q = KeyedQueue::new();
        let t = SimTime(7);
        for seq in [5u64, 1, 9, 0, 3] {
            q.push(EventKey::for_node(t, 4, seq), seq);
        }
        q.push(EventKey::for_node(t, 3, 100), 100);
        q.push(EventKey::for_node(t, 5, 0), 200);
        assert_eq!(q.peek_head(), Some((t, 4)));
        assert_eq!(q.peek_event(), Some(&100));
        let got: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(got, vec![100, 0, 1, 3, 5, 9, 200]);
    }

    /// Also checks that `peek_event` names the head on an empty queue, on
    /// a bucket's least entry behind an empty heap, and after a rebase.
    #[test]
    fn push_before_the_settled_instant_rebases() {
        let mut q = KeyedQueue::new();
        assert_eq!(q.peek_event(), None);
        let mut seq = 0u64;
        let mut push = |q: &mut KeyedQueue<u64>, t: u64| {
            q.push(EventKey::for_node(SimTime(t), 1, seq), t);
            seq += 1;
        };
        for t in [200, 200, 300, 1 << 40, 250] {
            push(&mut q, t);
        }
        assert!(q.heap.is_empty());
        assert_eq!(q.peek_event(), Some(&200));
        assert_eq!(q.pop().map(|(_, t)| t), Some(200));
        assert_eq!(q.settled, 200);
        // One entry still at the settled instant, three later: a push
        // before all of them rebases around a non-empty heap.
        push(&mut q, 50);
        assert_eq!(q.settled, 50);
        assert_eq!(q.peek_head(), Some((SimTime(50), 2)));
        assert_eq!(q.peek_event(), Some(&50));
        // And again from an empty heap, between pending times.
        assert_eq!(q.pop().map(|(_, t)| t), Some(50));
        push(&mut q, 20);
        assert_eq!(q.peek_event(), Some(&20));
        push(&mut q, 260);
        let got: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, t)| t).collect();
        assert_eq!(got, vec![20, 200, 250, 260, 300, 1 << 40]);
        assert!(q.is_empty() && pool_within_bound(&q));
        assert_eq!(q.peek_event(), None);
    }

    #[test]
    fn chunk_pool_is_bounded_by_pending_entries() {
        // 100k entries over 2^30 µs, then 100k more at one future instant
        // (one bucket, settled into the heap at once): the pool never holds
        // more than the pending entries plus one chunk per bucket, and
        // shrinks back as they drain.
        let mut q = KeyedQueue::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for seq in 0..100_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.push(EventKey::for_node(SimTime(1 + (x >> 34)), 0, seq), ());
        }
        assert!(q.chunks * CHUNK >= 100_000, "entries sit in chunks");
        assert!(pool_within_bound(&q));
        let mut last = SimTime::ZERO;
        while let Some((k, ())) = q.pop() {
            assert!(k.time >= last);
            last = k.time;
            assert!(
                pool_within_bound(&q),
                "{} chunks, {} pending",
                q.chunks,
                q.len()
            );
        }
        assert!(q.chunks <= BUCKETS);
        let burst = last.0 + 1_000;
        for seq in 0..100_000u64 {
            q.push(EventKey::for_node(SimTime(burst), 1, seq), ());
        }
        q.pop();
        assert_eq!(q.heap.len(), 99_999);
        assert!(pool_within_bound(&q));
        while q.pop().is_some() {
            assert!(pool_within_bound(&q));
        }
        assert!(q.chunks <= BUCKETS);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// One step of a differential run: the queue and the oracle agree
        /// on the head and its payload, the depth, and the slab and
        /// chunk-pool bounds.
        fn check(q: &KeyedQueue<u64>, oracle: &BTreeMap<EventKey, u64>, peak: usize) {
            let head = oracle.keys().next().copied();
            assert_eq!(q.peek_head(), head.map(|k| (k.time, k.lane)));
            assert_eq!(q.peek_event(), oracle.values().next());
            assert_eq!(q.len(), oracle.len());
            // Slots are recycled: the slab never outgrows the peak.
            assert_eq!(q.slab_slots(), peak);
            assert_eq!(q.free_slots(), q.slab_slots() - q.len());
            assert!(pool_within_bound(q));
        }

        proptest! {
            /// Differential test against a `BTreeMap<EventKey, u64>`:
            /// interleaved pushes and pops over two instants and three
            /// lanes, so most comparisons are `(time, lane)` ties decided
            /// by `seq` alone or same-time ties decided by lane, freed
            /// slots are refilled with new `seq`s all the time, and a push
            /// at time 0 after a pop at time 1 rebases. After every step,
            /// `peek_event` names the payload the next `pop` returns —
            /// on an empty queue, on a bucket head behind an empty heap
            /// and after a rebase alike.
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
                    peak = peak.max(q.len());
                    check(&q, &oracle, peak);
                }
                while let Some(want) = oracle.pop_first() {
                    prop_assert_eq!(q.peek_event(), Some(&want.1));
                    prop_assert_eq!(q.pop(), Some(want));
                }
                prop_assert_eq!(q.peek_event(), None);
                prop_assert_eq!(q.pop(), None);
            }

            /// `after_head_slot` against the same oracle, on mixed traffic
            /// like the first test's: the pops keep the oracle's order, a hint is
            /// given exactly when the heap is not empty and two events are
            /// pending, and after the next `pop` with no push between, the
            /// hinted slot is the head's — the one the pop after next
            /// returns — whether the hint was a root child (`seq` ties
            /// included) or a bucket's least entry behind a lone root.
            #[test]
            fn after_head_slot_names_the_pop_after_next(
                ops in prop::collection::vec((0u8..3, 0u64..3, 0u32..3, 0u64..1000), 1..400)
            ) {
                let mut q: KeyedQueue<u64> = KeyedQueue::new();
                let mut oracle: BTreeMap<EventKey, u64> = BTreeMap::new();
                let mut hint: Option<*const Slot<u64>> = None;
                let mut peak = 0;
                for (op, time, lane, seq) in ops {
                    if op == 0 {
                        let want = oracle.pop_first();
                        prop_assert_eq!(q.pop(), want);
                        if let Some(h) = hint {
                            let head = q.head().expect("a hint means two were pending");
                            prop_assert!(std::ptr::eq(h, &q.slab[head.slot as usize]));
                        }
                    } else {
                        let key = EventKey { time: SimTime(time), lane, seq };
                        if let std::collections::btree_map::Entry::Vacant(v) = oracle.entry(key) {
                            v.insert(seq);
                            q.push(key, seq);
                        }
                    }
                    peak = peak.max(q.len());
                    check(&q, &oracle, peak);
                    hint = q.after_head_slot().map(|s| s as *const Slot<u64>);
                    prop_assert_eq!(hint.is_some(), !q.heap.is_empty() && q.len() >= 2);
                }
            }

            /// The same oracle on traffic shaped like the engine's: every
            /// push is at or after the last pop, as bursts of up to 24
            /// events at one instant (the settled one included),
            /// near-future sends 1–100 µs out, and timers out to 2^40 µs.
            #[test]
            fn des_shaped_traffic_matches_btreemap_oracle(
                ops in prop::collection::vec((0u8..8, 0u64..1 << 40, 0u32..4, 1u64..25), 1..600)
            ) {
                let mut q: KeyedQueue<u64> = KeyedQueue::new();
                let mut oracle: BTreeMap<EventKey, u64> = BTreeMap::new();
                let mut now = 0u64;
                let mut seq = 0u64;
                let mut peak = 0;
                for (op, far, lane, burst) in ops {
                    let (at, count) = match op {
                        0..=2 => {
                            let want = oracle.pop_first();
                            let got = q.pop();
                            prop_assert_eq!(got, want);
                            if let Some((k, _)) = got {
                                now = k.time.0;
                            }
                            (now, 0)
                        }
                        3 => (now + far % 3, burst),
                        4..=6 => (now + 1 + far % 100, 1),
                        _ => (now + far, 1),
                    };
                    let settled = q.settled;
                    for _ in 0..count {
                        let key = EventKey::for_node(SimTime(at), lane, seq);
                        oracle.insert(key, seq);
                        q.push(key, seq);
                        seq += 1;
                    }
                    prop_assert_eq!(q.settled, settled, "a monotone push rebased");
                    peak = peak.max(q.len());
                    check(&q, &oracle, peak);
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

    #[test]
    fn clear_drops_everything() {
        let mut q = KeyedQueue::new();
        for i in 0..1000u64 {
            q.push(EventKey::for_node(SimTime(i * 7), 0, i), i);
        }
        q.pop();
        q.clear();
        assert!(q.is_empty() && q.pop().is_none() && q.peek_head().is_none());
        assert_eq!((q.chunks, q.slab_slots()), (0, 0));
        q.push(EventKey::system(SimTime(3), 0), 3);
        assert_eq!(q.pop().map(|(_, v)| v), Some(3));
    }
}
