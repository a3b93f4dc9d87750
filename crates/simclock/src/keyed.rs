//! Canonical event ordering and a keyed queue that writes each event once.
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
//! A DES queue is *monotone*: a handler schedules nothing earlier than the
//! event it handles. And most pushes are message deliveries a few tens of
//! microseconds out (on the 16,384-node launch workload nine in ten land
//! 32–255 µs after the instant being drained). The queue writes each
//! event once — key and payload together, an **entry** — next to its
//! instant:
//!
//! * The **settled instant** is the one being drained; nothing pending is
//!   earlier. Its entries (the **due instant**) stay in the chunks they
//!   were written to, which a small table indexes, and a 4-ary heap of
//!   8-byte picks `(lane, index)` orders them by `(lane, seq)`: a
//!   comparison reads the entry's `seq` only on a lane tie. `pop` reads
//!   the root's entry, and hands the chunks back once the instant drains.
//!   A push at the settled instant itself joins the table and the heap.
//! * An entry due less than `WINDOW` (256 µs) after the settled instant
//!   goes straight into the **list of its instant**, one of 256, indexed by
//!   its time modulo 256. A 256-bit mask marks the occupied lists; the
//!   earliest one is kept, and rescanned only when it comes due, when its
//!   chunks become the due table as they are.
//! * Later entries go to 224 radix **buckets**, named by the highest 4-bit
//!   digit in which their time differs from the **far base** (the time of
//!   the last bucket settle; digit 2 or above, as the window spans two)
//!   and by their own value in that digit, so buckets in `(digit, value)`
//!   order hold ever later times. The least time in them is kept.
//! * When the due instant drains, the next is the earlier of the next
//!   occupied list and the least bucket time; a tie goes to the bucket,
//!   which **settles**: its least time becomes the settled instant and the
//!   far base, its entries within the window join their lists (the second
//!   and last move of those payloads) and the rest drop to lower digits.
//!   Buckets may hold times inside the window meanwhile; the head is the
//!   lesser of the two tiers' least entries, so the order does not care.
//! * Lists and buckets are stacks of 16-entry **chunks** from one pool;
//!   only the top chunk can be partly filled, and it holds the stack's
//!   least entry (a push that starts a new top chunk swaps that entry up
//!   when the pushed one is not less). So [`KeyedQueue::peek_head`] reads
//!   the queue's own fields, and [`KeyedQueue::peek_event`] one entry.
//! * Freed chunks stay spare while the pool holds no more than the pending
//!   entries, the due instant's popped ones and one chunk per list or
//!   bucket; past that they go back to the allocator. (One `Vec` per
//!   instant would keep each instant's own high-water mark.)
//! * A push earlier than the settled instant takes a cold **rebase**: the
//!   queue is drained, the pushed time becomes the settled instant and the
//!   far base, and everything is pushed again. The engine never takes it;
//!   the order stays exactly `(time, lane, seq)` for any caller.

use crate::time::SimTime;

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

/// Width of the near window in microseconds: an event due less than this
/// long after the settled instant is written straight into the list of its
/// instant. Two radix digits.
const WINDOW: u64 = 256;

/// Bits per radix digit.
const DIGIT: u32 = 4;

/// Values of one digit.
const RADIX: usize = 1 << DIGIT;

/// The lowest digit in which a far time differs from the far base: the
/// window spans the digits below it.
const FAR_DIGIT: u32 = WINDOW.trailing_zeros() / DIGIT;

/// Radix buckets: one per (digit position, digit value) pair from
/// [`FAR_DIGIT`] up.
const BUCKETS: usize = (u64::BITS / DIGIT - FAR_DIGIT) as usize * RADIX;

/// Chunk stacks: one per window instant and one per bucket.
const LISTS: usize = WINDOW as usize + BUCKETS;

/// Entries per chunk.
const CHUNK: usize = 16;

/// Heap arity.
const ARITY: usize = 4;

/// One queued event: its key and payload together. `event` is `None` once
/// the payload is taken.
struct Entry<E> {
    time: u64,
    lane: u32,
    seq: u64,
    event: Option<E>,
}

impl<E> Entry<E> {
    /// Whether this entry orders strictly before `other`.
    #[inline(always)]
    fn before(&self, other: &Self) -> bool {
        (self.time, self.lane, self.seq) < (other.time, other.lane, other.seq)
    }

    /// Write the entry field by field: a whole `Entry` built first and
    /// copied in was read back from the stack before its stores had
    /// landed, which stalled the push.
    #[inline(always)]
    fn set(&mut self, key: EventKey, event: Option<E>) {
        (self.time, self.lane, self.seq) = (key.time.0, key.lane, key.seq);
        self.event = event;
    }

    #[inline(always)]
    fn key(&self) -> EventKey {
        EventKey {
            time: SimTime(self.time),
            lane: self.lane,
            seq: self.seq,
        }
    }
}

/// A fixed-size run of one list's entries, linked to the list's (full)
/// chunks below it, or to the next spare chunk. The link comes first, so
/// taking a spare chunk reads the line its first entry is written to.
#[repr(C)]
struct Chunk<E> {
    next: Option<Box<Chunk<E>>>,
    entries: [Entry<E>; CHUNK],
}

impl<E> Drop for Chunk<E> {
    fn drop(&mut self) {
        // Unlink iteratively: the default drop recurses once per chunk.
        let mut next = self.next.take();
        while let Some(mut c) = next {
            next = c.next.take();
        }
    }
}

/// Entries in the top chunk of a stack of `count > 0` entries.
#[inline]
fn top_fill(count: usize) -> usize {
    (count + CHUNK - 1) % CHUNK + 1
}

/// The pool's spare chunks, linked through `next`, and the count of all
/// chunks allocated: in lists, in the due table and spare.
struct Pool<E> {
    spare: Option<Box<Chunk<E>>>,
    chunks: usize,
}

impl<E> Pool<E> {
    /// A spare chunk if any, else a new allocation.
    #[inline(always)]
    fn take(&mut self) -> Box<Chunk<E>> {
        match self.spare.take() {
            Some(mut c) => {
                self.spare = c.next.take();
                c
            }
            None => self.alloc(),
        }
    }

    #[cold]
    #[inline(never)]
    fn alloc(&mut self) -> Box<Chunk<E>> {
        self.chunks += 1;
        Box::new(Chunk {
            next: None,
            entries: std::array::from_fn(|_| Entry {
                time: 0,
                lane: 0,
                seq: 0,
                event: None,
            }),
        })
    }

    /// Put an emptied chunk on the spare list.
    #[inline]
    fn keep(&mut self, mut c: Box<Chunk<E>>) {
        c.next = self.spare.take();
        self.spare = Some(c);
    }

    /// Return one spare chunk to the allocator, if there is one.
    fn free_one(&mut self) -> bool {
        let Some(mut c) = self.spare.take() else {
            return false;
        };
        self.spare = c.next.take();
        self.chunks -= 1;
        true
    }
}

/// One window instant's or one bucket's entries: a chunk stack, its entry
/// count, and the position of its least entry, which is kept in the top
/// chunk and is meaningful while `count > 0`.
struct List<E> {
    top: Option<Box<Chunk<E>>>,
    count: usize,
    min: usize,
}

impl<E> List<E> {
    fn new() -> Self {
        List {
            top: None,
            count: 0,
            min: 0,
        }
    }

    /// Append an entry, keeping the least one in the top chunk.
    #[inline(always)]
    fn push(&mut self, pool: &mut Pool<E>, key: EventKey, event: Option<E>) {
        let i = self.count % CHUNK;
        self.count += 1;
        if let Some(top) = self.top.as_deref_mut().filter(|_| i != 0) {
            top.entries[i].set(key, event);
            if top.entries[i].before(&top.entries[self.min]) {
                self.min = i;
            }
            return;
        }
        let mut c = pool.take();
        c.entries[0].set(key, event);
        if let Some(below) = self.top.as_deref_mut() {
            let least = &mut below.entries[self.min];
            if !c.entries[0].before(least) {
                // The full chunk's least entry moves up; the pushed one
                // takes its place.
                std::mem::swap(&mut c.entries[0], least);
            }
        }
        c.next = self.top.take();
        self.min = 0;
        self.top = Some(c);
    }

    /// The least entry.
    #[inline]
    fn head(&self) -> &Entry<E> {
        let top = self
            .top
            .as_deref()
            .expect("an occupied list has a top chunk");
        &top.entries[self.min]
    }

    /// Take the chunks, top first, and the entry count.
    fn take(&mut self) -> (Option<Box<Chunk<E>>>, usize) {
        (self.top.take(), std::mem::take(&mut self.count))
    }
}

/// A due-instant heap entry: its lane and its index in the due table.
#[derive(Clone, Copy)]
struct Pick {
    lane: u32,
    idx: u32,
}

/// The due-table entry a pick names.
#[inline(always)]
fn picked<E>(due: &[Box<Chunk<E>>], p: Pick) -> &Entry<E> {
    &due[p.idx as usize / CHUNK].entries[p.idx as usize % CHUNK]
}

/// Whether pick `a` orders strictly before pick `b`: by lane, and by the
/// entries' `seq` on a lane tie.
#[inline(always)]
fn pick_before<E>(due: &[Box<Chunk<E>>], a: Pick, b: Pick) -> bool {
    if a.lane != b.lane {
        return a.lane < b.lane;
    }
    picked(due, a).seq < picked(due, b).seq
}

/// Bit `i % 64` of word `i / 64`.
#[inline(always)]
fn set_bit(bits: &mut [u64], i: usize, on: bool) {
    if on {
        bits[i / 64] |= 1 << (i % 64);
    } else {
        bits[i / 64] &= !(1 << (i % 64));
    }
}

/// A priority queue of events ordered by [`EventKey`], which writes each
/// near-future event once, next to its instant (see the module docs for
/// the layout).
pub struct KeyedQueue<E> {
    /// The instant being drained; no pending event is earlier.
    settled: u64,
    /// The instant the buckets are ranged against; never later than
    /// `settled`.
    far_base: u64,
    /// The due instant's picks, as a 4-ary heap.
    heap: Vec<Pick>,
    /// The due instant's chunks, entry `i` in `due[i / CHUNK]`.
    due: Vec<Box<Chunk<E>>>,
    /// Entries placed in the due table, popped ones included.
    due_count: usize,
    /// The window: the pending entries at each instant in `(settled,
    /// settled + WINDOW)`, at index `time % WINDOW`.
    near: [List<E>; WINDOW as usize],
    /// Bit `i` set iff `near[i]` holds an entry.
    near_occupied: [u64; WINDOW as usize / 64],
    /// The earliest occupied window instant.
    near_next: Option<u64>,
    /// The pending entries from `settled + WINDOW` on (and maybe earlier).
    buckets: [List<E>; BUCKETS],
    /// Bit `b` set iff `buckets[b]` holds an entry.
    far_occupied: [u64; BUCKETS.div_ceil(64)],
    /// The least time in the buckets.
    far_next: Option<u64>,
    pool: Pool<E>,
    /// Pending events.
    len: usize,
}

impl<E> Default for KeyedQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> KeyedQueue<E> {
    /// Bytes of one queued event: its key and payload together.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry<E>>();

    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `cap` events at one instant before its
    /// due-instant heap grows. Entries are stored in chunks that follow the
    /// pending count (see the module docs).
    pub fn with_capacity(cap: usize) -> Self {
        KeyedQueue {
            settled: 0,
            far_base: 0,
            heap: Vec::with_capacity(cap),
            due: Vec::new(),
            due_count: 0,
            near: std::array::from_fn(|_| List::new()),
            near_occupied: [0; WINDOW as usize / 64],
            near_next: None,
            buckets: std::array::from_fn(|_| List::new()),
            far_occupied: [0; BUCKETS.div_ceil(64)],
            far_next: None,
            pool: Pool {
                spare: None,
                chunks: 0,
            },
            len: 0,
        }
    }

    /// Place `pick` at `hole` or above: move parents down into the hole
    /// until `pick` no longer orders before the next one.
    #[inline(always)]
    fn sift_up(&mut self, mut hole: usize, pick: Pick) {
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if !pick_before(&self.due, pick, self.heap[parent]) {
                break;
            }
            self.heap[hole] = self.heap[parent];
            hole = parent;
        }
        self.heap[hole] = pick;
    }

    /// The index of the least of the heap children that start at `first`
    /// (`first < self.heap.len()`).
    #[inline(always)]
    fn least_child(&self, first: usize) -> usize {
        let (heap, due) = (&self.heap, &self.due[..]);
        let len = heap.len();
        if first + ARITY <= len {
            // A full group: a two-round tournament whose picks are index
            // arithmetic, not branches.
            let c = &heap[first..first + ARITY];
            let lo = first + usize::from(pick_before(due, c[1], c[0]));
            let hi = first + 2 + usize::from(pick_before(due, c[3], c[2]));
            if pick_before(due, heap[hi], heap[lo]) {
                hi
            } else {
                lo
            }
        } else {
            let mut least = first;
            for child in first + 1..len {
                if pick_before(due, heap[child], heap[least]) {
                    least = child;
                }
            }
            least
        }
    }

    #[inline]
    fn heap_push(&mut self, pick: Pick) {
        let hole = self.heap.len();
        self.heap.push(pick);
        self.sift_up(hole, pick);
    }

    /// Add an entry at the settled instant to the due table and heap.
    fn due_push(&mut self, key: EventKey, event: Option<E>) {
        let idx = self.due_count;
        if idx.is_multiple_of(CHUNK) {
            let c = self.pool.take();
            self.due.push(c);
        }
        self.due[idx / CHUNK].entries[idx % CHUNK].set(key, event);
        self.due_count += 1;
        self.heap_push(Pick {
            lane: key.lane,
            idx: idx as u32,
        });
    }

    /// Add an entry no earlier than the settled instant to its window
    /// instant's list (the settled one's too, while it is being opened) or
    /// to its bucket.
    #[inline(always)]
    fn place(&mut self, key: EventKey, event: Option<E>) {
        let time = key.time.0;
        debug_assert!(time >= self.settled);
        if time - self.settled < WINDOW {
            let r = (time % WINDOW) as usize;
            self.near[r].push(&mut self.pool, key, event);
            set_bit(&mut self.near_occupied, r, true);
            self.near_next = Some(self.near_next.map_or(time, |t| t.min(time)));
        } else {
            let digit = (63 - (time ^ self.far_base).leading_zeros()) / DIGIT;
            debug_assert!(digit >= FAR_DIGIT, "a far time within the window");
            let value = (time >> (digit * DIGIT)) as usize % RADIX;
            let b = (digit - FAR_DIGIT) as usize * RADIX + value;
            self.buckets[b].push(&mut self.pool, key, event);
            set_bit(&mut self.far_occupied, b, true);
            self.far_next = Some(self.far_next.map_or(time, |t| t.min(time)));
        }
    }

    /// The earliest occupied window instant: the first set bit of
    /// `near_occupied` from the settled instant's index on, wrapping around.
    fn scan_near(&self) -> Option<u64> {
        const WORDS: usize = WINDOW as usize / 64;
        let s = (self.settled % WINDOW) as usize;
        let r = (0..=WORDS).find_map(|k| {
            let w = (s / 64 + k) % WORDS;
            let mask = if k == 0 {
                u64::MAX << (s % 64)
            } else {
                u64::MAX
            };
            let bits = self.near_occupied[w] & mask;
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })?;
        Some(self.settled + (r + WINDOW as usize - s) as u64 % WINDOW)
    }

    /// The lowest occupied bucket, if any.
    fn lowest(&self) -> Option<usize> {
        let (w, bits) = self
            .far_occupied
            .iter()
            .enumerate()
            .find(|(_, &bits)| bits != 0)?;
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// Whether the pool holds more than the pending entries, the entries
    /// popped from the due instant and one chunk per list.
    #[inline]
    fn pool_over_bound(&self) -> bool {
        let popped = self.due_count - self.heap.len();
        self.pool.chunks * CHUNK > self.len + popped + LISTS * CHUNK
    }

    /// Give spare chunks back to the allocator until the pool is within
    /// its bound.
    #[inline]
    fn trim(&mut self) {
        while self.pool_over_bound() && self.pool.free_one() {}
    }

    /// Hand the drained due instant's chunks back to the pool.
    #[inline]
    fn close_due(&mut self) {
        self.due_count = 0;
        while let Some(c) = self.due.pop() {
            self.pool.keep(c);
        }
        self.trim();
    }

    /// Make the window instant `time`, the settled one, the due instant:
    /// its list's chunks become the due table, and the heap picks their
    /// entries.
    #[inline]
    fn open(&mut self, time: u64) {
        let r = (time % WINDOW) as usize;
        set_bit(&mut self.near_occupied, r, false);
        let (mut list, count) = self.near[r].take();
        while let Some(mut c) = list {
            list = c.next.take();
            self.due.push(c);
        }
        // Full chunks first, the partly filled top last.
        self.due.reverse();
        self.due_count = count;
        if count == 1 {
            // Most instants hold one or two events: no sift for a lone one.
            let lane = self.due[0].entries[0].lane;
            self.heap.push(Pick { lane, idx: 0 });
        } else {
            for idx in 0..count {
                let lane = self.due[idx / CHUNK].entries[idx % CHUNK].lane;
                self.heap_push(Pick {
                    lane,
                    idx: idx as u32,
                });
            }
        }
        self.near_next = self.scan_near();
    }

    /// Empty the lowest occupied bucket: its least time becomes the settled
    /// instant and the far base, and every entry is placed again against
    /// it. Returns that time.
    fn settle(&mut self) -> u64 {
        let b = self.lowest().expect("a far time has a bucket");
        set_bit(&mut self.far_occupied, b, false);
        let time = self.buckets[b].head().time;
        (self.settled, self.far_base) = (time, time);
        let (mut list, count) = self.buckets[b].take();
        let mut n = top_fill(count);
        while let Some(mut c) = list {
            list = c.next.take();
            for e in &mut c.entries[..n] {
                self.place(e.key(), e.event.take());
            }
            n = CHUNK;
            self.pool.keep(c);
        }
        self.far_next = self.lowest().map(|b| self.buckets[b].head().time);
        self.trim();
        time
    }

    /// Open the next instant once the due one is drained: the next window
    /// instant, or the least bucket time if that is no later (its entries
    /// join the window first). Returns whether anything is pending.
    #[inline]
    fn advance(&mut self) -> bool {
        let time = match (self.near_next, self.far_next) {
            (near, Some(far)) if near.is_none_or(|t| far <= t) => self.settle(),
            (Some(near), _) => {
                self.settled = near;
                near
            }
            (None, _) => return false,
        };
        self.open(time);
        true
    }

    /// A push earlier than the settled instant: drain the queue, make the
    /// pushed time the settled instant and the far base, and push
    /// everything again.
    #[cold]
    #[inline(never)]
    fn rebase(&mut self, key: EventKey, event: E) {
        let pending: Vec<_> = std::iter::from_fn(|| self.pop()).collect();
        (self.settled, self.far_base) = (key.time.0, key.time.0);
        for (key, event) in std::iter::once((key, event)).chain(pending) {
            self.push(key, event);
        }
    }

    /// Insert `event` under `key`. Keys must be unique (guaranteed by
    /// construction: every creator stamps a fresh `seq`).
    pub fn push(&mut self, key: EventKey, event: E) {
        if key.time.0 < self.settled {
            return self.rebase(key, event);
        }
        self.len += 1;
        if key.time.0 == self.settled {
            self.due_push(key, Some(event));
        } else {
            self.place(key, Some(event));
        }
    }

    /// Remove and return the minimum-key event.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        if self.heap.is_empty() && !self.advance() {
            return None;
        }
        let root = self.heap[0];
        let i = root.idx as usize;
        let entry = &mut self.due[i / CHUNK].entries[i % CHUNK];
        let event = entry.event.take().expect("keyed queue entry empty");
        let key = entry.key();
        self.len -= 1;
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
        } else {
            self.close_due();
        }
        Some((key, event))
    }

    /// The minimum pending entry: the heap root, or else the lesser of the
    /// next window instant's and the buckets' least entries.
    #[inline]
    fn head(&self) -> Option<&Entry<E>> {
        if let Some(&p) = self.heap.first() {
            return Some(picked(&self.due, p));
        }
        let near = self
            .near_next
            .map(|t| self.near[(t % WINDOW) as usize].head());
        let far = match self.far_next {
            Some(f) if near.is_none_or(|n| f <= n.time) => {
                self.lowest().map(|b| self.buckets[b].head())
            }
            _ => None,
        };
        match (near, far) {
            (Some(n), Some(f)) => Some(if f.before(n) { f } else { n }),
            (near, far) => near.or(far),
        }
    }

    /// The time of the minimum pending key, read from the queue's own
    /// fields: no entry is touched.
    pub fn peek_head(&self) -> Option<SimTime> {
        if !self.heap.is_empty() {
            return Some(SimTime(self.settled));
        }
        let next = match (self.near_next, self.far_next) {
            (Some(near), Some(far)) => Some(near.min(far)),
            (near, far) => near.or(far),
        };
        next.map(SimTime)
    }

    /// The payload of the minimum pending key: the event the next
    /// [`pop`](Self::pop) returns, left in place.
    #[inline]
    pub fn peek_event(&self) -> Option<&E> {
        self.head()?.event.as_ref()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool's bound: the pending entries, the entries popped from the
    /// due instant, and one chunk per list.
    fn pool_within_bound<E>(q: &KeyedQueue<E>) -> bool {
        !q.pool_over_bound()
    }

    /// Chunks on the spare list.
    fn spare_chunks<E>(q: &KeyedQueue<E>) -> usize {
        std::iter::successors(q.pool.spare.as_deref(), |c| c.next.as_deref()).count()
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
    fn chunks_are_recycled() {
        // Ten rounds of 100 events spread over the window and beyond: at
        // most 100 chunks are in use at once, and each round takes the
        // last one's back from the spare list instead of allocating.
        let mut q = KeyedQueue::new();
        let mut base = 1;
        for round in 0..10u64 {
            for i in 0..100u64 {
                q.push(
                    EventKey::for_node(SimTime(base + i * 7), 0, round * 100 + i),
                    i,
                );
            }
            while let Some((k, _)) = q.pop() {
                base = k.time.0 + 1;
            }
            assert!(
                q.pool.chunks <= 100,
                "round {round}: {} chunks",
                q.pool.chunks
            );
            assert_eq!(
                spare_chunks(&q),
                q.pool.chunks,
                "a drained queue holds only spares"
            );
        }
    }

    #[test]
    fn gauges_track_depth_and_pool_occupancy() {
        let mut q = KeyedQueue::new();
        assert_eq!((q.len(), q.pool.chunks), (0, 0));
        // Eight events at one near instant: one chunk.
        for i in 0..8u64 {
            q.push(EventKey::for_node(SimTime(100), i as u32, i), i);
        }
        assert_eq!((q.len(), q.pool.chunks, spare_chunks(&q)), (8, 1, 0));
        for _ in 0..5 {
            q.pop();
        }
        // Mid-drain the due instant keeps its chunk, popped slots included.
        assert_eq!((q.len(), q.due_count, q.heap.len()), (3, 8, 3));
        assert_eq!((q.pool.chunks, spare_chunks(&q)), (1, 0));
        while q.pop().is_some() {}
        // Drained, the chunk is spare; the next push takes it back.
        assert_eq!((q.pool.chunks, spare_chunks(&q)), (1, 1));
        q.push(EventKey::for_node(SimTime(150), 0, 99), 99);
        assert_eq!((q.len(), q.pool.chunks, spare_chunks(&q)), (1, 1, 0));
    }

    #[test]
    fn heap_pick_is_eight_bytes() {
        // Eight picks per 64 bytes; `seq` stays beside the payload.
        assert_eq!(std::mem::size_of::<Pick>(), 8);
    }

    #[test]
    fn entries_pack_key_and_payload() {
        // A 56-byte payload with a niche, like the engine's event: its key
        // takes 24 bytes beside it, and a chunk adds only its link.
        type Payload = (std::num::NonZeroU64, [u64; 6]);
        assert_eq!(std::mem::size_of::<Payload>(), 56);
        assert_eq!(KeyedQueue::<Payload>::ENTRY_BYTES, 80);
        assert_eq!(std::mem::size_of::<Chunk<Payload>>(), 8 + CHUNK * 80);
        // A `u64` payload without a niche: a tag word more.
        assert_eq!(KeyedQueue::<u64>::ENTRY_BYTES, 40);
        let mut q: KeyedQueue<Payload> = KeyedQueue::new();
        let one = std::num::NonZeroU64::MIN;
        for i in 0..100u64 {
            q.push(EventKey::for_node(SimTime(1 + i % 3), 0, i), (one, [i; 6]));
        }
        // 34 entries at instant 1 in three chunks, written where they stay.
        let chunks = std::iter::successors(q.near[1].top.as_deref(), |c| c.next.as_deref());
        assert_eq!(chunks.count(), 3);
        assert_eq!(q.pool.chunks, 9);
    }

    #[test]
    fn time_lane_ties_pop_in_seq_order() {
        // Same (time, lane) pushed out of seq order, around events that
        // differ in lane only: `seq` alone must sort them — in a window
        // list's least entry, across a new top chunk, and in the heap.
        let mut q = KeyedQueue::new();
        let t = SimTime(7);
        for seq in [5u64, 1, 9, 0, 3, 8, 7, 6, 4, 2] {
            q.push(EventKey::for_node(t, 4, seq), seq);
        }
        q.push(EventKey::for_node(t, 3, 100), 100);
        q.push(EventKey::for_node(t, 5, 0), 200);
        assert_eq!(q.peek_head(), Some(t));
        assert_eq!(q.peek_event(), Some(&100));
        let got: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(got, vec![100, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 200]);
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
        for t in [2000, 2000, 3000, 1 << 40, 2500] {
            push(&mut q, t);
        }
        assert!(q.heap.is_empty() && q.lowest().is_some());
        assert_eq!(q.peek_event(), Some(&2000));
        assert_eq!(q.pop().map(|(_, t)| t), Some(2000));
        assert_eq!(q.settled, 2000);
        // One entry still due, three later: a push before all of them
        // rebases around a non-empty heap.
        push(&mut q, 50);
        assert_eq!(q.settled, 50);
        assert_eq!(q.peek_head(), Some(SimTime(50)));
        assert_eq!(q.peek_event(), Some(&50));
        // And again from an empty heap, between pending times.
        assert_eq!(q.pop().map(|(_, t)| t), Some(50));
        push(&mut q, 20);
        assert_eq!(q.peek_event(), Some(&20));
        push(&mut q, 260);
        let got: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, t)| t).collect();
        assert_eq!(got, vec![20, 260, 2000, 2500, 3000, 1 << 40]);
        assert!(q.is_empty() && pool_within_bound(&q));
        assert_eq!(q.peek_event(), None);
    }

    #[test]
    fn near_burst_and_far_events_drain_inside_the_pool_bound() {
        // 100k far entries over 2^30 µs and a 100k burst at one near
        // instant (one window list, opened at once): the pool holds no more
        // than the pending entries, the due instant's popped ones and one
        // chunk per list at every step, and after each instant drains it is
        // back within the pending entries plus one chunk per list.
        let mut q = KeyedQueue::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for seq in 0..100_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.push(EventKey::for_node(SimTime(WINDOW + (x >> 34)), 0, seq), ());
        }
        let burst = 100;
        for seq in 0..100_000u64 {
            q.push(EventKey::for_node(SimTime(burst), 1, seq), ());
        }
        assert!(q.pool.chunks * CHUNK >= 200_000, "entries sit in chunks");
        assert!(pool_within_bound(&q));
        q.pop();
        assert_eq!(q.heap.len(), 99_999);
        let mut last = SimTime(burst);
        while let Some((k, ())) = q.pop() {
            assert!(k.time >= last);
            last = k.time;
            assert!(
                pool_within_bound(&q),
                "{} chunks, {} pending",
                q.pool.chunks,
                q.len()
            );
            if q.heap.is_empty() {
                assert!(q.pool.chunks * CHUNK <= q.len() + LISTS * CHUNK);
            }
        }
        assert!(q.pool.chunks <= LISTS);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// One step of a differential run: the queue and the oracle agree
        /// on the head and its payload and the depth, every occupied list
        /// keeps its least entry in its top chunk, and the pool is within
        /// its bound.
        fn check(q: &KeyedQueue<u64>, oracle: &BTreeMap<EventKey, u64>) {
            let head = oracle.keys().next().copied();
            assert_eq!(q.peek_head(), head.map(|k| k.time));
            assert_eq!(q.peek_event(), oracle.values().next());
            assert_eq!(q.len(), oracle.len());
            assert!(pool_within_bound(q));
            for list in q.near.iter().chain(&q.buckets).filter(|l| l.count > 0) {
                let head = list.head();
                let chunks = std::iter::successors(list.top.as_deref(), |c| c.next.as_deref());
                let mut left = list.count;
                for c in chunks {
                    let n = top_fill(left);
                    for e in &c.entries[..n] {
                        assert!(!e.before(head), "a list's least entry left its top chunk");
                    }
                    left -= n;
                }
                assert_eq!(left, 0, "a list's count matches its chunks");
            }
        }

        /// Run `steps` against a `BTreeMap<EventKey, u64>`: `None` pops
        /// (and the oracle's least key must come out), `Some(key)` pushes a
        /// fresh key (a repeat is skipped: keys are unique by contract).
        /// After every step [`check`] holds; at the end both drain alike.
        fn run_oracle(steps: impl IntoIterator<Item = Option<EventKey>>) {
            let mut q: KeyedQueue<u64> = KeyedQueue::new();
            let mut oracle: BTreeMap<EventKey, u64> = BTreeMap::new();
            for (payload, step) in (0u64..).zip(steps) {
                match step {
                    None => assert_eq!(q.pop(), oracle.pop_first()),
                    Some(key) => {
                        if let std::collections::btree_map::Entry::Vacant(v) = oracle.entry(key) {
                            v.insert(payload);
                            q.push(key, payload);
                        }
                    }
                }
                check(&q, &oracle);
            }
            while let Some(want) = oracle.pop_first() {
                assert_eq!(q.peek_event(), Some(&want.1));
                assert_eq!(q.pop(), Some(want));
            }
            assert_eq!(q.peek_event(), None);
            assert_eq!(q.pop(), None);
            assert!(q.pool.chunks <= LISTS);
        }

        /// Traffic relative to the last popped time: `(op, offset, lane,
        /// seq)` pops on `op == 0` and otherwise pushes at `now + offset`,
        /// so every push is monotone.
        fn after_now(ops: Vec<(u8, u64, u32, u64)>) -> impl Iterator<Item = Option<EventKey>> {
            let mut now = 0u64;
            let mut oracle_min: BTreeMap<EventKey, ()> = BTreeMap::new();
            ops.into_iter().map(move |(op, offset, lane, seq)| {
                if op == 0 {
                    if let Some((k, ())) = oracle_min.pop_first() {
                        now = k.time.0;
                    }
                    None
                } else {
                    let key = EventKey {
                        time: SimTime(now + offset),
                        lane,
                        seq,
                    };
                    oracle_min.insert(key, ());
                    Some(key)
                }
            })
        }

        proptest! {
            /// Interleaved pushes and pops over two instants and three
            /// lanes, so most comparisons are `(time, lane)` ties decided
            /// by `seq` alone or same-time ties decided by lane, and a push
            /// at time 0 after a pop at time 1 rebases. After every step,
            /// `peek_event` names the payload the next `pop` returns — on
            /// an empty queue, on a window list's head behind an empty heap
            /// and after a rebase alike.
            #[test]
            fn matches_btreemap_oracle(
                ops in prop::collection::vec((0u8..4, 0u64..2, 0u32..3, 0u64..1000), 1..400)
            ) {
                run_oracle(ops.into_iter().map(|(op, time, lane, seq)| {
                    (op != 0).then_some(EventKey { time: SimTime(time), lane, seq })
                }));
            }

            /// The same oracle on traffic shaped like the engine's: every
            /// push is at or after the last pop, as bursts of up to 24
            /// events at one instant (the settled one included),
            /// near-future sends 1–100 µs out, and timers out to 2^40 µs;
            /// no push rebases.
            #[test]
            fn des_shaped_traffic_matches_btreemap_oracle(
                ops in prop::collection::vec((0u8..8, 0u64..1 << 40, 0u32..4, 1u64..25), 1..600)
            ) {
                let mut q: KeyedQueue<u64> = KeyedQueue::new();
                let mut oracle: BTreeMap<EventKey, u64> = BTreeMap::new();
                let mut now = 0u64;
                let mut seq = 0u64;
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
                    check(&q, &oracle);
                }
                while let Some(want) = oracle.pop_first() {
                    prop_assert_eq!(q.pop(), Some(want));
                }
                prop_assert_eq!(q.pop(), None);
            }

            /// Monotone traffic 0–1,023 µs after the last pop, so instants
            /// cross several multiples of the window, the window's index
            /// wraps, and one instant is reached both from a bucket and
            /// from the window.
            #[test]
            fn window_crossing_traffic_matches_btreemap_oracle(
                ops in prop::collection::vec((0u8..3, 0u64..1024, 0u32..3, 0u64..1000), 1..500)
            ) {
                run_oracle(after_now(ops));
            }

            /// Events far out first, then, once the clock has come within
            /// the window of them, more at the same instants: a bucket's
            /// entries and a window list's meet at one instant and must
            /// order by lane, and by `seq` within a lane (`seq` drawn from
            /// a small range, so lane ties are common).
            #[test]
            fn far_and_window_events_at_one_instant_match_the_oracle(
                far in prop::collection::vec((0u64..4, 0u32..3, 0u64..50), 1..40),
                near in prop::collection::vec((0u64..4, 0u32..3, 0u64..50), 1..40),
            ) {
                let at = |k: u64| SimTime(3 * WINDOW + 37 * k);
                let first = far.iter().map(|&(k, lane, seq)| Some(EventKey { time: at(k), lane, seq }));
                // A marker just before the targets brings the clock within
                // the window of them without settling any of them.
                let marker = EventKey { time: SimTime(at(0).0 - 1), lane: 9, seq: 0 };
                let then = near.iter().map(|&(k, lane, seq)| Some(EventKey { time: at(k), lane, seq }));
                run_oracle(first.chain([Some(marker), None]).chain(then));
            }

            /// Pushes at the due instant while it drains: each step pops or
            /// pushes at the last popped time, now and then further out.
            #[test]
            fn pushes_at_the_due_instant_mid_drain_match_the_oracle(
                ops in prop::collection::vec((0u8..4, 0u64..600, 0u32..4, 0u64..1000), 1..400)
            ) {
                run_oracle(after_now(
                    ops.into_iter()
                        .map(|(op, d, lane, seq)| (op, if op == 1 { d } else { 0 }, lane, seq))
                        .collect(),
                ));
            }

            /// Pushes earlier than the settled instant, from every state:
            /// times anywhere in 0–2,047 with pops between, so a rebase
            /// meets a due instant mid-drain, window lists and buckets.
            #[test]
            fn pushes_before_the_settled_instant_match_the_oracle(
                ops in prop::collection::vec((0u8..3, 0u64..2048, 0u32..3, 0u64..1000), 1..400)
            ) {
                run_oracle(ops.into_iter().map(|(op, time, lane, seq)| {
                    (op != 0).then_some(EventKey { time: SimTime(time), lane, seq })
                }));
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
