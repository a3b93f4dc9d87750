//! A deterministic event queue.
//!
//! Events are ordered by `(time, sequence)`: ties on virtual time are broken
//! by insertion order, which makes every simulation run a total order and
//! therefore bit-for-bit reproducible for a given seed.
//!
//! ## Ordering contract
//!
//! This is a guarantee, not an implementation accident, and the canonical
//! key order in [`keyed`](crate::keyed) builds on it:
//!
//! 1. `pop` returns events in non-decreasing `time` order (the
//!    `debug_assert` in [`EventQueue::pop`] checks this invariant).
//! 2. Among events with **equal** `time`, `pop` returns them in exactly the
//!    order they were pushed — including events pushed *after* earlier
//!    equal-time events were already popped, because the sequence counter
//!    is monotone for the lifetime of the queue and never resets.
//! 3. The `(time, seq)` pair is unique per entry, so the ordering is total
//!    and independent of `BinaryHeap`'s internal (unstable) layout.
//!
//! The `ties_break_by_insertion_order` and `interleaved_pushes_keep_fifo_ties`
//! tests pin both the bulk and the interleaved push/pop cases.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest event first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events.
///
/// `pop` returns events in non-decreasing time order; events scheduled for
/// the same instant come out in the order they were pushed.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// An empty queue with pre-reserved capacity for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the queue
    /// clamps such events to `now` so time never runs backwards.
    pub fn push(&mut self, at: SimTime, event: E) {
        let time = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Remove and return the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            debug_assert!(e.time >= self.now, "event queue time went backwards");
            self.now = e.time;
            (e.time, e.event)
        })
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Reserve space for at least `additional` more events, so a caller
    /// about to schedule a known batch (e.g. one event per job of a
    /// trace) pays for at most one heap growth.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events, keeping the clock where it is.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimSpan;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    /// Regression test for the `(time, seq)` contract under *interleaved*
    /// pushes and pops: equal-time events pushed across several push/pop
    /// rounds must still come out in global push order, because the
    /// sequence counter never resets. (The `debug_assert` in `pop` only
    /// checks time monotonicity; this pins the tie order.)
    #[test]
    fn interleaved_pushes_keep_fifo_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        // Round 1: three ties at t, pop one.
        q.push(t, 0);
        q.push(t, 1);
        q.push(t, 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        // Round 2: two more ties at t (clamped to now = t), pop two.
        q.push(t, 3);
        q.push(t, 4);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        // Round 3: a later event plus one final tie at t.
        q.push(SimTime::from_secs(2), 6);
        q.push(t, 5);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, vec![3, 4, 5, 6]);
        // A past-dated push after the clock moved clamps to `now` and
        // orders after every already-pending event at that instant.
        q.push(SimTime::from_secs(2), 7);
        q.push(SimTime::ZERO, 8);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 7)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 8)));
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(7));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "late");
        q.pop();
        // Scheduling "1 second ago" must not rewind the clock.
        q.push(SimTime::from_secs(9), "early");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(10));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Popping always yields a non-decreasing time sequence, with
            /// insertion order preserved among equal timestamps.
            #[test]
            fn pops_sorted_stable(times in prop::collection::vec(0u64..1000, 1..200)) {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.push(SimTime(t), (t, i));
                }
                let mut last: Option<(SimTime, usize)> = None;
                while let Some((at, (t, i))) = q.pop() {
                    prop_assert_eq!(at, SimTime(t));
                    if let Some((pt, pi)) = last {
                        prop_assert!(at >= pt);
                        if at == pt {
                            prop_assert!(i > pi, "insertion order violated");
                        }
                    }
                    last = Some((at, i));
                }
            }

            /// The clock never runs backwards even with past-dated pushes.
            #[test]
            fn clock_monotone(ops in prop::collection::vec((0u64..1000, any::<bool>()), 1..200)) {
                let mut q = EventQueue::new();
                let mut last = SimTime::ZERO;
                for (t, pop_first) in ops {
                    if pop_first {
                        if let Some((at, _)) = q.pop() {
                            prop_assert!(at >= last);
                            last = at;
                        }
                    }
                    q.push(SimTime(t), ());
                }
                while let Some((at, _)) = q.pop() {
                    prop_assert!(at >= last);
                    last = at;
                }
            }
        }
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_secs(1) + SimSpan::from_millis(1), 1u8);
        q.push(SimTime::from_secs(2), 2u8);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime(1_001_000)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
