//! Per-node engine state for the DES engine.
//!
//! Each shard of the engine owns one [`NodeStore`] covering exactly its
//! nodes, indexed by *local* index; the engine maps `NodeId` →
//! `(shard, local)` once per event.
//!
//! The state is split by who touches it, not by type. Every delivered
//! message counts a receive on its node, charges CPU from the handler, and
//! for each reply draws a latency from the node's RNG, advances its
//! `tx_free`, stamps `next_seq` and counts a send: six fields of one node,
//! all of them on every `Deliver`. They sit together in one 72-byte
//! [`HotNode`] record, so the first touch of a node (8 % of the
//! 200,000-node sweep profile was that stall, spread over six arrays)
//! brings in everything the event will use. What only `alloc_*`, socket
//! calls and sampling ticks read — memory and socket levels, their peaks,
//! the sampling window — stays in parallel arrays: the master and the
//! satellites use those, the 200,000 compute nodes almost never do.
//!
//! RNG streams are derived from the *global* node id, so the draws a node
//! makes are identical no matter which shard hosts it.

use crate::meter::{Meter, Sample};
use rand::rngs::StdRng;
use simclock::rng::stream_rng;
use simclock::{SimSpan, SimTime};

/// What one send + receive touches, together.
pub(crate) struct HotNode {
    pub recv: u64,
    pub cpu_time: SimSpan,
    pub sent: u64,
    /// Time the node's NIC is next free to transmit.
    pub tx_free: SimTime,
    /// Per-node event creation counter: the `seq` of the node's lane.
    next_seq: u64,
    pub rng: StdRng,
}

impl HotNode {
    /// Stamp the node's next event sequence number (post-increment).
    pub fn take_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }
}

/// Per-node engine state for one shard.
pub(crate) struct NodeStore {
    hot: Vec<HotNode>,
    cpu_at_sample: Vec<SimSpan>,
    last_sample: Vec<SimTime>,
    virt: Vec<u64>,
    real: Vec<u64>,
    peak_virt: Vec<u64>,
    peak_real: Vec<u64>,
    sockets: Vec<u32>,
    peak_sockets: Vec<u32>,
}

impl NodeStore {
    /// A store hosting the nodes with the given *global* ids; local index
    /// `i` corresponds to `ids[i]`.
    pub fn new(seed: u64, ids: &[u32]) -> Self {
        let n = ids.len();
        NodeStore {
            hot: ids
                .iter()
                .map(|&id| HotNode {
                    recv: 0,
                    cpu_time: SimSpan::ZERO,
                    sent: 0,
                    tx_free: SimTime::ZERO,
                    next_seq: 0,
                    rng: stream_rng(seed, id as u64),
                })
                .collect(),
            cpu_at_sample: vec![SimSpan::ZERO; n],
            last_sample: vec![SimTime::ZERO; n],
            virt: vec![0; n],
            real: vec![0; n],
            peak_virt: vec![0; n],
            peak_real: vec![0; n],
            sockets: vec![0; n],
            peak_sockets: vec![0; n],
        }
    }

    /// The send/receive record of node `i`.
    pub fn hot(&mut self, i: usize) -> &mut HotNode {
        &mut self.hot[i]
    }

    /// The send/receive record of node `i`, read-only.
    pub fn hot_ref(&self, i: usize) -> &HotNode {
        &self.hot[i]
    }

    pub fn alloc_virt(&mut self, i: usize, delta: i64) {
        self.virt[i] = apply(self.virt[i], delta);
        self.peak_virt[i] = self.peak_virt[i].max(self.virt[i]);
    }

    pub fn alloc_real(&mut self, i: usize, delta: i64) {
        self.real[i] = apply(self.real[i], delta);
        self.peak_real[i] = self.peak_real[i].max(self.real[i]);
    }

    pub fn open_socket(&mut self, i: usize) {
        self.sockets[i] += 1;
        self.peak_sockets[i] = self.peak_sockets[i].max(self.sockets[i]);
    }

    pub fn close_socket(&mut self, i: usize) {
        debug_assert!(
            self.sockets[i] > 0,
            "closing a socket that was never opened"
        );
        self.sockets[i] = self.sockets[i].saturating_sub(1);
    }

    /// Materialize a [`Meter`] snapshot of node `i` (by value).
    pub fn meter(&self, i: usize) -> Meter {
        let hot = &self.hot[i];
        Meter {
            cpu_time: hot.cpu_time,
            virt_mem: self.virt[i],
            real_mem: self.real[i],
            sockets: self.sockets[i],
            peak_sockets: self.peak_sockets[i],
            peak_virt: self.peak_virt[i],
            peak_real: self.peak_real[i],
            msgs_sent: hot.sent,
            msgs_received: hot.recv,
        }
    }

    /// Take a footprint sample of node `i`: CPU utilization is the CPU time
    /// charged since the node's previous sample over the virtual time since
    /// then (zero for an empty window).
    pub fn sample(&mut self, i: usize, now: SimTime) -> Sample {
        let cpu_time = self.hot[i].cpu_time;
        let window = now - self.last_sample[i];
        let used = cpu_time - self.cpu_at_sample[i];
        let cpu_util = if window.as_micros() == 0 {
            0.0
        } else {
            used.as_secs_f64() / window.as_secs_f64()
        };
        self.last_sample[i] = now;
        self.cpu_at_sample[i] = cpu_time;
        Sample {
            at: now,
            cpu_util,
            cpu_time,
            virt_mem: self.virt[i],
            real_mem: self.real[i],
            sockets: self.sockets[i],
        }
    }
}

/// `cur` adjusted by `delta` bytes, saturating at zero.
fn apply(cur: u64, delta: i64) -> u64 {
    if delta >= 0 {
        cur + delta as u64
    } else {
        cur.saturating_sub(delta.unsigned_abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The write half `Meter` carried while a per-node meter was charged
    /// call by call, kept verbatim as the oracle [`NodeStore`]'s split
    /// layout must agree with.
    #[derive(Default)]
    struct OracleMeter {
        cpu_time: SimSpan,
        cpu_time_at_last_sample: SimSpan,
        last_sample_at: SimTime,
        virt_mem: u64,
        real_mem: u64,
        sockets: u32,
        peak_sockets: u32,
        peak_virt: u64,
        peak_real: u64,
        msgs_sent: u64,
        msgs_received: u64,
    }

    impl OracleMeter {
        fn charge_cpu(&mut self, span: SimSpan) {
            self.cpu_time += span;
        }

        fn alloc_virt(&mut self, delta: i64) {
            self.virt_mem = apply(self.virt_mem, delta);
            self.peak_virt = self.peak_virt.max(self.virt_mem);
        }

        fn alloc_real(&mut self, delta: i64) {
            self.real_mem = apply(self.real_mem, delta);
            self.peak_real = self.peak_real.max(self.real_mem);
        }

        fn open_socket(&mut self) {
            self.sockets += 1;
            self.peak_sockets = self.peak_sockets.max(self.sockets);
        }

        fn close_socket(&mut self) {
            debug_assert!(self.sockets > 0, "closing a socket that was never opened");
            self.sockets = self.sockets.saturating_sub(1);
        }

        fn count_sent(&mut self) {
            self.msgs_sent += 1;
        }

        fn count_received(&mut self) {
            self.msgs_received += 1;
        }

        fn sample(&mut self, now: SimTime) -> Sample {
            let window = now - self.last_sample_at;
            let used = self.cpu_time - self.cpu_time_at_last_sample;
            let cpu_util = if window.as_micros() == 0 {
                0.0
            } else {
                used.as_secs_f64() / window.as_secs_f64()
            };
            self.last_sample_at = now;
            self.cpu_time_at_last_sample = self.cpu_time;
            Sample {
                at: now,
                cpu_util,
                cpu_time: self.cpu_time,
                virt_mem: self.virt_mem,
                real_mem: self.real_mem,
                sockets: self.sockets,
            }
        }
    }

    #[test]
    fn cpu_accumulates_and_util_is_windowed() {
        let mut store = NodeStore::new(1, &[0]);
        store.hot(0).cpu_time += SimSpan::from_millis(500);
        let s1 = store.sample(0, SimTime::from_secs(1));
        assert!((s1.cpu_util - 0.5).abs() < 1e-9);
        // No work in the second window.
        let s2 = store.sample(0, SimTime::from_secs(2));
        assert_eq!(s2.cpu_util, 0.0);
        assert_eq!(s2.cpu_time, SimSpan::from_millis(500));
    }

    #[test]
    fn memory_deltas_saturate() {
        let mut store = NodeStore::new(1, &[0]);
        store.alloc_virt(0, 1000);
        store.alloc_virt(0, -400);
        assert_eq!(store.meter(0).virt_mem(), 600);
        store.alloc_virt(0, -10_000);
        assert_eq!(store.meter(0).virt_mem(), 0);
        store.alloc_real(0, 256);
        assert_eq!(store.meter(0).real_mem(), 256);
        assert_eq!(store.meter(0).peak_mem(), (1000, 256));
    }

    #[test]
    fn socket_peak_tracks_high_water() {
        let mut store = NodeStore::new(1, &[0]);
        for _ in 0..5 {
            store.open_socket(0);
        }
        store.close_socket(0);
        store.close_socket(0);
        assert_eq!(store.meter(0).sockets(), 3);
        assert_eq!(store.meter(0).peak_sockets(), 5);
    }

    #[test]
    fn zero_window_sample_has_zero_util() {
        let mut store = NodeStore::new(1, &[0]);
        store.hot(0).cpu_time += SimSpan::from_millis(1);
        let s = store.sample(0, SimTime::ZERO);
        assert_eq!(s.cpu_util, 0.0);
    }

    #[test]
    fn store_matches_meter_semantics() {
        let mut store = NodeStore::new(1, &[5, 9]);
        let mut m = OracleMeter::default();
        for target in [0usize, 1] {
            store.hot(target).cpu_time += SimSpan::from_millis(500);
            store.alloc_virt(target, 1000);
            store.alloc_virt(target, -400);
            store.alloc_real(target, 256);
            store.open_socket(target);
            store.open_socket(target);
            store.close_socket(target);
            store.hot(target).sent += 1;
            store.hot(target).recv += 1;
        }
        m.charge_cpu(SimSpan::from_millis(500));
        m.alloc_virt(1000);
        m.alloc_virt(-400);
        m.alloc_real(256);
        m.open_socket();
        m.open_socket();
        m.close_socket();
        m.count_sent();
        m.count_received();
        let s_store = store.sample(0, SimTime::from_secs(1));
        let s_meter = m.sample(SimTime::from_secs(1));
        assert_eq!(s_store, s_meter);
        let snap = store.meter(1);
        assert_eq!(snap.cpu_time(), m.cpu_time);
        assert_eq!(snap.virt_mem(), m.virt_mem);
        assert_eq!(snap.real_mem(), m.real_mem);
        assert_eq!(snap.peak_mem(), (m.peak_virt, m.peak_real));
        assert_eq!(snap.sockets(), m.sockets);
        assert_eq!(snap.peak_sockets(), m.peak_sockets);
        assert_eq!(snap.msg_counts(), (m.msgs_sent, m.msgs_received));
    }

    #[test]
    fn rng_streams_follow_global_ids() {
        let mut store = NodeStore::new(42, &[7]);
        let mut reference = stream_rng(42, 7);
        use rand::RngExt;
        assert_eq!(store.hot(0).rng.random::<u64>(), reference.random::<u64>());
    }

    #[test]
    fn seq_counter_is_per_node() {
        let mut store = NodeStore::new(1, &[0, 1]);
        assert_eq!(store.hot(0).take_seq(), 0);
        assert_eq!(store.hot(0).take_seq(), 1);
        assert_eq!(store.hot(1).take_seq(), 0);
    }
}
