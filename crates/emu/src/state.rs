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

use crate::meter::{apply, Meter, Sample};
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
        Meter::from_raw(
            hot.cpu_time,
            self.cpu_at_sample[i],
            self.last_sample[i],
            self.virt[i],
            self.real[i],
            self.sockets[i],
            self.peak_sockets[i],
            self.peak_virt[i],
            self.peak_real[i],
            hot.sent,
            hot.recv,
        )
    }

    /// Take a footprint sample of node `i`, with the same windowed-CPU
    /// semantics as [`Meter::sample`].
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_matches_meter_semantics() {
        let mut store = NodeStore::new(1, &[5, 9]);
        let mut m = Meter::new();
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
        assert_eq!(snap.cpu_time(), m.cpu_time());
        assert_eq!(snap.virt_mem(), m.virt_mem());
        assert_eq!(snap.peak_mem(), m.peak_mem());
        assert_eq!(snap.sockets(), m.sockets());
        assert_eq!(snap.peak_sockets(), m.peak_sockets());
        assert_eq!(snap.msg_counts(), m.msg_counts());
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
