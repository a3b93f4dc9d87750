//! Per-node resource meters.
//!
//! The paper evaluates resource managers by the CPU time, virtual/real
//! memory, and concurrent TCP sockets their daemons consume on the master
//! and satellite nodes (Figs. 7 and 9, Tables V and VI). The engine charges
//! modelled costs to its per-node store and samples it at a fixed frequency
//! (the paper samples once per second); a [`Meter`] is a read-only snapshot
//! of one node's totals.

use simclock::{SimSpan, SimTime};

/// One sampled point of a node's resource usage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Virtual time of the sample.
    pub at: SimTime,
    /// CPU utilization over the sampling window, in `[0, 1]` per core
    /// (values above 1.0 mean more than one core busy).
    pub cpu_util: f64,
    /// Cumulative daemon CPU time.
    pub cpu_time: SimSpan,
    /// Virtual memory in bytes.
    pub virt_mem: u64,
    /// Resident (real) memory in bytes.
    pub real_mem: u64,
    /// Concurrent open sockets.
    pub sockets: u32,
}

/// Modelled resource usage of one node, as of the moment it was taken
/// (see [`crate::SimCluster::meter`]).
#[derive(Clone, Debug)]
pub struct Meter {
    pub(crate) cpu_time: SimSpan,
    pub(crate) virt_mem: u64,
    pub(crate) real_mem: u64,
    pub(crate) sockets: u32,
    pub(crate) peak_sockets: u32,
    pub(crate) peak_virt: u64,
    pub(crate) peak_real: u64,
    pub(crate) msgs_sent: u64,
    pub(crate) msgs_received: u64,
}

impl Meter {
    /// Cumulative CPU time.
    pub fn cpu_time(&self) -> SimSpan {
        self.cpu_time
    }

    /// Current virtual memory, bytes.
    pub fn virt_mem(&self) -> u64 {
        self.virt_mem
    }

    /// Current resident memory, bytes.
    pub fn real_mem(&self) -> u64 {
        self.real_mem
    }

    /// Current open sockets.
    pub fn sockets(&self) -> u32 {
        self.sockets
    }

    /// High-water mark of concurrent sockets.
    pub fn peak_sockets(&self) -> u32 {
        self.peak_sockets
    }

    /// High-water marks of memory usage.
    pub fn peak_mem(&self) -> (u64, u64) {
        (self.peak_virt, self.peak_real)
    }

    /// Messages sent / received so far.
    pub fn msg_counts(&self) -> (u64, u64) {
        (self.msgs_sent, self.msgs_received)
    }
}
