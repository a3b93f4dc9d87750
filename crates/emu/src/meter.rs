//! Per-node resource meters.
//!
//! The paper evaluates resource managers by the CPU time, virtual/real
//! memory, and concurrent TCP sockets their daemons consume on the master
//! and satellite nodes (Figs. 7 and 9, Tables V and VI). The emulator
//! reproduces those measurements by charging modelled costs to a [`Meter`]
//! and sampling it at a fixed frequency (the paper samples once per second).

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

/// Accumulates modelled resource usage for one node.
#[derive(Clone, Debug, Default)]
pub struct Meter {
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

impl Meter {
    /// A zeroed meter.
    pub fn new() -> Self {
        Meter::default()
    }

    /// Assemble a meter from raw component values. The engine's node store
    /// (`emu::state`) keeps these split between one hot record per node and
    /// cold parallel arrays, and joins them into a `Meter` only on request.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_raw(
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
    ) -> Meter {
        Meter {
            cpu_time,
            cpu_time_at_last_sample,
            last_sample_at,
            virt_mem,
            real_mem,
            sockets,
            peak_sockets,
            peak_virt,
            peak_real,
            msgs_sent,
            msgs_received,
        }
    }

    /// Charge `span` of CPU time to the daemon.
    pub fn charge_cpu(&mut self, span: SimSpan) {
        self.cpu_time += span;
    }

    /// Adjust virtual memory by `delta` bytes (saturating at zero).
    pub fn alloc_virt(&mut self, delta: i64) {
        self.virt_mem = apply(self.virt_mem, delta);
        self.peak_virt = self.peak_virt.max(self.virt_mem);
    }

    /// Adjust resident memory by `delta` bytes (saturating at zero).
    pub fn alloc_real(&mut self, delta: i64) {
        self.real_mem = apply(self.real_mem, delta);
        self.peak_real = self.peak_real.max(self.real_mem);
    }

    /// Record a socket being opened.
    pub fn open_socket(&mut self) {
        self.sockets += 1;
        self.peak_sockets = self.peak_sockets.max(self.sockets);
    }

    /// Record a socket being closed. Closing with none open is a modelling
    /// bug, caught in debug builds and ignored in release.
    pub fn close_socket(&mut self) {
        debug_assert!(self.sockets > 0, "closing a socket that was never opened");
        self.sockets = self.sockets.saturating_sub(1);
    }

    /// Count one sent message.
    pub fn count_sent(&mut self) {
        self.msgs_sent += 1;
    }

    /// Count one received message.
    pub fn count_received(&mut self) {
        self.msgs_received += 1;
    }

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

    /// Take a sample at time `now`, computing CPU utilization over the
    /// window since the previous sample.
    pub fn sample(&mut self, now: SimTime) -> Sample {
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

pub(crate) fn apply(cur: u64, delta: i64) -> u64 {
    if delta >= 0 {
        cur + delta as u64
    } else {
        cur.saturating_sub(delta.unsigned_abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_accumulates_and_util_is_windowed() {
        let mut m = Meter::new();
        m.charge_cpu(SimSpan::from_millis(500));
        let s1 = m.sample(SimTime::from_secs(1));
        assert!((s1.cpu_util - 0.5).abs() < 1e-9);
        // No work in the second window.
        let s2 = m.sample(SimTime::from_secs(2));
        assert_eq!(s2.cpu_util, 0.0);
        assert_eq!(s2.cpu_time, SimSpan::from_millis(500));
    }

    #[test]
    fn memory_deltas_saturate() {
        let mut m = Meter::new();
        m.alloc_virt(1000);
        m.alloc_virt(-400);
        assert_eq!(m.virt_mem(), 600);
        m.alloc_virt(-10_000);
        assert_eq!(m.virt_mem(), 0);
        m.alloc_real(256);
        assert_eq!(m.real_mem(), 256);
        assert_eq!(m.peak_mem(), (1000, 256));
    }

    #[test]
    fn socket_peak_tracks_high_water() {
        let mut m = Meter::new();
        for _ in 0..5 {
            m.open_socket();
        }
        m.close_socket();
        m.close_socket();
        assert_eq!(m.sockets(), 3);
        assert_eq!(m.peak_sockets(), 5);
    }

    #[test]
    fn zero_window_sample_has_zero_util() {
        let mut m = Meter::new();
        m.charge_cpu(SimSpan::from_millis(1));
        let s = m.sample(SimTime::ZERO);
        assert_eq!(s.cpu_util, 0.0);
    }
}
