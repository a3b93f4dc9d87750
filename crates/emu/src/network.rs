//! Network latency and transmit-serialization model.
//!
//! Both Tianhe systems use a proprietary interconnect: 25 Gbps per lane,
//! four lanes per port. At that speed the dominant cost of RM control
//! traffic (small messages) is per-message latency, not bandwidth; we
//! model
//!
//! * a base one-way latency per hop,
//! * a per-KiB serialization cost,
//! * a per-message *transmit gap* at the sender NIC — consecutive sends from
//!   one node are spaced by this gap, which is what makes a 4 000-way star
//!   broadcast slow compared to a tree even though each individual message
//!   is fast, and
//! * optional deterministic jitter drawn from the simulation RNG.

use rand::rngs::StdRng;
use rand::RngExt;
use simclock::SimSpan;

/// Parameters of the link model.
#[derive(Clone, Debug)]
pub struct LatencyModel {
    /// Fixed one-way propagation + protocol latency per message.
    pub base: SimSpan,
    /// Additional latency per KiB of payload.
    pub per_kib: SimSpan,
    /// Sender-side serialization gap between consecutive messages.
    pub send_gap: SimSpan,
    /// Jitter as a fraction of the computed latency (`0.1` = ±10 %).
    pub jitter_frac: f64,
}

impl Default for LatencyModel {
    /// Defaults representative of the Tianhe interconnect for control
    /// traffic: 30 µs base latency, ~3 µs/KiB, 8 µs transmit gap, ±10 %
    /// jitter.
    fn default() -> Self {
        LatencyModel {
            base: SimSpan::from_micros(30),
            per_kib: SimSpan::from_micros(3),
            send_gap: SimSpan::from_micros(8),
            jitter_frac: 0.10,
        }
    }
}

impl LatencyModel {
    /// A zero-jitter copy (useful for analytic unit tests).
    pub fn deterministic(mut self) -> Self {
        self.jitter_frac = 0.0;
        self
    }

    /// One-way latency for a message of `size_bytes`, excluding the transmit
    /// gap.
    #[inline]
    pub fn latency(&self, size_bytes: u32, rng: &mut StdRng) -> SimSpan {
        let raw = self.base + self.per_size(size_bytes, 1024);
        self.jitter(raw, rng)
    }

    /// Transmit gap the sender NIC needs before the next send.
    #[inline]
    pub fn tx_gap(&self, size_bytes: u32) -> SimSpan {
        // Gap grows mildly with message size (DMA + packetization).
        self.send_gap + self.per_size(size_bytes, 4096)
    }

    /// `per_kib × size / div` rounded half up, `div` a power of two: what
    /// `per_kib.mul_f64(size / div)` computes, in integers while
    /// `per_kib × size < 2^53`, where the float product is exact too, and
    /// through that float path past it.
    #[inline]
    fn per_size(&self, size_bytes: u32, div: u64) -> SimSpan {
        match self.per_kib.as_micros().checked_mul(size_bytes.into()) {
            Some(n) if n < 1 << 53 => SimSpan::from_micros((n + div / 2) / div),
            _ => self.per_kib.mul_f64(size_bytes as f64 / div as f64),
        }
    }

    #[inline]
    fn jitter(&self, raw: SimSpan, rng: &mut StdRng) -> SimSpan {
        if self.jitter_frac == 0.0 {
            return raw;
        }
        let k = 1.0 + self.jitter_frac * (2.0 * rng.random::<f64>() - 1.0);
        raw.mul_f64(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::rng::stream_rng;

    #[test]
    fn deterministic_latency_is_base_plus_size() {
        let m = LatencyModel::default().deterministic();
        let mut rng = stream_rng(1, 0);
        let small = m.latency(0, &mut rng);
        let big = m.latency(10 * 1024, &mut rng);
        assert_eq!(small, SimSpan::from_micros(30));
        assert_eq!(big, SimSpan::from_micros(60));
    }

    #[test]
    fn jitter_is_bounded() {
        let m = LatencyModel::default();
        let mut rng = stream_rng(2, 0);
        for _ in 0..1000 {
            let l = m.latency(1024, &mut rng).as_micros() as f64;
            let nominal = 33.0;
            assert!(l >= nominal * 0.89 && l <= nominal * 1.11, "latency {l}");
        }
    }

    #[test]
    fn integer_size_terms_match_the_float_path() {
        // The size terms of `latency` and `tx_gap` as the float path
        // computed them, bit for bit: every size up to 1 MiB and
        // `u32::MAX`, for link costs that keep `per_kib × size` under 2^53
        // and for one that takes the float fallback.
        let float = |m: &LatencyModel, size: u32| {
            let kib = size as f64 / 1024.0;
            (m.per_kib.mul_f64(kib), m.per_kib.mul_f64(kib / 4.0))
        };
        let int = |m: &LatencyModel, size: u32| (m.per_size(size, 1024), m.per_size(size, 4096));
        for per_kib in [0, 1, 3, 7, 1_000, (1 << 33) - 1, 1 << 40] {
            let m = LatencyModel {
                per_kib: SimSpan::from_micros(per_kib),
                ..LatencyModel::default()
            };
            for size in (0..=1 << 20).chain([u32::MAX]) {
                assert_eq!(
                    int(&m, size),
                    float(&m, size),
                    "per_kib {per_kib}, size {size}"
                );
            }
        }
        // The last cost takes the fallback for every size past 8 KiB.
        assert!((1u64 << 40)
            .checked_mul(1 << 14)
            .is_some_and(|n| n >= 1 << 53));
    }

    #[test]
    fn tx_gap_grows_with_size() {
        let m = LatencyModel::default();
        assert!(m.tx_gap(64 * 1024) > m.tx_gap(64));
    }

    #[test]
    fn same_seed_same_jitter() {
        let m = LatencyModel::default();
        let mut a = stream_rng(3, 0);
        let mut b = stream_rng(3, 0);
        for _ in 0..50 {
            assert_eq!(m.latency(512, &mut a), m.latency(512, &mut b));
        }
    }
}
