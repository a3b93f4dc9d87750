//! Small statistics and the outcome fingerprint.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer it describes single outliers, not the tail.
pub const MIN_BEYOND: usize = 10;

/// How many of `n` samples lie beyond quantile `q`.
pub fn beyond(n: u64, q: f64) -> u64 {
    // The epsilon keeps (1 - 0.9) * 100 from flooring to 9.
    ((1.0 - q) * n as f64 + 1e-9).floor() as u64
}

/// Median of `values`; the mean of the two middle values for even counts.
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Quantile `q` of `values` (nearest rank), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len() as u64;
    let above = beyond(n, q);
    if above < MIN_BEYOND as u64 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[(n - above - 1) as usize])
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the benchmark's bounds are fixed from. Quartiles
/// follow Python's `statistics.quantiles(values, n=4)` (exclusive
/// method). `None` with fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Unclamped on purpose: at the ends Python extrapolates.
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let med = median(&v)?;
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

/// 64-bit FNV-1a, folded incrementally. Fingerprints must not depend on
/// the process's hash seeds, so this is spelled out rather than taken
/// from `std::hash`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold the `Debug` rendering of `v` — how library records without a
    /// byte encoding enter the fingerprint.
    pub fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        // 99 samples: 9 beyond p90, so it is withheld.
        assert_eq!(percentile(&v, 0.9), None);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = quartile_spread(&[1.0, 2.0, 4.0]).unwrap();
        assert!((s - 1.5).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    #[test]
    fn fnv_is_stable() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
        // Incremental folding equals one-shot folding.
        let mut a = Fnv::default();
        a.bytes(b"foo");
        a.bytes(b"bar");
        assert_eq!(a, h);
        let mut b = Fnv::default();
        b.u64(1);
        let mut c = Fnv::default();
        c.bytes(&[1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(b, c);
    }
}
