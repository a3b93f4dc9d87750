//! Virtual time for the discrete-event simulator.
//!
//! All simulated components measure time in [`SimTime`] (an absolute instant)
//! and [`SimSpan`] (a duration). Both are backed by a `u64` count of
//! microseconds, which gives ~584 000 years of range — far beyond the ten-day
//! experiments in the paper — while keeping arithmetic cheap and ordering
//! total.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant of virtual time, in microseconds since simulation
/// start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimSpan(pub u64);

// Serialized as bare microsecond counts (the offline serde stub has no
// derive macro, so newtype impls are written out).
impl serde::Serialize for SimTime {
    fn to_value(&self) -> serde::Value {
        serde::Serialize::to_value(&self.0)
    }
}

impl serde::Deserialize for SimTime {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        <u64 as serde::Deserialize>::from_value(v).map(SimTime)
    }
}

impl serde::Serialize for SimSpan {
    fn to_value(&self) -> serde::Value {
        serde::Serialize::to_value(&self.0)
    }
}

impl serde::Deserialize for SimSpan {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        <u64 as serde::Deserialize>::from_value(v).map(SimSpan)
    }
}

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from fractional seconds. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e6).round() as u64)
    }

    /// Microseconds since simulation start.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whole seconds since simulation start (truncated).
    pub fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Span elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future.
    pub fn since(self, earlier: SimTime) -> SimSpan {
        SimSpan(self.0.saturating_sub(earlier.0))
    }
}

impl SimSpan {
    /// The empty span.
    pub const ZERO: SimSpan = SimSpan(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimSpan(s * 1_000_000)
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimSpan(ms * 1_000)
    }

    /// Construct from whole microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimSpan(us)
    }

    /// Construct from fractional seconds. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimSpan((s.max(0.0) * 1e6).round() as u64)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimSpan(h * 3_600_000_000)
    }

    /// Microseconds in the span.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds in the span.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whole seconds in the span (truncated).
    pub fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Checked scale by a non-negative float (used for jitter), rounded
    /// half away from zero.
    #[inline]
    pub fn mul_f64(self, k: f64) -> Self {
        SimSpan(round_to_u64(self.0 as f64 * k.max(0.0)))
    }
}

/// `x.round() as u64`, in integer arithmetic where that is exact. On an
/// x86-64 baseline without SSE4.1, `f64::round` is a call into libm, and
/// every DES send scales three spans.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    // 2^52: from here up every f64 is a multiple of 1/2 or coarser.
    const EXACT_BELOW: f64 = 4_503_599_627_370_496.0;
    if (0.0..EXACT_BELOW).contains(&x) {
        // `x` and its truncation `i` are both zero or within a factor of
        // two of each other, so `x - i` is exact: x's fraction. (Through
        // `i64`: one instruction each way, where `u64` takes a sequence.)
        let i = x as i64;
        (i + i64::from(x - i as f64 >= 0.5)) as u64
    } else {
        // NaN, infinities and large values: `as` saturates them as before.
        x.round() as u64
    }
}

impl Add<SimSpan> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimSpan> for SimTime {
    fn add_assign(&mut self, rhs: SimSpan) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimSpan;
    fn sub(self, rhs: SimTime) -> SimSpan {
        SimSpan(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimSpan {
    type Output = SimSpan;
    fn add(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0 + rhs.0)
    }
}

impl AddAssign for SimSpan {
    fn add_assign(&mut self, rhs: SimSpan) {
        self.0 += rhs.0;
    }
}

impl Sub for SimSpan {
    type Output = SimSpan;
    fn sub(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimSpan {
    type Output = SimSpan;
    fn mul(self, rhs: u64) -> SimSpan {
        SimSpan(self.0 * rhs)
    }
}

impl Div<u64> for SimSpan {
    type Output = SimSpan;
    fn div(self, rhs: u64) -> SimSpan {
        SimSpan(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimSpan::from_hours(2).as_secs(), 7_200);
        assert_eq!(SimSpan::from_secs_f64(1.5).as_micros(), 1_500_000);
    }

    #[test]
    fn negative_fractional_span_clamps() {
        assert_eq!(SimSpan::from_secs_f64(-4.0), SimSpan::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimSpan::from_secs(5);
        assert_eq!(t.as_secs(), 15);
        assert_eq!((t - SimTime::from_secs(12)).as_secs(), 3);
        // Subtraction saturates rather than panicking.
        assert_eq!(SimTime::from_secs(1) - SimTime::from_secs(9), SimSpan::ZERO);
        assert_eq!((SimSpan::from_secs(4) * 3).as_secs(), 12);
        assert_eq!((SimSpan::from_secs(9) / 3).as_secs(), 3);
    }

    #[test]
    fn ordering_is_total_on_micros() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimSpan(7) > SimSpan(6));
    }

    #[test]
    fn mul_f64_rounds_and_clamps() {
        assert_eq!(SimSpan::from_secs(2).mul_f64(1.25).as_micros(), 2_500_000);
        assert_eq!(SimSpan::from_secs(2).mul_f64(-1.0), SimSpan::ZERO);
    }

    #[test]
    fn integer_rounding_matches_f64_round_at_the_edges() {
        let two52 = 4_503_599_627_370_496.0f64;
        let mut xs = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            two52 - 1.0,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            2.0 * two52,
            1e300,
            f64::INFINITY,
            f64::NAN,
            -0.5,
            -3.0,
        ];
        for k in [0.0f64, 1.0, 2.0, 41.0, 1e6, 1e15] {
            let half = k + 0.5;
            xs.extend([half, half.next_down(), half.next_up(), k.next_up()]);
        }
        for x in xs {
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
        assert_eq!(SimSpan(0).mul_f64(f64::INFINITY), SimSpan::ZERO, "0 × ∞");
        assert_eq!(SimSpan(3).mul_f64(f64::INFINITY), SimSpan(u64::MAX));
        assert_eq!(
            SimSpan(3).mul_f64(0.5),
            SimSpan(2),
            "half rounds away from zero"
        );
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]
            /// `mul_f64` against its `f64::round` definition, over spans
            /// of every magnitude and factors both in the jitter range and
            /// drawn from arbitrary bit patterns.
            #[test]
            fn mul_f64_matches_f64_round(
                span in any::<u64>(),
                shift in 0u32..64,
                jitter in 0.0f64..4.0,
                bits in any::<u64>(),
            ) {
                let span = span >> shift;
                for k in [jitter, f64::from_bits(bits)] {
                    let want = (span as f64 * k.max(0.0)).round() as u64;
                    prop_assert_eq!(SimSpan(span).mul_f64(k).0, want, "{} × {:e}", span, k);
                }
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500s");
        assert_eq!(format!("{}", SimSpan::from_millis(250)), "0.250s");
    }
}
