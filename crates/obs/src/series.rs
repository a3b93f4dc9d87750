//! In-memory metric time series: the sampler's store, its CSV exposition,
//! and the run-diff comparison used as a regression gate.
//!
//! A [`SeriesStore`] maps a [`MetricId`] to its sampled points in time
//! order. Each series lives in a numbered *slot*: the id → slot map gives
//! the id order every reader walks, and a writer that resolved its slot
//! once (the [`crate::Sampler`] does, per footprint family and per
//! recorder metric) appends by index, with no id built, compared or
//! dropped per point. Everything downstream is deterministic: the store
//! iterates in id order, values render with Rust's shortest-round-trip
//! `f64` formatting, and the CSV writer quotes fields RFC-4180 style — so
//! two same-seed runs produce byte-identical files and [`compare_csv`] of
//! a run against itself is always empty.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use simclock::SimTime;

use crate::label::MetricId;

/// One sampled value of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Virtual time of the sample, µs.
    pub t_us: u64,
    /// Sampled value.
    pub value: f64,
}

/// Time series keyed by metric id, in deterministic (id) order.
#[derive(Clone, Debug, Default)]
pub struct SeriesStore {
    /// Id → slot in `points`, in the id order every reader sees.
    index: BTreeMap<MetricId, usize>,
    /// The points of each slot, in time order.
    points: Vec<Vec<SeriesPoint>>,
}

impl SeriesStore {
    /// An empty store.
    pub fn new() -> Self {
        SeriesStore::default()
    }

    /// Append one point to `id`'s series.
    pub fn record(&mut self, id: MetricId, t: SimTime, value: f64) {
        let slot = self.slot(id, 0);
        self.push(slot, t.as_micros(), value);
    }

    /// The slot of `id`'s series. A series created here reserves room for
    /// `capacity` points, so a writer that knows its point count sizes it
    /// once.
    pub(crate) fn slot(&mut self, id: MetricId, capacity: usize) -> usize {
        let points = &mut self.points;
        *self.index.entry(id).or_insert_with(|| {
            points.push(Vec::with_capacity(capacity));
            points.len() - 1
        })
    }

    /// Append one point to the series in `slot`. Points arrive in time
    /// order; readers rely on it to find a window by binary search.
    pub(crate) fn push(&mut self, slot: usize, t_us: u64, value: f64) {
        let pts = &mut self.points[slot];
        debug_assert!(
            pts.last().is_none_or(|p| p.t_us <= t_us),
            "series point at {t_us} µs precedes the last one"
        );
        pts.push(SeriesPoint { t_us, value });
    }

    /// The points recorded for `id`, if any.
    pub fn get(&self, id: &MetricId) -> Option<&[SeriesPoint]> {
        self.index.get(id).map(|&s| self.points[s].as_slice())
    }

    /// Iterate `(id, points)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricId, &[SeriesPoint])> {
        self.index
            .iter()
            .map(|(id, &s)| (id, self.points[s].as_slice()))
    }

    /// Number of distinct series.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no series at all.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total points across all series.
    pub fn n_points(&self) -> usize {
        self.points.iter().map(Vec::len).sum()
    }

    /// Render the store as CSV: header `metric,t_us,value`, one row per
    /// point, series in id order. The metric column is the Prometheus-style
    /// rendering of the id, quoted when it contains a comma or quote.
    ///
    /// One buffer, sized up front from the rendered names and the point
    /// counts; every cell is written straight into it.
    pub fn to_csv(&self) -> String {
        const HEADER: &str = "metric,t_us,value\n";
        let series: Vec<(String, &[SeriesPoint])> = self
            .iter()
            .map(|(id, pts)| (csv_field(&id.prom()), pts))
            .collect();
        // Two commas and a newline, the widest `t_us` of the series, and a
        // value as wide as most shortest-round-trip renderings.
        let row = |name: &str, pts: &[SeriesPoint]| {
            let t_width = pts.last().map_or(1, |p| decimal_width(p.t_us));
            name.len() + 3 + t_width + 20
        };
        let capacity = HEADER.len()
            + series
                .iter()
                .map(|(name, pts)| pts.len() * row(name, pts))
                .sum::<usize>();
        let mut out = String::with_capacity(capacity);
        out.push_str(HEADER);
        for (name, pts) in &series {
            for p in *pts {
                out.push_str(name);
                out.push(',');
                let _ = write!(out, "{}", p.t_us);
                out.push(',');
                push_value(&mut out, p.value);
                out.push('\n');
            }
        }
        out
    }

    /// Per-series summaries, in id order.
    pub fn summaries(&self) -> Vec<(MetricId, SeriesSummary)> {
        self.iter()
            .map(|(id, pts)| (id.clone(), SeriesSummary::of(pts.iter().map(|p| p.value))))
            .collect()
    }
}

/// Number of decimal digits of `n`.
fn decimal_width(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Append `v` exactly as `format!("{v}")` renders it — shortest
/// round-trip digits, `NaN`, `inf`, `-inf` — for deterministic exports.
///
/// An integral value below 2⁵³ in magnitude takes the (twice as fast)
/// integer path: every integer in that range is exactly representable
/// with an ulp of at most one, so its shortest round-trip digits are the
/// integer's own. −0.0 stays on the float path, which keeps its sign.
fn push_value(out: &mut String, v: f64) {
    const EXACT: f64 = (1u64 << 53) as f64;
    let _ = if v.fract() == 0.0 && v.abs() < EXACT && !(v == 0.0 && v.is_sign_negative()) {
        write!(out, "{}", v as i64)
    } else {
        write!(out, "{v}")
    };
}

/// Quote a CSV field RFC-4180 style when it contains a comma, quote, or
/// newline; otherwise pass it through untouched.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        s.to_string()
    }
}

/// Order statistics of one series (nearest-rank percentiles over the
/// sampled values, not interpolated).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesSummary {
    /// Number of points.
    pub count: usize,
    /// Smallest value (0.0 when empty).
    pub min: f64,
    /// Largest value (0.0 when empty).
    pub max: f64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Last sampled value (0.0 when empty).
    pub last: f64,
    /// 50th percentile, nearest rank.
    pub p50: f64,
    /// 90th percentile, nearest rank.
    pub p90: f64,
    /// 99th percentile, nearest rank.
    pub p99: f64,
}

impl SeriesSummary {
    /// Summarize an ordered sequence of values.
    pub fn of(values: impl Iterator<Item = f64>) -> Self {
        let vals: Vec<f64> = values.collect();
        if vals.is_empty() {
            return SeriesSummary {
                count: 0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                last: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
            };
        }
        let mut sorted = vals.clone();
        sorted.sort_by(f64::total_cmp);
        let pct = |q: f64| -> f64 {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        SeriesSummary {
            count: vals.len(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            mean: vals.iter().sum::<f64>() / vals.len() as f64,
            last: *vals.last().expect("non-empty"),
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
        }
    }
}

/// Parse a store CSV back into `(metric name, points)` keyed by the
/// rendered metric string. Accepts exactly the format [`SeriesStore::to_csv`]
/// writes (header required, RFC-4180 quoting on the metric column).
pub fn parse_csv(text: &str) -> Result<BTreeMap<String, Vec<SeriesPoint>>, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, "metric,t_us,value")) => {}
        Some((_, h)) => return Err(format!("bad header {h:?}, want \"metric,t_us,value\"")),
        None => return Err("empty file".to_string()),
    }
    let mut out: BTreeMap<String, Vec<SeriesPoint>> = BTreeMap::new();
    for (i, line) in lines {
        if line.is_empty() {
            continue;
        }
        let fields = split_csv_row(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if fields.len() != 3 {
            return Err(format!(
                "line {}: want 3 fields, got {}",
                i + 1,
                fields.len()
            ));
        }
        let t_us: u64 = fields[1]
            .parse()
            .map_err(|_| format!("line {}: bad t_us {:?}", i + 1, fields[1]))?;
        let value: f64 = match fields[2].as_str() {
            "NaN" => f64::NAN,
            "inf" => f64::INFINITY,
            "-inf" => f64::NEG_INFINITY,
            v => v
                .parse()
                .map_err(|_| format!("line {}: bad value {:?}", i + 1, v))?,
        };
        out.entry(fields[0].clone())
            .or_default()
            .push(SeriesPoint { t_us, value });
    }
    Ok(out)
}

/// Split one CSV row into fields, honoring RFC-4180 double-quote quoting.
fn split_csv_row(line: &str) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    loop {
        if chars.peek() == Some(&'"') {
            chars.next();
            loop {
                match chars.next() {
                    Some('"') if chars.peek() == Some(&'"') => {
                        chars.next();
                        cur.push('"');
                    }
                    Some('"') => break,
                    Some(c) => cur.push(c),
                    None => return Err("unterminated quoted field".to_string()),
                }
            }
        }
        match chars.next() {
            Some(',') => {
                fields.push(std::mem::take(&mut cur));
            }
            Some('"') => return Err("stray quote inside unquoted field".to_string()),
            Some(c) => cur.push(c),
            None => {
                fields.push(cur);
                return Ok(fields);
            }
        }
    }
}

/// What `compare_csv` gates on and how strictly.
#[derive(Clone, Debug)]
pub struct DiffOptions {
    /// Allowed relative increase, percent, for gated metrics without a
    /// per-metric override.
    pub default_threshold_pct: f64,
    /// Per-metric threshold overrides, keyed by rendered metric name.
    /// Listing a metric here also gates it regardless of its name.
    pub per_metric: BTreeMap<String, f64>,
    /// Gate every shared metric instead of only footprint metrics.
    pub gate_all: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            default_threshold_pct: 5.0,
            per_metric: BTreeMap::new(),
            gate_all: false,
        }
    }
}

impl DiffOptions {
    fn gates(&self, metric: &str) -> Option<f64> {
        if let Some(&t) = self.per_metric.get(metric) {
            return Some(t);
        }
        if self.gate_all || metric.starts_with("footprint_") {
            return Some(self.default_threshold_pct);
        }
        None
    }
}

/// One compared statistic of one metric shared by both runs.
#[derive(Clone, Debug)]
pub struct MetricDelta {
    /// Rendered metric name.
    pub metric: String,
    /// Which statistic was compared (`mean` or `max`).
    pub stat: &'static str,
    /// Baseline value (run A).
    pub base: f64,
    /// Candidate value (run B).
    pub new: f64,
    /// Relative change in percent (`inf` when the baseline is zero and the
    /// candidate is not).
    pub pct: f64,
    /// Threshold applied, when the metric is gated.
    pub threshold_pct: Option<f64>,
    /// Whether this delta exceeds its threshold (increase only — a
    /// footprint shrinking is an improvement, never a regression).
    pub regressed: bool,
}

/// Result of comparing two series CSVs.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Compared statistics for metrics present in both runs, in metric
    /// order (mean before max within a metric).
    pub deltas: Vec<MetricDelta>,
    /// Metrics only the baseline has. Gated metrics in this list also
    /// appear in `deltas` as a regressed `presence` entry — a gated metric
    /// vanishing from the candidate run is a gate failure, not a skip.
    pub only_in_base: Vec<String>,
    /// Metrics only the candidate has (gated ones regress, as above).
    pub only_in_new: Vec<String>,
}

impl DiffReport {
    /// The deltas that exceeded their thresholds.
    pub fn regressions(&self) -> Vec<&MetricDelta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }
}

/// Compare two series CSVs (baseline `a`, candidate `b`) per
/// [`DiffOptions`]. Identical inputs always produce a report with no
/// regressions and all-zero percent deltas.
pub fn compare_csv(a: &str, b: &str, opts: &DiffOptions) -> Result<DiffReport, String> {
    let base = parse_csv(a).map_err(|e| format!("baseline: {e}"))?;
    let cand = parse_csv(b).map_err(|e| format!("candidate: {e}"))?;
    let mut report = DiffReport::default();
    for name in base.keys() {
        if !cand.contains_key(name) {
            report.only_in_base.push(name.clone());
        }
    }
    for name in cand.keys() {
        if !base.contains_key(name) {
            report.only_in_new.push(name.clone());
        }
    }
    // A gated metric present in only one run cannot be compared, but
    // silently skipping it would let a regression hide by renaming or
    // dropping its series. Fail the gate by name instead: presence is the
    // compared "statistic", 1 meaning the run has the metric.
    for (names, bv, cv, pct) in [
        (&report.only_in_base, 1.0, 0.0, -100.0),
        (&report.only_in_new, 0.0, 1.0, f64::INFINITY),
    ] {
        for name in names {
            if let Some(t) = opts.gates(name) {
                report.deltas.push(MetricDelta {
                    metric: name.clone(),
                    stat: "presence",
                    base: bv,
                    new: cv,
                    pct,
                    threshold_pct: Some(t),
                    regressed: true,
                });
            }
        }
    }
    for (name, base_pts) in &base {
        let Some(cand_pts) = cand.get(name) else {
            continue;
        };
        let bs = SeriesSummary::of(base_pts.iter().map(|p| p.value));
        let cs = SeriesSummary::of(cand_pts.iter().map(|p| p.value));
        let threshold = opts.gates(name);
        for (stat, bv, cv) in [("mean", bs.mean, cs.mean), ("max", bs.max, cs.max)] {
            let pct = if bv != 0.0 {
                (cv - bv) / bv.abs() * 100.0
            } else if cv == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
            let regressed = threshold.is_some_and(|t| pct > t);
            report.deltas.push(MetricDelta {
                metric: name.clone(),
                stat,
                base: bv,
                new: cv,
                pct,
                threshold_pct: threshold,
                regressed,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The value renderer the CSV writer had before it wrote into one
    /// buffer, kept as its oracle.
    fn fmt_value(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else if v.is_nan() {
            "NaN".to_string()
        } else if v > 0.0 {
            "inf".to_string()
        } else {
            "-inf".to_string()
        }
    }

    /// The CSV rendering `to_csv` had before, row by row through
    /// `to_string`: the oracle the one-buffer writer is held to.
    fn oracle_csv(store: &SeriesStore) -> String {
        let mut out = String::new();
        out.push_str("metric,t_us,value\n");
        for (id, pts) in store.iter() {
            let name = csv_field(&id.prom());
            for p in pts {
                out.push_str(&name);
                out.push(',');
                out.push_str(&p.t_us.to_string());
                out.push(',');
                out.push_str(&fmt_value(p.value));
                out.push('\n');
            }
        }
        out
    }

    /// One series holding `points` (sorted by time) under `id`.
    fn store_of(id: MetricId, points: &mut [(u64, f64)]) -> SeriesStore {
        points.sort_by_key(|&(t_us, _)| t_us);
        let mut store = SeriesStore::new();
        let slot = store.slot(id, 0);
        for &(t_us, v) in points.iter() {
            store.push(slot, t_us, v);
        }
        store
    }

    /// Values where a fast path would most plausibly part ways with the
    /// float formatter: signed zeros, NaN payloads, infinities,
    /// subnormals, the 2⁵³ edge and large round integers.
    #[test]
    fn csv_values_match_the_float_formatter_at_the_edges() {
        let two53 = (1u64 << 53) as f64;
        let mut values = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_dead_beef_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            0.1,
            1.5,
            -2.5,
            1e21,
            1e-7,
        ];
        for d in [-2.0, -1.0, 0.0, 1.0, 2.0] {
            values.push(two53 + d);
            values.push(-(two53 + d));
        }
        for e in 15..=17 {
            let p = 10f64.powi(e);
            values.extend([p, p - 1.0, p + 1.0, -p, 3.0 * p + 7.0]);
        }
        let mut points: Vec<(u64, f64)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect();
        points.push((u64::MAX, 42.0));
        let store = store_of(MetricId::new("edge"), &mut points);
        assert_eq!(store.to_csv(), oracle_csv(&store));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary `f64` bit patterns (NaNs, subnormals and infinities
        /// included), integers from 1e15 to 1e17 of either sign, and
        /// arbitrary `u64` times under metric names that need RFC-4180
        /// quoting: the one-buffer writer is byte-equal to the oracle.
        #[test]
        fn csv_writer_is_byte_equal_to_the_oracle(
            raw in prop::collection::vec((any::<u64>(), any::<u64>(), 0u8..4), 0..40),
            big in prop::collection::vec(1_000_000_000_000_000u64..=100_000_000_000_000_000, 4),
            label in prop::sample::select(&["plain", "a,b", "say \"hi\"", "back\\slash", "two\nlines"][..]),
        ) {
            let mut points: Vec<(u64, f64)> = raw
                .iter()
                .map(|&(t_us, bits, kind)| {
                    let v = match kind {
                        0 => f64::from_bits(bits),
                        1 => (bits >> 11) as f64 - (1u64 << 52) as f64,
                        2 => big[(bits % 4) as usize] as f64,
                        _ => -(big[(bits % 4) as usize] as f64),
                    };
                    (t_us, v)
                })
                .collect();
            let id = MetricId::new("footprint_sockets").with("node", label);
            let mut store = store_of(id, &mut points);
            store.record(MetricId::new("zz_tail"), SimTime(raw.len() as u64), -0.0);
            prop_assert_eq!(store.to_csv(), oracle_csv(&store));
        }
    }

    #[test]
    fn slots_keep_id_order_and_points() {
        let mut store = SeriesStore::new();
        let z = store.slot(MetricId::new("zzz"), 8);
        let a = store.slot(MetricId::new("aaa"), 0);
        assert_eq!(store.slot(MetricId::new("zzz"), 0), z, "one slot per id");
        store.push(z, 1, 1.0);
        store.push(a, 1, 2.0);
        store.record(MetricId::new("zzz"), SimTime(2), 3.0);
        let names: Vec<&str> = store.iter().map(|(id, _)| id.name()).collect();
        assert_eq!(names, vec!["aaa", "zzz"]);
        let zzz = store.get(&MetricId::new("zzz")).expect("series");
        assert_eq!(zzz.iter().map(|p| p.value).collect::<Vec<_>>(), [1.0, 3.0]);
        assert_eq!((store.len(), store.n_points()), (2, 3));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "precedes the last one")]
    fn a_point_back_in_time_is_refused() {
        let mut store = SeriesStore::new();
        store.record(MetricId::new("m"), t(2), 1.0);
        store.record(MetricId::new("m"), t(1), 1.0);
    }

    #[test]
    fn csv_round_trips_including_quoted_metrics() {
        let mut store = SeriesStore::new();
        let plain = MetricId::new("queue_depth");
        let fancy = MetricId::new("footprint_sockets").with("node", "a,b\"c");
        store.record(plain.clone(), t(1), 3.0);
        store.record(plain.clone(), t(2), 4.5);
        store.record(fancy.clone(), t(1), 7.0);
        let csv = store.to_csv();
        let parsed = parse_csv(&csv).expect("round trip parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed["queue_depth"],
            vec![
                SeriesPoint {
                    t_us: 1_000_000,
                    value: 3.0
                },
                SeriesPoint {
                    t_us: 2_000_000,
                    value: 4.5
                },
            ]
        );
        assert_eq!(parsed[&fancy.prom()].len(), 1);
        // Re-rendering the parsed rows byte-matches: deterministic format.
        let reparsed = parse_csv(&csv).expect("parses again");
        assert_eq!(parsed, reparsed);
    }

    #[test]
    fn store_iterates_in_id_order() {
        let mut store = SeriesStore::new();
        store.record(MetricId::new("zzz"), t(1), 1.0);
        store.record(MetricId::new("aaa"), t(1), 2.0);
        let names: Vec<&str> = store.iter().map(|(id, _)| id.name()).collect();
        assert_eq!(names, vec!["aaa", "zzz"]);
    }

    #[test]
    fn summary_percentiles_use_nearest_rank() {
        let s = SeriesSummary::of((1..=100).map(|v| v as f64));
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.last, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = SeriesSummary::of(std::iter::empty());
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn self_diff_is_clean() {
        let mut store = SeriesStore::new();
        store.record(
            MetricId::new("footprint_virt_bytes").with("node", "master"),
            t(1),
            1e6,
        );
        store.record(
            MetricId::new("footprint_virt_bytes").with("node", "master"),
            t(2),
            2e6,
        );
        let csv = store.to_csv();
        let report = compare_csv(&csv, &csv, &DiffOptions::default()).expect("diff runs");
        assert!(report.regressions().is_empty());
        assert!(report.only_in_base.is_empty() && report.only_in_new.is_empty());
        assert!(report.deltas.iter().all(|d| d.pct == 0.0));
    }

    #[test]
    fn regression_fires_only_on_gated_increase() {
        let mk = |v: f64| {
            let mut store = SeriesStore::new();
            store.record(
                MetricId::new("footprint_sockets").with("node", "master"),
                t(1),
                v,
            );
            store.record(MetricId::new("jobs_completed"), t(1), v * 10.0);
            store.to_csv()
        };
        let a = mk(100.0);
        let b = mk(110.0);
        let report = compare_csv(&a, &b, &DiffOptions::default()).expect("diff runs");
        // footprint_* is gated at the default 5% and grew 10%.
        let regs = report.regressions();
        assert!(!regs.is_empty());
        assert!(regs
            .iter()
            .all(|d| d.metric.starts_with("footprint_sockets")));
        // jobs_completed grew too but is not a footprint metric.
        assert!(report
            .deltas
            .iter()
            .filter(|d| d.metric == "jobs_completed")
            .all(|d| !d.regressed));
        // The improvement direction never regresses.
        let improved = compare_csv(&b, &a, &DiffOptions::default()).expect("diff runs");
        assert!(improved.regressions().is_empty());
    }

    /// A gated metric present in only one of the two runs is a named gate
    /// failure, not a silent skip; ungated one-sided metrics still only
    /// show up in the `only_in_*` lists.
    #[test]
    fn one_sided_gated_metric_fails_the_gate_by_name() {
        let mk = |with_sockets: bool| {
            let mut store = SeriesStore::new();
            store.record(MetricId::new("footprint_cpu_util"), t(1), 0.5);
            store.record(MetricId::new("uninteresting"), t(1), 1.0);
            if with_sockets {
                store.record(MetricId::new("footprint_sockets"), t(1), 3.0);
            } else {
                store.record(MetricId::new("unwatched_extra"), t(1), 9.0);
            }
            store.to_csv()
        };
        let report =
            compare_csv(&mk(true), &mk(false), &DiffOptions::default()).expect("diff runs");
        let regs = report.regressions();
        assert_eq!(regs.len(), 1, "exactly the vanished gated metric fails");
        assert_eq!(regs[0].metric, "footprint_sockets");
        assert_eq!(regs[0].stat, "presence");
        assert_eq!(report.only_in_base, vec!["footprint_sockets".to_string()]);
        assert_eq!(report.only_in_new, vec!["unwatched_extra".to_string()]);

        // The other direction fails too: a gated metric appearing from
        // nowhere means the baseline never covered it.
        let appeared =
            compare_csv(&mk(false), &mk(true), &DiffOptions::default()).expect("diff runs");
        let regs = appeared.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "footprint_sockets");
        assert!(regs[0].pct.is_infinite());
    }

    #[test]
    fn per_metric_threshold_gates_any_metric() {
        let mk = |v: f64| {
            let mut store = SeriesStore::new();
            store.record(MetricId::new("queue_depth"), t(1), v);
            store.to_csv()
        };
        let mut opts = DiffOptions::default();
        opts.per_metric.insert("queue_depth".to_string(), 1.0);
        let report = compare_csv(&mk(50.0), &mk(52.0), &opts).expect("diff runs");
        assert_eq!(report.regressions().len(), 2); // mean and max both grew 4%
    }

    #[test]
    fn zero_baseline_increase_is_infinite_pct() {
        let mk = |v: f64| {
            let mut store = SeriesStore::new();
            store.record(MetricId::new("footprint_real_bytes"), t(1), v);
            store.to_csv()
        };
        let report = compare_csv(&mk(0.0), &mk(1.0), &DiffOptions::default()).expect("diff runs");
        assert!(!report.regressions().is_empty());
        assert!(report.deltas[0].pct.is_infinite());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse_csv("").is_err());
        assert!(parse_csv("wrong,header,here\n").is_err());
        assert!(parse_csv("metric,t_us,value\nm,notanumber,1\n").is_err());
        assert!(parse_csv("metric,t_us,value\n\"unterminated,1,2\n").is_err());
    }
}
