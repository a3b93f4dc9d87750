//! Tracing from outside the library: phase spans around public calls and
//! per-call statistics kept by the `Timed` decorators.
//!
//! Phase spans are few and are stored individually (name, start, end,
//! parent, shared run id). Per-call decorators fire millions of times, so
//! they keep a count, a sum and a log2 histogram per span name instead.
//! Everything stays in memory until [`Tracer::write_json`].

use serde::{Number, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// One phase span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
}

/// Count, sum and log2 histogram of one per-call span name.
///
/// The counters are statistics that publish no other data, so `Relaxed`
/// is enough; they are atomics only because actors must be `Send`.
#[derive(Debug)]
pub struct CallStats {
    count: AtomicU64,
    sum_ns: AtomicU64,
    /// Bucket `i` counts calls that took `[2^i, 2^(i+1))` ns.
    hist: [AtomicU64; 64],
}

impl Default for CallStats {
    fn default() -> Self {
        CallStats {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl CallStats {
    pub fn record(&self, ns: u64) {
        self.count.fetch_add(1, Relaxed);
        self.sum_ns.fetch_add(ns, Relaxed);
        self.hist[ns.max(1).ilog2() as usize].fetch_add(1, Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Relaxed)
    }

    pub fn sum_s(&self) -> f64 {
        self.sum_ns() as f64 / 1e9
    }

    /// Upper edge, in ns, of the histogram bucket holding quantile `q`,
    /// or `None` when fewer than ten calls lie beyond it (the rule
    /// [`crate::stats::percentile`] applies to raw samples).
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        let n = self.count();
        let beyond = crate::stats::beyond(n, q);
        if beyond < crate::stats::MIN_BEYOND as u64 {
            return None;
        }
        let rank = n - beyond;
        let mut seen = 0;
        for (i, b) in self.hist.iter().enumerate() {
            seen += b.load(Relaxed);
            if seen >= rank {
                return Some(1u64 << (i + 1).min(63));
            }
        }
        None
    }

    fn to_value(&self) -> Value {
        let mut o = BTreeMap::new();
        o.insert("count".into(), Value::Number(Number::U64(self.count())));
        o.insert("sum_ns".into(), Value::Number(Number::U64(self.sum_ns())));
        let hist: Vec<Value> = self
            .hist
            .iter()
            .map(|b| Value::Number(Number::U64(b.load(Relaxed))))
            .collect();
        o.insert("log2_hist".into(), Value::Array(hist));
        Value::Object(o)
    }
}

/// Collects the spans and call statistics of one pass.
pub struct Tracer {
    epoch: Instant,
    /// Shared by every span of this pass (the workload seed).
    run_id: u64,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<usize>,
    calls: BTreeMap<&'static str, Arc<CallStats>>,
}

impl Tracer {
    pub fn new(run_id: u64) -> Self {
        Tracer {
            epoch: Instant::now(),
            run_id,
            spans: Vec::new(),
            open: Vec::new(),
            calls: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a phase span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// The statistics slot a decorator records `name` into.
    pub fn calls(&mut self, name: &'static str) -> Arc<CallStats> {
        self.calls.entry(name).or_default().clone()
    }

    /// Total seconds of every phase span called `name`.
    pub fn span_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Write spans and call statistics as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let mut o = BTreeMap::new();
                o.insert("name".into(), Value::String(s.name.into()));
                o.insert("start_ns".into(), Value::Number(Number::U64(s.start_ns)));
                o.insert("end_ns".into(), Value::Number(Number::U64(s.end_ns)));
                o.insert(
                    "parent".into(),
                    s.parent
                        .map_or(Value::Null, |p| Value::Number(Number::U64(p as u64))),
                );
                Value::Object(o)
            })
            .collect();
        let calls: BTreeMap<String, Value> = self
            .calls
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect();
        let mut root = BTreeMap::new();
        root.insert("run_id".into(), Value::Number(Number::U64(self.run_id)));
        root.insert("spans".into(), Value::Array(spans));
        root.insert("calls".into(), Value::Object(calls));
        let text = serde_json::to_string(&Value::Object(root)).map_err(std::io::Error::other)?;
        std::fs::write(path, text + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_by_name() {
        let mut t = Tracer::new(1);
        t.span("outer", |t| {
            t.span("inner", |t| {
                t.span("leaf", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let outer = t.span_s("outer");
        let inner = t.span_s("inner");
        assert!(outer >= inner && inner >= t.span_s("leaf"));
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!(t.spans[0].parent, None);
    }

    #[test]
    fn call_quantile_needs_ten_calls_beyond_it() {
        let s = CallStats::default();
        for _ in 0..99 {
            s.record(100);
        }
        // 99 calls: only 9 lie beyond p90.
        assert_eq!(s.quantile_ns(0.9), None);
        assert_eq!(s.quantile_ns(0.5), Some(128));
        s.record(5000);
        assert_eq!(s.quantile_ns(0.9), Some(128));
        assert_eq!(s.quantile_ns(0.99), None);
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum_ns(), 99 * 100 + 5000);
    }
}
