//! The flight recorder: a bounded, per-node ring of recent trace events.
//!
//! Full traces are unbounded — a week-long 20K-node run would hold
//! millions of events. Production post-mortems only need the moments
//! before a fault, so the flight recorder keeps the last `per_node` events
//! for each node under a global byte budget and dumps them (JSONL) when a
//! node goes down or an SLO breaches. Eviction is strictly oldest-first
//! in recording order, across all nodes.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::event::TraceEvent;
use crate::export;

/// Bytes of retained-event accounting per event: the in-memory size of a
/// [`TraceEvent`] (sequence numbers and ring bookkeeping are not charged).
pub const EVENT_BYTES: usize = std::mem::size_of::<TraceEvent>();

/// Retention limits for a [`FlightRecorder`].
#[derive(Clone, Debug)]
pub struct FlightConfig {
    /// Events retained per node before that node's ring evicts.
    pub per_node: usize,
    /// Global budget: retained events never account for more than this
    /// many bytes ([`EVENT_BYTES`] each).
    pub max_bytes: usize,
    /// Where to dump on a `node_down` event or an SLO breach (no
    /// auto-dump when unset; manual dumps still work).
    pub dump_path: Option<PathBuf>,
    /// Dedupe window for triggered dumps, µs of virtual time: a tagged
    /// dump within this span of the previous one is skipped (the earlier
    /// dump already holds the interesting ring). 0 disables dedupe.
    pub cooldown_us: u64,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            per_node: 256,
            max_bytes: 256 * 1024,
            dump_path: None,
            cooldown_us: 0,
        }
    }
}

impl FlightConfig {
    /// The default limits with auto-dumps written to `path`.
    pub fn dumping_to(path: impl Into<PathBuf>) -> Self {
        FlightConfig {
            dump_path: Some(path.into()),
            ..FlightConfig::default()
        }
    }

    /// Set the triggered-dump dedupe window.
    pub fn with_cooldown(mut self, cooldown: simclock::SimSpan) -> Self {
        self.cooldown_us = cooldown.as_micros();
        self
    }
}

/// The bounded ring store. [`crate::Recorder`] drives one internally when
/// built `with_flight`; it is public for direct use and for tests.
#[derive(Debug)]
pub struct FlightRecorder {
    per_node: usize,
    max_bytes: usize,
    /// Per-node rings of `(seq, event)`; `seq` is the global recording
    /// order, used to find the globally oldest event on eviction.
    rings: BTreeMap<u32, VecDeque<(u64, TraceEvent)>>,
    total_events: usize,
    next_seq: u64,
}

impl FlightRecorder {
    /// An empty recorder with the given limits (a `per_node` or
    /// `max_bytes` of zero retains nothing).
    pub fn new(cfg: &FlightConfig) -> Self {
        FlightRecorder {
            per_node: cfg.per_node,
            max_bytes: cfg.max_bytes,
            rings: BTreeMap::new(),
            total_events: 0,
            next_seq: 0,
        }
    }

    /// Record one event, evicting oldest-first as needed to stay within
    /// both the per-node and global byte limits.
    pub fn record(&mut self, e: TraceEvent) {
        if self.per_node == 0 || self.max_bytes < EVENT_BYTES {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let ring = self.rings.entry(e.node).or_default();
        ring.push_back((seq, e));
        self.total_events += 1;
        if ring.len() > self.per_node {
            ring.pop_front();
            self.total_events -= 1;
        }
        while self.total_events * EVENT_BYTES > self.max_bytes {
            self.evict_oldest();
        }
    }

    fn evict_oldest(&mut self) {
        let oldest = self
            .rings
            .iter()
            .filter_map(|(&node, ring)| ring.front().map(|&(seq, _)| (seq, node)))
            .min();
        if let Some((_, node)) = oldest {
            let ring = self.rings.get_mut(&node).expect("ring exists");
            ring.pop_front();
            self.total_events -= 1;
            if ring.is_empty() {
                self.rings.remove(&node);
            }
        }
    }

    /// Retained events in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<(u64, TraceEvent)> = self
            .rings
            .values()
            .flat_map(|ring| ring.iter().copied())
            .collect();
        all.sort_by_key(|&(seq, _)| seq);
        all.into_iter().map(|(_, e)| e).collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.total_events
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.total_events == 0
    }

    /// Bytes of retained events ([`EVENT_BYTES`] each).
    pub fn bytes(&self) -> usize {
        self.total_events * EVENT_BYTES
    }

    /// Write the retained events as JSONL (recording order). Returns the
    /// number of events written.
    pub fn dump_to(&self, path: &Path) -> std::io::Result<usize> {
        let events = self.events();
        let mut f = std::fs::File::create(path)?;
        f.write_all(export::to_jsonl(&events).as_bytes())?;
        Ok(events.len())
    }

    /// Like [`FlightRecorder::dump_to`], but prefixed with a header line
    /// identifying what triggered the dump and when (virtual µs), so a
    /// post-mortem can tell an SLO-breach snapshot from a node-down one:
    ///
    /// ```text
    /// {"flight_dump":{"reason":"slo_breach:sweep_p99_us","t_us":90000000,"events":412}}
    /// ```
    pub fn dump_tagged(&self, path: &Path, reason: &str, t_us: u64) -> std::io::Result<usize> {
        let events = self.events();
        let mut f = std::fs::File::create(path)?;
        writeln!(
            f,
            "{{\"flight_dump\":{{\"reason\":\"{}\",\"t_us\":{},\"events\":{}}}}}",
            escape_json(reason),
            t_us,
            events.len()
        )?;
        f.write_all(export::to_jsonl(&events).as_bytes())?;
        Ok(events.len())
    }
}

/// Minimal JSON string escaping for the dump-header reason tag.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(ts: u64, node: u32) -> TraceEvent {
        TraceEvent::instant(ts, node, EventKind::MsgRecv, 0, 0)
    }

    #[test]
    fn byte_cap_is_never_exceeded() {
        let cfg = FlightConfig {
            per_node: 1_000,
            max_bytes: 10 * EVENT_BYTES,
            ..FlightConfig::default()
        };
        let mut fr = FlightRecorder::new(&cfg);
        for i in 0..500 {
            fr.record(ev(i, (i % 7) as u32));
            assert!(fr.bytes() <= cfg.max_bytes, "cap exceeded at event {i}");
        }
        assert_eq!(fr.len(), 10);
    }

    #[test]
    fn per_node_cap_evicts_that_nodes_oldest() {
        let cfg = FlightConfig {
            per_node: 3,
            max_bytes: usize::MAX,
            ..FlightConfig::default()
        };
        let mut fr = FlightRecorder::new(&cfg);
        for i in 0..5 {
            fr.record(ev(i, 0));
        }
        fr.record(ev(100, 1));
        let kept: Vec<u64> = fr.events().iter().map(|e| e.ts_us).collect();
        assert_eq!(kept, vec![2, 3, 4, 100]);
    }

    #[test]
    fn global_eviction_is_oldest_first_across_nodes() {
        let cfg = FlightConfig {
            per_node: 1_000,
            max_bytes: 4 * EVENT_BYTES,
            ..FlightConfig::default()
        };
        let mut fr = FlightRecorder::new(&cfg);
        // Interleave nodes so the oldest events alternate between rings.
        fr.record(ev(1, 0));
        fr.record(ev(2, 1));
        fr.record(ev(3, 0));
        fr.record(ev(4, 1));
        fr.record(ev(5, 2)); // evicts ts=1 (node 0)
        fr.record(ev(6, 2)); // evicts ts=2 (node 1)
        let kept: Vec<u64> = fr.events().iter().map(|e| e.ts_us).collect();
        assert_eq!(kept, vec![3, 4, 5, 6]);
    }

    #[test]
    fn zero_limits_retain_nothing() {
        let mut fr = FlightRecorder::new(&FlightConfig {
            per_node: 0,
            max_bytes: usize::MAX,
            ..FlightConfig::default()
        });
        fr.record(ev(1, 0));
        assert!(fr.is_empty());
        let mut fr = FlightRecorder::new(&FlightConfig {
            per_node: 10,
            max_bytes: EVENT_BYTES - 1,
            ..FlightConfig::default()
        });
        fr.record(ev(1, 0));
        assert!(fr.is_empty());
    }

    #[test]
    fn dump_writes_jsonl_in_recording_order() {
        let mut fr = FlightRecorder::new(&FlightConfig::default());
        fr.record(ev(10, 3));
        fr.record(TraceEvent::instant(20, 3, EventKind::NodeDown, 0, 0));
        let dir = std::env::temp_dir().join("obs-flight-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("dump.jsonl");
        let n = fr.dump_to(&path).expect("dump writes");
        assert_eq!(n, 2);
        let text = std::fs::read_to_string(&path).expect("readable");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("node_down"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tagged_dump_prefixes_a_reason_header() {
        let mut fr = FlightRecorder::new(&FlightConfig::default());
        fr.record(ev(10, 3));
        let dir = std::env::temp_dir().join("obs-flight-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("tagged.jsonl");
        let n = fr
            .dump_tagged(&path, "slo_breach:sweep_p99_us", 90_000_000)
            .expect("dump writes");
        assert_eq!(n, 1);
        let text = std::fs::read_to_string(&path).expect("readable");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "header plus one event");
        assert_eq!(
            lines[0],
            "{\"flight_dump\":{\"reason\":\"slo_breach:sweep_p99_us\",\"t_us\":90000000,\"events\":1}}"
        );
        assert!(lines[1].contains("msg_recv"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reason_tags_are_json_escaped() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("tab\there"), "tab\\u0009here");
    }
}
