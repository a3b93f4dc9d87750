//! Causal message tracing: cross-node parent→child span links and
//! critical-path extraction.
//!
//! The metrics/event layers record what each node did; this module records
//! *why* — which message caused which work, across nodes. A flow (a job
//! dispatch, a heartbeat sweep, a failure takeover) starts a trace at its
//! root span; every message sent while a trace is current carries a
//! [`TraceContext`] on the transport envelope, and the receiving transport
//! closes the hop into a [`CausalRecord::Hop`] with the hop's latency split
//! into queue wait (sender-side transmit backlog), link latency, and
//! processing cost. Timer-driven continuations (retries, takeovers) adopt
//! the stored context and mark their wait as [`CausalRecord::Backoff`].
//!
//! The analysis side rebuilds per-trace span trees ([`build_traces`]),
//! extracts the critical path with an exact-by-construction decomposition
//! ([`TraceTree::critical_path`] — the components are clamped increments of
//! a monotone cursor, so they always sum to the end-to-end latency), and
//! summarizes end-to-end percentiles per flow kind ([`flow_summaries`]).
//! All rendering is hand-assembled and byte-for-byte deterministic for a
//! given record set.

use std::fmt::Write as _;

/// What kind of control flow a trace follows. Stored on every context and
/// record so percentiles can be reported per flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlowKind {
    /// Job dispatch: submit → launch fan-out → acks.
    Dispatch,
    /// Periodic resource/heartbeat sweep over the FP-Tree.
    Sweep,
    /// Failure recovery: reassignment or master takeover after a timeout.
    Recovery,
}

impl FlowKind {
    /// All kinds, in report order.
    pub fn all() -> &'static [FlowKind] {
        &[FlowKind::Dispatch, FlowKind::Sweep, FlowKind::Recovery]
    }

    /// Stable lowercase name (CLI flag value and report label).
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::Dispatch => "dispatch",
            FlowKind::Sweep => "sweep",
            FlowKind::Recovery => "recovery",
        }
    }

    /// Parse a CLI flag value.
    pub fn parse(s: &str) -> Option<FlowKind> {
        FlowKind::all().iter().copied().find(|k| k.name() == s)
    }
}

/// The context that rides a message envelope: which trace the message
/// belongs to, the span id of this hop, and how deep in the causal tree
/// it sits. 26 bytes of copyable state — cheap enough to attach to every
/// envelope, and absent (`None`) entirely when tracing is off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id: one per flow instance. Ids start at 1; 0 never appears.
    pub trace: u64,
    /// Span id of the hop (or root) this context identifies.
    pub span: u64,
    /// Hops from the root (root = 0).
    pub depth: u16,
    /// The flow kind of the whole trace.
    pub flow: FlowKind,
}

/// Sender-side half of a hop, carried on the envelope next to the child
/// context. The receiving transport completes it into a
/// [`CausalRecord::Hop`] once processing cost is known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopSend {
    /// The child context (span = this hop's id, depth = parent + 1).
    pub ctx: TraceContext,
    /// The parent span this hop links from.
    pub parent: u64,
    /// When the sender called `send`, µs.
    pub send_us: u64,
    /// Sender-side transmit backlog + serialization gap, µs.
    pub queue_us: u64,
}

/// One record in the causal log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CausalRecord {
    /// A trace root: where and when a flow began. `queue_us`/`process_us`
    /// let transport-less producers (the backfill scheduler) attribute
    /// pre-dispatch wait and launch overhead; transports record zeros.
    Root {
        /// Trace id.
        trace: u64,
        /// Root span id.
        span: u64,
        /// Flow kind.
        flow: FlowKind,
        /// Node where the flow began.
        node: u32,
        /// When the flow began, µs.
        ts_us: u64,
        /// Wait attributed before the flow became active, µs.
        queue_us: u64,
        /// Processing attributed to starting the flow, µs.
        process_us: u64,
    },
    /// A completed message hop with its latency split.
    Hop {
        /// Trace id.
        trace: u64,
        /// This hop's span id.
        span: u64,
        /// The span (root or hop) that caused this hop.
        parent: u64,
        /// Flow kind (copied from the context for self-contained records).
        flow: FlowKind,
        /// Depth in the causal tree (first hop = 1).
        depth: u16,
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// When the sender called `send`, µs.
        send_us: u64,
        /// Sender-side transmit backlog + serialization gap, µs.
        queue_us: u64,
        /// Wire latency, µs.
        link_us: u64,
        /// When the receiver started processing, µs.
        recv_us: u64,
        /// Receiver processing cost, µs (the handler's CPU charge).
        process_us: u64,
    },
    /// A timeout/retry wait inside a trace: the span `parent` sat idle on
    /// `node` over `[start_us, end_us]` before a continuation was sent.
    /// The critical path relabels local gaps covered by these as backoff.
    Backoff {
        /// Trace id.
        trace: u64,
        /// The span whose continuation waited.
        parent: u64,
        /// Node that waited.
        node: u32,
        /// Wait start, µs.
        start_us: u64,
        /// Wait end (when the continuation fired), µs.
        end_us: u64,
    },
}

impl CausalRecord {
    /// The trace this record belongs to.
    pub fn trace(&self) -> u64 {
        match *self {
            CausalRecord::Root { trace, .. }
            | CausalRecord::Hop { trace, .. }
            | CausalRecord::Backoff { trace, .. } => trace,
        }
    }
}

/// A hop as stored in a rebuilt [`TraceTree`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop {
    /// This hop's span id.
    pub span: u64,
    /// Parent span id.
    pub parent: u64,
    /// Depth in the tree (first hop = 1).
    pub depth: u16,
    /// Sending node.
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// When the sender called `send`, µs.
    pub send_us: u64,
    /// Sender-side queue wait, µs.
    pub queue_us: u64,
    /// Wire latency, µs.
    pub link_us: u64,
    /// When the receiver started processing, µs.
    pub recv_us: u64,
    /// Receiver processing cost, µs.
    pub process_us: u64,
}

impl Hop {
    /// When this hop's processing finished, µs.
    pub fn done_us(&self) -> u64 {
        self.recv_us + self.process_us
    }
}

/// A reconstructed causal tree for one trace.
#[derive(Clone, Debug)]
pub struct TraceTree {
    /// Trace id.
    pub trace: u64,
    /// Flow kind.
    pub flow: FlowKind,
    /// Node where the flow began.
    pub root_node: u32,
    /// Root span id.
    pub root_span: u64,
    /// When the flow began, µs.
    pub root_ts_us: u64,
    /// Pre-dispatch wait attributed to the root, µs.
    pub root_queue_us: u64,
    /// Root processing cost, µs.
    pub root_process_us: u64,
    /// All completed hops, sorted by span id.
    pub hops: Vec<Hop>,
    /// Backoff intervals `(parent span, node, start_us, end_us)`.
    pub backoffs: Vec<(u64, u32, u64, u64)>,
}

/// One step of a critical path with its latency decomposition. Every
/// component is a clamped increment of the walk's monotone cursor, so the
/// sum of all components over a path equals its end-to-end latency exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// The hop's span id.
    pub span: u64,
    /// Sending node.
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// Depth in the tree.
    pub depth: u16,
    /// Sender-side idle gap not covered by a backoff interval, µs.
    pub local_us: u64,
    /// Sender-side gap covered by a timeout/retry backoff, µs.
    pub backoff_us: u64,
    /// Sender-side transmit queue wait, µs.
    pub queue_us: u64,
    /// Wire latency, µs.
    pub link_us: u64,
    /// Receiver processing cost, µs.
    pub process_us: u64,
}

impl PathStep {
    /// Sum of this step's components, µs.
    pub fn total_us(&self) -> u64 {
        self.local_us + self.backoff_us + self.queue_us + self.link_us + self.process_us
    }
}

/// The slowest root→leaf chain of a trace, decomposed per hop.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Trace id.
    pub trace: u64,
    /// Flow kind.
    pub flow: FlowKind,
    /// Node where the flow began.
    pub root_node: u32,
    /// When the flow began, µs.
    pub root_ts_us: u64,
    /// Pre-dispatch wait attributed to the root, µs.
    pub root_queue_us: u64,
    /// Root processing cost, µs.
    pub root_process_us: u64,
    /// The chain's hops, root-first.
    pub steps: Vec<PathStep>,
    /// End-to-end latency, µs: always equals `root_queue_us +
    /// root_process_us + Σ steps[i].total_us()`.
    pub end_to_end_us: u64,
}

impl CriticalPath {
    /// Sum of all components (root attribution + every step), µs. Equal to
    /// [`CriticalPath::end_to_end_us`] by construction; exposed so tests
    /// and the CLI can assert/print the identity.
    pub fn component_sum_us(&self) -> u64 {
        self.root_queue_us
            + self.root_process_us
            + self.steps.iter().map(|s| s.total_us()).sum::<u64>()
    }
}

/// Rebuild per-trace causal trees from a raw record log. Trees come back
/// sorted by trace id; hops within a tree by span id. Hops whose trace
/// never recorded a root (shouldn't happen) are dropped.
pub fn build_traces(records: &[CausalRecord]) -> Vec<TraceTree> {
    let mut trees: std::collections::BTreeMap<u64, TraceTree> = std::collections::BTreeMap::new();
    for r in records {
        if let CausalRecord::Root {
            trace,
            span,
            flow,
            node,
            ts_us,
            queue_us,
            process_us,
        } = *r
        {
            trees.insert(
                trace,
                TraceTree {
                    trace,
                    flow,
                    root_node: node,
                    root_span: span,
                    root_ts_us: ts_us,
                    root_queue_us: queue_us,
                    root_process_us: process_us,
                    hops: Vec::new(),
                    backoffs: Vec::new(),
                },
            );
        }
    }
    for r in records {
        match *r {
            CausalRecord::Hop {
                trace,
                span,
                parent,
                depth,
                from,
                to,
                send_us,
                queue_us,
                link_us,
                recv_us,
                process_us,
                ..
            } => {
                if let Some(t) = trees.get_mut(&trace) {
                    t.hops.push(Hop {
                        span,
                        parent,
                        depth,
                        from,
                        to,
                        send_us,
                        queue_us,
                        link_us,
                        recv_us,
                        process_us,
                    });
                }
            }
            CausalRecord::Backoff {
                trace,
                parent,
                node,
                start_us,
                end_us,
            } => {
                if let Some(t) = trees.get_mut(&trace) {
                    t.backoffs.push((parent, node, start_us, end_us));
                }
            }
            CausalRecord::Root { .. } => {}
        }
    }
    let mut out: Vec<TraceTree> = trees.into_values().collect();
    for t in &mut out {
        t.hops.sort_by_key(|h| h.span);
        t.backoffs.sort();
    }
    out
}

impl TraceTree {
    /// The hop chain (root-first) ending at the hop whose processing
    /// finishes last. Ties break toward the smallest span id.
    fn critical_chain(&self) -> Vec<&Hop> {
        let Some(last) = self
            .hops
            .iter()
            // max_by_key returns the *last* max; compare (done, Reverse(span))
            // to make the smallest span id win ties deterministically.
            .max_by_key(|h| (h.done_us(), std::cmp::Reverse(h.span)))
        else {
            return Vec::new();
        };
        let mut chain = vec![last];
        let mut cur = last;
        while cur.parent != self.root_span {
            match self.hops.iter().find(|h| h.span == cur.parent) {
                Some(p) => {
                    chain.push(p);
                    cur = p;
                }
                None => break, // orphaned link; treat as chain head
            }
        }
        chain.reverse();
        chain
    }

    /// Merged backoff intervals for this trace, sorted.
    fn merged_backoffs(&self) -> Vec<(u64, u64)> {
        let mut iv: Vec<(u64, u64)> = self
            .backoffs
            .iter()
            .map(|&(_, _, s, e)| (s, e.max(s)))
            .collect();
        iv.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for (s, e) in iv {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        merged
    }

    /// Extract the critical path with an exact decomposition: a cursor
    /// starts at the root timestamp and each component is how far that
    /// milestone (send, depart, arrive, done) advances it, clamped at zero
    /// when the DES overlaps stages. The components therefore telescope —
    /// their sum is exactly `end_to_end_us`.
    pub fn critical_path(&self) -> CriticalPath {
        let start = self.root_ts_us;
        let mut cursor = start + self.root_queue_us + self.root_process_us;
        let backoffs = self.merged_backoffs();
        let mut steps = Vec::new();
        for h in self.critical_chain() {
            let gap = h.send_us.saturating_sub(cursor);
            let window = (cursor.min(h.send_us), h.send_us);
            cursor = cursor.max(h.send_us);
            // Relabel the part of the idle gap covered by a merged backoff
            // interval; attribution stays exact because backoff + local
            // still equal the full gap.
            let covered: u64 = backoffs
                .iter()
                .map(|&(s, e)| e.min(window.1).saturating_sub(s.max(window.0)))
                .sum();
            let backoff_us = covered.min(gap);
            let local_us = gap - backoff_us;
            let depart = h.send_us + h.queue_us;
            let queue_us = depart.saturating_sub(cursor);
            cursor = cursor.max(depart);
            let link_us = h.recv_us.saturating_sub(cursor);
            cursor = cursor.max(h.recv_us);
            let done = h.done_us();
            let process_us = done.saturating_sub(cursor);
            cursor = cursor.max(done);
            steps.push(PathStep {
                span: h.span,
                from: h.from,
                to: h.to,
                depth: h.depth,
                local_us,
                backoff_us,
                queue_us,
                link_us,
                process_us,
            });
        }
        CriticalPath {
            trace: self.trace,
            flow: self.flow,
            root_node: self.root_node,
            root_ts_us: self.root_ts_us,
            root_queue_us: self.root_queue_us,
            root_process_us: self.root_process_us,
            steps,
            end_to_end_us: cursor - start,
        }
    }

    /// Canonical shape of the causal tree: `flow:node(child,child,...)`
    /// with children ordered by their own shape strings. Neither span ids
    /// nor timings appear, so a test can compare a recorded flow with the
    /// tree it was known to travel, whatever ids were allocated and
    /// however long each hop took.
    pub fn shape(&self) -> String {
        fn render(tree: &TraceTree, span: u64, node: u32) -> String {
            let mut kids: Vec<String> = tree
                .hops
                .iter()
                .filter(|h| h.parent == span)
                .map(|h| render(tree, h.span, h.to))
                .collect();
            kids.sort();
            if kids.is_empty() {
                node.to_string()
            } else {
                format!("{node}({})", kids.join(","))
            }
        }
        format!(
            "{}:{}",
            self.flow.name(),
            render(self, self.root_span, self.root_node)
        )
    }
}

/// End-to-end latency percentiles for one flow kind.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowSummary {
    /// Flow kind summarized.
    pub flow: FlowKind,
    /// Number of traces of this kind.
    pub count: usize,
    /// Mean end-to-end latency, µs.
    pub mean_us: f64,
    /// Median, µs (nearest-rank).
    pub p50_us: u64,
    /// 90th percentile, µs.
    pub p90_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// Maximum, µs.
    pub max_us: u64,
}

fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Summarize end-to-end latency per flow kind, in [`FlowKind::all`] order;
/// kinds with no traces are omitted.
pub fn flow_summaries(trees: &[TraceTree]) -> Vec<FlowSummary> {
    FlowKind::all()
        .iter()
        .filter_map(|&flow| {
            let mut lats: Vec<u64> = trees
                .iter()
                .filter(|t| t.flow == flow)
                .map(|t| t.critical_path().end_to_end_us)
                .collect();
            if lats.is_empty() {
                return None;
            }
            lats.sort_unstable();
            let sum: u64 = lats.iter().sum();
            Some(FlowSummary {
                flow,
                count: lats.len(),
                mean_us: sum as f64 / lats.len() as f64,
                p50_us: nearest_rank(&lats, 0.50),
                p90_us: nearest_rank(&lats, 0.90),
                p99_us: nearest_rank(&lats, 0.99),
                max_us: lats.last().copied().unwrap_or(0),
            })
        })
        .collect()
}

/// Render a critical path as the per-hop breakdown table the CLI prints.
/// Deterministic for a given path; the trailing totals line restates the
/// exact-sum identity.
pub fn render_critical_path(cp: &CriticalPath) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {} ({}): root node {} @ {} us, {} hop(s), end-to-end {} us",
        cp.trace,
        cp.flow.name(),
        cp.root_node,
        cp.root_ts_us,
        cp.steps.len(),
        cp.end_to_end_us
    );
    if cp.root_queue_us > 0 || cp.root_process_us > 0 {
        let _ = writeln!(
            out,
            "  root: queue {} us, process {} us",
            cp.root_queue_us, cp.root_process_us
        );
    }
    let _ = writeln!(
        out,
        "  {:>4} {:>6}{:>6} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "hop", "from", " -> to", "local", "backoff", "queue", "link", "process"
    );
    for (i, s) in cp.steps.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:>4} {:>6}{:>6} {:>9} {:>9} {:>9} {:>9} {:>9}",
            i + 1,
            s.from,
            format!(" -> {}", s.to),
            s.local_us,
            s.backoff_us,
            s.queue_us,
            s.link_us,
            s.process_us
        );
    }
    let (mut lo, mut bo, mut qu, mut li, mut pr) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for s in &cp.steps {
        lo += s.local_us;
        bo += s.backoff_us;
        qu += s.queue_us;
        li += s.link_us;
        pr += s.process_us;
    }
    let _ = writeln!(
        out,
        "  totals: local {lo} + backoff {bo} + queue {} + link {li} + process {} = {} us",
        qu + cp.root_queue_us,
        pr + cp.root_process_us,
        cp.component_sum_us()
    );
    out
}

/// Render per-flow percentile summaries as a table.
pub fn render_flow_summaries(summaries: &[FlowSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "flow", "traces", "mean_us", "p50_us", "p90_us", "p99_us", "max_us"
    );
    for s in summaries {
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>12.1} {:>10} {:>10} {:>10} {:>10}",
            s.flow.name(),
            s.count,
            s.mean_us,
            s.p50_us,
            s.p90_us,
            s.p99_us,
            s.max_us
        );
    }
    out
}

/// Render a whole trace tree, depth-first with children in causal-record
/// order, for `eslurm explain`.
pub fn render_tree(tree: &TraceTree) -> String {
    fn walk(out: &mut String, tree: &TraceTree, span: u64, depth: usize) {
        for h in tree.hops.iter().filter(|h| h.parent == span) {
            let _ = writeln!(
                out,
                "{:indent$}{} -> {}  span {}  send @{} us  queue {}  link {}  process {}",
                "",
                h.from,
                h.to,
                h.span,
                h.send_us,
                h.queue_us,
                h.link_us,
                h.process_us,
                indent = 2 + depth * 2
            );
            walk(out, tree, h.span, depth + 1);
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {}  flow {}  root node {} @ {} us  ({} hop(s))",
        tree.trace,
        tree.flow.name(),
        tree.root_node,
        tree.root_ts_us,
        tree.hops.len()
    );
    for &(parent, node, s, e) in &tree.backoffs {
        let _ = writeln!(
            out,
            "  backoff under span {parent} on node {node}: [{s}, {e}] us"
        );
    }
    walk(&mut out, tree, tree.root_span, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(trace: u64, span: u64, flow: FlowKind, node: u32, ts: u64) -> CausalRecord {
        CausalRecord::Root {
            trace,
            span,
            flow,
            node,
            ts_us: ts,
            queue_us: 0,
            process_us: 0,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn hop(
        trace: u64,
        span: u64,
        parent: u64,
        depth: u16,
        from: u32,
        to: u32,
        send: u64,
        queue: u64,
        link: u64,
        process: u64,
    ) -> CausalRecord {
        CausalRecord::Hop {
            trace,
            span,
            parent,
            flow: FlowKind::Dispatch,
            depth,
            from,
            to,
            send_us: send,
            queue_us: queue,
            link_us: link,
            recv_us: send + queue + link,
            process_us: process,
        }
    }

    #[test]
    fn chain_decomposition_sums_exactly() {
        let recs = vec![
            root(1, 1, FlowKind::Dispatch, 0, 100),
            hop(1, 2, 1, 1, 0, 1, 100, 10, 50, 5),
            // second hop sent 3 us after the first finished processing
            hop(1, 3, 2, 2, 1, 2, 168, 0, 40, 7),
        ];
        let trees = build_traces(&recs);
        assert_eq!(trees.len(), 1);
        let cp = trees[0].critical_path();
        assert_eq!(cp.steps.len(), 2);
        assert_eq!(cp.end_to_end_us, cp.component_sum_us());
        // 100 -> send 100 (local 0) queue 10 link 50 process 5 = 165;
        // send 168 (local 3) queue 0 link 40 process 7 => end 215 - 100.
        assert_eq!(cp.end_to_end_us, 115);
        assert_eq!(cp.steps[1].local_us, 3);
    }

    #[test]
    fn overlapping_stages_clamp_but_still_sum() {
        // The child hop departs before the parent's CPU charge "finished"
        // (the DES runs handlers at an instant): send == parent recv.
        let recs = vec![
            root(1, 1, FlowKind::Dispatch, 0, 0),
            hop(1, 2, 1, 1, 0, 1, 0, 0, 100, 40), // done at 140
            hop(1, 3, 2, 2, 1, 2, 100, 5, 80, 1), // send at parent's recv
        ];
        let trees = build_traces(&recs);
        let cp = trees[0].critical_path();
        assert_eq!(cp.end_to_end_us, cp.component_sum_us());
        // Cursor reaches 140 after hop 1; hop 2's send/depart (100/105) are
        // clamped; its arrive at 185 contributes 45 of link.
        assert_eq!(cp.steps[1].local_us, 0);
        assert_eq!(cp.steps[1].queue_us, 0);
        assert_eq!(cp.steps[1].link_us, 45);
        assert_eq!(cp.end_to_end_us, 186);
    }

    #[test]
    fn critical_path_picks_slowest_leaf() {
        let recs = vec![
            root(1, 1, FlowKind::Dispatch, 0, 0),
            hop(1, 2, 1, 1, 0, 1, 0, 0, 10, 1),
            hop(1, 3, 1, 1, 0, 2, 0, 0, 500, 1), // slow branch
            hop(1, 4, 2, 2, 1, 3, 11, 0, 10, 1),
        ];
        let trees = build_traces(&recs);
        let cp = trees[0].critical_path();
        assert_eq!(cp.steps.len(), 1);
        assert_eq!(cp.steps[0].to, 2);
        assert_eq!(cp.end_to_end_us, 501);
    }

    #[test]
    fn backoff_relabels_idle_gap() {
        let recs = vec![
            root(1, 1, FlowKind::Recovery, 0, 0),
            hop(1, 2, 1, 1, 0, 1, 0, 0, 10, 0), // done at 10
            CausalRecord::Backoff {
                trace: 1,
                parent: 2,
                node: 0,
                start_us: 10,
                end_us: 100,
            },
            hop(1, 3, 2, 2, 1, 2, 100, 0, 10, 0), // retried after timeout
        ];
        let trees = build_traces(&recs);
        let cp = trees[0].critical_path();
        assert_eq!(cp.steps[1].backoff_us, 90);
        assert_eq!(cp.steps[1].local_us, 0);
        assert_eq!(cp.end_to_end_us, cp.component_sum_us());
        // 10 us first hop + 90 us backoff + 10 us retry hop.
        assert_eq!(cp.end_to_end_us, 110);
    }

    #[test]
    fn shape_is_id_independent() {
        let a = build_traces(&[
            root(1, 1, FlowKind::Sweep, 0, 0),
            hop(1, 2, 1, 1, 0, 1, 0, 0, 10, 1),
            hop(1, 3, 1, 1, 0, 2, 0, 0, 10, 1),
            hop(1, 4, 3, 2, 2, 5, 12, 0, 10, 1),
        ]);
        // Same topology, different span ids and timings, children recorded
        // in the opposite order.
        let b = build_traces(&[
            root(7, 10, FlowKind::Sweep, 0, 50),
            hop(7, 30, 10, 1, 0, 2, 50, 0, 99, 1),
            hop(7, 40, 30, 2, 2, 5, 151, 0, 9, 1),
            hop(7, 20, 10, 1, 0, 1, 50, 0, 14, 1),
        ]);
        assert_eq!(a[0].shape(), b[0].shape());
        assert_eq!(a[0].shape(), "sweep:0(1,2(5))");
    }

    #[test]
    fn root_only_trace_uses_root_attribution() {
        let recs = vec![CausalRecord::Root {
            trace: 3,
            span: 9,
            flow: FlowKind::Dispatch,
            node: 0,
            ts_us: 1000,
            queue_us: 400,
            process_us: 20,
        }];
        let trees = build_traces(&recs);
        let cp = trees[0].critical_path();
        assert!(cp.steps.is_empty());
        assert_eq!(cp.end_to_end_us, 420);
        assert_eq!(cp.component_sum_us(), 420);
    }

    #[test]
    fn flow_summaries_report_percentiles_per_kind() {
        let mut recs = Vec::new();
        for i in 0..10u64 {
            recs.push(root(i + 1, 100 + i, FlowKind::Dispatch, 0, 0));
            recs.push(hop(i + 1, 200 + i, 100 + i, 1, 0, 1, 0, 0, (i + 1) * 10, 0));
        }
        recs.push(root(99, 999, FlowKind::Sweep, 0, 0));
        let trees = build_traces(&recs);
        let sums = flow_summaries(&trees);
        assert_eq!(sums.len(), 2);
        let d = &sums[0];
        assert_eq!(d.flow, FlowKind::Dispatch);
        assert_eq!(d.count, 10);
        assert_eq!(d.p50_us, 50);
        assert_eq!(d.p90_us, 90);
        assert_eq!(d.p99_us, 100);
        assert_eq!(d.max_us, 100);
        assert_eq!(sums[1].flow, FlowKind::Sweep);
        assert_eq!(sums[1].count, 1);
    }

    #[test]
    fn rendering_is_deterministic_and_consistent() {
        let recs = vec![
            root(1, 1, FlowKind::Dispatch, 0, 100),
            hop(1, 2, 1, 1, 0, 1, 100, 10, 50, 5),
        ];
        let trees = build_traces(&recs);
        let cp = trees[0].critical_path();
        let r1 = render_critical_path(&cp);
        let r2 = render_critical_path(&trees[0].critical_path());
        assert_eq!(r1, r2);
        assert!(r1.contains("end-to-end 65 us"));
        assert!(r1.contains("= 65 us"));
        let t = render_tree(&trees[0]);
        assert!(t.contains("0 -> 1"));
    }
}
