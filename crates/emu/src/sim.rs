//! The discrete-event transport: deterministic, fast, and scalable to the
//! million-node clusters the paper's FP-Tree argument targets.
//!
//! ## One queue, one node store
//!
//! Every pending event sits in one [`KeyedQueue`], and every node's engine
//! state in one node store (`emu::state`), both indexed by [`NodeId`]
//! directly. Each event carries a canonical [`EventKey`] `(time, lane,
//! seq)` stamped at creation (lane = creator node + 1, or 0 for external
//! injections and fault markers; seq = the creator's own counter), and the
//! engine is one single-threaded loop that pops the least key and
//! dispatches it inline. The key, not the order of pushes, fixes the total
//! order: it is what every fingerprint and export hashes, and what any
//! split of the event population would have to merge back into.
//!
//! ## One event ahead
//!
//! At 200,000 nodes a receiver's state is not in cache when its event
//! comes up, and the first touches of its `HotNode` and its actor were
//! a quarter of the sweep's run. The next receiver is known one `pop`
//! early, though: after popping event *k* and before dispatching it, the
//! loop reads the payload now at the head of the queue
//! ([`KeyedQueue::peek_event`]) and, for a `Deliver` or a `Timer`,
//! prefetches the first and last byte of that node's `HotNode` and actor,
//! so both lines of a record that straddles a boundary load while event
//! *k*'s handler runs. The peek reads the payload where the queue wrote
//! it, beside its instant's other events (most are due within the queue's
//! near window, written there once when they were sent). This cannot
//! change the order, or anything else: the peek reads without writing, a
//! prefetch is a cache hint that changes no value, and whatever event *k*
//! pushes before its successor — even one that becomes the new head — is
//! popped by the same key comparison as before.
//!
//! Meter sampling is an engine-level tick (not a queued event), driven by
//! the end-bounded [`Sampler`] of the [`SimConfig`] alone: ticks fire at
//! multiples of its interval, before any event at the same instant, and
//! one final "kill tick" past its end time retires the cadence (matching
//! the retired event-based scheduling, including its event count and
//! clock effect).

use crate::actor::{Actor, Context, Payload};
use crate::fault::FaultPlan;
use crate::meter::Meter;
use crate::network::LatencyModel;
use crate::node::NodeId;
use crate::state::{HotNode, NodeStore};
use obs::{
    tag_scope, CausalRecord, Counter, EventKind, FlowKind, Hist, HopSend, MemTag, Recorder,
    Sampler, SloEngine, TraceContext,
};
use rand::rngs::StdRng;
use simclock::{EventKey, KeyedQueue, SimSpan, SimTime};

/// Configuration of a simulated cluster.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master seed; every node derives an independent RNG stream from it.
    pub seed: u64,
    /// Link model shared by all node pairs.
    pub latency: LatencyModel,
    /// Ground-truth outage schedule.
    pub faults: FaultPlan,
    /// Observability sink. Disabled by default; when enabled the transport
    /// records message counters/latency histograms (and, in full-trace
    /// mode, send/recv/process spans plus fault-plan node up/down marks).
    pub obs: Recorder,
    /// Time-series sink and the one source of the sampling cadence.
    /// Disabled by default; an enabled sampler with an end time
    /// ([`Sampler::every_until`]) ticks at its interval, and each tick
    /// records `footprint_*{node=...}` series for the nodes it was given
    /// names for (only those — at 20K nodes a 1 Hz series for everyone
    /// would dwarf the experiment itself) and snapshots the recorder's
    /// metrics into its store. Without an end time no ticks are scheduled:
    /// an open-ended tick would keep the run alive forever.
    pub sampler: Sampler,
    /// Online SLO engine. Disabled by default; when enabled it evaluates
    /// its specs on every sampling tick (it needs the sampling cadence to
    /// run — configure an end-bounded sampler). It reads the recorder
    /// only and writes only its own state, so enabling it perturbs no
    /// outcome and no base export byte.
    pub slo: SloEngine,
}

impl SimConfig {
    /// A default config for `n` fault-free nodes.
    pub fn new(n: usize, seed: u64) -> Self {
        SimConfig {
            seed,
            latency: LatencyModel::default(),
            faults: FaultPlan::none(n),
            obs: Recorder::disabled(),
            sampler: Sampler::disabled(),
            slo: SloEngine::disabled(),
        }
    }
}

/// The sampling cadence, read once from the [`Sampler`] at build time.
struct Ticks {
    interval: SimSpan,
    /// No samples are taken after this time.
    until: SimTime,
    /// The nodes the sampler was given names for.
    tracked: Vec<NodeId>,
}

enum Ev<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
        /// Causal-trace envelope: `Some` only while a trace is current on
        /// the sender *and* the recorder keeps causal records. Riding the
        /// envelope (not the payload) keeps modelled wire sizes — and so
        /// every latency draw and event time — identical with tracing on.
        /// Boxed: it is `None` on every untraced event, and inline its 48
        /// bytes would push a queued event past one cache line.
        hop: Option<Box<HopSend>>,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    SocketClose {
        a: NodeId,
        b: NodeId,
    },
    /// Fault-plan marker so the trace shows outages at their virtual time.
    /// Only queued when the recorder is enabled, so un-observed runs see
    /// an identical event stream.
    Fault {
        node: NodeId,
        up: bool,
    },
}

/// What a handler mutates through its context: the event queue and
/// every node's engine state.
struct Core<M> {
    queue: KeyedQueue<Ev<M>>,
    nodes: NodeStore,
}

/// What dispatch borrows shared: the link model, the fault plan and the
/// recorder.
struct SimShared {
    latency: LatencyModel,
    faults: FaultPlan,
    obs: Recorder,
}

struct DesCtx<'a, M> {
    core: &'a mut Core<M>,
    shared: &'a SimShared,
    me: NodeId,
    now: SimTime,
    /// The causal context current for the running handler (set from the
    /// delivered envelope or by `trace_begin`/`trace_adopt`). Always
    /// `None` when the recorder keeps no causal records.
    cur_ctx: Option<TraceContext>,
}

impl<M: Payload> DesCtx<'_, M> {
    /// The send/receive record of `node`.
    fn hot(&mut self, node: NodeId) -> &mut HotNode {
        self.core.nodes.hot(node.index())
    }

    /// Apply one socket open/close to `node`'s meter.
    fn sock_op(&mut self, node: NodeId, open: bool) {
        if open {
            self.core.nodes.open_socket(node.index());
        } else {
            self.core.nodes.close_socket(node.index());
        }
    }

    /// Schedule an event at absolute time `at`, stamped with `me`'s lane
    /// and next sequence number.
    fn push_self(&mut self, at: SimTime, ev: Ev<M>) {
        let me = self.me;
        let seq = self.hot(me).take_seq();
        self.core.queue.push(EventKey::for_node(at, me.0, seq), ev);
    }
}

impl<M: Payload> Context<M> for DesCtx<'_, M> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn me(&self) -> NodeId {
        self.me
    }

    fn send(&mut self, to: NodeId, msg: M) {
        let shared = self.shared;
        let now = self.now;
        let me = self.me;
        let size = msg.size_bytes();
        let cur_ctx = self.cur_ctx;
        let (depart, arrive, seq) = {
            let hot = self.core.nodes.hot(me.index());
            let depart = hot.tx_free.max(now) + shared.latency.tx_gap(size);
            hot.tx_free = depart;
            let arrive = depart + shared.latency.latency(size, &mut hot.rng);
            hot.count_sent();
            (depart, arrive, hot.take_seq())
        };
        // Allocate the hop's child span while the sender's context is
        // current; the queue/link split falls out of the DES send math
        // (backlog + transmit gap until departure, wire latency after).
        let hop = cur_ctx.and_then(|ctx| {
            shared.obs.causal_child(ctx).map(|child| {
                Box::new(HopSend {
                    ctx: child,
                    parent: ctx.span,
                    send_us: now.as_micros(),
                    queue_us: depart.as_micros() - now.as_micros(),
                })
            })
        });
        if shared.obs.enabled() {
            let flight = arrive.as_micros() - now.as_micros();
            shared.obs.inc(Counter::MsgsSent);
            shared.obs.add(Counter::BytesSent, size as u64);
            shared.obs.observe(Hist::HopLatencyUs, flight);
            shared.obs.span(
                now.as_micros(),
                flight,
                me.0,
                EventKind::MsgSend,
                to.0 as u64,
                size as u64,
            );
        }
        self.core.queue.push(
            EventKey::for_node(arrive, me.0, seq),
            Ev::Deliver {
                from: me,
                to,
                msg,
                hop,
            },
        );
    }

    fn set_timer(&mut self, after: SimSpan, token: u64) {
        let at = self.now + after;
        let node = self.me;
        self.push_self(at, Ev::Timer { node, token });
    }

    fn charge_cpu(&mut self, span: SimSpan) {
        let me = self.me;
        self.hot(me).cpu_time += span;
    }

    fn alloc_virt(&mut self, delta: i64) {
        self.core.nodes.alloc_virt(self.me.index(), delta);
    }

    fn alloc_real(&mut self, delta: i64) {
        self.core.nodes.alloc_real(self.me.index(), delta);
    }

    fn open_socket(&mut self, peer: NodeId) {
        self.shared.obs.inc(Counter::SocketsOpened);
        let me = self.me;
        self.sock_op(me, true);
        self.sock_op(peer, true);
    }

    fn close_socket(&mut self, peer: NodeId) {
        self.shared.obs.inc(Counter::SocketsClosed);
        let me = self.me;
        self.sock_op(me, false);
        self.sock_op(peer, false);
    }

    fn open_socket_for(&mut self, peer: NodeId, dur: SimSpan) {
        self.open_socket(peer);
        let at = self.now + dur;
        let a = self.me;
        self.push_self(at, Ev::SocketClose { a, b: peer });
    }

    fn rng(&mut self) -> &mut StdRng {
        let me = self.me;
        &mut self.hot(me).rng
    }

    fn is_up(&self, node: NodeId) -> bool {
        self.shared.faults.is_up(node, self.now)
    }

    fn trace_begin(&mut self, flow: FlowKind) -> Option<TraceContext> {
        let ctx = self
            .shared
            .obs
            .causal_begin(flow, self.me.0, self.now.as_micros());
        if ctx.is_some() {
            self.cur_ctx = ctx;
        }
        ctx
    }

    fn trace_current(&self) -> Option<TraceContext> {
        self.cur_ctx
    }

    fn trace_adopt(&mut self, ctx: Option<TraceContext>) {
        if self.shared.obs.events_enabled() {
            self.cur_ctx = ctx;
        }
    }

    fn trace_backoff(&mut self, ctx: &TraceContext, start: SimTime) {
        self.shared
            .obs
            .causal_backoff(ctx, self.me.0, start.as_micros(), self.now.as_micros());
    }
}

/// Ask the CPU to start loading the cache lines that `*r` begins and ends
/// in (two lines when the record straddles a boundary). A hint only: it
/// reads and changes no value.
#[inline(always)]
fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let first = (r as *const T).cast::<i8>();
        let last = first.wrapping_add(std::mem::size_of::<T>().saturating_sub(1));
        // SAFETY: a prefetch never faults and dereferences nothing, and
        // both addresses lie within `*r`, a live reference. SSE is
        // baseline on x86-64, so the instruction exists on every target.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(first);
            _mm_prefetch::<_MM_HINT_T0>(last);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

/// Dispatch one event. Returns whether a message was dropped.
fn exec_event<M: Payload, A: Actor<M>>(
    now: SimTime,
    ev: Ev<M>,
    core: &mut Core<M>,
    actors: &mut [A],
    shared: &SimShared,
) -> bool {
    match ev {
        Ev::Deliver { from, to, msg, hop } => {
            if !shared.faults.is_up(to, now) {
                shared.obs.inc(Counter::MsgsDropped);
                shared
                    .obs
                    .event_at(now, to.0, EventKind::MsgDrop, from.0 as u64, 0);
                return true;
            }
            // The delivered context becomes current for the handler, so
            // any sends it makes chain as children of this hop.
            let mut ctx = DesCtx {
                core,
                shared,
                me: to,
                now,
                cur_ctx: hop.as_ref().map(|h| h.ctx),
            };
            ctx.hot(to).count_recv();
            let tracing = shared.obs.events_enabled();
            let (size, cpu_before) = if tracing {
                let s = msg.size_bytes() as u64;
                let c = ctx.hot(to).cpu_time.as_micros();
                shared
                    .obs
                    .event_at(now, to.0, EventKind::MsgRecv, from.0 as u64, s);
                (s, c)
            } else {
                (0, 0)
            };
            actors[to.index()].on_message(&mut ctx, from, msg);
            if tracing {
                let cpu = ctx.hot(to).cpu_time.as_micros() - cpu_before;
                shared.obs.observe(Hist::MsgProcessUs, cpu);
                shared.obs.span(
                    now.as_micros(),
                    cpu,
                    to.0,
                    EventKind::MsgProcess,
                    from.0 as u64,
                    size,
                );
                if let Some(h) = hop {
                    // Close the hop: queue/link were fixed at send time,
                    // processing is the CPU the handler just charged.
                    let recv_us = now.as_micros();
                    shared.obs.causal_record(CausalRecord::Hop {
                        trace: h.ctx.trace,
                        span: h.ctx.span,
                        parent: h.parent,
                        flow: h.ctx.flow,
                        depth: h.ctx.depth,
                        from: from.0,
                        to: to.0,
                        send_us: h.send_us,
                        queue_us: h.queue_us,
                        link_us: recv_us.saturating_sub(h.send_us + h.queue_us),
                        recv_us,
                        process_us: cpu,
                    });
                }
            }
            false
        }
        Ev::Timer { node, token } => {
            let mut ctx = DesCtx {
                core,
                shared,
                me: node,
                now,
                cur_ctx: None,
            };
            if !shared.faults.is_up(node, now) {
                // The daemon is down; its periodic work resumes when the
                // node reboots (state is preserved, as for a restarted
                // slurmd). Re-arm the timer for the reboot instant.
                if let Some(up) = shared.faults.next_up_after(node, now) {
                    ctx.push_self(up, Ev::Timer { node, token });
                }
                return false;
            }
            actors[node.index()].on_timer(&mut ctx, token);
            false
        }
        Ev::SocketClose { a, b } => {
            let mut ctx = DesCtx {
                core,
                shared,
                me: a,
                now,
                cur_ctx: None,
            };
            ctx.close_socket(b);
            false
        }
        Ev::Fault { node, up } => {
            if up {
                shared.obs.inc(Counter::NodeUps);
                shared.obs.event_at(now, node.0, EventKind::NodeUp, 0, 0);
            } else {
                shared.obs.inc(Counter::NodeDowns);
                shared.obs.event_at(now, node.0, EventKind::NodeDown, 0, 0);
            }
            false
        }
    }
}

/// A cluster of actors driven by the discrete-event engine.
///
/// ```
/// use emu::{Actor, Context, NodeId, SimCluster, SimConfig};
/// use simclock::SimTime;
///
/// struct Counter(u32);
/// impl Actor<u64> for Counter {
///     fn on_message(&mut self, ctx: &mut dyn Context<u64>, from: NodeId, msg: u64) {
///         self.0 += 1;
///         if msg > 0 {
///             ctx.send(from, msg - 1); // bounce it back, decremented
///         }
///     }
/// }
///
/// let mut cluster = SimCluster::new(vec![Counter(0), Counter(0)], SimConfig::new(2, 1));
/// cluster.inject(SimTime::ZERO, NodeId(0), NodeId(1), 4);
/// cluster.run_to_quiescence();
/// assert_eq!(cluster.actor(NodeId(1)).0 + cluster.actor(NodeId(0)).0, 5);
/// ```
pub struct SimCluster<M: Payload, A: Actor<M>> {
    /// `actors[node]`.
    actors: Vec<A>,
    core: Core<M>,
    shared: SimShared,
    sampler: Sampler,
    slo: SloEngine,
    /// The sampler's cadence; `None` when it is disabled or open-ended.
    ticks: Option<Ticks>,
    /// Next engine-level sampling tick; `None` once the cadence retired.
    sample_next: Option<SimTime>,
    started: bool,
    events_processed: u64,
    drops: u64,
    now: SimTime,
    /// Creation counter of the system lane (injections, fault markers).
    sys_seq: u64,
}

impl<M: Payload, A: Actor<M>> SimCluster<M, A> {
    /// Build a cluster where node `i` runs `actors[i]`.
    ///
    /// # Panics
    ///
    /// If there are more than `u32::MAX` actors: node ids are `u32`, and
    /// so are the event lanes (`id + 1`) that order their events.
    pub fn new(actors: Vec<A>, config: SimConfig) -> Self {
        let n = actors.len();
        assert!(
            n <= u32::MAX as usize,
            "{n} nodes exceed the u32 node-id space"
        );
        assert!(
            config.faults.cluster_size() == 0 || config.faults.cluster_size() >= n,
            "fault plan covers fewer nodes than the cluster"
        );
        let ticks =
            config
                .sampler
                .interval()
                .zip(config.sampler.until())
                .map(|(interval, until)| Ticks {
                    interval,
                    until,
                    tracked: config
                        .sampler
                        .named_nodes()
                        .into_iter()
                        .map(NodeId)
                        .collect(),
                });
        let sample_next = ticks.as_ref().map(|s| SimTime::ZERO + s.interval);
        // The queue and the node store are the engine's bytes, like what
        // it allocates while running (a no-op without `mem-profile`).
        let _mem_scope = tag_scope(MemTag::Des);
        let mut core = Core {
            queue: KeyedQueue::new(),
            nodes: NodeStore::new(config.seed, n),
        };

        let mut sys_seq = 0u64;
        if config.obs.enabled() {
            // Fault-plan markers ride the queue so node_down/node_up land
            // in the trace at their exact virtual time. Skipped entirely
            // when un-observed, keeping the event stream identical.
            for o in config.faults.outages() {
                for (at, up) in [(o.down_at, false), (o.up_at, true)] {
                    core.queue.push(
                        EventKey::system(at, sys_seq),
                        Ev::Fault { node: o.node, up },
                    );
                    sys_seq += 1;
                }
            }
        }

        SimCluster {
            actors,
            core,
            shared: SimShared {
                latency: config.latency,
                faults: config.faults,
                obs: config.obs,
            },
            sampler: config.sampler,
            slo: config.slo,
            ticks,
            sample_next,
            started: false,
            events_processed: 0,
            drops: 0,
            now: SimTime::ZERO,
            sys_seq,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// Whether the cluster has zero nodes.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Inject an external message (e.g. a user's job submission arriving at
    /// the master) at absolute time `at`, appearing to come from `from`.
    pub fn inject(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: M) {
        let at = at.max(self.now);
        let key = EventKey::system(at, self.sys_seq);
        self.sys_seq += 1;
        self.core.queue.push(
            key,
            Ev::Deliver {
                from,
                to,
                msg,
                hop: None,
            },
        );
    }

    /// Run until the queue is exhausted or `horizon` is reached, whichever
    /// comes first. Returns the number of events processed by this call.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        self.ensure_started();
        let n = self.run_loop(horizon);
        self.events_processed += n;
        n
    }

    /// Run until no events remain. Actors that re-arm timers forever never
    /// go quiescent — bound those runs with [`SimCluster::run_until`].
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_until(SimTime(u64::MAX))
    }

    /// A snapshot of the resource meter of `node`.
    pub fn meter(&self, node: NodeId) -> Meter {
        self.core.nodes.meter(node.index())
    }

    /// Immutable access to an actor (for extracting results after a run).
    pub fn actor(&self, node: NodeId) -> &A {
        &self.actors[node.index()]
    }

    /// Messages dropped because the destination was down at delivery time.
    pub fn dropped_messages(&self) -> u64 {
        self.drops
    }

    /// The online SLO engine this cluster evaluates on each sampling tick
    /// (disabled unless one was supplied via [`SimConfig`]).
    pub fn slo_engine(&self) -> &SloEngine {
        &self.slo
    }

    /// Total events processed so far (queue events plus sampling ticks).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for (i, actor) in self.actors.iter_mut().enumerate() {
            let mut ctx = DesCtx {
                core: &mut self.core,
                shared: &self.shared,
                me: NodeId(i as u32),
                now: SimTime::ZERO,
                cur_ctx: None,
            };
            actor.on_start(&mut ctx);
        }
    }

    /// Fire one engine-level sampling tick at `t`. A tick past `until`
    /// retires the cadence without sampling (the "kill tick"), but still
    /// counts as an event and advances the clock — exactly what the
    /// retired event-based scheduling did.
    fn fire_sample(&mut self, t: SimTime) {
        self.now = self.now.max(t);
        let Some(s) = self.ticks.as_ref().filter(|s| t <= s.until) else {
            self.sample_next = None;
            return;
        };
        for &node in &s.tracked {
            let sample = self.core.nodes.sample(node.index(), t);
            let id = node.0;
            self.sampler
                .record_node(t, id, "footprint_cpu_util", sample.cpu_util);
            self.sampler
                .record_node(t, id, "footprint_cpu_time_s", sample.cpu_time.as_secs_f64());
            self.sampler
                .record_node(t, id, "footprint_virt_bytes", sample.virt_mem as f64);
            self.sampler
                .record_node(t, id, "footprint_real_bytes", sample.real_mem as f64);
            self.sampler
                .record_node(t, id, "footprint_sockets", sample.sockets as f64);
        }
        self.sampler.snapshot(t, &self.shared.obs);
        // SLO evaluation rides the sampling cadence, after the snapshot so
        // hist/gauge signals see this tick's state.
        self.slo.evaluate(t, &self.shared.obs);
        self.sample_next = Some(t + s.interval);
    }

    /// Start loading what the head of the queue will touch first: its
    /// receiver's hot record and actor (see the module docs).
    #[inline]
    fn prefetch_next_receiver(&self) {
        let node = match self.core.queue.peek_event() {
            Some(Ev::Deliver { to, .. }) => *to,
            Some(Ev::Timer { node, .. }) => *node,
            _ => return,
        };
        prefetch(self.core.nodes.hot_ref(node.index()));
        prefetch(&self.actors[node.index()]);
    }

    /// The event loop: pop the least key and dispatch it inline. Returns
    /// the events it ran, sampling ticks included.
    fn run_loop(&mut self, horizon: SimTime) -> u64 {
        let mut events = 0u64;
        loop {
            let head = self.core.queue.peek_head();
            // Sampling ticks fire before any event at the same instant.
            if let Some(st) = self.sample_next {
                if st <= horizon && head.is_none_or(|t| st <= t) {
                    self.fire_sample(st);
                    events += 1;
                    continue;
                }
            }
            if head.is_none_or(|t| t > horizon) {
                break;
            }
            let (key, ev) = self.core.queue.pop().expect("peeked event vanished");
            self.prefetch_next_receiver();
            debug_assert!(key.time >= self.now, "event time went backwards");
            self.now = key.time;
            let dropped = {
                // Heap traffic inside event execution belongs to the `des`
                // tag (FSM dispatch narrows it further); a no-op without
                // `mem-profile`.
                let _mem_scope = tag_scope(MemTag::Des);
                exec_event(key.time, ev, &mut self.core, &mut self.actors, &self.shared)
            };
            events += 1;
            if dropped {
                self.drops += 1;
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, Outage};

    #[test]
    fn queued_entry_is_its_key_beside_the_event() {
        // `KeyedQueue` writes each event's key beside it, 24 bytes with
        // padding. A payload shaped like `rm::proto::RmMsg` — a 40-byte
        // enum, so its tag has spare values for `Ev`'s and `Option`'s —
        // must keep the entry at 80 bytes; an inline hop envelope would
        // not.
        #[allow(dead_code)]
        enum Wire {
            List {
                a: u64,
                b: u64,
                list: (usize, u32, u32),
                w: u16,
            },
            Ack {
                a: u64,
                n: u32,
            },
            Probe,
        }
        assert_eq!(std::mem::size_of::<Wire>(), 40);
        assert_eq!(std::mem::size_of::<Option<Ev<Wire>>>(), 56);
        assert_eq!(KeyedQueue::<Ev<Wire>>::ENTRY_BYTES, 80);
    }

    /// Ping-pong: node 0 sends `k`, receiver replies `k-1`, until zero.
    struct PingPong {
        peer: NodeId,
        initial: Option<u64>,
        received: Vec<u64>,
    }

    impl Actor<u64> for PingPong {
        fn on_start(&mut self, ctx: &mut dyn Context<u64>) {
            if let Some(k) = self.initial {
                ctx.send(self.peer, k);
            }
        }
        fn on_message(&mut self, ctx: &mut dyn Context<u64>, from: NodeId, msg: u64) {
            self.received.push(msg);
            ctx.charge_cpu(SimSpan::from_micros(5));
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
    }

    fn pingpong_cluster() -> SimCluster<u64, PingPong> {
        let actors = vec![
            PingPong {
                peer: NodeId(1),
                initial: Some(10),
                received: vec![],
            },
            PingPong {
                peer: NodeId(0),
                initial: None,
                received: vec![],
            },
        ];
        SimCluster::new(actors, SimConfig::new(2, 1))
    }

    #[test]
    fn ping_pong_runs_to_completion() {
        let mut c = pingpong_cluster();
        c.run_to_quiescence();
        assert_eq!(c.actor(NodeId(1)).received, vec![10, 8, 6, 4, 2, 0]);
        assert_eq!(c.actor(NodeId(0)).received, vec![9, 7, 5, 3, 1]);
        assert!(c.now() > SimTime::ZERO);
        // Each delivery charged 5 µs.
        assert_eq!(c.meter(NodeId(1)).cpu_time(), SimSpan::from_micros(30));
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = pingpong_cluster();
        let mut b = pingpong_cluster();
        a.run_to_quiescence();
        b.run_to_quiescence();
        assert_eq!(a.now(), b.now());
        assert_eq!(a.events_processed(), b.events_processed());
    }

    #[test]
    fn horizon_stops_execution() {
        let mut c = pingpong_cluster();
        c.run_until(SimTime(40));
        let total: usize = c.actor(NodeId(0)).received.len() + c.actor(NodeId(1)).received.len();
        assert!(total < 11, "horizon did not stop the run");
        // Continuing finishes the exchange.
        c.run_to_quiescence();
        let total: usize = c.actor(NodeId(0)).received.len() + c.actor(NodeId(1)).received.len();
        assert_eq!(total, 11);
    }

    #[test]
    fn messages_to_down_nodes_are_dropped() {
        let faults = FaultPlan::from_outages(
            2,
            vec![Outage {
                node: NodeId(1),
                down_at: SimTime::ZERO,
                up_at: SimTime::from_secs(1000),
            }],
        );
        let cfg = SimConfig {
            faults,
            ..SimConfig::new(2, 1)
        };
        let actors = vec![
            PingPong {
                peer: NodeId(1),
                initial: Some(3),
                received: vec![],
            },
            PingPong {
                peer: NodeId(0),
                initial: None,
                received: vec![],
            },
        ];
        let mut c = SimCluster::new(actors, cfg);
        c.run_to_quiescence();
        assert!(c.actor(NodeId(1)).received.is_empty());
        assert_eq!(c.dropped_messages(), 1);
    }

    /// An actor that re-arms a periodic timer and counts fires.
    struct Ticker {
        period: SimSpan,
        fires: u32,
    }
    impl Actor<u64> for Ticker {
        fn on_start(&mut self, ctx: &mut dyn Context<u64>) {
            ctx.set_timer(self.period, 0);
        }
        fn on_message(&mut self, _: &mut dyn Context<u64>, _: NodeId, _: u64) {}
        fn on_timer(&mut self, ctx: &mut dyn Context<u64>, _: u64) {
            self.fires += 1;
            ctx.set_timer(self.period, 0);
        }
    }

    #[test]
    fn periodic_timers_fire_until_horizon() {
        let actors = vec![Ticker {
            period: SimSpan::from_secs(10),
            fires: 0,
        }];
        let mut c = SimCluster::new(actors, SimConfig::new(1, 3));
        c.run_until(SimTime::from_secs(95));
        assert_eq!(c.actor(NodeId(0)).fires, 9);
    }

    #[test]
    fn timer_during_outage_resumes_at_reboot() {
        let faults = FaultPlan::from_outages(
            1,
            vec![Outage {
                node: NodeId(0),
                down_at: SimTime::from_secs(5),
                up_at: SimTime::from_secs(100),
            }],
        );
        let cfg = SimConfig {
            faults,
            ..SimConfig::new(1, 3)
        };
        let actors = vec![Ticker {
            period: SimSpan::from_secs(10),
            fires: 0,
        }];
        let mut c = SimCluster::new(actors, cfg);
        c.run_until(SimTime::from_secs(125));
        // First fire would land at t=10s (node down) -> deferred to t=100s,
        // then fires at 100, 110, 120.
        assert_eq!(c.actor(NodeId(0)).fires, 3);
    }

    /// The `family{node=<name>}` points the sampler holds for a node.
    fn footprint(sampler: &Sampler, family: &'static str, node: &str) -> Vec<obs::SeriesPoint> {
        let id = obs::MetricId::new(family).with("node", node);
        sampler.store().get(&id).unwrap_or_default().to_vec()
    }

    #[test]
    fn sampling_records_tracked_series() {
        let mut cfg = SimConfig::new(2, 5);
        let sampler = Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(5));
        sampler.name_node(0, "tracked");
        cfg.sampler = sampler.clone();
        let actors = vec![
            Ticker {
                period: SimSpan::from_secs(1),
                fires: 0,
            },
            Ticker {
                period: SimSpan::from_secs(1),
                fires: 0,
            },
        ];
        let mut c = SimCluster::new(actors, cfg);
        c.run_until(SimTime::from_secs(10));
        let cpu = footprint(&sampler, "footprint_cpu_time_s", "tracked");
        assert_eq!(cpu.len(), 5);
        assert_eq!(cpu[4].t_us, 5_000_000);
        // Only named nodes are tracked.
        assert_eq!(sampler.store().len(), 5, "one series per footprint family");
        assert!(footprint(&sampler, "footprint_cpu_time_s", "node1").is_empty());
    }

    #[test]
    fn sampler_rides_the_sampling_cadence() {
        let mut cfg = SimConfig::new(2, 5);
        let sampler = Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(5));
        sampler.name_node(0, "master");
        cfg.sampler = sampler.clone();
        cfg.obs = Recorder::metrics_only();
        let actors = vec![
            Ticker {
                period: SimSpan::from_secs(1),
                fires: 0,
            },
            Ticker {
                period: SimSpan::from_secs(1),
                fires: 0,
            },
        ];
        let mut c = SimCluster::new(actors, cfg);
        c.run_until(SimTime::from_secs(10));
        let store = sampler.store();
        let pts = store
            .get(&obs::MetricId::new("footprint_sockets").with("node", "master"))
            .expect("footprint series for the named node");
        assert_eq!(pts.len(), 5);
        assert!(
            store.get(&obs::MetricId::new("msgs_sent")).is_some(),
            "recorder snapshot series missing"
        );
    }

    #[test]
    fn ephemeral_sockets_autoclose() {
        struct Opener;
        impl Actor<u64> for Opener {
            fn on_start(&mut self, ctx: &mut dyn Context<u64>) {
                if ctx.me() == NodeId(0) {
                    ctx.open_socket_for(NodeId(1), SimSpan::from_secs(2));
                }
            }
            fn on_message(&mut self, _: &mut dyn Context<u64>, _: NodeId, _: u64) {}
        }
        let mut c = SimCluster::new(vec![Opener, Opener], SimConfig::new(2, 1));
        c.run_until(SimTime::from_secs(1));
        assert_eq!(c.meter(NodeId(0)).sockets(), 1);
        assert_eq!(c.meter(NodeId(1)).sockets(), 1);
        c.run_until(SimTime::from_secs(3));
        assert_eq!(c.meter(NodeId(0)).sockets(), 0);
        assert_eq!(c.meter(NodeId(0)).peak_sockets(), 1);
    }

    /// A chatty mesh: every node runs a periodic timer, messages a few
    /// peers, charges CPU, opens ephemeral sockets, and some nodes fail —
    /// exercising every event kind.
    struct Mesh {
        n: u32,
        received: u64,
        sent: u64,
    }
    impl Actor<u64> for Mesh {
        fn on_start(&mut self, ctx: &mut dyn Context<u64>) {
            let me = ctx.me().0 as u64;
            ctx.set_timer(SimSpan::from_millis(50 + (me % 7) * 13), me);
            ctx.alloc_virt(1_000_000 + me as i64);
            ctx.alloc_real(100_000);
        }
        fn on_message(&mut self, ctx: &mut dyn Context<u64>, from: NodeId, msg: u64) {
            self.received += 1;
            ctx.charge_cpu(SimSpan::from_micros(7));
            if msg.is_multiple_of(5) {
                ctx.open_socket_for(from, SimSpan::from_millis(3));
            }
            if msg > 0 && !msg.is_multiple_of(3) {
                ctx.send(from, msg / 2);
                self.sent += 1;
            }
        }
        fn on_timer(&mut self, ctx: &mut dyn Context<u64>, token: u64) {
            let me = ctx.me().0;
            let peer = NodeId((me + 3) % self.n);
            let peer2 = NodeId((me * 7 + 1) % self.n);
            ctx.send(peer, token + 20);
            ctx.send(peer2, token + 11);
            self.sent += 2;
            ctx.charge_cpu(SimSpan::from_micros(3));
            if ctx.now() < SimTime::from_secs(3) {
                ctx.set_timer(SimSpan::from_millis(100 + (me as u64 % 5) * 17), token);
            }
        }
    }

    fn mesh_cluster(n: usize, seed: u64) -> SimCluster<u64, Mesh> {
        let faults = FaultPlan::from_outages(
            n,
            vec![
                Outage {
                    node: NodeId(2),
                    down_at: SimTime::from_millis(400),
                    up_at: SimTime::from_millis(1900),
                },
                Outage {
                    node: NodeId((n - 1) as u32),
                    down_at: SimTime::from_millis(1200),
                    up_at: SimTime::from_millis(2500),
                },
            ],
        );
        let cfg = SimConfig {
            faults,
            ..SimConfig::new(n, seed)
        };
        let actors = (0..n)
            .map(|_| Mesh {
                n: n as u32,
                received: 0,
                sent: 0,
            })
            .collect();
        SimCluster::new(actors, cfg)
    }

    /// Events that tie on `(time, lane)`: system-lane injections for one
    /// instant, to receivers in an order unrelated to their injection
    /// order. Only `seq`, which the queue reads from the entry on a tie,
    /// puts them in injection order.
    #[test]
    fn time_lane_ties_run_in_seq_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Log(Rc<RefCell<Vec<u64>>>);
        impl Actor<u64> for Log {
            fn on_message(&mut self, _: &mut dyn Context<u64>, _: NodeId, msg: u64) {
                self.0.borrow_mut().push(msg);
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let actors = (0..4).map(|_| Log(log.clone())).collect();
        let mut c = SimCluster::new(actors, SimConfig::new(4, 1));
        let at = SimTime::from_millis(5);
        for (msg, to) in [(0u64, 3u32), (1, 0), (2, 1), (3, 2)] {
            c.inject(at, NodeId(0), NodeId(to), msg);
        }
        c.run_to_quiescence();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
    }

    /// The send metrics reach the recorder at the send: a handler that
    /// reads them right after sending sees its own sends.
    #[test]
    fn a_handler_sees_its_own_sends() {
        const K: u64 = 5;
        struct Sender {
            rec: Recorder,
            /// `(msgs, bytes, hop observations)` read right after sending.
            seen: Option<(u64, u64, u64)>,
        }
        impl Actor<u64> for Sender {
            fn on_start(&mut self, ctx: &mut dyn Context<u64>) {
                if ctx.me() != NodeId(0) {
                    return;
                }
                for i in 0..K {
                    ctx.send(NodeId(1), i);
                }
                self.seen = Some((
                    self.rec.counter(Counter::MsgsSent),
                    self.rec.counter(Counter::BytesSent),
                    self.rec.hist(Hist::HopLatencyUs).count,
                ));
            }
            fn on_message(&mut self, _: &mut dyn Context<u64>, _: NodeId, _: u64) {}
        }
        let rec = Recorder::metrics_only();
        let cfg = SimConfig {
            obs: rec.clone(),
            ..SimConfig::new(2, 3)
        };
        let actors = (0..2)
            .map(|_| Sender {
                rec: rec.clone(),
                seen: None,
            })
            .collect();
        let mut c = SimCluster::new(actors, cfg);
        c.run_to_quiescence();
        let bytes = K * u64::from(0u64.size_bytes());
        assert_eq!(c.actor(NodeId(0)).seen, Some((K, bytes, K)));
    }

    /// Ticks interleave with a chatty mesh's events, and the tracked
    /// series see the CPU its handlers charge.
    #[test]
    fn sampled_series_see_charged_cpu() {
        let sampler = Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(3));
        for node in [0, 5, 9] {
            sampler.name_node(node, &format!("n{node}"));
        }
        let cfg = SimConfig {
            sampler: sampler.clone(),
            ..SimConfig::new(10, 9)
        };
        let actors = (0..10)
            .map(|_| Mesh {
                n: 10,
                received: 0,
                sent: 0,
            })
            .collect();
        SimCluster::new(actors, cfg).run_until(SimTime::from_secs(5));
        for node in ["n0", "n5", "n9"] {
            let cpu = footprint(&sampler, "footprint_cpu_time_s", node);
            assert_eq!(cpu.len(), 3);
            assert!(cpu[2].value > 0.0, "{node} charged no CPU");
        }
    }

    /// Resuming a horizon-bounded run in more horizons yields the same
    /// final state as one long run.
    #[test]
    fn run_in_phases_matches_one_run() {
        let mut whole = mesh_cluster(12, 7);
        whole.run_until(SimTime::from_secs(4));
        let mut phased = mesh_cluster(12, 7);
        phased.run_until(SimTime::from_millis(700));
        phased.run_until(SimTime::from_millis(1900));
        phased.run_until(SimTime::from_secs(4));
        assert_eq!(phased.now(), whole.now());
        assert_eq!(phased.events_processed(), whole.events_processed());
        assert_eq!(phased.dropped_messages(), whole.dropped_messages());
        for i in 0..12 {
            let node = NodeId(i as u32);
            assert_eq!(whole.meter(node).cpu_time(), phased.meter(node).cpu_time());
            assert_eq!(
                whole.meter(node).peak_sockets(),
                phased.meter(node).peak_sockets()
            );
            assert_eq!(whole.actor(node).received, phased.actor(node).received);
        }
    }
}
