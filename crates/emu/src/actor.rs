//! The actor programming model.
//!
//! Every daemon in the reproduction (master, satellite, slave — and the
//! centralized baselines) is written once as an [`Actor`] against the
//! [`Context`] trait and runs on the deterministic discrete-event engine
//! ([`crate::sim::SimCluster`]), from unit-test clusters of a handful of
//! nodes up to the 4K–1M-node experiments.

use crate::node::NodeId;
use obs::{FlowKind, TraceContext};
use rand::rngs::StdRng;
use simclock::{SimSpan, SimTime};

/// A message payload that can travel between nodes.
pub trait Payload: Clone + Send + std::fmt::Debug + 'static {
    /// Modelled wire size in bytes (drives latency and transmit gaps).
    fn size_bytes(&self) -> u32 {
        64
    }
}

/// The environment an actor runs in: time, identity, messaging, timers,
/// and resource accounting.
pub trait Context<M: Payload> {
    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// The id of the node this actor runs on.
    fn me(&self) -> NodeId;

    /// Send `msg` to `to`. Delivery is asynchronous; if the destination is
    /// down at delivery time, the message is silently dropped (protocols
    /// discover failures through timeouts, as over TCP).
    fn send(&mut self, to: NodeId, msg: M);

    /// Arm a one-shot timer that fires `after` from now, delivering `token`
    /// to [`Actor::on_timer`]. Tokens are actor-defined; stale timers are
    /// usually ignored via generation counters in the actor state.
    fn set_timer(&mut self, after: SimSpan, token: u64);

    /// Charge CPU time to this node's daemon meter.
    fn charge_cpu(&mut self, span: SimSpan);

    /// Adjust this node's virtual memory by `delta` bytes.
    fn alloc_virt(&mut self, delta: i64);

    /// Adjust this node's resident memory by `delta` bytes.
    fn alloc_real(&mut self, delta: i64);

    /// Record a connection opened between this node and `peer` (both ends'
    /// socket counts increase).
    fn open_socket(&mut self, peer: NodeId);

    /// Record a connection to `peer` being closed.
    fn close_socket(&mut self, peer: NodeId);

    /// Open a connection to `peer` that the transport closes automatically
    /// after `dur` (models ephemeral request/response connections).
    fn open_socket_for(&mut self, peer: NodeId, dur: SimSpan);

    /// This node's deterministic RNG stream.
    fn rng(&mut self) -> &mut StdRng;

    /// Ground-truth liveness of `node`. Only monitoring code may consult
    /// this (it stands in for the hardware diagnostic network);
    /// RM protocol logic must rely on timeouts instead.
    fn is_up(&self, node: NodeId) -> bool;

    /// Start a causal trace of `flow` rooted here and make it current:
    /// every `send` until the end of this handler (or until
    /// [`Context::trace_adopt`]) carries a child context of it. Returns
    /// `None` — and records nothing — unless the transport's recorder has
    /// causal tracing on, so un-traced runs stay bit-identical.
    fn trace_begin(&mut self, flow: FlowKind) -> Option<TraceContext> {
        let _ = flow;
        None
    }

    /// The trace context current for this handler, if any: the context the
    /// delivered message carried, or the one a `trace_begin`/`trace_adopt`
    /// installed. Actors stash this in their state to resume the trace
    /// from a later timer handler.
    fn trace_current(&self) -> Option<TraceContext> {
        None
    }

    /// Make `ctx` current (or clear it with `None`): subsequent sends link
    /// as children of `ctx.span`. Used by timer handlers continuing a flow
    /// whose context was stashed when the state was created.
    fn trace_adopt(&mut self, ctx: Option<TraceContext>) {
        let _ = ctx;
    }

    /// Record that the current flow sat waiting on a timeout/retry from
    /// `start` until now under `ctx`'s span — the critical path relabels
    /// the gap as backoff instead of unexplained idle time.
    fn trace_backoff(&mut self, ctx: &TraceContext, start: SimTime) {
        let _ = (ctx, start);
    }
}

/// A state machine running on one emulated node. The engine is
/// single-threaded, so an actor need not be `Send`: the daemons of one
/// deployment may share state through an `Rc`.
#[allow(unused_variables)]
pub trait Actor<M: Payload> {
    /// Called once at simulation start (time zero), before any messages.
    fn on_start(&mut self, ctx: &mut dyn Context<M>) {}

    /// Called when a message from `from` is delivered.
    fn on_message(&mut self, ctx: &mut dyn Context<M>, from: NodeId, msg: M);

    /// Called when a timer armed with [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut dyn Context<M>, token: u64) {}
}

impl Payload for () {}

impl Payload for u64 {
    fn size_bytes(&self) -> u32 {
        8
    }
}

impl Payload for String {
    fn size_bytes(&self) -> u32 {
        self.len() as u32
    }
}
