//! The per-node service daemon (`slurmd` analogue), shared by every RM in
//! the reproduction: it answers liveness traffic, spawns/kills job
//! processes, and relays job-control broadcasts down the grouping tree
//! with aggregated acknowledgements and a partial-ack timeout for failed
//! children.

use crate::proto::{CtlKind, NodeSlice, RmMsg};
use emu::{Actor, Context, NodeId};
use obs::{Counter, Recorder, TraceContext};
use rand::RngExt;
use simclock::{SimSpan, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use topology::{balanced_chunks, relay_depth};

/// Heartbeat behaviour of a slave.
#[derive(Clone, Copy, Debug)]
pub enum SlaveHeartbeat {
    /// No periodic reporting (the master polls instead).
    None,
    /// Push a heartbeat to the master every `interval`. `synchronized`
    /// slaves fire at wall-clock multiples of the interval.
    Push {
        /// Report period.
        interval: SimSpan,
        /// Epoch-aligned vs. random phase.
        synchronized: bool,
    },
}

/// Relay bookkeeping for one in-flight broadcast through this node.
struct Relay {
    origin: NodeId,
    job: u64,
    kind: CtlKind,
    expected: u32,
    received: u32,
    /// Nodes covered so far (self + acknowledged subtrees).
    count: u32,
    /// When the relay fanned out (start of the ack-timeout window) and the
    /// causal context the incoming `JobCtl` carried, so a timeout-driven
    /// partial ack still links into the broadcast's trace. Boxed and
    /// `None` unless causal tracing is on: every relay of an untraced run
    /// pays one pointer for it instead of 32 bytes.
    traced: Option<Box<(SimTime, TraceContext)>>,
}

/// Configuration of a slave daemon.
#[derive(Clone, Debug)]
pub struct SlaveConfig {
    /// Where heartbeats and poll replies go.
    pub master: NodeId,
    /// Heartbeat behaviour.
    pub heartbeat: SlaveHeartbeat,
    /// CPU cost of spawning job processes on this node.
    pub launch_cpu: SimSpan,
    /// CPU cost of killing processes / reclaiming resources.
    pub term_cpu: SimSpan,
    /// Per-relay-level wait for children's acks before reporting a
    /// partial count upward. A node holding a depth-`d` sub-list waits
    /// `d × ack_timeout`, so descendants always resolve before ancestors.
    pub ack_timeout: SimSpan,
    /// Lifetime of the ephemeral heartbeat connection.
    pub conn_lifetime: SimSpan,
    /// Telemetry sink (disabled by default).
    pub obs: Recorder,
}

impl Default for SlaveConfig {
    fn default() -> Self {
        SlaveConfig {
            master: NodeId::MASTER,
            heartbeat: SlaveHeartbeat::Push {
                interval: SimSpan::from_secs(30),
                synchronized: true,
            },
            launch_cpu: SimSpan::from_millis(2),
            term_cpu: SimSpan::from_millis(1),
            ack_timeout: SimSpan::from_secs(6),
            conn_lifetime: SimSpan::from_millis(500),
            obs: Recorder::disabled(),
        }
    }
}

const TOKEN_HEARTBEAT: u64 = 0;
const TOKEN_RELAY_BASE: u32 = 1;

/// End of an arena list.
const NIL: u32 = u32::MAX;

/// One slot of a [`RelayArena`]: a live relay linked into its node's list,
/// or a free slot linked into the free list.
struct Slot {
    /// The next slot of the same list (`NIL` ends it).
    next: u32,
    /// The relay's ack-timer token, unique among its node's relays.
    token: u32,
    /// `None` while the slot is free.
    relay: Option<Relay>,
}

/// The relay bookkeeping of every slave of one deployment. Each daemon
/// holds the head of its own list of live relays, oldest (lowest token)
/// first — the order an ack searches in. A closed relay's slot goes on the
/// free list and the next relay anywhere in the deployment reuses it, so
/// the arena grows only to the peak number of relays open at once, and a
/// node that is not relaying holds nothing.
struct RelayArena {
    slots: Vec<Slot>,
    /// Head of the free list.
    free: u32,
}

impl RelayArena {
    fn new() -> Self {
        RelayArena {
            slots: Vec::new(),
            free: NIL,
        }
    }

    /// Append `relay` to the list at `head`.
    fn push(&mut self, head: &mut u32, token: u32, relay: Relay) {
        let slot = Slot {
            next: NIL,
            token,
            relay: Some(relay),
        };
        let at = if self.free != NIL {
            let at = self.free;
            self.free = self.slots[at as usize].next;
            self.slots[at as usize] = slot;
            at
        } else {
            let at = u32::try_from(self.slots.len())
                .ok()
                .filter(|&at| at != NIL)
                .expect("relay arena exhausted the u32 slot space");
            self.slots.push(slot);
            at
        };
        if *head == NIL {
            *head = at;
        } else {
            let mut tail = *head;
            while self.slots[tail as usize].next != NIL {
                tail = self.slots[tail as usize].next;
            }
            self.slots[tail as usize].next = at;
        }
    }

    /// The first slot of the list at `head` that `hit` accepts, with the
    /// slot before it (`NIL` when it is the head).
    fn find(&self, head: u32, hit: impl Fn(&Slot) -> bool) -> Option<(u32, u32)> {
        let (mut prev, mut at) = (NIL, head);
        while at != NIL {
            let slot = &self.slots[at as usize];
            if hit(slot) {
                return Some((prev, at));
            }
            (prev, at) = (at, slot.next);
        }
        None
    }

    /// Unlink slot `at` (found after `prev`) from the list at `head`, free
    /// it, and return its relay.
    fn unlink(&mut self, head: &mut u32, prev: u32, at: u32) -> Relay {
        let slot = &mut self.slots[at as usize];
        let next = std::mem::replace(&mut slot.next, self.free);
        let relay = slot.relay.take().expect("a linked slot holds a relay");
        self.free = at;
        if prev == NIL {
            *head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        relay
    }
}

/// What the slaves of one deployment share: their configuration and the
/// arena their relay bookkeeping lives in. A builder makes one and hands
/// each daemon a clone (a reference-count bump). The engine runs on one
/// thread, so the arena sits in a `RefCell`; no borrow of it is held
/// across a `Context` call.
#[derive(Clone)]
pub struct SlaveGroup(Rc<GroupState>);

struct GroupState {
    cfg: SlaveConfig,
    relays: RefCell<RelayArena>,
}

/// A group of slaves configured by `cfg`, with an empty relay arena. A
/// daemon built from a bare config gets a group, and an arena, of its own.
impl From<SlaveConfig> for SlaveGroup {
    fn from(cfg: SlaveConfig) -> Self {
        SlaveGroup(Rc::new(GroupState {
            cfg,
            relays: RefCell::new(RelayArena::new()),
        }))
    }
}

/// The slave daemon actor.
pub struct SlaveDaemon {
    /// Shared by every slave of a deployment: one daemon per emulated
    /// node, so a private copy of the config or of relay room would cost
    /// each of them.
    group: SlaveGroup,
    /// Launch/terminate messages this node has executed (for assertions).
    pub ctl_handled: u64,
    /// Head of this node's list of live relays in the group's arena.
    relays: u32,
    /// The token of the next relay's ack timer. Tokens only grow, so list
    /// order is token order; running out of them panics rather than wrap
    /// onto a timer that may still be pending.
    next_token: u32,
}

impl SlaveDaemon {
    /// A daemon in `group`. A deployment builder passes one clone of its
    /// [`SlaveGroup`] per slave; a bare [`SlaveConfig`] gets a group of
    /// its own.
    pub fn new(group: impl Into<SlaveGroup>) -> Self {
        SlaveDaemon {
            group: group.into(),
            ctl_handled: 0,
            relays: NIL,
            next_token: TOKEN_RELAY_BASE,
        }
    }

    /// Slots in the relay arena this daemon's deployment shares: the peak
    /// number of relays its slaves have held open at once.
    pub fn relay_slots(&self) -> usize {
        self.group.0.relays.borrow().slots.len()
    }

    fn cfg(&self) -> &SlaveConfig {
        &self.group.0.cfg
    }

    fn handle_ctl(
        &mut self,
        ctx: &mut dyn Context<RmMsg>,
        from: NodeId,
        job: u64,
        kind: CtlKind,
        list: NodeSlice,
        width: u16,
    ) {
        // Execute locally (spawn or kill the job step).
        self.ctl_handled += 1;
        self.cfg().obs.inc(Counter::CtlExecuted);
        ctx.charge_cpu(match kind {
            CtlKind::Launch => self.cfg().launch_cpu,
            CtlKind::Terminate => self.cfg().term_cpu,
            CtlKind::Ping => SimSpan::from_micros(30),
        });
        if list.is_empty() {
            ctx.send(
                from,
                RmMsg::CtlAck {
                    job,
                    kind,
                    count: 1,
                },
            );
            return;
        }
        // Relay: chunk the remaining list, hand each chunk to its head.
        let w = (width as usize).max(2);
        let k = if list.len() < w { list.len() } else { w };
        let chunks = balanced_chunks(list.len(), k);
        let expected = chunks.len() as u32;
        for (lo, len) in chunks {
            let head = list.nodes()[lo];
            let rest = list.slice(lo + 1, lo + len);
            ctx.send(
                NodeId(head),
                RmMsg::JobCtl {
                    job,
                    kind,
                    list: rest,
                    width,
                },
            );
        }
        let token = self.next_token;
        self.next_token = token
            .checked_add(1)
            .expect("a slave exhausted its u32 relay tokens");
        let relay = Relay {
            origin: from,
            job,
            kind,
            expected,
            received: 0,
            count: 1,
            traced: ctx.trace_current().map(|tc| Box::new((ctx.now(), tc))),
        };
        self.group
            .0
            .relays
            .borrow_mut()
            .push(&mut self.relays, token, relay);
        let depth = relay_depth(list.len(), w) as u64;
        ctx.set_timer(self.cfg().ack_timeout * depth.max(1), token.into());
    }

    /// Attribute an ack to the oldest live relay of `(job, kind)`, and
    /// return that relay once every child has answered. A stale ack,
    /// after its relay timed out, matches nothing.
    fn take_ack(&mut self, job: u64, kind: CtlKind, count: u32) -> Option<Relay> {
        let mut arena = self.group.0.relays.borrow_mut();
        let hit = |s: &Slot| {
            s.relay
                .as_ref()
                .is_some_and(|r| r.job == job && r.kind == kind)
        };
        let (prev, at) = arena.find(self.relays, hit)?;
        let relay = arena.slots[at as usize].relay.as_mut()?;
        relay.received += 1;
        relay.count += count;
        (relay.received >= relay.expected).then(|| arena.unlink(&mut self.relays, prev, at))
    }

    /// Unlink and return the live relay whose ack timer is `token`; `None`
    /// for the timer of a relay that already closed.
    fn take_timed_out(&mut self, token: u64) -> Option<Relay> {
        let token = u32::try_from(token).ok()?;
        let mut arena = self.group.0.relays.borrow_mut();
        let (prev, at) = arena.find(self.relays, |s| s.token == token)?;
        Some(arena.unlink(&mut self.relays, prev, at))
    }

    fn finish_relay(ctx: &mut dyn Context<RmMsg>, relay: &Relay) {
        ctx.send(
            relay.origin,
            RmMsg::CtlAck {
                job: relay.job,
                kind: relay.kind,
                count: relay.count,
            },
        );
    }

    fn arm_heartbeat(&self, ctx: &mut dyn Context<RmMsg>) {
        if let SlaveHeartbeat::Push {
            interval,
            synchronized,
        } = self.cfg().heartbeat
        {
            let delay = if synchronized {
                // Fire at the next wall-clock multiple of the interval,
                // plus sub-millisecond skew so ties stay deterministic but
                // the burst is still a burst.
                let period = interval.as_micros();
                let next = (ctx.now().as_micros() / period + 1) * period;
                let skew = ctx.rng().random_range(0..1000);
                SimSpan(next - ctx.now().as_micros() + skew)
            } else {
                interval.mul_f64(0.5 + ctx.rng().random::<f64>())
            };
            ctx.set_timer(delay, TOKEN_HEARTBEAT);
        }
    }
}

impl Actor<RmMsg> for SlaveDaemon {
    fn on_start(&mut self, ctx: &mut dyn Context<RmMsg>) {
        self.arm_heartbeat(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Context<RmMsg>, from: NodeId, msg: RmMsg) {
        match msg {
            RmMsg::Poll => {
                ctx.charge_cpu(SimSpan::from_micros(30));
                ctx.send(from, RmMsg::PollReply { load: 0 });
            }
            RmMsg::HeartbeatAck => {}
            RmMsg::JobCtl {
                job,
                kind,
                list,
                width,
            } => {
                self.handle_ctl(ctx, from, job, kind, list, width);
            }
            RmMsg::CtlAck { job, kind, count } => {
                if let Some(relay) = self.take_ack(job, kind, count) {
                    Self::finish_relay(ctx, &relay);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Context<RmMsg>, token: u64) {
        if token == TOKEN_HEARTBEAT {
            ctx.charge_cpu(SimSpan::from_micros(20));
            let me = ctx.me().0;
            let master = self.cfg().master;
            ctx.open_socket_for(master, self.cfg().conn_lifetime);
            ctx.send(master, RmMsg::Heartbeat { node: me });
            self.arm_heartbeat(ctx);
        } else if let Some(relay) = self.take_timed_out(token) {
            // Children that didn't answer in time are reported as missing:
            // the upward ack carries a partial count, and nothing re-routes
            // around the silent child, so the healthy nodes stranded below
            // it never get this broadcast. The wait on the silent subtree
            // is timeout backoff in the trace.
            if let Some(traced) = &relay.traced {
                let (started, tc) = **traced;
                ctx.trace_backoff(&tc, started);
                ctx.trace_adopt(Some(tc));
            }
            Self::finish_relay(ctx, &relay);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu::{SimCluster, SimConfig};

    /// A harness master that records acks.
    struct Sink {
        acks: Vec<(u64, CtlKind, u32)>,
    }
    impl Actor<RmMsg> for Sink {
        fn on_message(&mut self, _: &mut dyn Context<RmMsg>, _: NodeId, msg: RmMsg) {
            if let RmMsg::CtlAck { job, kind, count } = msg {
                self.acks.push((job, kind, count));
            }
        }
    }

    enum Node {
        Sink(Sink),
        Slave(SlaveDaemon),
    }
    impl Actor<RmMsg> for Node {
        fn on_start(&mut self, ctx: &mut dyn Context<RmMsg>) {
            if let Node::Slave(s) = self {
                s.on_start(ctx);
            }
        }
        fn on_message(&mut self, ctx: &mut dyn Context<RmMsg>, from: NodeId, msg: RmMsg) {
            match self {
                Node::Sink(s) => s.on_message(ctx, from, msg),
                Node::Slave(s) => s.on_message(ctx, from, msg),
            }
        }
        fn on_timer(&mut self, ctx: &mut dyn Context<RmMsg>, token: u64) {
            match self {
                Node::Sink(_) => {}
                Node::Slave(s) => s.on_timer(ctx, token),
            }
        }
    }

    fn quiet_slave() -> SlaveDaemon {
        SlaveDaemon::new(SlaveConfig {
            heartbeat: SlaveHeartbeat::None,
            ..Default::default()
        })
    }

    /// A sink and `n - 1` quiet slaves sharing one group, as a deployment
    /// builds them.
    fn cluster(n: usize) -> SimCluster<RmMsg, Node> {
        let group = SlaveGroup::from(SlaveConfig {
            heartbeat: SlaveHeartbeat::None,
            ..Default::default()
        });
        let mut actors = vec![Node::Sink(Sink { acks: Vec::new() })];
        for _ in 1..n {
            actors.push(Node::Slave(SlaveDaemon::new(group.clone())));
        }
        SimCluster::new(actors, SimConfig::new(n, 42))
    }

    fn slave(c: &SimCluster<RmMsg, Node>, node: u32) -> &SlaveDaemon {
        let Node::Slave(s) = c.actor(NodeId(node)) else {
            panic!("node {node} is not a slave")
        };
        s
    }

    /// Relays live at `node`, counted along its arena list.
    fn live_relays(c: &SimCluster<RmMsg, Node>, node: u32) -> usize {
        let s = slave(c, node);
        let arena = s.group.0.relays.borrow();
        let mut at = s.relays;
        let mut n = 0;
        while at != NIL {
            n += 1;
            at = arena.slots[at as usize].next;
        }
        n
    }

    #[test]
    fn tree_relay_reaches_all_and_aggregates() {
        let n = 200;
        let mut c = cluster(n + 1);
        let list: Vec<u32> = (1..=n as u32).collect();
        let head = list[0];
        let rest = NodeSlice::new(list).slice(1, n);
        c.inject(
            simclock::SimTime::from_millis(1),
            NodeId::MASTER,
            NodeId(head),
            RmMsg::JobCtl {
                job: 7,
                kind: CtlKind::Launch,
                list: rest,
                width: 4,
            },
        );
        c.run_to_quiescence();
        let Node::Sink(sink) = c.actor(NodeId::MASTER) else {
            panic!()
        };
        assert_eq!(sink.acks, vec![(7, CtlKind::Launch, n as u32)]);
        // Every slave executed the launch exactly once.
        for i in 1..=n as u32 {
            let Node::Slave(s) = c.actor(NodeId(i)) else {
                panic!()
            };
            assert_eq!(s.ctl_handled, 1, "node {i}");
        }
    }

    #[test]
    fn empty_list_acks_immediately() {
        let mut c = cluster(2);
        c.inject(
            simclock::SimTime::from_millis(1),
            NodeId::MASTER,
            NodeId(1),
            RmMsg::JobCtl {
                job: 1,
                kind: CtlKind::Terminate,
                list: NodeSlice::empty(),
                width: 4,
            },
        );
        c.run_to_quiescence();
        let Node::Sink(sink) = c.actor(NodeId::MASTER) else {
            panic!()
        };
        assert_eq!(sink.acks, vec![(1, CtlKind::Terminate, 1)]);
    }

    #[test]
    fn failed_subtree_yields_partial_ack_after_timeout() {
        let n = 20;
        let mut actors = vec![Node::Sink(Sink { acks: Vec::new() })];
        for _ in 1..=n {
            actors.push(Node::Slave(quiet_slave()));
        }
        // Node 5 is down for the whole run.
        let faults = emu::FaultPlan::from_outages(
            n + 1,
            vec![emu::Outage {
                node: NodeId(5),
                down_at: simclock::SimTime::ZERO,
                up_at: simclock::SimTime::from_secs(1_000_000),
            }],
        );
        let cfg = SimConfig {
            faults,
            ..SimConfig::new(n + 1, 1)
        };
        let mut c = SimCluster::new(actors, cfg);
        let list: Vec<u32> = (1..=n as u32).collect();
        let head = list[0];
        let rest = NodeSlice::new(list).slice(1, n);
        c.inject(
            simclock::SimTime::from_millis(1),
            NodeId::MASTER,
            NodeId(head),
            RmMsg::JobCtl {
                job: 9,
                kind: CtlKind::Launch,
                list: rest,
                width: 4,
            },
        );
        c.run_to_quiescence();
        let Node::Sink(sink) = c.actor(NodeId::MASTER) else {
            panic!()
        };
        assert_eq!(sink.acks.len(), 1);
        let (_, _, count) = sink.acks[0];
        // Node 5 and any nodes stranded below it are missing from the
        // count; everything else is covered.
        assert!(count < n as u32, "count {count}");
        assert!(count >= n as u32 - 6, "count {count} lost too many");
    }

    #[test]
    fn same_job_relays_take_acks_oldest_first_and_late_timers_are_noops() {
        // Node 1 gets two launches of job 7 at one instant: relay A over
        // [2] expects one ack, relay B over [2, 3] expects two. Acks carry
        // only (job, kind), so which relay an ack feeds is the table's
        // search order — oldest token first.
        let mut c = cluster(4);
        let at = simclock::SimTime::from_millis(1);
        for nodes in [vec![2], vec![2, 3]] {
            c.inject(
                at,
                NodeId::MASTER,
                NodeId(1),
                RmMsg::JobCtl {
                    job: 7,
                    kind: CtlKind::Launch,
                    list: NodeSlice::new(nodes),
                    width: 4,
                },
            );
        }
        let acks = |c: &SimCluster<RmMsg, Node>| {
            let Node::Sink(sink) = c.actor(NodeId::MASTER) else {
                panic!()
            };
            sink.acks.clone()
        };
        c.run_until(simclock::SimTime::from_secs(1));
        // A closes on the first ack to arrive (itself + one child), B on
        // the other two; newest-first would report B's 3 before A's 2.
        let want = vec![(7, CtlKind::Launch, 2), (7, CtlKind::Launch, 3)];
        assert_eq!(acks(&c), want);
        // Both relays' ack timers are still queued; firing them for
        // tokens that already completed sends nothing.
        assert!(c.run_to_quiescence() >= 2);
        assert_eq!(acks(&c), want);
    }

    #[test]
    fn daemon_and_relay_entry_stay_small() {
        use std::mem::size_of;
        // One daemon per emulated node: the config and the relay room are
        // shared, not copied; a daemon keeps a list head and a counter.
        assert!(size_of::<SlaveDaemon>() <= 24);
        // Tracing-only fields sit behind one box.
        assert!(size_of::<Slot>() <= 48);
    }

    #[test]
    fn one_relay_at_a_time_holds_one_entry_and_overlaps_still_ack() {
        // Node 1 relays job 1 over [2], then job 2 over [3] once job 1 has
        // closed: one relay at a time takes one arena slot, and an idle
        // node holds none.
        let mut c = cluster(6);
        let ctl = |job, nodes: Vec<u32>| RmMsg::JobCtl {
            job,
            kind: CtlKind::Launch,
            list: NodeSlice::new(nodes),
            width: 4,
        };
        let acks = |c: &SimCluster<RmMsg, Node>| {
            let Node::Sink(sink) = c.actor(NodeId::MASTER) else {
                panic!()
            };
            sink.acks.clone()
        };
        // (live relays at node 1, slots in the shared arena)
        let relays = |c: &SimCluster<RmMsg, Node>| (live_relays(c, 1), slave(c, 1).relay_slots());
        assert_eq!(relays(&c), (0, 0));
        c.inject(
            simclock::SimTime::from_millis(1),
            NodeId::MASTER,
            NodeId(1),
            ctl(1, vec![2]),
        );
        c.run_until(simclock::SimTime::from_millis(500));
        assert_eq!(relays(&c), (0, 1));
        c.inject(
            simclock::SimTime::from_secs(1),
            NodeId::MASTER,
            NodeId(1),
            ctl(2, vec![3]),
        );
        c.run_until(simclock::SimTime::from_secs(2));
        assert_eq!(relays(&c), (0, 1));
        assert_eq!(
            acks(&c),
            vec![(1, CtlKind::Launch, 2), (2, CtlKind::Launch, 2)]
        );
        // Three overlapping relays take three slots; each still closes on
        // its own acks, and the freed slots stay in the arena.
        let overlap = [(3, vec![2, 3]), (4, vec![4]), (5, vec![5, 2])];
        for (job, nodes) in overlap.clone() {
            c.inject(
                simclock::SimTime::from_secs(3),
                NodeId::MASTER,
                NodeId(1),
                ctl(job, nodes),
            );
        }
        c.run_until(simclock::SimTime::from_secs(3));
        assert_eq!(relays(&c), (3, 3));
        c.run_until(simclock::SimTime::from_secs(4));
        assert_eq!(relays(&c), (0, 3));
        let mut late = acks(&c).split_off(2);
        late.sort_unstable_by_key(|&(job, _, _)| job);
        assert_eq!(
            late,
            vec![
                (3, CtlKind::Launch, 3),
                (4, CtlKind::Launch, 2),
                (5, CtlKind::Launch, 3)
            ]
        );
        // Later overlapping relays, at this node and at another, reuse the
        // freed slots: the arena does not grow.
        for (job, nodes) in overlap {
            c.inject(
                simclock::SimTime::from_secs(5),
                NodeId::MASTER,
                NodeId(1 + (job as u32 % 2)),
                ctl(job + 3, nodes.into_iter().map(|n| 1 + n % 5).collect()),
            );
        }
        c.run_until(simclock::SimTime::from_secs(5));
        assert_eq!(live_relays(&c, 1) + live_relays(&c, 2), 3);
        assert_eq!(slave(&c, 1).relay_slots(), 3);
        c.run_until(simclock::SimTime::from_secs(6));
        assert_eq!(relays(&c), (0, 3));
        assert_eq!(acks(&c).len(), 8);
    }

    #[test]
    fn synchronized_heartbeats_burst_together() {
        let n = 50;
        let mut actors: Vec<Node> = vec![Node::Sink(Sink { acks: Vec::new() })];
        for _ in 1..=n {
            actors.push(Node::Slave(SlaveDaemon::new(SlaveConfig::default())));
        }
        let mut c = SimCluster::new(actors, SimConfig::new(n + 1, 3));
        c.run_until(simclock::SimTime::from_secs(31));
        // All 50 heartbeats arrive within the same ~second around t=30.
        let (_, received) = c.meter(NodeId::MASTER).msg_counts();
        assert_eq!(received, n as u64);
    }
}
