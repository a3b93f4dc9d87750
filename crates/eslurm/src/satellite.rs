//! The satellite daemon (paper §III): a stateless bidirectional
//! communication buffer between the master and the compute nodes.
//!
//! On receiving a broadcast task it constructs an FP-Tree over the task's
//! node list (placing currently suspected nodes on leaves), relays the
//! payload to the first-layer nodes, aggregates their acknowledgements,
//! and reports the outcome to the master. It keeps no system state across
//! tasks — exactly the property that lets the master reassign work to any
//! other satellite.

use crate::config::EslurmConfig;
use crate::fsm::SatState;
use emu::{Actor, Context, NodeId};
use monitoring::FailurePredictor;
use obs::{EventKind, Hist, Recorder, TraceContext};
use rm::proto::{send_tree, AckTally, CtlKind, NodeSlice, RmMsg};
use simclock::{SimSpan, SimTime};
use std::collections::{BTreeMap, HashSet};
#[allow(
    clippy::disallowed_types,
    reason = "the frozen end-to-end benchmark shares its predictor as an `Arc<Mutex<..>>`"
)]
use std::sync::{Arc, Mutex};
use topology::fptree::{rearrange_sorted_into, sorted_suspects};

/// Aggregate FP-Tree construction statistics (the paper's "FP-tree node
/// placement" evaluation: 81.7 % of failed nodes placed on leaves).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FpPlacementStats {
    /// FP-Trees constructed.
    pub trees: u64,
    /// Total nodes across all constructed trees.
    pub total_nodes: u64,
    /// Suspected nodes present in task lists.
    pub suspects_seen: u64,
    /// Suspected nodes that landed on leaf positions.
    pub suspects_on_leaves: u64,
}

impl FpPlacementStats {
    /// Append `list` to `out` rearranged so that `suspects` sit on leaves
    /// of the width-`w` tree (the FP-Tree), and count the tree and where
    /// its suspects landed.
    fn arrange(&mut self, list: &[u32], suspects: &HashSet<u32>, w: usize, out: &mut Vec<u32>) {
        self.trees += 1;
        self.total_nodes += list.len() as u64;
        let suspects = sorted_suspects(suspects);
        let start = out.len();
        rearrange_sorted_into(list, &suspects, w, out);
        if suspects.is_empty() {
            return;
        }
        let leaves = topology::leaf_positions(list.len(), w);
        for (node, leaf) in out[start..].iter().zip(leaves) {
            if suspects.binary_search(node).is_ok() {
                self.suspects_seen += 1;
                self.suspects_on_leaves += u64::from(leaf);
            }
        }
    }

    /// Fraction of suspects placed on leaves (1.0 when none were seen).
    pub fn placement_ratio(&self) -> f64 {
        if self.suspects_seen == 0 {
            1.0
        } else {
            self.suspects_on_leaves as f64 / self.suspects_seen as f64
        }
    }
}

struct PendingTask {
    task: u64,
    job: u64,
    kind: CtlKind,
    origin: NodeId,
    list: NodeSlice,
    started: SimTime,
    /// Acks of the FP-Tree fan-out; none expected until it goes out.
    acks: AckTally,
    /// When the FP-Tree fan-out went out (start of the ack deadline window).
    relayed_at: SimTime,
    /// Causal context the incoming `BcastTask` carried; the relay fan-out
    /// and the final `BcastDone` link under it.
    trace: Option<TraceContext>,
}

const TOKEN_KIND_BITS: u64 = 2;
const START_TIMER: u64 = 0;
const DEADLINE_TIMER: u64 = 1;

/// A satellite's working state and its reports, which callers read
/// through accessors.
struct SatelliteState {
    cfg: EslurmConfig,
    /// Shared failure predictor (the monitoring subsystem's suspect feed).
    #[allow(
        clippy::disallowed_types,
        reason = "the frozen end-to-end benchmark shares its predictor as an `Arc<Mutex<..>>`"
    )]
    predictor: Option<Arc<Mutex<dyn FailurePredictor>>>,
    tasks: BTreeMap<u64, PendingTask>,
    next_token: u64,
    /// Relay-buffer high-water mark, in nodes (drives resident memory).
    buf_nodes: usize,
    obs: Recorder,
    tasks_done: u64,
    task_nodes_total: u64,
    fp_stats: FpPlacementStats,
}

/// The satellite daemon actor.
pub struct SatelliteDaemon {
    /// Boxed, reports included: satellites are a few dozen among up to a
    /// million compute daemons, and `EslurmNode` is as large as its
    /// largest variant.
    st: Box<SatelliteState>,
}

impl SatelliteDaemon {
    /// A satellite with the deployment config and an optional failure
    /// predictor (no predictor = plain grouping trees, the FP-Tree-off
    /// ablation).
    #[allow(
        clippy::disallowed_types,
        reason = "the frozen end-to-end benchmark shares its predictor as an `Arc<Mutex<..>>`"
    )]
    pub fn new(cfg: EslurmConfig, predictor: Option<Arc<Mutex<dyn FailurePredictor>>>) -> Self {
        SatelliteDaemon {
            st: Box::new(SatelliteState {
                cfg,
                predictor,
                tasks: BTreeMap::new(),
                next_token: 0,
                buf_nodes: 0,
                obs: Recorder::disabled(),
                tasks_done: 0,
                task_nodes_total: 0,
                fp_stats: FpPlacementStats::default(),
            }),
        }
    }

    /// Tasks processed successfully.
    pub fn tasks_done(&self) -> u64 {
        self.st.tasks_done
    }

    /// Total nodes across received tasks (Table VI's "average nodes in
    /// each task" numerator).
    pub fn task_nodes_total(&self) -> u64 {
        self.st.task_nodes_total
    }

    /// FP-Tree placement statistics.
    pub fn fp_stats(&self) -> FpPlacementStats {
        self.st.fp_stats
    }

    /// Record task-service telemetry into `obs` (builder-style).
    pub fn with_obs(mut self, obs: Recorder) -> Self {
        self.st.obs = obs;
        self
    }

    fn state(&self) -> SatState {
        if self.st.tasks.is_empty() {
            SatState::Running
        } else {
            SatState::Busy
        }
    }

    fn begin_task(
        &mut self,
        ctx: &mut dyn Context<RmMsg>,
        origin: NodeId,
        task: u64,
        job: u64,
        kind: CtlKind,
        list: NodeSlice,
    ) {
        self.st.task_nodes_total += list.len() as u64;
        // Relay buffers grow to the largest task seen (high-water).
        if list.len() > self.st.buf_nodes {
            let grow = (list.len() - self.st.buf_nodes) as u64 * self.st.cfg.sat_per_task_node_real;
            ctx.alloc_real(grow as i64);
            ctx.alloc_virt(grow as i64);
            self.st.buf_nodes = list.len();
        }
        // Processing (FP-Tree construction + payload marshalling) costs
        // CPU proportional to the list and delays the relay by the same
        // amount — this is the per-node cost that caps how much one
        // satellite should be handed (Fig. 11a).
        let proc = SimSpan(self.st.cfg.sat_per_node_cpu.as_micros() * list.len().max(1) as u64);
        ctx.charge_cpu(proc);
        let token = self.st.next_token;
        self.st.next_token += 1;
        self.st.tasks.insert(
            token,
            PendingTask {
                task,
                job,
                kind,
                origin,
                list,
                started: ctx.now(),
                acks: AckTally::default(),
                relayed_at: ctx.now(),
                trace: ctx.trace_current(),
            },
        );
        ctx.set_timer(proc, token << TOKEN_KIND_BITS | START_TIMER);
    }

    fn relay(&mut self, ctx: &mut dyn Context<RmMsg>, token: u64) {
        let suspects = self
            .st
            .predictor
            .as_ref()
            .map(|p| p.lock().expect("predictor poisoned").suspects(ctx.now()))
            .unwrap_or_default();
        let Some(t) = self.st.tasks.get_mut(&token) else {
            return;
        };
        // Resume the task's trace (relay runs from a timer, so the
        // message-borne context is long cleared).
        ctx.trace_adopt(t.trace);
        if t.list.is_empty() {
            let done = self.st.tasks.remove(&token).expect("task vanished");
            self.st.tasks_done += 1;
            ctx.send(
                done.origin,
                RmMsg::BcastDone {
                    task: done.task,
                    job: done.job,
                    kind: done.kind,
                    reached: 0,
                    ok: true,
                },
            );
            return;
        }
        // FP-Tree construction: rearrange so suspects sit on leaves, then
        // relay by the ordinary grouping rule.
        let w = self.st.cfg.relay_width.max(2);
        // The arranged list is this relay's `Deliver` payload; building it
        // in a recycled buffer keeps the per-task allocation out of the
        // DES hot path.
        let mut arranged = NodeSlice::recycled_buf();
        self.st
            .fp_stats
            .arrange(t.list.nodes(), &suspects, w, &mut arranged);
        let arranged = NodeSlice::new(arranged);
        t.relayed_at = ctx.now();
        let cfg = &self.st.cfg;
        let charge =
            |ctx: &mut dyn Context<RmMsg>, head| ctx.open_socket_for(head, cfg.conn_lifetime);
        let depth;
        (t.acks.expected, depth) = send_tree(ctx, t.job, t.kind, &arranged, w, charge);
        ctx.set_timer(
            cfg.task_timeout * (depth + 1),
            token << TOKEN_KIND_BITS | DEADLINE_TIMER,
        );
    }

    fn finish_task(&mut self, ctx: &mut dyn Context<RmMsg>, token: u64, complete: bool) {
        let Some(t) = self.st.tasks.remove(&token) else {
            return;
        };
        self.st.tasks_done += 1;
        let service = ctx.now() - t.started;
        self.st
            .obs
            .observe(Hist::TaskServiceUs, service.as_micros());
        self.st.obs.span_from(
            t.started,
            ctx.now(),
            ctx.me().0,
            EventKind::TaskService,
            t.job,
            0,
        );
        ctx.charge_cpu(self.st.cfg.cost.msg_cpu);
        ctx.send(
            t.origin,
            RmMsg::BcastDone {
                task: t.task,
                job: t.job,
                kind: t.kind,
                reached: t.acks.reached,
                ok: complete,
            },
        );
    }
}

impl Actor<RmMsg> for SatelliteDaemon {
    fn on_start(&mut self, ctx: &mut dyn Context<RmMsg>) {
        ctx.alloc_virt(self.st.cfg.sat_base_virt as i64);
        ctx.alloc_real(self.st.cfg.sat_base_real as i64);
    }

    fn on_message(&mut self, ctx: &mut dyn Context<RmMsg>, from: NodeId, msg: RmMsg) {
        match msg {
            RmMsg::BcastTask {
                task,
                job,
                kind,
                list,
                width: _,
            } => {
                self.begin_task(ctx, from, task, job, kind, list);
            }
            RmMsg::CtlAck { job, kind, count } => {
                ctx.charge_cpu(self.st.cfg.cost.msg_cpu);
                // A task whose fan-out has not gone out expects no acks.
                let found = self
                    .st
                    .tasks
                    .iter_mut()
                    .find(|(_, t)| t.job == job && t.kind == kind && t.acks.expected > 0);
                if let Some((&token, t)) = found {
                    if t.acks.ack(count) {
                        self.finish_task(ctx, token, true);
                    }
                }
            }
            RmMsg::SatHeartbeat => {
                ctx.charge_cpu(self.st.cfg.cost.msg_cpu);
                ctx.send(
                    from,
                    RmMsg::SatHeartbeatAck {
                        state: self.state().wire_id(),
                    },
                );
            }
            RmMsg::Shutdown => {
                // Abandon in-flight work; the master's timeouts reassign it.
                self.st.tasks.clear();
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Context<RmMsg>, token: u64) {
        let t = token >> TOKEN_KIND_BITS;
        match token & ((1 << TOKEN_KIND_BITS) - 1) {
            START_TIMER => self.relay(ctx, t),
            DEADLINE_TIMER
                // Some subtrees never acknowledged (failed heads below the
                // first layer); report the partial coverage.
                if self.st.tasks.contains_key(&t) => {
                    let pt = &self.st.tasks[&t];
                    if let Some(tc) = pt.trace {
                        // The wait on missing acks is timeout backoff.
                        ctx.trace_backoff(&tc, pt.relayed_at);
                        ctx.trace_adopt(Some(tc));
                    }
                    self.finish_task(ctx, t, false);
                }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu::{SimCluster, SimConfig};
    use rm::slave::{SlaveConfig, SlaveDaemon, SlaveHeartbeat};

    enum Node {
        Master(Vec<RmMsg>),
        Sat(SatelliteDaemon),
        Slave(SlaveDaemon),
    }

    impl Actor<RmMsg> for Node {
        fn on_start(&mut self, ctx: &mut dyn Context<RmMsg>) {
            match self {
                Node::Master(_) => {}
                Node::Sat(s) => s.on_start(ctx),
                Node::Slave(s) => s.on_start(ctx),
            }
        }
        fn on_message(&mut self, ctx: &mut dyn Context<RmMsg>, from: NodeId, msg: RmMsg) {
            match self {
                Node::Master(log) => log.push(msg),
                Node::Sat(s) => s.on_message(ctx, from, msg),
                Node::Slave(s) => s.on_message(ctx, from, msg),
            }
        }
        fn on_timer(&mut self, ctx: &mut dyn Context<RmMsg>, token: u64) {
            match self {
                Node::Master(_) => {}
                Node::Sat(s) => s.on_timer(ctx, token),
                Node::Slave(s) => s.on_timer(ctx, token),
            }
        }
    }

    fn small_cfg() -> EslurmConfig {
        EslurmConfig {
            eq1_width: 16,
            relay_width: 4,
            ..Default::default()
        }
    }

    /// Node 0 = master log, node 1 = satellite, 2..=n+1 slaves.
    fn cluster(n_slaves: usize, cfg: EslurmConfig) -> SimCluster<RmMsg, Node> {
        let mut actors = vec![
            Node::Master(Vec::new()),
            Node::Sat(SatelliteDaemon::new(cfg, None)),
        ];
        for _ in 0..n_slaves {
            actors.push(Node::Slave(SlaveDaemon::new(SlaveConfig {
                heartbeat: SlaveHeartbeat::None,
                ..Default::default()
            })));
        }
        SimCluster::new(actors, SimConfig::new(n_slaves + 2, 17))
    }

    #[test]
    fn satellite_relays_and_reports_done() {
        let n = 60;
        let mut c = cluster(n, small_cfg());
        let list: Vec<u32> = (2..2 + n as u32).collect();
        c.inject(
            SimTime::from_millis(1),
            NodeId::MASTER,
            NodeId(1),
            RmMsg::BcastTask {
                task: 5,
                job: 9,
                kind: CtlKind::Launch,
                list: NodeSlice::new(list),
                width: 4,
            },
        );
        c.run_to_quiescence();
        let Node::Master(log) = c.actor(NodeId::MASTER) else {
            panic!()
        };
        assert_eq!(log.len(), 1);
        match &log[0] {
            RmMsg::BcastDone {
                task: 5,
                job: 9,
                kind: CtlKind::Launch,
                reached,
                ok: true,
            } => {
                assert_eq!(*reached, n as u32);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        let Node::Sat(sat) = c.actor(NodeId(1)) else {
            panic!()
        };
        assert_eq!(sat.tasks_done(), 1);
        assert_eq!(sat.fp_stats().trees, 1);
    }

    #[test]
    fn empty_task_acks_immediately() {
        let mut c = cluster(2, small_cfg());
        c.inject(
            SimTime::from_millis(1),
            NodeId::MASTER,
            NodeId(1),
            RmMsg::BcastTask {
                task: 1,
                job: 2,
                kind: CtlKind::Ping,
                list: NodeSlice::empty(),
                width: 4,
            },
        );
        c.run_to_quiescence();
        let Node::Master(log) = c.actor(NodeId::MASTER) else {
            panic!()
        };
        assert!(matches!(
            log[0],
            RmMsg::BcastDone {
                ok: true,
                reached: 0,
                ..
            }
        ));
    }

    #[test]
    fn heartbeat_reports_busy_while_processing() {
        let mut c = cluster(30, small_cfg());
        let list: Vec<u32> = (2..32).collect();
        c.inject(
            SimTime::from_millis(1),
            NodeId::MASTER,
            NodeId(1),
            RmMsg::BcastTask {
                task: 1,
                job: 1,
                kind: CtlKind::Launch,
                list: NodeSlice::new(list),
                width: 4,
            },
        );
        // Heartbeat lands while the task is still being processed.
        c.inject(
            SimTime::from_millis(2),
            NodeId::MASTER,
            NodeId(1),
            RmMsg::SatHeartbeat,
        );
        c.run_to_quiescence();
        let Node::Master(log) = c.actor(NodeId::MASTER) else {
            panic!()
        };
        let states: Vec<u8> = log
            .iter()
            .filter_map(|m| match m {
                RmMsg::SatHeartbeatAck { state } => Some(*state),
                _ => None,
            })
            .collect();
        assert_eq!(states, vec![SatState::Busy.wire_id()]);
    }

    #[test]
    fn failed_subtree_reported_partial() {
        let n = 40;
        let mut actors = vec![
            Node::Master(Vec::new()),
            Node::Sat(SatelliteDaemon::new(small_cfg(), None)),
        ];
        for _ in 0..n {
            actors.push(Node::Slave(SlaveDaemon::new(SlaveConfig {
                heartbeat: SlaveHeartbeat::None,
                ..Default::default()
            })));
        }
        let faults = emu::FaultPlan::from_outages(
            n + 2,
            vec![emu::Outage {
                node: NodeId(6),
                down_at: SimTime::ZERO,
                up_at: SimTime::from_secs(1_000_000),
            }],
        );
        let cfg = SimConfig {
            faults,
            ..SimConfig::new(n + 2, 5)
        };
        let mut c = SimCluster::new(actors, cfg);
        let list: Vec<u32> = (2..2 + n as u32).collect();
        c.inject(
            SimTime::from_millis(1),
            NodeId::MASTER,
            NodeId(1),
            RmMsg::BcastTask {
                task: 3,
                job: 4,
                kind: CtlKind::Launch,
                list: NodeSlice::new(list),
                width: 4,
            },
        );
        c.run_until(SimTime::from_secs(120));
        let Node::Master(log) = c.actor(NodeId::MASTER) else {
            panic!()
        };
        assert_eq!(log.len(), 1);
        match &log[0] {
            RmMsg::BcastDone { reached, .. } => {
                assert!(*reached < n as u32, "reached {reached}");
                assert!(*reached >= n as u32 - 6, "reached {reached}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[allow(
        clippy::disallowed_types,
        reason = "the frozen end-to-end benchmark shares its predictor as an `Arc<Mutex<..>>`"
    )]
    fn predictor_suspects_counted_on_leaves() {
        let n = 50;
        let faults = emu::FaultPlan::from_outages(
            n + 2,
            vec![emu::Outage {
                node: NodeId(10),
                down_at: SimTime::from_secs(30),
                up_at: SimTime::from_secs(90),
            }],
        );
        let predictor =
            monitoring::OraclePredictor::new(faults.clone(), SimSpan::from_secs(300), 1);
        let mut actors = vec![
            Node::Master(Vec::new()),
            Node::Sat(SatelliteDaemon::new(
                small_cfg(),
                Some(Arc::new(Mutex::new(predictor))),
            )),
        ];
        for _ in 0..n {
            actors.push(Node::Slave(SlaveDaemon::new(SlaveConfig {
                heartbeat: SlaveHeartbeat::None,
                ..Default::default()
            })));
        }
        // The fault plan only feeds the predictor here — the node itself
        // stays up so the broadcast completes fully.
        let mut c = SimCluster::new(actors, SimConfig::new(n + 2, 5));
        let list: Vec<u32> = (2..2 + n as u32).collect();
        c.inject(
            SimTime::from_millis(1),
            NodeId::MASTER,
            NodeId(1),
            RmMsg::BcastTask {
                task: 1,
                job: 1,
                kind: CtlKind::Launch,
                list: NodeSlice::new(list),
                width: 4,
            },
        );
        c.run_to_quiescence();
        let Node::Sat(sat) = c.actor(NodeId(1)) else {
            panic!()
        };
        assert_eq!(sat.fp_stats().suspects_seen, 1);
        assert_eq!(sat.fp_stats().suspects_on_leaves, 1);
        assert_eq!(sat.fp_stats().placement_ratio(), 1.0);
    }

    /// The placement as first written: set lookups through
    /// `rearrange_into`, and a second `leaf_positions` for every tree.
    fn arrange_reference(
        stats: &mut FpPlacementStats,
        list: &[u32],
        suspects: &HashSet<u32>,
        w: usize,
        out: &mut Vec<u32>,
    ) {
        topology::fptree::rearrange_into(list, suspects, w, out);
        let leaves = topology::leaf_positions(out.len(), w);
        stats.trees += 1;
        stats.total_nodes += out.len() as u64;
        for (pos, node) in out.iter().enumerate() {
            if suspects.contains(node) {
                stats.suspects_seen += 1;
                if leaves[pos] {
                    stats.suspects_on_leaves += 1;
                }
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// A satellite's run of FP-Trees against the set-lookup
            /// placement: the same relay lists and the same statistics,
            /// for suspect sets from empty to dense, some outside the list.
            #[test]
            fn arrange_matches_the_set_lookup_placement(
                tasks in prop::collection::vec(
                    (0u32..200, 2usize..34, 1u32..30, 0u32..4099, 0u32..3),
                    1..6,
                )
            ) {
                let mut got = FpPlacementStats::default();
                let mut want = FpPlacementStats::default();
                for (len, w, every, offset, extra) in tasks {
                    let list: Vec<u32> = (0..len).map(|i| 2 + (offset + i * 13) % 4099).collect();
                    // `every` past 20 leaves the set empty.
                    let suspects: HashSet<u32> = list
                        .iter()
                        .copied()
                        .filter(|n| every <= 20 && n % every == 0)
                        .chain((0..extra).map(|i| 9_000 + i))
                        .collect();
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    got.arrange(&list, &suspects, w, &mut a);
                    arrange_reference(&mut want, &list, &suspects, w, &mut b);
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}
