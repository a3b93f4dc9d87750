//! Whole-system wiring: deploy any of the six RMs on the DES through one
//! builder — ESlurm's master, satellites and compute nodes, or a
//! centralized baseline's master and compute nodes — submit jobs, and
//! read back records and meters.
//!
//! Node layout convention: node 0 is the master, nodes `1..=m` are the
//! satellites (none on a centralized RM), and nodes `m+1..` are compute
//! (slave) nodes.

use crate::config::EslurmConfig;
use crate::master::EslurmMaster;
use crate::satellite::SatelliteDaemon;
use emu::{Actor, Context, FaultPlan, NodeId, SimCluster, SimConfig};
use monitoring::FailurePredictor;
use obs::{tag_scope, MemTag, Recorder, Sampler, SloEngine};
use rm::proto::{NodeSlice, RmMsg};
use rm::slave::{SlaveConfig, SlaveDaemon, SlaveGroup, SlaveHeartbeat};
use rm::{CentralizedMaster, MasterLog, RmNode, RmProfile};
use simclock::{SimSpan, SimTime};
use std::ops::Range;
#[allow(
    clippy::disallowed_types,
    reason = "the frozen end-to-end benchmark shares its predictor as an `Arc<Mutex<..>>`"
)]
use std::sync::{Arc, Mutex};

/// A node of an ESlurm cluster. One value per emulated node, nearly all of
/// them `Slave`, so the master and satellite variants box their working
/// state: the enum is sized by the compute daemon (pinned by a test).
pub enum EslurmNode {
    /// The master daemon (node 0).
    Master(EslurmMaster),
    /// A satellite daemon.
    Satellite(SatelliteDaemon),
    /// A compute-node daemon.
    Slave(SlaveDaemon),
}

impl Actor<RmMsg> for EslurmNode {
    // Master and satellite FSMs are the management stack — their handlers
    // run under their own heap tag. Compute-node daemons keep the ambient
    // tag (the engine's `des` scope), so engine-vs-stack cost
    // stays separable in `mem-report`.
    fn on_start(&mut self, ctx: &mut dyn Context<RmMsg>) {
        match self {
            EslurmNode::Master(m) => {
                let _mem = tag_scope(MemTag::Master);
                m.on_start(ctx)
            }
            EslurmNode::Satellite(s) => {
                let _mem = tag_scope(MemTag::Satellite);
                s.on_start(ctx)
            }
            EslurmNode::Slave(s) => s.on_start(ctx),
        }
    }
    fn on_message(&mut self, ctx: &mut dyn Context<RmMsg>, from: NodeId, msg: RmMsg) {
        match self {
            EslurmNode::Master(m) => {
                let _mem = tag_scope(MemTag::Master);
                m.on_message(ctx, from, msg)
            }
            EslurmNode::Satellite(s) => {
                let _mem = tag_scope(MemTag::Satellite);
                s.on_message(ctx, from, msg)
            }
            EslurmNode::Slave(s) => s.on_message(ctx, from, msg),
        }
    }
    fn on_timer(&mut self, ctx: &mut dyn Context<RmMsg>, token: u64) {
        match self {
            EslurmNode::Master(m) => {
                let _mem = tag_scope(MemTag::Master);
                m.on_timer(ctx, token)
            }
            EslurmNode::Satellite(s) => {
                let _mem = tag_scope(MemTag::Satellite);
                s.on_timer(ctx, token)
            }
            EslurmNode::Slave(s) => s.on_timer(ctx, token),
        }
    }
}

/// One of the six RMs as the DES deploys it: the config that picks the
/// stack — an [`EslurmConfig`], or an [`RmProfile`] for a centralized RM —
/// builds the actors, and [`SystemBuilder`] does the rest the same way for
/// both.
pub trait Stack {
    /// The actor of one emulated node.
    type Node: Actor<RmMsg>;
    /// The master daemon (node 0).
    type Master: MasterLog;
    /// What the stack takes besides its config: ESlurm's failure predictor.
    type Extra: Default;
    /// Satellites between the master and the compute nodes.
    fn n_satellites(&self) -> usize;
    /// The deployment's actors in node order, recording into `obs`.
    fn actors(self, extra: Self::Extra, n_slaves: usize, obs: &Recorder) -> Vec<Self::Node>;
    /// The master's state, read off node 0's actor.
    fn master(node: &Self::Node) -> &Self::Master;
}

#[allow(
    clippy::disallowed_types,
    reason = "the frozen end-to-end benchmark shares its predictor as an `Arc<Mutex<..>>`"
)]
impl Stack for EslurmConfig {
    type Node = EslurmNode;
    type Master = EslurmMaster;
    type Extra = Option<Arc<Mutex<dyn FailurePredictor>>>;

    fn n_satellites(&self) -> usize {
        self.n_satellites
    }

    fn actors(self, predictor: Self::Extra, n_slaves: usize, obs: &Recorder) -> Vec<EslurmNode> {
        let m = self.n_satellites;
        let total = 1 + m + n_slaves;
        let sat_ids: Vec<u32> = (1..=m as u32).collect();
        let slave_ids: Vec<u32> = (m as u32 + 1..total as u32).collect();
        let mut actors: Vec<EslurmNode> = Vec::with_capacity(total);
        actors.push(EslurmNode::Master(
            EslurmMaster::new(self.clone(), slave_ids, sat_ids).with_obs(obs.clone()),
        ));
        for _ in 0..m {
            actors.push(EslurmNode::Satellite(
                SatelliteDaemon::new(self.clone(), predictor.clone()).with_obs(obs.clone()),
            ));
        }
        // ESlurm compute nodes don't push heartbeats to the master;
        // liveness is collected through satellite Ping sweeps.
        let group = SlaveGroup::from(SlaveConfig {
            master: NodeId::MASTER,
            heartbeat: SlaveHeartbeat::None,
            conn_lifetime: self.conn_lifetime,
            ..SlaveConfig::default()
        });
        for _ in 0..n_slaves {
            actors.push(EslurmNode::Slave(SlaveDaemon::new(group.clone())));
        }
        actors
    }

    fn master(node: &EslurmNode) -> &EslurmMaster {
        match node {
            EslurmNode::Master(m) => m,
            _ => unreachable!("node 0 is the master"),
        }
    }
}

impl Stack for RmProfile {
    type Node = RmNode;
    type Master = CentralizedMaster;
    type Extra = ();

    fn n_satellites(&self) -> usize {
        0
    }

    fn actors(self, (): (), n_slaves: usize, obs: &Recorder) -> Vec<RmNode> {
        rm::actors(self, n_slaves, obs)
    }

    fn master(node: &RmNode) -> &CentralizedMaster {
        match node {
            RmNode::Master(m) => m,
            RmNode::Slave(_) => unreachable!("node 0 is the master"),
        }
    }
}

/// A built deployment of one of the six RMs.
pub struct System<S: Stack> {
    /// The running simulation.
    pub sim: SimCluster<RmMsg, S::Node>,
    /// Number of satellites (nodes `1..=n_satellites`; none on a
    /// centralized RM).
    pub n_satellites: usize,
    /// Number of compute nodes.
    pub n_slaves: usize,
    /// Jobs submitted so far.
    pub submitted: u64,
}

/// A built ESlurm cluster.
pub type EslurmSystem = System<EslurmConfig>;

/// Builder for a [`System`]: sized in compute nodes, instrumented the same
/// way on every stack.
pub struct SystemBuilder<S: Stack> {
    stack: S,
    n_slaves: usize,
    extra: S::Extra,
    /// The engine's configuration, instruments included: [`SimConfig`] is
    /// the one list of them, and every instrument setter below writes
    /// straight into it.
    sim: SimConfig,
}

/// Builder for an [`EslurmSystem`].
pub type EslurmSystemBuilder = SystemBuilder<EslurmConfig>;

impl<S: Stack> SystemBuilder<S> {
    /// Start building a deployment of `stack` over `n_slaves` compute
    /// nodes, its RNG streams drawn from `seed`.
    pub fn new(stack: S, n_slaves: usize, seed: u64) -> Self {
        let sim = SimConfig::new(1 + stack.n_satellites() + n_slaves, seed);
        SystemBuilder {
            stack,
            n_slaves,
            extra: S::Extra::default(),
            sim,
        }
    }

    /// Record transport and daemon telemetry into `recorder`: the DES
    /// traces message flow and fault marks, the master traces job/task/FSM
    /// activity, and every satellite traces task service times.
    pub fn obs(mut self, recorder: Recorder) -> Self {
        self.sim.obs = recorder;
        self
    }

    /// Evaluate SLO specs online against this run's telemetry. The engine
    /// runs on the sampling cadence, so an end-bounded [`Self::sampler`]
    /// must also be configured for it to tick. It is strictly
    /// observational: it reads the recorder/sampler and writes only its
    /// own state, so enabling it changes no outcome and no base trace/CSV
    /// byte. Read results back via [`SimCluster::slo_engine`] after the
    /// run.
    pub fn slo(mut self, engine: SloEngine) -> Self {
        self.sim.slo = engine;
        self
    }

    /// Inject the given outage schedule (indices refer to the final node
    /// layout: 0 = master, 1..=m satellites, then compute nodes).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.sim.faults = plan;
        self
    }

    /// Feed labeled footprint time series into `sampler` on its own
    /// cadence (an end-bounded `Sampler::every_until`; see
    /// [`SimConfig::sampler`]). The master and the satellites are tracked
    /// under stable labels: `node=master`, `node=sat<i>`.
    pub fn sampler(mut self, sampler: Sampler) -> Self {
        self.sim.sampler = sampler;
        self
    }

    /// Materialize the system.
    ///
    /// # Panics
    ///
    /// If the master, satellites and compute nodes together exceed
    /// `u32::MAX` nodes, the size of the node-id space.
    pub fn build(self) -> System<S> {
        let m = self.stack.n_satellites();
        let total = 1 + m + self.n_slaves;
        assert!(
            total <= u32::MAX as usize,
            "{total} nodes exceed the u32 node-id space"
        );
        let actors = self.stack.actors(self.extra, self.n_slaves, &self.sim.obs);
        let config = self.sim;
        config.sampler.name_node(NodeId::MASTER.0, "master");
        for i in 1..=m as u32 {
            config.sampler.name_node(i, &format!("sat{i}"));
        }
        System {
            sim: SimCluster::new(actors, config),
            n_satellites: m,
            n_slaves: self.n_slaves,
            submitted: 0,
        }
    }
}

impl SystemBuilder<EslurmConfig> {
    /// Accepted and ignored: the engine has one queue and one node store,
    /// so there is no layout to choose. Kept only because the frozen
    /// end-to-end benchmark calls it; it goes with the benchmark's
    /// `emu.workers2_wall_ratio` metric when the benchmark is next revised.
    pub fn shards(self, _n: usize) -> Self {
        self
    }

    /// Install a failure predictor shared by all satellites.
    #[allow(
        clippy::disallowed_types,
        reason = "the frozen end-to-end benchmark shares its predictor as an `Arc<Mutex<..>>`"
    )]
    pub fn predictor(mut self, p: Arc<Mutex<dyn FailurePredictor>>) -> Self {
        self.extra = Some(p);
        self
    }
}

impl<S: Stack> System<S> {
    /// The master's actor state.
    pub fn master(&self) -> &S::Master {
        S::master(self.sim.actor(NodeId::MASTER))
    }

    /// The node id of compute node `i` (0-based).
    pub fn slave_id(&self, i: usize) -> u32 {
        (1 + self.n_satellites + i) as u32
    }

    /// Submit a job over the given compute-node indices (0-based) at `at`.
    pub fn submit(&mut self, at: SimTime, job: u64, slave_idxs: Range<usize>, runtime: SimSpan) {
        self.submitted += 1;
        let nodes = NodeSlice::from_nodes(slave_idxs.map(|i| self.slave_id(i)));
        self.sim.inject(
            at,
            NodeId::MASTER,
            NodeId::MASTER,
            RmMsg::SubmitJob {
                job,
                nodes,
                runtime_us: runtime.as_micros(),
            },
        );
    }
}

impl System<EslurmConfig> {
    /// Satellite `idx` (0-based) actor state.
    pub fn satellite(&self, idx: usize) -> &SatelliteDaemon {
        match self.sim.actor(NodeId(1 + idx as u32)) {
            EslurmNode::Satellite(s) => s,
            _ => unreachable!("nodes 1..=m are satellites"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::SatState;
    use crate::Scenario;
    use rm::JobStream;

    fn small_cfg(m: usize) -> EslurmConfig {
        EslurmConfig {
            n_satellites: m,
            eq1_width: 16,
            relay_width: 8,
            hb_sweep_interval: SimSpan::from_secs(60),
            sat_hb_interval: SimSpan::from_secs(5),
            ..Default::default()
        }
    }

    #[test]
    fn centralized_job_stream_runs_to_completion() {
        let stream = JobStream::new(
            64,
            SimSpan::from_secs(600),
            120.0,
            32,
            SimSpan::from_secs(60),
            9,
        );
        let sys = Scenario::new(RmProfile::slurm(), 64, 5, SimTime::from_secs(3600))
            .arrivals(stream)
            .run(|b| b);
        let n = sys.submitted;
        assert!(n > 5, "stream produced only {n} jobs");
        assert_eq!(sys.master().records.len() as u64, n);
    }

    #[test]
    fn sampling_records_the_centralized_master_series() {
        let sampler = Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(60));
        let mut sys = SystemBuilder::new(RmProfile::lsf(), 32, 5)
            .sampler(sampler.clone())
            .build();
        sys.sim.run_until(SimTime::from_secs(120));
        let id = obs::MetricId::new("footprint_virt_bytes").with("node", "master");
        let store = sampler.store();
        let virt = store.get(&id).expect("master tracked");
        assert_eq!(virt.len(), 60);
        // Memory allocated at start shows up in every sample.
        assert!(virt[0].value > (1u64 << 30) as f64);
    }

    #[test]
    fn node_enum_is_sized_by_the_compute_daemon() {
        use std::mem::size_of;
        // 200,000 of these per sweep benchmark, a million in fig9: a fat
        // master variant is paid for by every slave. The master and the
        // satellite keep their state behind a box. The slave (24 bytes)
        // no longer sets the size: the master's box plus its public
        // `records` vector (32 bytes) do, and the discriminant fits a
        // niche of their fields.
        assert!(size_of::<SlaveDaemon>() <= 24);
        assert!(size_of::<SatelliteDaemon>() <= size_of::<SlaveDaemon>());
        assert!(size_of::<EslurmMaster>() <= 32);
        assert!(size_of::<EslurmNode>() <= 32);
    }

    #[test]
    fn relay_arena_stops_growing_after_the_first_sweep() {
        // Every compute node shares one relay arena, sized by the relays
        // open at once: a second heartbeat sweep over the same nodes
        // reuses the first one's slots.
        let mut sys = EslurmSystemBuilder::new(small_cfg(2), 500, 11).build();
        let slots = |sys: &EslurmSystem| {
            let per_slave: Vec<usize> = (0..sys.n_slaves)
                .map(|i| match sys.sim.actor(NodeId(sys.slave_id(i))) {
                    EslurmNode::Slave(s) => s.relay_slots(),
                    _ => unreachable!("compute nodes run slave daemons"),
                })
                .collect();
            assert!(
                per_slave.iter().all(|&n| n == per_slave[0]),
                "one arena per deployment"
            );
            per_slave[0]
        };
        sys.sim.run_until(SimTime::from_secs(90));
        assert_eq!(sys.master().sweeps().len(), 1);
        let first = slots(&sys);
        assert!(first > 0 && first < 500, "{first} slots");
        sys.sim.run_until(SimTime::from_secs(150));
        assert_eq!(sys.master().sweeps().len(), 2);
        assert_eq!(slots(&sys), first);
    }

    #[test]
    fn job_lifecycle_completes() {
        let mut sys = EslurmSystemBuilder::new(small_cfg(2), 64, 3).build();
        sys.submit(SimTime::from_secs(1), 42, 0..32, SimSpan::from_secs(10));
        sys.sim.run_until(SimTime::from_secs(30));
        let master = sys.master();
        assert_eq!(master.records.len(), 1);
        let r = master.records[0];
        assert_eq!(r.job, 42);
        assert_eq!(r.nodes, 32);
        let occ = r.occupation();
        assert!(
            occ >= SimSpan::from_secs(10) && occ < SimSpan::from_secs(13),
            "{occ}"
        );
        assert_eq!(master.takeovers(), 0);
    }

    #[test]
    fn heartbeat_sweeps_cover_all_slaves() {
        let mut sys = EslurmSystemBuilder::new(small_cfg(2), 100, 5).build();
        sys.sim.run_until(SimTime::from_secs(200));
        let master = sys.master();
        assert!(!master.sweeps().is_empty(), "no sweeps completed");
        for s in master.sweeps() {
            assert_eq!(s.reached, 100, "sweep missed nodes");
        }
    }

    #[test]
    fn master_has_few_sockets_satellites_share_load() {
        let mut sys = EslurmSystemBuilder::new(small_cfg(4), 400, 7).build();
        sys.sim.run_until(SimTime::from_secs(300));
        // The master only ever talks to satellites: its socket peak stays
        // tiny even while sweeps cover 400 nodes.
        assert!(
            sys.sim.meter(NodeId::MASTER).peak_sockets() <= 8,
            "master peak sockets {}",
            sys.sim.meter(NodeId::MASTER).peak_sockets()
        );
        // All satellites processed work.
        for i in 0..4 {
            assert!(sys.satellite(i).tasks_done() > 0, "satellite {i} idle");
        }
    }

    #[test]
    fn eq1_splits_large_jobs_across_satellites() {
        let mut sys = EslurmSystemBuilder::new(
            EslurmConfig {
                eq1_width: 16,
                ..small_cfg(4)
            },
            128,
            9,
        )
        .build();
        // 64 nodes, width 16 => Eq. 1 gives 4 satellites.
        sys.submit(SimTime::from_secs(1), 1, 0..64, SimSpan::from_secs(5));
        sys.sim.run_until(SimTime::from_secs(20));
        let with_work = (0..4)
            .filter(|&i| sys.satellite(i).tasks_done() > 0)
            .count();
        assert_eq!(with_work, 4, "expected all satellites to carry a share");
        assert_eq!(sys.master().records.len(), 1);
    }

    #[test]
    fn dead_satellite_triggers_reassignment_not_loss() {
        let m = 2;
        // Satellite node 1 dies just before the job is submitted and stays
        // dead; satellite 2 (or the master) must pick up the work.
        let total = 1 + m + 64;
        let faults = FaultPlan::from_outages(
            total,
            vec![emu::Outage {
                node: NodeId(1),
                down_at: SimTime::from_millis(500),
                up_at: SimTime::from_secs(100_000),
            }],
        );
        let mut sys = EslurmSystemBuilder::new(small_cfg(m), 64, 11)
            .faults(faults)
            .build();
        sys.submit(SimTime::from_secs(1), 77, 0..48, SimSpan::from_secs(5));
        sys.sim.run_until(SimTime::from_secs(120));
        let master = sys.master();
        assert_eq!(master.records.len(), 1, "job lost after satellite failure");
        assert!(
            master.reassignments() > 0 || master.takeovers() > 0,
            "failure was never detected"
        );
        // The dead satellite ends up FAULT/DOWN on the master's FSM.
        let st = master.satellite_state(0, sys.sim.now());
        assert!(matches!(st, SatState::Fault | SatState::Down), "{st:?}");
    }

    #[test]
    fn deterministic_run() {
        let build = || {
            let mut sys = EslurmSystemBuilder::new(small_cfg(2), 64, 13).build();
            sys.submit(SimTime::from_secs(2), 5, 0..16, SimSpan::from_secs(7));
            sys.sim.run_until(SimTime::from_secs(60));
            (
                sys.sim.events_processed(),
                sys.master().records.len(),
                sys.master().sweeps().len(),
            )
        };
        assert_eq!(build(), build());
    }
}
