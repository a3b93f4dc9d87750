//! Whole-system wiring: build an emulated ESlurm cluster (master +
//! satellites + compute nodes) on the DES, inject job streams, and read
//! back records and meters.
//!
//! Node layout convention: node 0 is the master, nodes `1..=m` are the
//! satellites, and nodes `m+1..` are compute (slave) nodes.

use crate::config::EslurmConfig;
use crate::master::EslurmMaster;
use crate::satellite::SatelliteDaemon;
use emu::{Actor, Context, FaultPlan, NodeId, SimCluster, SimConfig};
use monitoring::FailurePredictor;
use obs::{tag_scope, MemTag, Recorder, Sampler, SloEngine};
use rm::proto::{NodeSlice, RmMsg};
use rm::slave::{SlaveConfig, SlaveDaemon, SlaveHeartbeat};
use rm::JobStream;
use simclock::{SimSpan, SimTime};
use std::ops::Range;
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

/// A built ESlurm cluster.
pub struct EslurmSystem {
    /// The running simulation.
    pub sim: SimCluster<RmMsg, EslurmNode>,
    /// Number of satellites (nodes `1..=n_satellites`).
    pub n_satellites: usize,
    /// Number of compute nodes.
    pub n_slaves: usize,
}

/// Builder for [`EslurmSystem`].
pub struct EslurmSystemBuilder {
    cfg: EslurmConfig,
    n_slaves: usize,
    predictor: Option<Arc<Mutex<dyn FailurePredictor>>>,
    /// The engine's configuration, instruments included: [`SimConfig`] is
    /// the one list of them, and every instrument setter below writes
    /// straight into it.
    sim: SimConfig,
}

impl EslurmSystemBuilder {
    /// Start building a cluster of `n_slaves` compute nodes.
    pub fn new(cfg: EslurmConfig, n_slaves: usize, seed: u64) -> Self {
        let sim = SimConfig::new(1 + cfg.n_satellites + n_slaves, seed);
        EslurmSystemBuilder {
            cfg,
            n_slaves,
            predictor: None,
            sim,
        }
    }

    /// Accepted and ignored: the engine has one queue and one node store,
    /// so there is no layout to choose. Kept only because the frozen
    /// end-to-end benchmark calls it; it goes with the benchmark's
    /// `emu.workers2_wall_ratio` metric when the benchmark is next revised.
    pub fn shards(self, _n: usize) -> Self {
        self
    }

    /// Record transport and daemon telemetry into `recorder`: the DES
    /// traces message flow and fault marks, the master traces job/task/FSM
    /// activity, and every satellite traces task service times.
    pub fn obs(mut self, recorder: Recorder) -> Self {
        self.sim.obs = recorder;
        self
    }

    /// Evaluate SLO specs online against this run's telemetry (mirrored on
    /// `RmClusterBuilder`). The engine runs on the sampling cadence, so an
    /// end-bounded [`Self::sampler`] must also be configured for it to
    /// tick. It is strictly observational: it reads the
    /// recorder/sampler and writes only its own state, so enabling it
    /// changes no outcome and no base trace/CSV byte. Read results back
    /// via [`SimCluster::slo_engine`] after the run.
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

    /// Install a failure predictor shared by all satellites.
    pub fn predictor(mut self, p: Arc<Mutex<dyn FailurePredictor>>) -> Self {
        self.predictor = Some(p);
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
    pub fn build(self) -> EslurmSystem {
        let m = self.cfg.n_satellites;
        let total = 1 + m + self.n_slaves;
        assert!(
            total <= u32::MAX as usize,
            "{total} nodes exceed the u32 node-id space"
        );
        let sat_ids: Vec<u32> = (1..=m as u32).collect();
        let slave_ids: Vec<u32> = (m as u32 + 1..total as u32).collect();

        let mut actors: Vec<EslurmNode> = Vec::with_capacity(total);
        actors.push(EslurmNode::Master(
            EslurmMaster::new(self.cfg.clone(), slave_ids, sat_ids.clone())
                .with_obs(self.sim.obs.clone()),
        ));
        for _ in 0..m {
            actors.push(EslurmNode::Satellite(
                SatelliteDaemon::new(self.cfg.clone(), self.predictor.clone())
                    .with_obs(self.sim.obs.clone()),
            ));
        }
        // ESlurm compute nodes don't push heartbeats to the master;
        // liveness is collected through satellite Ping sweeps.
        let slave_cfg = Arc::new(SlaveConfig {
            master: NodeId::MASTER,
            heartbeat: SlaveHeartbeat::None,
            conn_lifetime: self.cfg.conn_lifetime,
            ..SlaveConfig::default()
        });
        for _ in 0..self.n_slaves {
            actors.push(EslurmNode::Slave(SlaveDaemon::new(Arc::clone(&slave_cfg))));
        }

        let config = self.sim;
        config.sampler.name_node(NodeId::MASTER.0, "master");
        for (i, &s) in sat_ids.iter().enumerate() {
            config.sampler.name_node(s, &format!("sat{}", i + 1));
        }
        EslurmSystem {
            sim: SimCluster::new(actors, config),
            n_satellites: m,
            n_slaves: self.n_slaves,
        }
    }
}

impl EslurmSystem {
    /// The master's actor state.
    pub fn master(&self) -> &EslurmMaster {
        match self.sim.actor(NodeId::MASTER) {
            EslurmNode::Master(m) => m,
            _ => unreachable!("node 0 is the master"),
        }
    }

    /// Satellite `idx` (0-based) actor state.
    pub fn satellite(&self, idx: usize) -> &SatelliteDaemon {
        match self.sim.actor(NodeId(1 + idx as u32)) {
            EslurmNode::Satellite(s) => s,
            _ => unreachable!("nodes 1..=m are satellites"),
        }
    }

    /// The node id of compute node `i` (0-based).
    pub fn slave_id(&self, i: usize) -> u32 {
        (1 + self.n_satellites + i) as u32
    }

    /// Submit a job over the given compute-node indices (0-based) at `at`.
    pub fn submit(&mut self, at: SimTime, job: u64, slave_idxs: Range<usize>, runtime: SimSpan) {
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

    /// Submit every arrival of `stream`, as
    /// [`rm::ClusterHarness::submit_stream`] does on the centralized
    /// stack. Returns the number of jobs injected.
    pub fn submit_stream(&mut self, stream: JobStream) -> u64 {
        stream.fold(0, |n, a| {
            self.submit(a.at, a.job, a.nodes, a.runtime);
            n + 1
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::SatState;

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
    fn node_enum_is_sized_by_the_compute_daemon() {
        use std::mem::size_of;
        // 200,000 of these per sweep benchmark, a million in fig9: a fat
        // master variant is paid for by every slave.
        // The master and satellite keep their state behind a box, so the
        // discriminant fits a niche of the slave's fields.
        assert!(size_of::<EslurmNode>() <= 48);
        assert!(size_of::<EslurmMaster>() <= size_of::<SlaveDaemon>());
        assert!(size_of::<SatelliteDaemon>() <= size_of::<SlaveDaemon>());
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
    fn cancellation_cuts_a_running_job_short() {
        let mut sys = EslurmSystemBuilder::new(small_cfg(2), 64, 15).build();
        // A ten-minute job, cancelled two minutes in.
        sys.submit(SimTime::from_secs(1), 9, 0..32, SimSpan::from_secs(600));
        sys.sim.inject(
            SimTime::from_secs(120),
            NodeId(1),
            NodeId::MASTER,
            rm::proto::RmMsg::CancelJob { job: 9 },
        );
        sys.sim.run_until(SimTime::from_secs(400));
        let master = sys.master();
        assert_eq!(master.records.len(), 1, "cancelled job never cleaned up");
        let occ = master.records[0].occupation().as_secs_f64();
        assert!(
            (119.0..140.0).contains(&occ),
            "occupation {occ}s should reflect the cancellation, not the 600s runtime"
        );
    }

    #[test]
    fn cancelling_unknown_job_is_harmless() {
        let mut sys = EslurmSystemBuilder::new(small_cfg(2), 16, 15).build();
        sys.sim.inject(
            SimTime::from_secs(5),
            NodeId(1),
            NodeId::MASTER,
            rm::proto::RmMsg::CancelJob { job: 12345 },
        );
        sys.sim.run_until(SimTime::from_secs(60));
        assert!(sys.master().records.is_empty());
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
