//! Harness glue: build an emulated cluster for a profile, inject job
//! streams, and read out the master's meters — the machinery behind the
//! Fig. 7 experiments.

use crate::master::CentralizedMaster;
use crate::profile::{HeartbeatMode, RmProfile};
use crate::proto::{NodeSlice, RmMsg};
use crate::slave::{SlaveConfig, SlaveDaemon, SlaveHeartbeat};
use emu::{Actor, Context, FaultPlan, NodeId, SimCluster, SimConfig};
use obs::{tag_scope, MemTag, Recorder, Sampler, SloEngine};
use rand::rngs::StdRng;
use rand::RngExt;
use simclock::rng::{exponential, stream_rng};
use simclock::{SimSpan, SimTime};
use std::ops::Range;
use std::sync::Arc;

/// A node of a centralized-RM cluster. One value per emulated node, nearly
/// all of them `Slave`, so the one master is boxed.
pub enum RmNode {
    /// The master daemon (node 0).
    Master(Box<CentralizedMaster>),
    /// A compute-node daemon.
    Slave(SlaveDaemon),
}

impl Actor<RmMsg> for RmNode {
    fn on_start(&mut self, ctx: &mut dyn Context<RmMsg>) {
        let _mem = tag_scope(MemTag::Rm);
        match self {
            RmNode::Master(m) => m.on_start(ctx),
            RmNode::Slave(s) => s.on_start(ctx),
        }
    }
    fn on_message(&mut self, ctx: &mut dyn Context<RmMsg>, from: NodeId, msg: RmMsg) {
        let _mem = tag_scope(MemTag::Rm);
        match self {
            RmNode::Master(m) => m.on_message(ctx, from, msg),
            RmNode::Slave(s) => s.on_message(ctx, from, msg),
        }
    }
    fn on_timer(&mut self, ctx: &mut dyn Context<RmMsg>, token: u64) {
        let _mem = tag_scope(MemTag::Rm);
        match self {
            RmNode::Master(m) => m.on_timer(ctx, token),
            RmNode::Slave(s) => s.on_timer(ctx, token),
        }
    }
}

/// A built cluster plus conventions (master = node 0).
pub struct ClusterHarness {
    /// The running simulation.
    pub sim: SimCluster<RmMsg, RmNode>,
}

impl ClusterHarness {
    /// The master's actor state.
    pub fn master_actor(&self) -> &CentralizedMaster {
        match self.sim.actor(NodeId::MASTER) {
            RmNode::Master(m) => m,
            RmNode::Slave(_) => unreachable!("node 0 is always the master"),
        }
    }

    /// Submit a job over the given compute-node indices (0-based; compute
    /// node `i` is node `1 + i`) to the master at `at`.
    pub fn submit(&mut self, at: SimTime, job: u64, nodes: Range<usize>, runtime: SimSpan) {
        self.sim.inject(
            at,
            NodeId::MASTER,
            NodeId::MASTER,
            RmMsg::SubmitJob {
                job,
                nodes: NodeSlice::from_nodes(nodes.map(|i| 1 + i as u32)),
                runtime_us: runtime.as_micros(),
            },
        );
    }

    /// Submit every arrival of `stream`. Returns the number of jobs
    /// injected.
    pub fn submit_stream(&mut self, stream: JobStream) -> u64 {
        stream.fold(0, |n, a| {
            self.submit(a.at, a.job, a.nodes, a.runtime);
            n + 1
        })
    }
}

/// One arrival of a [`JobStream`].
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// Submission time.
    pub at: SimTime,
    /// Job id, counting from 1.
    pub job: u64,
    /// The contiguous compute-node indices (0-based) the job runs on.
    pub nodes: Range<usize>,
    /// How long the job runs once launched.
    pub runtime: SimSpan,
}

/// The synthetic load of the resource-usage experiments, the same on
/// every stack: jobs arriving Poisson-style until a horizon, sizes
/// log-uniform in `1..=max_nodes` placed uniformly over the compute
/// nodes, runtimes exponential with a floor. Per arrival it draws, in
/// this order, inter-arrival, size, start and runtime.
#[derive(Clone, Debug)]
pub struct JobStream {
    rng: StdRng,
    seed: u64,
    t: f64,
    job: u64,
    n_compute: u32,
    horizon_s: f64,
    rate: f64,
    max_exp: f64,
    mean_runtime_s: f64,
    min_runtime_s: f64,
}

impl JobStream {
    /// `rate_per_hour` jobs per hour over `horizon` on `n_compute` compute
    /// nodes, sizes up to `max_nodes`, runtimes of mean `mean_runtime`
    /// floored at 5 s.
    pub fn new(
        n_compute: u32,
        horizon: SimSpan,
        rate_per_hour: f64,
        max_nodes: u32,
        mean_runtime: SimSpan,
        seed: u64,
    ) -> Self {
        JobStream {
            rng: stream_rng(seed, 0x10B5),
            seed,
            t: 0.0,
            job: 0,
            n_compute,
            horizon_s: horizon.as_secs_f64(),
            rate: rate_per_hour / 3600.0,
            max_exp: (max_nodes.min(n_compute) as f64).log2(),
            mean_runtime_s: mean_runtime.as_secs_f64(),
            min_runtime_s: 5.0,
        }
    }

    /// Draw from RNG stream `id` of the seed instead of `0x10B5`.
    pub fn rng_stream(mut self, id: u64) -> Self {
        self.rng = stream_rng(self.seed, id);
        self
    }

    /// Floor runtimes at `floor` instead of 5 s.
    pub fn min_runtime(mut self, floor: SimSpan) -> Self {
        self.min_runtime_s = floor.as_secs_f64();
        self
    }
}

impl Iterator for JobStream {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        self.t += exponential(&mut self.rng, self.rate);
        if self.t >= self.horizon_s {
            return None;
        }
        self.job += 1;
        let n = self.n_compute;
        let u = self.rng.random::<f64>();
        let count = 2f64.powf(u * self.max_exp).round().max(1.0) as u32;
        let start = self.rng.random_range(0..n - count.min(n - 1)) as usize;
        let runtime = exponential(&mut self.rng, 1.0 / self.mean_runtime_s).max(self.min_runtime_s);
        Some(Arrival {
            at: SimTime::from_secs_f64(self.t),
            job: self.job,
            nodes: start..start + count as usize,
            runtime: SimSpan::from_secs_f64(runtime),
        })
    }
}

/// Builder for centralized-RM clusters, mirroring `EslurmSystemBuilder`
/// so both stacks are constructed — and instrumented — the same way.
pub struct RmClusterBuilder {
    profile: RmProfile,
    n: usize,
    /// The engine's configuration, instruments included: every instrument
    /// setter below writes straight into it.
    sim: SimConfig,
}

impl RmClusterBuilder {
    /// Start building a cluster of `n` nodes (node 0 = master, 1..n =
    /// slaves) running `profile`.
    pub fn new(profile: RmProfile, n: usize) -> Self {
        RmClusterBuilder {
            profile,
            n,
            sim: SimConfig::new(n, 0),
        }
    }

    /// Master seed for the simulation's RNG streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Inject the given outage schedule (node 0 = master, 1..n = slaves).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.sim.faults = plan;
        self
    }

    /// Record transport and daemon telemetry into `recorder`, exactly as
    /// `EslurmSystemBuilder::obs` does for the distributed stack.
    pub fn obs(mut self, recorder: Recorder) -> Self {
        self.sim.obs = recorder;
        self
    }

    /// Feed footprint time series into `sampler` on its own cadence (node
    /// 0 is tracked as `master`), exactly as `EslurmSystemBuilder::sampler`
    /// does for the distributed stack.
    pub fn sampler(mut self, sampler: Sampler) -> Self {
        self.sim.sampler = sampler;
        self
    }

    /// Evaluate SLO specs online against this run's telemetry, exactly as
    /// `EslurmSystemBuilder::slo` does for the distributed stack. The
    /// engine ticks on the sampling cadence (configure an end-bounded
    /// sampler) and is strictly observational — outcomes and base exports
    /// are unchanged with it on or off.
    pub fn slo(mut self, engine: SloEngine) -> Self {
        self.sim.slo = engine;
        self
    }

    /// Materialize the cluster.
    pub fn build(self) -> ClusterHarness {
        let n = self.n;
        assert!(n >= 2, "need a master and at least one slave");
        let slaves: Vec<u32> = (1..n as u32).collect();
        let heartbeat = match self.profile.heartbeat {
            HeartbeatMode::MasterPolls { .. } => SlaveHeartbeat::None,
            HeartbeatMode::SlavePush {
                interval,
                synchronized,
            } => SlaveHeartbeat::Push {
                interval,
                synchronized,
            },
        };
        let slave_cfg = Arc::new(SlaveConfig {
            master: NodeId::MASTER,
            heartbeat,
            conn_lifetime: self.profile.conn_lifetime,
            obs: self.sim.obs.clone(),
            ..SlaveConfig::default()
        });
        let mut actors = Vec::with_capacity(n);
        actors.push(RmNode::Master(Box::new(
            CentralizedMaster::new(self.profile, slaves).with_obs(self.sim.obs.clone()),
        )));
        for _ in 1..n {
            actors.push(RmNode::Slave(SlaveDaemon::new(Arc::clone(&slave_cfg))));
        }
        self.sim.sampler.name_node(NodeId::MASTER.0, "master");
        ClusterHarness {
            sim: SimCluster::new(actors, self.sim),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_enum_is_sized_by_the_compute_daemon() {
        assert!(std::mem::size_of::<RmNode>() <= std::mem::size_of::<SlaveDaemon>() + 8);
    }

    #[test]
    fn job_stream_runs_to_completion() {
        let mut h = RmClusterBuilder::new(RmProfile::slurm(), 65)
            .seed(5)
            .build();
        let n = h.submit_stream(JobStream::new(
            64,
            SimSpan::from_secs(600),
            120.0,
            32,
            SimSpan::from_secs(60),
            9,
        ));
        assert!(n > 5, "stream produced only {n} jobs");
        h.sim.run_until(SimTime::from_secs(3600));
        assert_eq!(h.master_actor().records.len() as u64, n);
    }

    #[test]
    fn sampling_records_master_series() {
        let sampler = Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(60));
        let mut h = RmClusterBuilder::new(RmProfile::lsf(), 33)
            .seed(5)
            .sampler(sampler.clone())
            .build();
        h.sim.run_until(SimTime::from_secs(120));
        let id = obs::MetricId::new("footprint_virt_bytes").with("node", "master");
        let store = sampler.store();
        let virt = store.get(&id).expect("master tracked");
        assert_eq!(virt.len(), 60);
        // Memory allocated at start shows up in every sample.
        assert!(virt[0].value > (1u64 << 30) as f64);
    }
}
