//! The centralized deployment's pieces: the node enum, the actors of one
//! master plus its compute daemons, and the one synthetic job stream every
//! stack is loaded with. `eslurm::system` deploys them on the DES.

use crate::master::CentralizedMaster;
use crate::profile::{HeartbeatMode, RmProfile};
use crate::proto::RmMsg;
use crate::slave::{SlaveConfig, SlaveDaemon, SlaveGroup, SlaveHeartbeat};
use emu::{Actor, Context, NodeId};
use obs::{tag_scope, MemTag, Recorder};
use rand::rngs::StdRng;
use rand::RngExt;
use simclock::rng::{exponential, stream_rng};
use simclock::{SimSpan, SimTime};
use std::ops::Range;

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

/// The actors of a centralized deployment of `profile` over `n_compute`
/// compute nodes, in node order: the master (node 0), then one daemon per
/// compute node (compute node `i` is node `1 + i`). The master and every
/// slave record into `obs`.
pub fn actors(profile: RmProfile, n_compute: usize, obs: &Recorder) -> Vec<RmNode> {
    assert!(n_compute >= 1, "need a master and at least one slave");
    let slaves: Vec<u32> = (1..=n_compute as u32).collect();
    let heartbeat = match profile.heartbeat {
        HeartbeatMode::MasterPolls { .. } => SlaveHeartbeat::None,
        HeartbeatMode::SlavePush {
            interval,
            synchronized,
        } => SlaveHeartbeat::Push {
            interval,
            synchronized,
        },
    };
    let group = SlaveGroup::from(SlaveConfig {
        master: NodeId::MASTER,
        heartbeat,
        conn_lifetime: profile.conn_lifetime,
        obs: obs.clone(),
        ..SlaveConfig::default()
    });
    let mut actors = Vec::with_capacity(1 + n_compute);
    actors.push(RmNode::Master(Box::new(
        CentralizedMaster::new(profile, slaves).with_obs(obs.clone()),
    )));
    for _ in 0..n_compute {
        actors.push(RmNode::Slave(SlaveDaemon::new(group.clone())));
    }
    actors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_enum_is_sized_by_the_compute_daemon() {
        assert!(std::mem::size_of::<RmNode>() <= std::mem::size_of::<SlaveDaemon>() + 8);
    }
}
