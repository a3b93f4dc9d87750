//! One experiment shape, stated once: one of the six RMs on `n_compute`
//! compute nodes, under a job load and compute-node outages, over a
//! horizon. The figure bins, the CLI's cluster commands, the DES
//! benchmarks and the integration suites each construct a [`Scenario`]
//! and read records and meters off the [`System`] it returns.

use crate::system::{Stack, System, SystemBuilder};
use emu::{FaultPlan, FaultPlanBuilder};
use rm::Arrival;
use simclock::{SimSpan, SimTime};

/// A run of one RM on the DES: the stack, its size, seed, load, outages
/// and horizon. Instruments are not part of it: `build` and `run` take an
/// `arm` closure that chains the [`SystemBuilder`] setters (recorder,
/// sampler, SLO engine) onto the builder the scenario configured. A fault
/// plan of the whole layout armed there, for a satellite or master outage,
/// replaces the scenario's compute-node outages.
pub struct Scenario<S: Stack> {
    /// The end of the run.
    pub horizon: SimTime,
    /// The RM: an `EslurmConfig` or an `rm::RmProfile`.
    stack: S,
    /// Compute nodes; the master and any satellites come on top. Private,
    /// like the rest: `outages` is drawn over this many nodes.
    n_compute: usize,
    seed: u64,
    arrivals: Box<dyn Iterator<Item = Arrival>>,
    outages: FaultPlan,
}

impl<S: Stack> Scenario<S> {
    /// `stack` on `n_compute` compute nodes to `horizon`, with no jobs and
    /// no outages.
    pub fn new(stack: S, n_compute: usize, seed: u64, horizon: SimTime) -> Self {
        Scenario {
            stack,
            n_compute,
            seed,
            horizon,
            arrivals: Box::new(std::iter::empty()),
            outages: FaultPlan::default(),
        }
    }

    /// The jobs, submitted in this order: an `rm::JobStream` or an
    /// explicit list.
    pub fn arrivals(mut self, arrivals: impl Iterator<Item = Arrival> + 'static) -> Self {
        self.arrivals = Box::new(arrivals);
        self
    }

    /// Outages of the compute nodes: the plan's node `i` is compute node
    /// `i`, placed past the master and satellites when the system is built.
    pub fn outages(mut self, plan: FaultPlan) -> Self {
        self.outages = plan;
        self
    }

    /// `events` small outages of the compute nodes, drawn from `seed`
    /// over the horizon (see [`small_outages`]).
    pub fn small_outages(self, events: usize, seed: u64) -> Self {
        let plan = small_outages(self.n_compute, self.horizon - SimTime::ZERO, events, seed);
        self.outages(plan)
    }

    /// The deployment with `arm` chained onto its builder and every
    /// arrival submitted, not yet run.
    pub fn build(self, arm: impl FnOnce(SystemBuilder<S>) -> SystemBuilder<S>) -> System<S> {
        let first_compute = 1 + self.stack.n_satellites();
        let outages = self
            .outages
            .placed(first_compute, first_compute + self.n_compute);
        let builder = SystemBuilder::new(self.stack, self.n_compute, self.seed).faults(outages);
        let mut sys = arm(builder).build();
        for a in self.arrivals {
            sys.submit(a.at, a.job, a.nodes, a.runtime);
        }
        sys
    }

    /// [`Self::build`], then run to the horizon.
    pub fn run(self, arm: impl FnOnce(SystemBuilder<S>) -> SystemBuilder<S>) -> System<S> {
        let horizon = self.horizon;
        let mut sys = self.build(arm);
        sys.sim.run_until(horizon);
        sys
    }
}

/// The small-outage mix of the CLI's `--faults` and `tests/properties.rs`:
/// `events` outages of 1–4 adjacent nodes each among `n` nodes, starting
/// uniformly within `horizon` and lasting 120 s on average, drawn from
/// `seed`.
pub fn small_outages(n: usize, horizon: SimSpan, events: usize, seed: u64) -> FaultPlan {
    FaultPlanBuilder::new(n, horizon, seed)
        .small_events(events, 4)
        .mean_outage(SimSpan::from_secs(120))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EslurmConfig;
    use obs::{EventKind, Recorder};
    use rm::RmProfile;

    /// The nodes a run of `stack` took down, read off the trace's fault
    /// marks: 40 small outages over 16 compute nodes hit every one of
    /// them, and would hit the master and satellites too if the plan were
    /// not placed past them.
    fn downed<S: Stack>(stack: S) -> Vec<u32> {
        let rec = Recorder::full();
        Scenario::new(stack, 16, 3, SimTime::from_secs(600))
            .small_outages(40, 7)
            .run(|b| b.obs(rec.clone()));
        let mut nodes: Vec<u32> = rec
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::NodeDown)
            .map(|e| e.node)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    #[test]
    fn outages_land_on_compute_nodes_only() {
        let eslurm = EslurmConfig {
            n_satellites: 3,
            ..Default::default()
        };
        for (first_compute, nodes) in [(4, downed(eslurm)), (1, downed(RmProfile::slurm()))] {
            let compute: Vec<u32> = (first_compute..first_compute + 16).collect();
            assert_eq!(
                nodes, compute,
                "outages must cover exactly the compute nodes"
            );
        }
    }
}
