//! The five workloads by name. Names are final: every later performance
//! claim about this repository cites one of them.

use crate::des::{self, DesParams};
use crate::pass::{ensure, Pass, Violation};
use crate::pipeline::{self, PipelineParams};
use crate::sched_wl::{self, SchedParams};
use crate::trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DesSweep,
    DesLaunch,
    SchedPredict,
    SchedBackfill,
    Pipeline,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::DesSweep,
        Workload::DesLaunch,
        Workload::SchedPredict,
        Workload::SchedBackfill,
        Workload::Pipeline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DesSweep => "des_sweep",
            Workload::DesLaunch => "des_launch",
            Workload::SchedPredict => "sched_predict",
            Workload::SchedBackfill => "sched_backfill",
            Workload::Pipeline => "pipeline",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line (goes into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::DesSweep => {
                "heartbeat sweeps over 200,000 nodes: queue, engine dispatch and slave handlers do nearly all the work; sched, estimate, ml and obs do none"
            }
            Workload::DesLaunch => {
                "bursty tree launch and reclaim of 3,000 wide jobs on 16,384 nodes under faults: the same engine, with eslurm FSMs, FP-Tree and monitoring at their largest share"
            }
            Workload::SchedPredict => {
                "66,000 jobs on an underloaded 1,024-node cluster with predictive limits: the queue stays shallow, so estimate and ml (83 retrains) do over 90 % of the work"
            }
            Workload::SchedBackfill => {
                "60,000 jobs with user limits on an overloaded 512-node cluster: backfill passes over a deep queue do the work; estimate and ml are bypassed"
            }
            Workload::Pipeline => {
                "the whole chain, all timed: trace, JSONL, predictive scheduler, placement, ESlurm on the DES with obs armed, export; the only workload where obs and trace I/O work"
            }
        }
    }

    /// The frozen parameters.
    pub fn params(self) -> Params {
        match self {
            Workload::DesSweep => Params::Des(DesParams::sweep()),
            Workload::DesLaunch => Params::Des(DesParams::launch()),
            Workload::SchedPredict => Params::Sched(SchedParams::predict()),
            Workload::SchedBackfill => Params::Sched(SchedParams::backfill()),
            Workload::Pipeline => Params::Pipeline(PipelineParams::full()),
        }
    }
}

/// A workload's parameters; what actually runs.
#[derive(Clone, Debug)]
pub enum Params {
    Des(DesParams),
    Sched(SchedParams),
    Pipeline(PipelineParams),
}

impl Params {
    /// The 200-node miniature of the same shape, for tests.
    #[cfg(test)]
    pub fn miniature(self) -> Self {
        match self {
            Params::Des(p) => Params::Des(p.miniature()),
            Params::Sched(p) => Params::Sched(p.miniature()),
            Params::Pipeline(p) => Params::Pipeline(p.miniature()),
        }
    }

    /// Jobs one pass submits: what a crashed child is charged with.
    pub fn jobs(&self) -> u64 {
        (match self {
            Params::Des(p) => p.jobs,
            Params::Sched(p) => p.jobs,
            Params::Pipeline(p) => p.jobs,
        }) as u64
    }

    /// One pass.
    pub fn run(&self, seed: u64, traced: bool, tracer: &mut Tracer) -> Result<Pass, Violation> {
        match self {
            Params::Des(p) => des::run(p, seed, traced, tracer),
            Params::Sched(p) => sched_wl::run(p, seed, traced, tracer),
            Params::Pipeline(p) => pipeline::run(p, seed, traced, tracer),
        }
    }

    /// A traced round: one untraced pass as the baseline, one decorated
    /// pass whose outcome must equal it, then the extra passes and
    /// replays. Returns the baseline with the per-layer metrics attached.
    pub fn run_traced(&self, seed: u64, tracer: &mut Tracer) -> Result<Pass, Violation> {
        let mut baseline = self.run(seed, false, &mut Tracer::new(seed))?;
        let traced = self.run(seed, true, tracer)?;
        ensure(traced.outcome_fp == baseline.outcome_fp, || {
            format!(
                "traced outcome {:016x} differs from untraced {:016x}",
                traced.outcome_fp, baseline.outcome_fp
            )
        })?;
        let mut l = traced.layers;
        l.insert("trace_overhead_frac", traced.wall_s / baseline.wall_s - 1.0);
        match self {
            Params::Des(p) => des::extras(p, seed, &baseline, &mut l)?,
            Params::Sched(p) => sched_wl::extras(p, seed, &baseline, &mut l)?,
            Params::Pipeline(p) => pipeline::extras(p, seed, &mut l)?,
        }
        baseline.layers = l;
        Ok(baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("des"), None);
    }

    /// On a 200-node miniature of every workload, and on a seed other
    /// than the default: the invariants hold, no job fails, the run is
    /// deterministic, the seed matters, and the `Timed` decorators leave
    /// the outcome alone (`run_traced` fails on a fingerprint mismatch).
    /// The traced run also shows the separation the workloads were chosen
    /// for: `estimate` works on `sched_predict` and not on
    /// `sched_backfill`, and `obs` works on `pipeline` only.
    #[test]
    fn miniatures_pass_and_decorators_do_not_perturb() {
        for w in Workload::ALL {
            let p = w.params().miniature();
            let run = |seed| {
                p.run_traced(seed, &mut Tracer::new(seed))
                    .unwrap_or_else(|v| panic!("{} seed {seed}: {v}", w.name()))
            };
            let (default, other) = (run(42), run(7));
            assert_ne!(
                default.outcome_fp,
                other.outcome_fp,
                "{}: seed ignored",
                w.name()
            );
            let again = p.run(7, false, &mut Tracer::new(7)).unwrap();
            assert_eq!(again.outcome_fp, other.outcome_fp, "{} repeats", w.name());
            for pass in [&default, &other] {
                assert_eq!(pass.failed, 0, "{}", w.name());
                assert_eq!(pass.attempted, p.jobs(), "{}", w.name());
                for (k, v) in &pass.layers {
                    assert!(v.is_finite(), "{} {k} = {v}", w.name());
                    assert!(
                        crate::manifest::PER_LAYER.iter().any(|m| m.name == *k),
                        "{} emits unlisted metric {k}",
                        w.name()
                    );
                }
            }
            let layer = |k: &str| other.layers.get(k).copied().unwrap_or(0.0);
            let obs = layer("obs.export_bytes") + layer("obs.samples");
            assert_eq!(obs > 0.0, w == Workload::Pipeline, "{}", w.name());
            let estimating = matches!(w, Workload::SchedPredict | Workload::Pipeline);
            assert_eq!(
                layer("estimate.retrain_count") >= 1.0,
                estimating,
                "{}",
                w.name()
            );
            assert_eq!(
                layer("ml.svr_fit_s") > 0.0,
                w == Workload::SchedPredict,
                "{}",
                w.name()
            );
        }
    }
}
