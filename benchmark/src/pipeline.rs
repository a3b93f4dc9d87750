//! The `pipeline` workload: the whole chain, all of it timed — trace
//! generation, a JSONL round trip, the predictive scheduler with its
//! decision log, placement of the started jobs onto nodes, the ESlurm
//! protocol on the DES with the observability stack armed, and export.

use crate::des::{self, DesJob, Probes, Wiring};
use crate::pass::{ensure, Pass, Stopwatch, Violation};
use crate::replay;
use crate::sched_wl::{self, SchedParams, TimedPolicy};
use crate::stats::Fnv;
use crate::trace::Tracer;
use eslurm::{EslurmConfig, PredictiveLimit};
use estimate::EstimatorConfig;
use obs::audit::{Decision, DecisionLog, DecisionRecord};
use obs::{Recorder, Sampler, SloEngine};
use sched::prelude::{simulate, BackfillConfig, LimitPolicy};
use simclock::{SimSpan, SimTime};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use workload::trace::{load_jsonl, save_jsonl};
use workload::Job;

/// Frozen parameters of the end-to-end workload.
#[derive(Clone, Debug)]
pub struct PipelineParams {
    pub slaves: usize,
    pub satellites: usize,
    pub trace_s: u64,
    pub jobs: usize,
    /// Runtimes are cut to this, so the schedule — and with it the DES
    /// horizon — ends soon after the trace does.
    pub max_runtime_s: u64,
    /// The estimator's retrain period. The paper's 15 h would never fire
    /// inside a trace this short.
    pub retrain_every_s: u64,
}

impl PipelineParams {
    pub fn full() -> Self {
        PipelineParams {
            slaves: 16_384,
            satellites: 8,
            trace_s: 7_200,
            jobs: 4_000,
            max_runtime_s: 600,
            retrain_every_s: 600,
        }
    }

    /// A 200-node miniature with the same shape, for tests.
    #[cfg(test)]
    pub fn miniature(mut self) -> Self {
        self.slaves = 200;
        self.satellites = 2;
        self.jobs = 100;
        self.trace_s = 1_800;
        self
    }

    fn sched(&self) -> SchedParams {
        SchedParams {
            nodes: self.slaves as u32,
            horizon: SimSpan::from_secs(self.trace_s),
            jobs: self.jobs,
            predictive: true,
        }
    }

    fn trace(&self, seed: u64) -> Vec<Job> {
        let cap = SimSpan::from_secs(self.max_runtime_s);
        let mut jobs = self.sched().trace(seed);
        for j in &mut jobs {
            j.actual_runtime = j.actual_runtime.min(cap);
            // The generator snaps long jobs to the evening of their day,
            // far outside a sub-day trace; fold them back into its span.
            j.submit = SimTime(j.submit.as_micros() % (self.trace_s * 1_000_000));
        }
        sched_wl::renumber(&mut jobs);
        jobs
    }

    fn policy(&self) -> PredictiveLimit {
        PredictiveLimit::new(EstimatorConfig {
            window: sched_wl::WINDOW,
            retrain_every: SimSpan::from_secs(self.retrain_every_s),
            ..Default::default()
        })
    }

    fn eslurm(&self) -> EslurmConfig {
        EslurmConfig {
            n_satellites: self.satellites,
            eq1_width: 512,
            relay_width: 8,
            hb_sweep_interval: SimSpan::from_secs(120),
            sat_hb_interval: SimSpan::from_secs(30),
            ..Default::default()
        }
    }
}

/// A directory under the benchmark's `out/` that is removed on drop,
/// whichever way the pass ends.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new() -> std::io::Result<Self> {
        // Unique per process and, for tests on parallel threads, per call.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let name = format!("tmp-{}-{}", std::process::id(), NEXT.fetch_add(1, Relaxed));
        let path = Path::new(crate::OUT_DIR).join(name);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// First-fit placement over a free bitmap: each started job takes the
/// lowest-numbered free nodes. The log is replayed in the order the
/// scheduler wrote it, so nodes released at an instant are free for the
/// jobs it started at that instant.
pub struct Placer {
    busy: Vec<bool>,
    free: usize,
}

impl Placer {
    pub fn new(nodes: usize) -> Self {
        Placer {
            busy: vec![false; nodes],
            free: nodes,
        }
    }

    /// The `n` lowest free nodes, now busy; `None` if fewer are free.
    pub fn take(&mut self, n: usize) -> Option<Vec<u32>> {
        if n > self.free {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for (i, b) in self.busy.iter_mut().enumerate() {
            if out.len() == n {
                break;
            }
            if !*b {
                *b = true;
                out.push(i as u32);
            }
        }
        self.free -= n;
        Some(out)
    }

    /// Free `nodes`. Panics if one was not busy: that is a bug here.
    pub fn release(&mut self, nodes: &[u32]) {
        for &i in nodes {
            assert!(self.busy[i as usize], "node {i} released while free");
            self.busy[i as usize] = false;
        }
        self.free += nodes.len();
    }
}

/// Turn the scheduler's decisions into placed executions: every
/// `Started` record opens a slot on first-fit nodes, the job's next
/// `Completed` or `KilledAtLimit` closes it.
pub fn place(records: &[DecisionRecord], nodes: usize) -> Result<Vec<DesJob>, Violation> {
    let mut placer = Placer::new(nodes);
    let mut open: BTreeMap<u64, usize> = BTreeMap::new();
    let mut placed: Vec<DesJob> = Vec::new();
    for r in records {
        match r.decision {
            Decision::Started { nodes: n } => {
                let taken = placer.take(n as usize).ok_or_else(|| {
                    Violation(format!(
                        "job {} started on {n} nodes with fewer free: a node would run two jobs",
                        r.job
                    ))
                })?;
                ensure(open.insert(r.job, placed.len()).is_none(), || {
                    format!("job {} started twice without ending", r.job)
                })?;
                placed.push(DesJob {
                    at: SimTime(r.t_us),
                    nodes: taken,
                    runtime: SimSpan::ZERO,
                });
            }
            Decision::Completed { .. } | Decision::KilledAtLimit { .. } => {
                let i = open
                    .remove(&r.job)
                    .ok_or_else(|| Violation(format!("job {} ended without a start", r.job)))?;
                placed[i].runtime = SimTime(r.t_us) - placed[i].at;
                placer.release(&placed[i].nodes);
            }
            _ => {}
        }
    }
    ensure(open.is_empty(), || {
        format!("{} executions never ended", open.len())
    })?;
    Ok(placed)
}

/// What the stages before the DES produce.
struct Scheduled {
    jobs: Vec<Job>,
    sched_fp: u64,
    completed: usize,
    placed: Vec<DesJob>,
}

/// Stages 1–4: trace, JSONL round trip, scheduler, placement.
fn schedule<P: LimitPolicy>(
    p: &PipelineParams,
    seed: u64,
    policy: &mut P,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Scheduled, Violation> {
    let io = |e: std::io::Error| Violation(format!("trace file: {e}"));
    let jobs = tracer.span("workload.generate", |_| p.trace(seed));
    let path = dir.join("trace.jsonl");
    let loaded = tracer.span("workload.jsonl_roundtrip", |_| {
        save_jsonl(&jobs, &path)?;
        load_jsonl(&path)
    });
    let loaded = loaded.map_err(io)?;
    ensure(loaded == jobs, || {
        "trace changed in the JSONL round trip".into()
    })?;

    let log = DecisionLog::unbounded();
    let cfg = BackfillConfig {
        audit: log.clone(),
        ..BackfillConfig::new(p.slaves as u32)
    };
    let report = tracer.span("sched.simulate", |_| simulate(&loaded, policy, &cfg));
    sched_wl::check(&report, loaded.len())?;
    let placed = tracer.span("pipeline.place", |_| place(&log.records(), p.slaves))?;
    Ok(Scheduled {
        jobs: loaded,
        sched_fp: sched_wl::fingerprint(&report),
        completed: report.completed,
        placed,
    })
}

/// The DES horizon: the last execution's end plus drain slack.
fn horizon(placed: &[DesJob]) -> SimTime {
    let last = placed
        .iter()
        .map(|j| j.at + j.runtime)
        .max()
        .unwrap_or(SimTime::ZERO);
    last + SimSpan::from_secs(120)
}

/// The observability stack the pipeline arms on its DES stage.
struct Armed {
    rec: Recorder,
    sampler: Sampler,
    slo: SloEngine,
}

impl Armed {
    fn new(until: SimTime) -> Self {
        Armed {
            rec: Recorder::metrics_only(),
            sampler: Sampler::every_until(SimSpan::from_secs(1), until),
            // The CLI's `slo-report` defaults.
            slo: SloEngine::paper_presets(10_000_000.0, 600.0, 10_000.0),
        }
    }

    fn wiring(&self, p: &PipelineParams, seed: u64) -> Wiring {
        let mut w = Wiring::bare(p.eslurm(), p.slaves, seed);
        w.obs = self.rec.clone();
        w.sampler = self.sampler.clone();
        w.slo = self.slo.clone();
        w
    }

    /// Stage 7: render the three exports into `dir`; returns their bytes.
    fn export(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        let docs = vec![
            self.sampler.to_csv(),
            obs::export::to_prometheus(&self.rec),
            obs::export::summary_to_json(&self.rec.summary()),
        ];
        for (doc, name) in docs
            .iter()
            .zip(["series.csv", "metrics.prom", "summary.json"])
        {
            std::fs::write(dir.join(name), doc)?;
        }
        Ok(docs)
    }
}

/// One pass of the end-to-end workload.
pub fn run(
    p: &PipelineParams,
    seed: u64,
    traced: bool,
    tracer: &mut Tracer,
) -> Result<Pass, Violation> {
    let io = |e: std::io::Error| Violation(format!("temp dir: {e}"));
    let dir = TempDir::new().map_err(io)?;
    let watch = Stopwatch::start();

    let mut timed_policy = traced.then(|| TimedPolicy::new(p.policy(), tracer));
    let s = match &mut timed_policy {
        Some(policy) => schedule(p, seed, policy, dir.path(), tracer)?,
        None => schedule(p, seed, &mut p.policy(), dir.path(), tracer)?,
    };
    let until = horizon(&s.placed);
    let armed = Armed::new(until);

    let (run, probes) = if traced {
        let probes = Probes::new(tracer);
        let mut sim = tracer.span("emu.build", |_| {
            des::build_timed(armed.wiring(p, seed), &probes)
        });
        probes.injected(s.placed.len());
        let run = des::drive(&mut sim, p.satellites, &s.placed, until, tracer)?;
        (run, Some(probes))
    } else {
        let mut sim = tracer.span("emu.build", |_| des::build_plain(armed.wiring(p, seed)));
        let run = des::drive(&mut sim, p.satellites, &s.placed, until, tracer)?;
        (run, None)
    };

    let docs = tracer
        .span("obs.export", |_| armed.export(dir.path()))
        .map_err(io)?;
    let (wall_s, cpu_s) = watch.stop();

    let mut h = Fnv::default();
    h.u64(s.sched_fp);
    h.u64(run.outcome_fp);
    for d in &docs {
        h.bytes(d.as_bytes());
    }
    // A job fails if the scheduler abandoned it or the protocol never
    // recorded one of its executions.
    let lost_runs = s.placed.len() as u64 - run.recorded;
    let mut pass = Pass {
        // Users pay the set-up here, so it is also inside `wall_s`.
        setup_s: des::setup_s(tracer),
        wall_s,
        cpu_s,
        outcome_fp: h.0,
        attempted: s.jobs.len() as u64,
        failed: (s.jobs.len() - s.completed) as u64 + lost_runs,
        layers: BTreeMap::new(),
    };

    if let (Some(probes), Some(tp)) = (probes, timed_policy) {
        let l = &mut pass.layers;
        des::engine_layers(l, tracer, &probes, &run);
        sched_wl::policy_layers(l, tracer, &tp, s.jobs.len());
        l.insert("workload.generate_s", tracer.span_s("workload.generate"));
        l.insert("workload.jobs", s.jobs.len() as f64);
        l.insert(
            "workload.jsonl_roundtrip_s",
            tracer.span_s("workload.jsonl_roundtrip"),
        );
        l.insert("obs.export_s", tracer.span_s("obs.export"));
        l.insert(
            "obs.export_bytes",
            docs.iter().map(String::len).sum::<usize>() as f64,
        );
        let samples = armed.sampler.with_store(|st| st.n_points()).unwrap_or(0);
        l.insert("obs.samples", samples as f64);
    }
    Ok(pass)
}

/// The passes only a traced run makes: the DES stage twice more, armed
/// and disarmed, for what the observability stack costs; then the queue
/// replays. `l` already holds the traced pass's metrics.
pub fn extras(
    p: &PipelineParams,
    seed: u64,
    l: &mut BTreeMap<&'static str, f64>,
) -> Result<(), Violation> {
    let io = |e: std::io::Error| Violation(format!("temp dir: {e}"));
    let dir = TempDir::new().map_err(io)?;
    let mut tracer = Tracer::new(seed);
    let s = schedule(p, seed, &mut p.policy(), dir.path(), &mut tracer)?;
    let until = horizon(&s.placed);
    let mut walls = [0.0; 2];
    for (wall, armed) in walls.iter_mut().zip([true, false]) {
        let wiring = if armed {
            Armed::new(until).wiring(p, seed)
        } else {
            Wiring::bare(p.eslurm(), p.slaves, seed)
        };
        let mut sim = des::build_plain(wiring);
        *wall = des::drive(&mut sim, p.satellites, &s.placed, until, &mut tracer)?.wall_s;
    }
    l.insert("obs.instr_overhead_frac", walls[0] / walls[1] - 1.0);
    replay::keyed_queue(l, l["simclock.keyed_depth"] as u64, seed);
    replay::event_queue(l, s.jobs.len() as u64, seed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::audit::{EstSource, EstimateRef};
    use rand::RngExt;
    use simclock::rng::stream_rng;

    fn record(t_us: u64, job: u64, decision: Decision) -> DecisionRecord {
        DecisionRecord {
            t_us,
            job,
            est: EstimateRef::new(0, EstSource::User),
            decision,
        }
    }

    /// No node may sit in two executions that overlap in time.
    fn assert_never_double_booked(placed: &[DesJob], nodes: usize) {
        let mut busy_until = vec![SimTime::ZERO; nodes];
        let mut order: Vec<&DesJob> = placed.iter().collect();
        order.sort_by_key(|j| j.at);
        for j in order {
            for &n in &j.nodes {
                assert!(
                    busy_until[n as usize] <= j.at,
                    "node {n} given out at {} while busy until {}",
                    j.at,
                    busy_until[n as usize]
                );
                busy_until[n as usize] = j.at + j.runtime;
            }
        }
    }

    #[test]
    fn placer_never_double_books_a_node() {
        // A random but feasible schedule: start a job when it fits, end a
        // random running one otherwise.
        let nodes = 64;
        let mut rng = stream_rng(7, 1);
        let mut records = Vec::new();
        let mut running: Vec<(u64, u32)> = Vec::new();
        let mut free = nodes as u32;
        let mut next_job = 0;
        for step in 0..2_000u64 {
            let want = rng.random_range(1..=24u32);
            if want <= free && rng.random::<f64>() < 0.6 {
                records.push(record(
                    step * 10,
                    next_job,
                    Decision::Started { nodes: want },
                ));
                running.push((next_job, want));
                free -= want;
                next_job += 1;
            } else if !running.is_empty() {
                let (job, n) = running.swap_remove(rng.random_range(0..running.len()));
                records.push(record(
                    step * 10,
                    job,
                    Decision::Completed { est_error_us: 0 },
                ));
                free += n;
            }
        }
        for (job, _) in running {
            records.push(record(30_000, job, Decision::Completed { est_error_us: 0 }));
        }
        let placed = place(&records, nodes).expect("a feasible schedule places");
        assert_eq!(placed.len(), next_job as usize);
        assert_never_double_booked(&placed, nodes);
        // First fit: the very first job sits on the lowest nodes.
        assert_eq!(
            placed[0].nodes,
            (0..placed[0].nodes.len() as u32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn placer_refuses_an_overbooked_schedule() {
        let records = [
            record(0, 0, Decision::Started { nodes: 6 }),
            record(5, 1, Decision::Started { nodes: 6 }),
        ];
        assert!(place(&records, 10).is_err());
        let unfinished = [record(0, 0, Decision::Started { nodes: 6 })];
        assert!(place(&unfinished, 10).is_err());
        let orphan = [record(0, 0, Decision::Completed { est_error_us: 0 })];
        assert!(place(&orphan, 10).is_err());
    }

    #[test]
    fn temp_dir_is_removed_on_drop() {
        let path = {
            let dir = TempDir::new().unwrap();
            std::fs::write(dir.path().join("x"), "y").unwrap();
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
