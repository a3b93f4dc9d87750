//! Synthetic workload generation calibrated to the paper's trace analysis.
//!
//! We do not have the proprietary Tianhe-2A / NG-Tianhe traces (Table III),
//! so we generate traces that match every statistic the paper reports
//! about them:
//!
//! * 80–90 % of user walltime estimates are overestimates (Fig. 5a);
//! * a user who submits a job has an ~89.2 % probability of having
//!   submitted the same job within the previous 24 h;
//! * 71.4 % of jobs running longer than six hours are submitted between
//!   18:00 and 24:00;
//! * job correlation decays with submission interval and with job-ID gap,
//!   with Tianhe-2A (older, stable users) plateauing near 0.3 and
//!   NG-Tianhe (new machine, churning applications) decaying toward 0
//!   (Fig. 5b/c).
//!
//! The generative story: each user owns a pool of job *templates*
//! (name + resource shape + characteristic runtime). Submissions mostly
//! repeat a recently used template; occasionally they switch templates or
//! — with machine-dependent churn probability — introduce a brand-new one.

use crate::job::{Job, JobId, UserId};
use rand::rngs::StdRng;
use rand::RngExt;
use simclock::rng::{lognormal, stream_rng, weighted_index};
use simclock::{SimSpan, SimTime};

/// A recurring application a user runs.
#[derive(Clone, Debug)]
struct Template {
    name: String,
    nodes: u32,
    cores_per_node: u32,
    /// Log-space mean of the runtime distribution (seconds).
    runtime_mu: f64,
    /// Log-space sigma; small, so recurrences stay within ~2× of each
    /// other and count as correlated.
    runtime_sigma: f64,
}

impl Template {
    fn is_long(&self) -> bool {
        self.runtime_mu.exp() > 6.0 * 3600.0
    }
}

/// Configuration of a synthetic trace.
///
/// ```
/// use workload::{stats, TraceConfig};
///
/// let jobs = TraceConfig::tianhe2a().shrunk_to(2_000).generate();
/// assert_eq!(jobs.len(), 2_000);
/// // Calibration: most walltime requests overestimate (paper Fig. 5a).
/// assert!(stats::frac_overestimated(&jobs) > 0.8);
/// ```
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Number of user accounts.
    pub users: usize,
    /// Trace duration.
    pub horizon: SimSpan,
    /// Master seed.
    pub seed: u64,
    /// Templates each user starts with.
    pub templates_per_user: usize,
    /// Probability a submission introduces a brand-new template
    /// (application churn; higher on the new machine).
    pub template_churn: f64,
    /// Probability of re-submitting a template used in the last 24 h when
    /// one exists (the paper reports 0.892).
    pub resubmit_24h: f64,
    /// Fraction of jobs submitted without a walltime estimate.
    pub no_estimate_prob: f64,
    /// Fraction of estimates that *under*-estimate (Fig. 5a shows 10–20 %).
    pub underestimate_prob: f64,
    /// Largest job size in nodes.
    pub max_nodes: u32,
    /// Cores per node of the machine.
    pub cores_per_node: u32,
    /// Probability a submission is followed by a burst of near-identical
    /// jobs (array jobs / parameter sweeps) — these dominate short-interval
    /// correlation in real traces.
    pub burst_prob: f64,
    /// Maximum extra jobs in a burst.
    pub burst_max: usize,
    /// Zipf exponent of per-user activity: weight of the r-th user is
    /// `1/(r+1)^user_zipf`. Production systems are highly concentrated —
    /// this is what sets the long-interval correlation plateau (Fig. 5b).
    pub user_zipf: f64,
}

impl TraceConfig {
    /// A Tianhe-2A-like trace: mature machine, stable users and
    /// applications (low churn ⇒ correlation plateau ≈ 0.3).
    pub fn tianhe2a() -> Self {
        TraceConfig {
            jobs: 154_081,
            users: 120,
            horizon: SimSpan::from_hours(4 * 30 * 24), // ~June–Sep 2021
            seed: 0x7121,
            templates_per_user: 5,
            template_churn: 0.002,
            resubmit_24h: 0.892,
            no_estimate_prob: 0.05,
            underestimate_prob: 0.13,
            max_nodes: 4096,
            cores_per_node: 12,
            burst_prob: 0.25,
            burst_max: 12,
            user_zipf: 2.0,
        }
    }

    /// An NG-Tianhe-like trace: new machine, higher application churn
    /// (correlation decays toward 0 at long intervals).
    pub fn ng_tianhe() -> Self {
        TraceConfig {
            jobs: 52_162,
            users: 200,
            horizon: SimSpan::from_hours(6 * 30 * 24), // ~Oct 2021–Mar 2022
            seed: 0x9672,
            templates_per_user: 10,
            template_churn: 0.03,
            resubmit_24h: 0.892,
            no_estimate_prob: 0.08,
            underestimate_prob: 0.16,
            max_nodes: 20_480,
            cores_per_node: 16,
            burst_prob: 0.20,
            burst_max: 12,
            user_zipf: 1.2,
        }
    }

    /// A small trace for tests and quick runs.
    pub fn small(jobs: usize, seed: u64) -> Self {
        TraceConfig {
            jobs,
            users: 20,
            horizon: SimSpan::from_hours(14 * 24),
            seed,
            templates_per_user: 8,
            template_churn: 0.01,
            resubmit_24h: 0.892,
            no_estimate_prob: 0.05,
            underestimate_prob: 0.13,
            max_nodes: 1024,
            cores_per_node: 12,
            burst_prob: 0.25,
            burst_max: 12,
            user_zipf: 1.8,
        }
    }

    /// A multi-tenant trace: thousands of distinct users (which the
    /// scheduler's fair-share ledger groups into banks by `user % banks`),
    /// with the same realistic per-user submission repetition as the
    /// machine presets. The flatter Zipf exponent keeps the tail of users
    /// active enough that fair-share and priority layers have real
    /// contention to arbitrate.
    pub fn multi_tenant(jobs: usize, seed: u64) -> Self {
        TraceConfig {
            jobs,
            users: 2500,
            horizon: SimSpan::from_hours(30 * 24),
            seed,
            templates_per_user: 4,
            template_churn: 0.01,
            resubmit_24h: 0.892,
            no_estimate_prob: 0.05,
            underestimate_prob: 0.13,
            max_nodes: 1024,
            cores_per_node: 12,
            burst_prob: 0.25,
            burst_max: 12,
            user_zipf: 0.8,
        }
    }

    /// Scale the job count (keeping all distributional parameters).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Replace the user-account count.
    pub fn with_users(mut self, users: usize) -> Self {
        self.users = users;
        self
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Shrink to `jobs`, scaling the horizon proportionally so per-user
    /// arrival density (and with it every time-based statistic) is
    /// preserved.
    pub fn shrunk_to(mut self, jobs: usize) -> Self {
        let factor = jobs as f64 / self.jobs.max(1) as f64;
        self.horizon = self.horizon.mul_f64(factor.max(1e-6));
        self.jobs = jobs;
        self
    }

    /// Generate the trace, sorted by submission time with IDs in
    /// submission order.
    pub fn generate(&self) -> Vec<Job> {
        Generator::new(self).run()
    }
}

/// Per-user state during generation.
struct UserState {
    templates: Vec<Template>,
    /// Selection weight per template (users concentrate on one or two
    /// production applications; later/churned templates matter less).
    template_weights: Vec<f64>,
    /// `(template index, submit)` pairs in push order, at most 1,024; a
    /// push past that drops the oldest 512.
    recent: Vec<(usize, SimTime)>,
    /// Per template, the latest submit among its `recent` pairs (`None`
    /// when it has none), so "used within the last 24 h" is one compare.
    /// The latest, not the last pushed: a burst's submit times run ahead
    /// of the user's next submission.
    last_use: Vec<Option<SimTime>>,
    weight: f64,
}

impl UserState {
    /// The templates with a `recent` pair at or after `cutoff`, in index
    /// order.
    fn used_since(&self, cutoff: SimTime) -> impl Iterator<Item = usize> + Clone + '_ {
        self.last_use
            .iter()
            .enumerate()
            .filter(move |(_, at)| at.is_some_and(|at| at >= cutoff))
            .map(|(i, _)| i)
    }

    /// Record a submission of template `tidx` at `at`.
    fn note_use(&mut self, tidx: usize, at: SimTime) {
        self.recent.push((tidx, at));
        if self.recent.len() > 1024 {
            self.recent.drain(0..512);
            self.last_use.fill(None);
            for &(i, t) in &self.recent {
                self.last_use[i] = self.last_use[i].max(Some(t));
            }
        } else {
            self.last_use[tidx] = self.last_use[tidx].max(Some(at));
        }
    }
}

struct Generator<'a> {
    cfg: &'a TraceConfig,
    rng: StdRng,
    users: Vec<UserState>,
    next_template_id: u64,
    /// Branch probability derived from `cfg.resubmit_24h` so that the
    /// *measured* 24 h resubmission probability (which burst extras inflate)
    /// lands on the configured target.
    effective_resubmit: f64,
}

/// Diurnal arrival-intensity weight for each hour of day (normalized
/// relative shape; HPC submission activity peaks in working hours with a
/// secondary evening peak of long jobs).
const HOUR_WEIGHT: [f64; 24] = [
    0.4, 0.3, 0.25, 0.2, 0.2, 0.25, 0.4, 0.7, 1.1, 1.4, 1.5, 1.4, //
    1.2, 1.4, 1.5, 1.5, 1.4, 1.2, 1.1, 1.0, 0.9, 0.8, 0.7, 0.5,
];

impl<'a> Generator<'a> {
    fn new(cfg: &'a TraceConfig) -> Self {
        let mut rng = stream_rng(cfg.seed, 0x30B);
        let mut next_template_id = 0;
        let users = (0..cfg.users)
            .map(|u| {
                let mut templates: Vec<Template> = Vec::with_capacity(cfg.templates_per_user);
                for _ in 0..cfg.templates_per_user {
                    // Subsequent templates may reuse an earlier script name
                    // at a different scale (same collision model as churn).
                    let reuse = if !templates.is_empty() && rng.random::<f64>() < 0.35 {
                        let i = rng.random_range(0..templates.len());
                        Some(templates[i].name.clone())
                    } else {
                        None
                    };
                    templates.push(Self::new_template_named(
                        cfg,
                        &mut rng,
                        &mut next_template_id,
                        u as u32,
                        reuse,
                    ));
                }
                UserState {
                    template_weights: (0..cfg.templates_per_user)
                        .map(|i| 1.0 / (1.0 + i as f64).powf(2.5))
                        .collect(),
                    templates,
                    recent: Vec::new(),
                    last_use: vec![None; cfg.templates_per_user],
                    // Zipf-concentrated user activity: on production HPC
                    // systems a few groups account for most submissions.
                    weight: 1.0 / (1.0 + u as f64).powf(cfg.user_zipf),
                }
            })
            .collect();
        // Burst extras always re-hit the same template within minutes, so
        // they count as 24 h resubmissions in the measured statistic; solve
        // for the base-branch probability that yields the configured target.
        let avg_extras = cfg.burst_prob * (1.0 + cfg.burst_max as f64) / 2.0;
        let extras_share = avg_extras / (1.0 + avg_extras);
        let effective_resubmit =
            (1.0 - (1.0 - cfg.resubmit_24h) / (1.0 - extras_share).max(0.05)).clamp(0.0, 1.0);
        Generator {
            cfg,
            rng,
            users,
            next_template_id,
            effective_resubmit,
        }
    }

    fn new_template_named(
        cfg: &TraceConfig,
        rng: &mut StdRng,
        next_id: &mut u64,
        user: u32,
        reuse_name: Option<String>,
    ) -> Template {
        let id = *next_id;
        *next_id += 1;
        // Job size: power-of-two-ish, heavy at small sizes.
        let max_exp = (cfg.max_nodes as f64).log2() as u32;
        let exp_weights: Vec<f64> = (0..=max_exp)
            .map(|e| 1.0 / (1.0 + e as f64).powf(1.3))
            .collect();
        let nodes = 1u32 << weighted_index(rng, &exp_weights);
        // Runtime scale: lognormal across templates, median ~25 min, with a
        // fat tail into multi-hour and multi-day jobs.
        let runtime_mu = simclock::rng::normal(rng, (1500.0f64).ln(), 1.6);
        let kind = [
            "cfd", "em", "combust", "nlflow", "bioinf", "mech", "qcd", "wrf",
        ][rng.random_range(0..8)];
        // Runtime stability is heterogeneous: most production codes have
        // very repeatable runtimes, a minority are input-dependent and
        // noisy. This mixture is what lets some clusters clear the
        // estimation framework's 90 % AEA gate while others don't.
        let runtime_sigma = (0.015 + simclock::rng::exponential(rng, 50.0)).min(0.5);
        Template {
            name: reuse_name.unwrap_or_else(|| format!("{kind}_{user}.{id}")),
            nodes,
            cores_per_node: cfg.cores_per_node,
            runtime_mu,
            runtime_sigma,
        }
    }

    /// Create a churned-in template for `uid`. With probability ~0.35 it
    /// reuses an existing script name of the same user at a different
    /// scale/runtime — the same `run.sh` launched with different node
    /// counts or inputs. This is what keeps *name-only* predictors
    /// (PREP-style) from being unrealistically perfect: a running path is
    /// not a behaviour.
    fn churned_template(&mut self, uid: usize) -> Template {
        let reuse = {
            let user = &self.users[uid];
            if !user.templates.is_empty() && self.rng.random::<f64>() < 0.35 {
                let i = self.rng.random_range(0..user.templates.len());
                Some(user.templates[i].name.clone())
            } else {
                None
            }
        };
        Self::new_template_named(
            self.cfg,
            &mut self.rng,
            &mut self.next_template_id,
            uid as u32,
            reuse,
        )
    }

    fn run(mut self) -> Vec<Job> {
        let cfg = self.cfg;
        let mut jobs = Vec::with_capacity(cfg.jobs);
        // Arrival process: exponential inter-arrivals thinned by the
        // diurnal weight of the target hour.
        let mean_gap = cfg.horizon.as_secs_f64() / cfg.jobs as f64;
        let mut t = 0.0f64;
        let user_weights: Vec<f64> = self.users.iter().map(|u| u.weight).collect();
        while jobs.len() < cfg.jobs {
            let hour = ((t / 3600.0) as u64 % 24) as usize;
            let rate = HOUR_WEIGHT[hour] / mean_gap;
            t += simclock::rng::exponential(&mut self.rng, rate);
            let submit = SimTime::from_secs_f64(t);
            let uid = weighted_index(&mut self.rng, &user_weights);
            let (job, tidx) = self.submit_one(uid, submit, jobs.len() as u64);
            jobs.push(job);
            // Array-job burst: a run of near-identical submissions of the
            // same template at short gaps.
            if self.rng.random::<f64>() < cfg.burst_prob {
                let extra = self.rng.random_range(1..=cfg.burst_max);
                let mut bt = t;
                for _ in 0..extra {
                    if jobs.len() >= cfg.jobs {
                        break;
                    }
                    bt += simclock::rng::exponential(&mut self.rng, 1.0 / 45.0);
                    let job = self.emit(uid, tidx, SimTime::from_secs_f64(bt), jobs.len() as u64);
                    jobs.push(job);
                }
            }
        }
        // Evening snapping of long jobs moves submit times within their
        // day, so restore the documented contract: sorted by submission
        // time, IDs in submission order (stable sort keeps generation
        // order on ties).
        jobs.sort_by_key(|j| j.submit);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = JobId(i as u64);
        }
        jobs
    }

    /// Choose a template for `uid` and emit one job from it.
    fn submit_one(&mut self, uid: usize, submit: SimTime, id: u64) -> (Job, usize) {
        let cfg = self.cfg;
        let day = SimSpan::from_hours(24);

        // Template choice: resubmit-recent > churn-new > deliberately-fresh.
        let recent_cutoff = SimTime(submit.as_micros().saturating_sub(day.as_micros()));
        let (tidx, is_new) = {
            let user = &self.users[uid];
            let mut recent = user.used_since(recent_cutoff);
            let n_recent = recent.clone().count();
            if n_recent > 0 && self.rng.random::<f64>() < self.effective_resubmit {
                let k = self.rng.random_range(0..n_recent);
                (recent.nth(k).expect("k < n_recent"), false)
            } else if self.rng.random::<f64>() < cfg.template_churn {
                (usize::MAX, true)
            } else {
                // Steady-state choice: users concentrate heavily on their
                // main production application. Light users land here with
                // multi-day gaps, producing the >24 h resubmission misses
                // observed in the real traces.
                (weighted_index(&mut self.rng, &user.template_weights), false)
            }
        };
        let tidx = if is_new {
            let t = self.churned_template(uid);
            let user = &mut self.users[uid];
            user.templates.push(t);
            // Churned-in applications start with modest weight.
            user.template_weights.push(0.2);
            user.last_use.push(None);
            user.templates.len() - 1
        } else {
            tidx
        };
        (self.emit(uid, tidx, submit, id), tidx)
    }

    /// Emit one job instance of template `tidx` owned by `uid`.
    fn emit(&mut self, uid: usize, tidx: usize, submit: SimTime, id: u64) -> Job {
        let cfg = self.cfg;
        let user = &mut self.users[uid];
        user.note_use(tidx, submit);
        let tpl = &user.templates[tidx];

        // Long jobs go to the evening: 71.4 % of >6 h jobs submitted
        // between 18:00 and 24:00 (paper §V-A).
        let submit = if tpl.is_long() && self.rng.random::<f64>() < 0.714 {
            let day_start = submit.as_secs() / 86_400 * 86_400;
            let evening = 18 * 3600 + self.rng.random_range(0..6 * 3600);
            SimTime::from_secs(day_start + evening)
        } else {
            submit
        };

        let runtime_s =
            lognormal(&mut self.rng, tpl.runtime_mu, tpl.runtime_sigma).clamp(10.0, 7.0 * 86_400.0);
        let actual_runtime = SimSpan::from_secs_f64(runtime_s);

        let user_estimate = if self.rng.random::<f64>() < cfg.no_estimate_prob {
            None
        } else {
            let p = if self.rng.random::<f64>() < cfg.underestimate_prob {
                // Underestimate: P uniform in [0.4, 1.0).
                0.4 + 0.6 * self.rng.random::<f64>()
            } else {
                // Overestimate: lognormal factor, median ~2.5×, long tail.
                lognormal(&mut self.rng, (2.5f64).ln(), 0.8).max(1.0)
            };
            // Users request round walltimes: round up to 5 minutes.
            let est = (runtime_s * p / 300.0).ceil() * 300.0;
            Some(SimSpan::from_secs_f64(est))
        };

        Job {
            id: JobId(id),
            name: tpl.name.clone(),
            user: UserId(uid as u32),
            nodes: tpl.nodes,
            cores_per_node: tpl.cores_per_node,
            submit,
            user_estimate,
            actual_runtime,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    fn trace() -> Vec<Job> {
        TraceConfig::small(4000, 11).generate()
    }

    #[test]
    fn generates_requested_count_in_order() {
        let jobs = trace();
        assert_eq!(jobs.len(), 4000);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, JobId(i as u64));
        }
        // IDs are in submission order (long-job evening snapping can only
        // move a submit time within its day, so order is approximate; check
        // the 99th percentile of inversions instead of strict sortedness).
        let inversions = jobs
            .windows(2)
            .filter(|w| w[0].submit > w[1].submit)
            .count();
        assert!(inversions < jobs.len() / 10, "{inversions} inversions");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TraceConfig::small(500, 3).generate();
        let b = TraceConfig::small(500, 3).generate();
        assert_eq!(a, b);
        let c = TraceConfig::small(500, 4).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn most_estimates_are_overestimates() {
        let jobs = trace();
        let frac = stats::frac_overestimated(&jobs);
        assert!(
            (0.75..=0.95).contains(&frac),
            "overestimation fraction {frac} outside the paper's 80–90 % band"
        );
    }

    #[test]
    fn resubmission_probability_matches_paper() {
        let jobs = trace();
        let p = stats::resubmit_within_24h_prob(&jobs);
        assert!((p - 0.892).abs() < 0.08, "resubmit prob {p}");
    }

    #[test]
    fn long_jobs_cluster_in_the_evening() {
        let jobs = TraceConfig::small(8000, 5).generate();
        let frac = stats::frac_long_jobs_in_evening(&jobs);
        assert!((frac - 0.714).abs() < 0.12, "evening fraction {frac}");
    }

    #[test]
    fn sizes_and_runtimes_in_range() {
        let jobs = trace();
        for j in &jobs {
            assert!(j.nodes >= 1 && j.nodes <= 1024);
            assert!(j.actual_runtime >= SimSpan::from_secs(10));
            assert!(j.actual_runtime <= SimSpan::from_hours(7 * 24));
            if let Some(e) = j.user_estimate {
                assert!(e > SimSpan::ZERO);
            }
        }
    }

    #[test]
    fn multi_tenant_spreads_jobs_over_thousands_of_users() {
        let cfg = TraceConfig::multi_tenant(30_000, 7);
        let jobs = cfg.generate();
        let users: std::collections::HashSet<u32> = jobs.iter().map(|j| j.user.0).collect();
        assert!(users.len() > 1000, "only {} distinct users", users.len());
        // Every one of 48 banks (the ledger's `user % banks`) sees traffic.
        let banks: std::collections::HashSet<u32> = jobs.iter().map(|j| j.user.0 % 48).collect();
        assert_eq!(banks.len(), 48, "every bank should see traffic");
        // Per-user repetition still dominates, though the measured 24 h
        // rate sits below the 120-user machine presets: with thousands of
        // sparse accounts, many submissions have no same-day predecessor.
        let p = stats::resubmit_within_24h_prob(&jobs);
        assert!(p > 0.5, "resubmit prob {p}");
    }

    /// FNV-1a over every field of every job.
    fn trace_hash(jobs: &[Job]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for j in jobs {
            eat(&j.id.0.to_le_bytes());
            eat(j.name.as_bytes());
            eat(&[0xff]);
            eat(&j.user.0.to_le_bytes());
            eat(&j.nodes.to_le_bytes());
            eat(&j.cores_per_node.to_le_bytes());
            eat(&j.submit.as_micros().to_le_bytes());
            match j.user_estimate {
                Some(e) => {
                    eat(&[1]);
                    eat(&e.as_micros().to_le_bytes());
                }
                None => eat(&[0]),
            }
            eat(&j.actual_runtime.as_micros().to_le_bytes());
        }
        h
    }

    /// `used_since` names exactly the templates of the `recent` pairs at or
    /// after the cutoff, through drains and submit times that run ahead of
    /// later pushes, as bursts' do.
    #[test]
    fn used_since_matches_the_recent_set() {
        let mut user = UserState {
            templates: Vec::new(),
            template_weights: Vec::new(),
            recent: Vec::new(),
            last_use: vec![None; 12],
            weight: 1.0,
        };
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut t = 0u64;
        for step in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t += x % 1_000;
            // Template k with probability ~2^-(k+1): the rare ones drop out
            // of `recent` entirely at a drain.
            let tidx = ((x >> 40) | 1 << 11).trailing_zeros() as usize;
            user.note_use(tidx, SimTime(t + (x >> 20) % 3_000));
            let cutoff = SimTime(t.saturating_sub((x >> 44) % 1_000_000));
            let want: std::collections::BTreeSet<usize> = user
                .recent
                .iter()
                .filter(|(_, at)| *at >= cutoff)
                .map(|(i, _)| *i)
                .collect();
            assert!(user.used_since(cutoff).eq(want), "step {step}");
        }
    }

    /// Traces pinned before the 24 h template lookup moved from a set built
    /// per submission to `UserState::last_use`. At 20k jobs the heaviest
    /// `tianhe2a` user drains `recent` from 1,024 to 512 entries about
    /// twenty times, so the rebuild after a drain is covered too.
    #[test]
    fn generated_traces_match_pinned_hashes() {
        let pins = [
            (
                TraceConfig::tianhe2a().shrunk_to(20_000),
                0xd1bb_a6e7_e973_c1bc,
            ),
            (TraceConfig::ng_tianhe(), 0xd17a_329a_66cc_7e5a),
            (TraceConfig::multi_tenant(30_000, 7), 0x192b_840f_3b25_b9b0),
            (TraceConfig::small(4_000, 11), 0xe6c4_0f5c_1275_78df),
        ];
        for (cfg, want) in pins {
            let got = trace_hash(&cfg.generate());
            let (jobs, users) = (cfg.jobs, cfg.users);
            assert_eq!(got, want, "{jobs} jobs, {users} users: {got:016x}");
        }
    }

    #[test]
    fn churn_grows_template_population() {
        let low = TraceConfig::small(3000, 9);
        let mut high = TraceConfig::small(3000, 9);
        high.template_churn = 0.05;
        let names = |jobs: &[Job]| {
            jobs.iter()
                .map(|j| j.name.clone())
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        assert!(names(&high.generate()) > names(&low.generate()));
    }
}
