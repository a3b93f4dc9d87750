//! Multifactor priority: the third multi-tenant policy layer (Slurm's
//! `priority/multifactor` plugin).
//!
//! A [`PriorityFactor`] scores one dimension of a queued job — age, size,
//! fair-share, QOS — and a [`MultifactorPriority`] composes factors into
//! one number: `priority = Σ weightᵢ × scoreᵢ`. The backfill loop keeps
//! its queue sorted by that priority (descending, stable: equal-priority
//! jobs stay in arrival order) and records every material change, with
//! each factor's weighted contribution, into the decision audit log — so
//! `eslurm why-job` can show exactly why a job ranked where it did.
//!
//! The uniform composer ([`MultifactorPriority::uniform`], the default)
//! has no factors: the queue is never reordered and scheduling is
//! bit-identical to the pre-priority FIFO behavior. All arithmetic is
//! fixed-point milli-units end to end, so queue order can never depend on
//! float summation quirks.

use crate::fairshare::FairShareLedger;
use crate::partition::Partition;
use simclock::{SimSpan, SimTime};
use std::rc::Rc;
use workload::Job;

/// Everything a factor may consult about the world around a queued job.
pub struct FactorCtx<'a> {
    /// The scheduling pass's virtual time.
    pub now: SimTime,
    /// When this queue entry entered the queue (original submission, so
    /// resubmitted jobs keep accruing age).
    pub submit: SimTime,
    /// Cluster size in nodes.
    pub cluster_nodes: u32,
    /// The partition the job routed to.
    pub partition: &'a Partition,
    /// The fair-share ledger (disabled ⇒ every factor reads 1.0).
    pub fairshare: &'a FairShareLedger,
}

/// One dimension of a job's priority. Scores are nominally in `[0, 1]`
/// (QOS may exceed 1 for privileged partitions); the composer applies the
/// weights.
pub trait PriorityFactor {
    /// Stable factor name (audit fields, `why-job` rendering).
    fn name(&self) -> &'static str;

    /// The unweighted score of `job` under `ctx`.
    fn score(&self, job: &Job, ctx: &FactorCtx) -> f64;
}

/// Queue-age factor: grows linearly from 0 to 1 over `max_age` of waiting
/// (Slurm's `PriorityMaxAge`), then saturates.
pub struct AgeFactor {
    /// Wait that earns the full age score.
    pub max_age: SimSpan,
}

impl Default for AgeFactor {
    /// Saturate after a day in the queue.
    fn default() -> Self {
        AgeFactor {
            max_age: SimSpan::from_hours(24),
        }
    }
}

impl PriorityFactor for AgeFactor {
    fn name(&self) -> &'static str {
        "age"
    }

    fn score(&self, _job: &Job, ctx: &FactorCtx) -> f64 {
        if ctx.now <= ctx.submit {
            return 0.0;
        }
        let waited = (ctx.now - ctx.submit).as_micros() as f64;
        (waited / self.max_age.as_micros().max(1) as f64).min(1.0)
    }
}

/// Job-size factor: the fraction of the cluster the job asks for (Slurm's
/// default favors large jobs, keeping wide jobs from starving under a
/// backfill regime that loves narrow ones).
#[derive(Default)]
pub struct SizeFactor;

impl PriorityFactor for SizeFactor {
    fn name(&self) -> &'static str {
        "size"
    }

    fn score(&self, job: &Job, ctx: &FactorCtx) -> f64 {
        job.nodes.min(ctx.cluster_nodes) as f64 / ctx.cluster_nodes.max(1) as f64
    }
}

/// Fair-share factor: the ledger's `2^(-usage/share)` score — 1 for idle
/// users, decaying toward 0 as a user (and their bank) consumes beyond
/// their equal share.
#[derive(Default)]
pub struct FairShareFactor;

impl PriorityFactor for FairShareFactor {
    fn name(&self) -> &'static str {
        "fair-share"
    }

    fn score(&self, job: &Job, ctx: &FactorCtx) -> f64 {
        ctx.fairshare.factor(job.user.0, ctx.now)
    }
}

/// QOS factor: the routed partition's service-class weight (1.0 neutral,
/// above 1 for privileged partitions).
#[derive(Default)]
pub struct QosFactor;

impl PriorityFactor for QosFactor {
    fn name(&self) -> &'static str {
        "qos"
    }

    fn score(&self, _job: &Job, ctx: &FactorCtx) -> f64 {
        ctx.partition.qos_weight
    }
}

/// One factor's weighted contribution to a composed priority, in
/// milli-units (`weight × score × 1000`, rounded) — the exact integers
/// the audit log records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FactorShare {
    /// The factor's stable name.
    pub name: &'static str,
    /// Weighted contribution × 1000.
    pub milli: i64,
}

/// A weighted composition of priority factors ordering the backfill
/// queue. Cheap to clone (factors are shared).
#[derive(Clone, Default)]
pub struct MultifactorPriority {
    factors: Rc<Vec<(f64, Box<dyn PriorityFactor>)>>,
}

impl std::fmt::Debug for MultifactorPriority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_uniform() {
            return f.write_str("MultifactorPriority(uniform)");
        }
        write!(f, "MultifactorPriority(")?;
        for (i, (w, fac)) in self.factors.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{} ×{w}", fac.name())?;
        }
        f.write_str(")")
    }
}

impl MultifactorPriority {
    /// The uniform (factor-less) composer: the queue keeps arrival order
    /// and scheduling is bit-identical to pre-priority behavior.
    pub fn uniform() -> Self {
        Self::default()
    }

    /// Compose the given `(weight, factor)` pairs.
    pub fn new(factors: Vec<(f64, Box<dyn PriorityFactor>)>) -> Self {
        MultifactorPriority {
            factors: Rc::new(factors),
        }
    }

    /// The Slurm-flavored default: fair-share dominates, age breaks ties,
    /// size keeps wide jobs alive, QOS honors partition service classes
    /// (weights in the spirit of `PriorityWeightFairshare=2000` etc.).
    pub fn slurm_default() -> Self {
        Self::new(vec![
            (2000.0, Box::new(FairShareFactor) as Box<dyn PriorityFactor>),
            (1000.0, Box::new(AgeFactor::default())),
            (500.0, Box::new(SizeFactor)),
            (1000.0, Box::new(QosFactor)),
        ])
    }

    /// Whether this composer never reorders the queue.
    pub fn is_uniform(&self) -> bool {
        self.factors.is_empty()
    }

    /// The composed priority in milli-units, appending each factor's
    /// weighted contribution to `shares` (cleared first). The composition
    /// sums the *rounded* per-factor integers, so the total always equals
    /// the sum of the audited contributions.
    pub fn score_into(&self, job: &Job, ctx: &FactorCtx, shares: &mut Vec<FactorShare>) -> i64 {
        shares.clear();
        let mut total = 0i64;
        for (w, f) in self.factors.iter() {
            let milli = (w * f.score(job, ctx) * 1000.0).round() as i64;
            shares.push(FactorShare {
                name: f.name(),
                milli,
            });
            total += milli;
        }
        total
    }

    /// The composed priority in milli-units, without the breakdown.
    pub fn priority_milli(&self, job: &Job, ctx: &FactorCtx) -> i64 {
        self.factors
            .iter()
            .map(|(w, f)| (w * f.score(job, ctx) * 1000.0).round() as i64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partition;
    use workload::{JobId, UserId};

    fn job(user: u32, nodes: u32) -> Job {
        Job {
            id: JobId(0),
            name: "j".into(),
            user: UserId(user),
            nodes,
            cores_per_node: 1,
            submit: SimTime::ZERO,
            user_estimate: Some(SimSpan::from_secs(100)),
            actual_runtime: SimSpan::from_secs(50),
        }
    }

    fn ctx<'a>(now_s: u64, part: &'a Partition, fs: &'a FairShareLedger) -> FactorCtx<'a> {
        FactorCtx {
            now: SimTime::from_secs(now_s),
            submit: SimTime::ZERO,
            cluster_nodes: 100,
            partition: part,
            fairshare: fs,
        }
    }

    #[test]
    fn age_saturates_at_max_age() {
        let part = Partition::named("all");
        let fs = FairShareLedger::disabled();
        let f = AgeFactor {
            max_age: SimSpan::from_secs(100),
        };
        assert_eq!(f.score(&job(0, 1), &ctx(0, &part, &fs)), 0.0);
        assert!((f.score(&job(0, 1), &ctx(50, &part, &fs)) - 0.5).abs() < 1e-9);
        assert_eq!(f.score(&job(0, 1), &ctx(1000, &part, &fs)), 1.0);
    }

    #[test]
    fn size_is_cluster_fraction() {
        let part = Partition::named("all");
        let fs = FairShareLedger::disabled();
        assert!((SizeFactor.score(&job(0, 25), &ctx(0, &part, &fs)) - 0.25).abs() < 1e-9);
        // Oversized jobs clamp to the cluster.
        assert_eq!(SizeFactor.score(&job(0, 500), &ctx(0, &part, &fs)), 1.0);
    }

    #[test]
    fn qos_reads_the_partition_weight() {
        let part = Partition::named("gold").qos(1.5);
        let fs = FairShareLedger::disabled();
        assert_eq!(QosFactor.score(&job(0, 1), &ctx(0, &part, &fs)), 1.5);
    }

    #[test]
    fn fairshare_factor_penalizes_heavy_users() {
        let part = Partition::named("all");
        let fs = FairShareLedger::new(SimSpan::from_hours(24), 1);
        fs.charge(1, 100, SimSpan::from_hours(10), SimTime::from_secs(1));
        let heavy = FairShareFactor.score(&job(1, 1), &ctx(10, &part, &fs));
        let idle = FairShareFactor.score(&job(2, 1), &ctx(10, &part, &fs));
        assert!(heavy < idle, "{heavy} vs {idle}");
    }

    #[test]
    fn uniform_composer_scores_zero_with_no_shares() {
        let part = Partition::named("all");
        let fs = FairShareLedger::disabled();
        let p = MultifactorPriority::uniform();
        assert!(p.is_uniform());
        let mut shares = vec![FactorShare {
            name: "stale",
            milli: 1,
        }];
        assert_eq!(
            p.score_into(&job(0, 1), &ctx(0, &part, &fs), &mut shares),
            0
        );
        assert!(shares.is_empty());
    }

    #[test]
    fn composed_total_equals_sum_of_contributions() {
        let part = Partition::named("all").qos(1.2);
        let fs = FairShareLedger::disabled();
        let p = MultifactorPriority::slurm_default();
        assert!(!p.is_uniform());
        let mut shares = Vec::new();
        let j = job(3, 10);
        let c = ctx(3600, &part, &fs);
        let total = p.score_into(&j, &c, &mut shares);
        assert_eq!(shares.len(), 4);
        assert_eq!(total, shares.iter().map(|s| s.milli).sum::<i64>());
        assert_eq!(total, p.priority_milli(&j, &c));
        let names: Vec<&str> = shares.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["fair-share", "age", "size", "qos"]);
    }
}
