//! Multifactor priority: the queue-ordering policy layer (Slurm's
//! `priority/multifactor` plugin).
//!
//! A [`MultifactorPriority`] is either uniform or the fixed Slurm-flavored
//! sum of three weighted terms, each a score in `[0, 1]`:
//! `priority = 2000 × fair-share + 1000 × age + 500 × size`. The backfill
//! loop keeps its queue sorted by that priority (descending, stable:
//! equal-priority jobs stay in arrival order) and records every material
//! change, with each term's weighted contribution, into the decision audit
//! log — so `eslurm why-job` can show exactly why a job ranked where it
//! did.
//!
//! The uniform composer ([`MultifactorPriority::uniform`], the default)
//! has no terms: the queue is never reordered and scheduling is
//! bit-identical to the pre-priority FIFO behavior. All arithmetic is
//! fixed-point milli-units end to end, so queue order can never depend on
//! float summation quirks.

use crate::fairshare::FairShareLedger;
use simclock::{SimSpan, SimTime};
use workload::Job;

/// Everything a term may consult about the world around a queued job.
pub struct FactorCtx<'a> {
    /// The scheduling pass's virtual time.
    pub now: SimTime,
    /// When this queue entry entered the queue (original submission, so
    /// resubmitted jobs keep accruing age).
    pub submit: SimTime,
    /// Cluster size in nodes.
    pub cluster_nodes: u32,
    /// The fair-share ledger (disabled ⇒ the fair-share score reads 1.0).
    pub fairshare: &'a FairShareLedger,
}

/// Term weights (in the spirit of `PriorityWeightFairshare=2000` etc.).
const FAIR_SHARE_WEIGHT: f64 = 2000.0;
const AGE_WEIGHT: f64 = 1000.0;
const SIZE_WEIGHT: f64 = 500.0;

/// Queue wait that earns the full age score (Slurm's `PriorityMaxAge`).
const MAX_AGE: SimSpan = SimSpan::from_hours(24);

/// The queue-ordering priority: uniform, or the weighted fair-share, age
/// and size terms.
#[derive(Clone, Copy, Debug, Default)]
pub struct MultifactorPriority {
    weighted: bool,
}

impl MultifactorPriority {
    /// The uniform (term-less) composer: the queue keeps arrival order and
    /// scheduling is bit-identical to pre-priority behavior.
    pub fn uniform() -> Self {
        Self::default()
    }

    /// The Slurm-flavored composition: fair-share dominates, age breaks
    /// ties, size keeps wide jobs from starving under a backfill regime
    /// that loves narrow ones.
    pub fn slurm_default() -> Self {
        MultifactorPriority { weighted: true }
    }

    /// Whether this composer never reorders the queue.
    pub fn is_uniform(&self) -> bool {
        !self.weighted
    }

    /// Each term's name and weighted contribution in milli-units
    /// (`weight × score × 1000`, rounded), in summing order; `None` for
    /// the uniform composer, which evaluates nothing.
    fn terms(&self, job: &Job, ctx: &FactorCtx) -> Option<[(&'static str, i64); 3]> {
        if !self.weighted {
            return None;
        }
        // The ledger's `2^(-usage/share)`: 1 for idle users, decaying
        // toward 0 as a user (and their bank) consumes beyond their share.
        let fair_share = ctx.fairshare.factor(job.user.0, ctx.now);
        // Grows linearly over `MAX_AGE` of waiting, then saturates.
        let age = if ctx.now <= ctx.submit {
            0.0
        } else {
            let waited = (ctx.now - ctx.submit).as_micros() as f64;
            (waited / MAX_AGE.as_micros() as f64).min(1.0)
        };
        // The fraction of the cluster the job asks for.
        let size = job.nodes.min(ctx.cluster_nodes) as f64 / ctx.cluster_nodes.max(1) as f64;
        let milli = |w: f64, score: f64| (w * score * 1000.0).round() as i64;
        Some([
            ("fair-share", milli(FAIR_SHARE_WEIGHT, fair_share)),
            ("age", milli(AGE_WEIGHT, age)),
            ("size", milli(SIZE_WEIGHT, size)),
        ])
    }

    /// The composed priority in milli-units, writing each term's weighted
    /// contribution to `shares` (cleared first). The composition sums the
    /// *rounded* per-term integers, so the total always equals the sum of
    /// the audited contributions.
    pub fn score_into(
        &self,
        job: &Job,
        ctx: &FactorCtx,
        shares: &mut Vec<(&'static str, i64)>,
    ) -> i64 {
        shares.clear();
        shares.extend(self.terms(job, ctx).into_iter().flatten());
        shares.iter().map(|&(_, milli)| milli).sum()
    }

    /// The composed priority in milli-units, without the breakdown.
    pub fn priority_milli(&self, job: &Job, ctx: &FactorCtx) -> i64 {
        self.terms(job, ctx)
            .map_or(0, |t| t.iter().map(|&(_, milli)| milli).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn ctx(now_s: u64, fs: &FairShareLedger) -> FactorCtx<'_> {
        FactorCtx {
            now: SimTime::from_secs(now_s),
            submit: SimTime::ZERO,
            cluster_nodes: 100,
            fairshare: fs,
        }
    }

    fn share(name: &str, j: &Job, c: &FactorCtx) -> i64 {
        let mut shares = Vec::new();
        MultifactorPriority::slurm_default().score_into(j, c, &mut shares);
        shares.iter().find(|s| s.0 == name).expect("a named term").1
    }

    #[test]
    fn age_saturates_at_max_age() {
        let fs = FairShareLedger::disabled();
        let day = MAX_AGE.as_secs();
        assert_eq!(share("age", &job(0, 1), &ctx(0, &fs)), 0);
        assert_eq!(share("age", &job(0, 1), &ctx(day / 2, &fs)), 500_000);
        assert_eq!(share("age", &job(0, 1), &ctx(10 * day, &fs)), 1_000_000);
    }

    #[test]
    fn size_is_cluster_fraction() {
        let fs = FairShareLedger::disabled();
        assert_eq!(share("size", &job(0, 25), &ctx(0, &fs)), 125_000);
        // Oversized jobs clamp to the cluster.
        assert_eq!(share("size", &job(0, 500), &ctx(0, &fs)), 500_000);
    }

    #[test]
    fn fairshare_term_penalizes_heavy_users() {
        let fs = FairShareLedger::new(SimSpan::from_hours(24), 1);
        fs.charge(1, 100, SimSpan::from_hours(10), SimTime::from_secs(1));
        let heavy = share("fair-share", &job(1, 1), &ctx(10, &fs));
        let idle = share("fair-share", &job(2, 1), &ctx(10, &fs));
        assert!(heavy < idle, "{heavy} vs {idle}");
    }

    #[test]
    fn uniform_composer_scores_zero_with_no_shares() {
        let fs = FairShareLedger::disabled();
        let p = MultifactorPriority::uniform();
        assert!(p.is_uniform());
        let mut shares = vec![("stale", 1)];
        assert_eq!(p.score_into(&job(0, 1), &ctx(0, &fs), &mut shares), 0);
        assert!(shares.is_empty());
        assert_eq!(p.priority_milli(&job(0, 1), &ctx(0, &fs)), 0);
    }

    #[test]
    fn composed_total_equals_sum_of_contributions() {
        let fs = FairShareLedger::disabled();
        let p = MultifactorPriority::slurm_default();
        assert!(!p.is_uniform());
        let mut shares = Vec::new();
        let j = job(3, 10);
        let c = ctx(3600, &fs);
        let total = p.score_into(&j, &c, &mut shares);
        assert_eq!(total, shares.iter().map(|s| s.1).sum::<i64>());
        assert_eq!(total, p.priority_milli(&j, &c));
        let names: Vec<&str> = shares.iter().map(|s| s.0).collect();
        assert_eq!(names, vec!["fair-share", "age", "size"]);
    }
}
