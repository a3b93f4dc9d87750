//! Failure-predictor plugins.
//!
//! The paper implements failure-node prediction as a plugin so that "more
//! advanced techniques can be easily integrated" (§IV-C). We mirror that
//! with the [`FailurePredictor`] trait and one implementation,
//! [`OraclePredictor`]: a tunable-precision/recall oracle over the
//! ground-truth fault plan, which every experiment uses. Running without a
//! predictor (the FP-Tree-off ablation, which degenerates the FP-Tree to
//! the plain grouping tree) is `None` at the call site.

use emu::FaultPlan;
use rand::rngs::StdRng;
use rand::RngExt;
use simclock::rng::stream_rng;
use simclock::{SimSpan, SimTime};
use std::collections::HashSet;

/// A source of "these nodes are likely to fail soon" information.
pub trait FailurePredictor {
    /// The current suspect set at time `now`.
    fn suspects(&mut self, now: SimTime) -> HashSet<u32>;
}

/// A ground-truth oracle with tunable recall and false-positive count.
///
/// With `recall = 1.0` and `false_positives = 0` it is perfect — the setup
/// of Fig. 8(b), where failures are injected by powering nodes down and the
/// diagnostic network sees the power state directly.
///
/// ```
/// use emu::{FaultPlan, NodeId, Outage};
/// use monitoring::{FailurePredictor, OraclePredictor};
/// use simclock::{SimSpan, SimTime};
///
/// let plan = FaultPlan::from_outages(8, vec![Outage {
///     node: NodeId(5),
///     down_at: SimTime::from_secs(100),
///     up_at: SimTime::from_secs(200),
/// }]);
/// let mut oracle = OraclePredictor::new(plan, SimSpan::from_secs(60), 1);
/// // Within the 60 s lead window of the outage:
/// assert!(oracle.suspects(SimTime::from_secs(50)).contains(&5));
/// ```
#[derive(Debug)]
pub struct OraclePredictor {
    faults: FaultPlan,
    /// How far ahead the oracle can see an upcoming outage.
    pub lead: SimSpan,
    /// Fraction of truly failing nodes it reports.
    pub recall: f64,
    /// Extra healthy nodes it wrongly reports per query.
    pub false_positives: usize,
    rng: StdRng,
}

impl OraclePredictor {
    /// Build an oracle over `faults`.
    pub fn new(faults: FaultPlan, lead: SimSpan, seed: u64) -> Self {
        OraclePredictor {
            faults,
            lead,
            recall: 1.0,
            false_positives: 0,
            rng: stream_rng(seed, 0x0AC1E),
        }
    }

    /// Adjust recall (fraction of real failures predicted).
    pub fn with_recall(mut self, recall: f64) -> Self {
        self.recall = recall.clamp(0.0, 1.0);
        self
    }

    /// Add `k` random false positives per query.
    pub fn with_false_positives(mut self, k: usize) -> Self {
        self.false_positives = k;
        self
    }
}

impl FailurePredictor for OraclePredictor {
    fn suspects(&mut self, now: SimTime) -> HashSet<u32> {
        let mut out: HashSet<u32> = HashSet::new();
        // Currently-down nodes are always known (heartbeats), and upcoming
        // outages within the lead window are predicted with `recall`.
        for n in self.faults.down_at(now) {
            out.insert(n.0);
        }
        for n in self.faults.failing_within(now, self.lead) {
            if self.rng.random::<f64>() < self.recall {
                out.insert(n.0);
            }
        }
        let n = self.faults.cluster_size() as u32;
        for _ in 0..self.false_positives {
            if n > 0 {
                out.insert(self.rng.random_range(0..n));
            }
        }
        out
    }
}

/// Precision/recall of a predicted suspect set against ground truth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PredictionQuality {
    /// |predicted ∩ actual| / |predicted| (1.0 when nothing predicted).
    pub precision: f64,
    /// |predicted ∩ actual| / |actual| (1.0 when nothing actually failed).
    pub recall: f64,
}

/// Score a suspect set against the set of nodes that actually failed.
pub fn score(predicted: &HashSet<u32>, actual: &HashSet<u32>) -> PredictionQuality {
    let hit = predicted.intersection(actual).count() as f64;
    PredictionQuality {
        precision: if predicted.is_empty() {
            1.0
        } else {
            hit / predicted.len() as f64
        },
        recall: if actual.is_empty() {
            1.0
        } else {
            hit / actual.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu::{NodeId, Outage};

    fn plan_with_outage(node: u32, down: u64, up: u64, n: usize) -> FaultPlan {
        FaultPlan::from_outages(
            n,
            vec![Outage {
                node: NodeId(node),
                down_at: SimTime::from_secs(down),
                up_at: SimTime::from_secs(up),
            }],
        )
    }

    #[test]
    fn oracle_sees_upcoming_and_current_outages() {
        let plan = plan_with_outage(4, 100, 200, 10);
        let mut o = OraclePredictor::new(plan, SimSpan::from_secs(60), 1);
        assert!(o.suspects(SimTime::from_secs(10)).is_empty(), "too early");
        assert!(
            o.suspects(SimTime::from_secs(50)).contains(&4),
            "within lead"
        );
        assert!(
            o.suspects(SimTime::from_secs(150)).contains(&4),
            "during outage"
        );
        assert!(o.suspects(SimTime::from_secs(250)).is_empty(), "recovered");
    }

    #[test]
    fn oracle_recall_zero_predicts_nothing_upcoming() {
        let plan = plan_with_outage(4, 100, 200, 10);
        let mut o = OraclePredictor::new(plan, SimSpan::from_secs(60), 1).with_recall(0.0);
        assert!(o.suspects(SimTime::from_secs(50)).is_empty());
    }

    #[test]
    fn oracle_false_positives_added() {
        let plan = FaultPlan::none(100);
        let mut o = OraclePredictor::new(plan, SimSpan::from_secs(60), 1).with_false_positives(5);
        let s = o.suspects(SimTime::from_secs(5));
        assert!(!s.is_empty() && s.len() <= 5);
    }

    #[test]
    fn oracle_measures_as_configured_and_repeats_per_seed() {
        // 2,000 nodes that all fail at t=100: every one is upcoming at t=50.
        let n = 2_000u32;
        let outage = |node| Outage {
            node: NodeId(node),
            down_at: SimTime::from_secs(100),
            up_at: SimTime::from_secs(200),
        };
        let plan = FaultPlan::from_outages(n as usize, (0..n).map(outage).collect());
        let (now, lead) = (SimTime::from_secs(50), SimSpan::from_secs(60));
        let actual: HashSet<u32> = plan.failing_within(now, lead).iter().map(|n| n.0).collect();
        assert_eq!(actual.len(), n as usize);
        for r in [0.25, 0.5, 0.9] {
            let mut o = OraclePredictor::new(plan.clone(), lead, 11).with_recall(r);
            let q = score(&o.suspects(now), &actual);
            assert!((q.recall - r).abs() <= 0.05, "recall {r}: got {}", q.recall);
            assert_eq!(q.precision, 1.0);
        }

        let mut noisy =
            OraclePredictor::new(FaultPlan::none(n as usize), lead, 11).with_false_positives(8);
        let s = noisy.suspects(now);
        assert!(!s.is_empty() && s.len() <= 8);
        assert_eq!(score(&s, &HashSet::new()).precision, 0.0);

        let run = || {
            let mut o = OraclePredictor::new(plan.clone(), lead, 11)
                .with_recall(0.5)
                .with_false_positives(3);
            [10, 50, 90].map(|t| o.suspects(SimTime::from_secs(t)))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn score_computes_precision_recall() {
        let predicted: HashSet<u32> = [1, 2, 3, 4].into_iter().collect();
        let actual: HashSet<u32> = [3, 4, 5].into_iter().collect();
        let q = score(&predicted, &actual);
        assert!((q.precision - 0.5).abs() < 1e-9);
        assert!((q.recall - 2.0 / 3.0).abs() < 1e-9);
        let empty = score(&HashSet::new(), &HashSet::new());
        assert_eq!(empty.precision, 1.0);
        assert_eq!(empty.recall, 1.0);
    }
}
