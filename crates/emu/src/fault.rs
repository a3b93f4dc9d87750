//! Fault injection: scheduled node outages.
//!
//! A [`FaultPlan`] is a ground-truth schedule of node down/up intervals.
//! Messages to a node that is down at delivery time are dropped, which is
//! how failures surface to the protocols (timeouts). The plan also feeds the
//! `monitoring` crate's oracle predictor, which turns upcoming outages into
//! the (noisy) suspect sets the FP-Tree constructor reads.
//!
//! [`FaultPlanBuilder::tianhe_like`] mimics the failure mix the paper
//! reports from ten days of production: many small events (1–8 nodes) plus
//! one large maintenance event (600+ nodes at once).

use crate::node::NodeId;
use rand::RngExt;
use simclock::rng::stream_rng;
use simclock::{SimSpan, SimTime};

/// One outage of one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outage {
    /// The affected node.
    pub node: NodeId,
    /// When the node goes down.
    pub down_at: SimTime,
    /// When the node comes back (may be past the simulation horizon).
    pub up_at: SimTime,
}

/// A schedule of node outages, queryable by `(node, time)`.
///
/// The per-node index is in compressed-row form: the outages of node `i`
/// are `outages[by_node[first[i]..first[i + 1]]]`. Every delivered message
/// asks [`FaultPlan::is_up`] about its receiver, almost always about a
/// node that never fails, so that question must cost two adjacent `u32`
/// reads (none at all for a plan without outages) — a `Vec` per node costs
/// 24 bytes per node and a dependent load to learn it is empty.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// All outages, sorted by `down_at`.
    outages: Vec<Outage>,
    /// `cluster_size + 1` offsets into `by_node` (empty for the default
    /// plan, which covers no nodes).
    first: Vec<u32>,
    /// Outage indices grouped by node, ascending within a node.
    by_node: Vec<u32>,
}

impl FaultPlan {
    /// A plan with no failures for `n` nodes.
    pub fn none(n: usize) -> Self {
        Self::from_outages(n, Vec::new())
    }

    /// Build from an explicit outage list for `n` nodes.
    pub fn from_outages(n: usize, mut outages: Vec<Outage>) -> Self {
        outages.sort_by_key(|o| (o.down_at, o.node));
        // Counting sort by node: count, prefix-sum, then place.
        let mut first = vec![0u32; n + 1];
        for o in &outages {
            assert!(o.node.index() < n, "outage for node outside cluster");
            assert!(o.up_at > o.down_at, "outage must have positive duration");
            first[o.node.index() + 1] += 1;
        }
        for i in 0..n {
            first[i + 1] += first[i];
        }
        let mut next = first.clone();
        let mut by_node = vec![0u32; outages.len()];
        for (i, o) in outages.iter().enumerate() {
            let at = &mut next[o.node.index()];
            by_node[*at as usize] = i as u32;
            *at += 1;
        }
        FaultPlan {
            outages,
            first,
            by_node,
        }
    }

    /// The same outages in an `n`-node layout where this plan's node `i` is
    /// node `offset + i`: a plan drawn over the compute nodes, placed past
    /// the master and satellites of the deployment it is injected into.
    pub fn placed(&self, offset: usize, n: usize) -> FaultPlan {
        let shifted = self.outages.iter().map(|o| Outage {
            node: NodeId(o.node.0 + offset as u32),
            ..*o
        });
        Self::from_outages(n, shifted.collect())
    }

    /// The outages of `node` (none for a node outside the plan).
    #[inline]
    fn outages_of(&self, node: NodeId) -> impl Iterator<Item = &Outage> {
        let i = node.index();
        let idxs = match (self.first.get(i), self.first.get(i + 1)) {
            (Some(&lo), Some(&hi)) => &self.by_node[lo as usize..hi as usize],
            _ => &[],
        };
        idxs.iter().map(|&i| &self.outages[i as usize])
    }

    /// Whether `node` is up at time `t`.
    #[inline]
    pub fn is_up(&self, node: NodeId, t: SimTime) -> bool {
        self.outages.is_empty() || self.outages_of(node).all(|o| t < o.down_at || t >= o.up_at)
    }

    /// All outages, sorted by start time.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// The set of nodes that are down at time `t`.
    pub fn down_at(&self, t: SimTime) -> Vec<NodeId> {
        let mut down: Vec<NodeId> = self
            .outages
            .iter()
            .filter(|o| t >= o.down_at && t < o.up_at)
            .map(|o| o.node)
            .collect();
        down.sort();
        down.dedup();
        down
    }

    /// Nodes whose outage starts within `(t, t + horizon]` — the information
    /// an ideal monitoring system could know in advance.
    pub fn failing_within(&self, t: SimTime, horizon: SimSpan) -> Vec<NodeId> {
        let end = t + horizon;
        let mut v: Vec<NodeId> = self
            .outages
            .iter()
            .filter(|o| o.down_at > t && o.down_at <= end)
            .map(|o| o.node)
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Number of nodes in the plan's cluster.
    pub fn cluster_size(&self) -> usize {
        self.first.len().saturating_sub(1)
    }

    /// If `node` is down at `t`, the time it next comes back up; `None` when
    /// the node is up at `t`.
    pub fn next_up_after(&self, node: NodeId, t: SimTime) -> Option<SimTime> {
        self.outages_of(node)
            .filter(|o| t >= o.down_at && t < o.up_at)
            .map(|o| o.up_at)
            .max()
    }
}

/// Randomized construction of realistic fault plans.
#[derive(Clone, Debug)]
pub struct FaultPlanBuilder {
    n: usize,
    seed: u64,
    horizon: SimSpan,
    small_events: usize,
    small_event_max_nodes: usize,
    large_events: usize,
    large_event_nodes: usize,
    mean_outage: SimSpan,
}

impl FaultPlanBuilder {
    /// Start a builder for a cluster of `n` nodes over `horizon` of virtual
    /// time, seeded for reproducibility.
    pub fn new(n: usize, horizon: SimSpan, seed: u64) -> Self {
        FaultPlanBuilder {
            n,
            seed,
            horizon,
            small_events: 0,
            small_event_max_nodes: 8,
            large_events: 0,
            large_event_nodes: 0,
            mean_outage: SimSpan::from_secs(3600),
        }
    }

    /// Schedule `count` small failure events of 1..=`max_nodes` nodes each.
    pub fn small_events(mut self, count: usize, max_nodes: usize) -> Self {
        self.small_events = count;
        self.small_event_max_nodes = max_nodes.max(1);
        self
    }

    /// Schedule `count` large events taking down `nodes` nodes at once
    /// (hardware replacement / maintenance).
    pub fn large_events(mut self, count: usize, nodes: usize) -> Self {
        self.large_events = count;
        self.large_event_nodes = nodes;
        self
    }

    /// Mean outage duration (exponentially distributed).
    pub fn mean_outage(mut self, d: SimSpan) -> Self {
        self.mean_outage = d;
        self
    }

    /// The failure mix of the paper's ten-day 4K-node deployment, scaled to
    /// the given cluster size and horizon: 28 small events on ≤8 nodes plus
    /// one 600-node maintenance event per 10 days per 4 096 nodes.
    pub fn tianhe_like(n: usize, horizon: SimSpan, seed: u64) -> Self {
        let scale = (n as f64 / 4096.0) * (horizon.as_secs_f64() / (10.0 * 86_400.0));
        let small = (28.0 * scale).round().max(1.0) as usize;
        let large = if scale >= 0.5 { 1 } else { 0 };
        FaultPlanBuilder::new(n, horizon, seed)
            .small_events(small, 8)
            .large_events(large, ((600.0 * n as f64 / 4096.0) as usize).min(n / 4))
            .mean_outage(SimSpan::from_secs(2 * 3600))
    }

    /// Materialize the plan.
    pub fn build(self) -> FaultPlan {
        let mut rng = stream_rng(self.seed, 0xFA);
        let mut outages = Vec::new();
        let horizon_us = self.horizon.as_micros().max(1);
        let push_event = |rng: &mut rand::rngs::StdRng, nodes: usize, out: &mut Vec<Outage>| {
            let at = SimTime(rng.random_range(0..horizon_us));
            // Failed nodes cluster physically (same board/chassis): pick a
            // contiguous id range starting at a random point.
            let start = rng.random_range(0..self.n as u32);
            let dur =
                simclock::rng::exponential(rng, 1.0 / self.mean_outage.as_secs_f64().max(1.0));
            let dur = SimSpan::from_secs_f64(dur.max(60.0));
            for k in 0..nodes {
                let node = NodeId((start + k as u32) % self.n as u32);
                out.push(Outage {
                    node,
                    down_at: at,
                    up_at: at + dur,
                });
            }
        };
        for _ in 0..self.small_events {
            let nodes = rng.random_range(1..=self.small_event_max_nodes);
            push_event(&mut rng, nodes, &mut outages);
        }
        for _ in 0..self.large_events {
            push_event(&mut rng, self.large_event_nodes, &mut outages);
        }
        FaultPlan::from_outages(self.n, outages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_everything_up() {
        let p = FaultPlan::none(10);
        assert!(p.is_up(NodeId(3), SimTime::from_secs(100)));
        assert!(p.down_at(SimTime::from_secs(5)).is_empty());
    }

    #[test]
    fn outage_window_respected() {
        let p = FaultPlan::from_outages(
            4,
            vec![Outage {
                node: NodeId(2),
                down_at: SimTime::from_secs(10),
                up_at: SimTime::from_secs(20),
            }],
        );
        assert!(p.is_up(NodeId(2), SimTime::from_secs(9)));
        assert!(!p.is_up(NodeId(2), SimTime::from_secs(10)));
        assert!(!p.is_up(NodeId(2), SimTime::from_secs(19)));
        assert!(p.is_up(NodeId(2), SimTime::from_secs(20)));
        assert!(p.is_up(NodeId(1), SimTime::from_secs(15)));
        assert_eq!(p.down_at(SimTime::from_secs(15)), vec![NodeId(2)]);
    }

    #[test]
    fn placed_plan_shifts_every_outage() {
        let h = SimSpan::from_hours(1);
        let compute = FaultPlanBuilder::new(20, h, 3).small_events(5, 4).build();
        let placed = compute.placed(3, 23);
        assert_eq!(placed.cluster_size(), 23);
        assert_eq!(placed.outages().len(), compute.outages().len());
        for (p, c) in placed.outages().iter().zip(compute.outages()) {
            assert_eq!(
                (p.node.0 - 3, p.down_at, p.up_at),
                (c.node.0, c.down_at, c.up_at)
            );
            assert!(!placed.is_up(p.node, p.down_at));
        }
    }

    #[test]
    fn failing_within_horizon() {
        let p = FaultPlan::from_outages(
            4,
            vec![
                Outage {
                    node: NodeId(1),
                    down_at: SimTime::from_secs(50),
                    up_at: SimTime::from_secs(60),
                },
                Outage {
                    node: NodeId(3),
                    down_at: SimTime::from_secs(500),
                    up_at: SimTime::from_secs(600),
                },
            ],
        );
        let soon = p.failing_within(SimTime::from_secs(40), SimSpan::from_secs(30));
        assert_eq!(soon, vec![NodeId(1)]);
    }

    #[test]
    fn builder_is_deterministic_and_in_range() {
        let h = SimSpan::from_hours(24);
        let a = FaultPlanBuilder::new(100, h, 9).small_events(10, 4).build();
        let b = FaultPlanBuilder::new(100, h, 9).small_events(10, 4).build();
        assert_eq!(a.outages(), b.outages());
        assert!(!a.outages().is_empty());
        for o in a.outages() {
            assert!(o.node.index() < 100);
            assert!(o.down_at.as_micros() < h.as_micros());
            assert!(o.up_at > o.down_at);
        }
    }

    #[test]
    fn tianhe_like_has_large_event_at_scale() {
        let p = FaultPlanBuilder::tianhe_like(4096, SimSpan::from_hours(240), 7).build();
        // 28 small events plus one ~600-node event => >600 outages.
        assert!(p.outages().len() > 600, "got {}", p.outages().len());
    }

    #[test]
    fn default_plan_covers_no_nodes() {
        let p = FaultPlan::default();
        assert_eq!(p.cluster_size(), 0);
        assert!(p.is_up(NodeId(0), SimTime::ZERO));
        assert_eq!(p.next_up_after(NodeId(0), SimTime::ZERO), None);
        assert_eq!(FaultPlan::none(0).cluster_size(), 0);
        assert_eq!(FaultPlan::none(7).cluster_size(), 7);
    }

    #[test]
    fn nodes_outside_the_plan_are_up() {
        let p = FaultPlan::from_outages(
            3,
            vec![Outage {
                node: NodeId(2),
                down_at: SimTime::from_secs(10),
                up_at: SimTime::from_secs(20),
            }],
        );
        let t = SimTime::from_secs(15);
        assert!(!p.is_up(NodeId(2), t));
        for outside in [3, 4, u32::MAX] {
            assert!(p.is_up(NodeId(outside), t));
            assert_eq!(p.next_up_after(NodeId(outside), t), None);
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The indexed queries equal a naive scan over `outages()` at
            /// every breakpoint ± 1 µs, for every node of the plan and one
            /// past it, under overlapping outages of one node.
            #[test]
            fn queries_match_a_naive_scan(
                n in 1usize..65,
                raw in prop::collection::vec((0u32..64, 1u64..500, 1u64..200), 0..41),
            ) {
                let outages: Vec<Outage> = raw
                    .iter()
                    .map(|&(node, down, len)| Outage {
                        node: NodeId(node % n as u32),
                        down_at: SimTime(down),
                        up_at: SimTime(down + len),
                    })
                    .collect();
                let plan = FaultPlan::from_outages(n, outages.clone());
                prop_assert_eq!(plan.cluster_size(), n);
                prop_assert_eq!(plan.outages().len(), outages.len());
                let mut probes = vec![0u64];
                for o in &outages {
                    for edge in [o.down_at.0, o.up_at.0] {
                        probes.extend([edge - 1, edge, edge + 1]);
                    }
                }
                for node in (0..=n as u32).map(NodeId) {
                    for &t in &probes {
                        let t = SimTime(t);
                        let covering = || {
                            plan.outages()
                                .iter()
                                .filter(move |o| o.node == node && t >= o.down_at && t < o.up_at)
                        };
                        prop_assert_eq!(plan.is_up(node, t), covering().next().is_none());
                        prop_assert_eq!(
                            plan.next_up_after(node, t),
                            covering().map(|o| o.up_at).max()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_duration_outage_rejected() {
        let t = SimTime::from_secs(5);
        FaultPlan::from_outages(
            2,
            vec![Outage {
                node: NodeId(0),
                down_at: t,
                up_at: t,
            }],
        );
    }
}
