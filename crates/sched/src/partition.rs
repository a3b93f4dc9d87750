//! Partitions: logical node groups with per-partition policies — the
//! first of the multi-tenant policy layers (Slurm's `PartitionName=`
//! stanzas).
//!
//! A [`Partition`] carries the three per-partition knobs production RMs
//! apply before a job ever reaches the backfill loop:
//!
//! * **time limits** — a hard walltime cap ([`Partition::max_time`]) and a
//!   default walltime for jobs that arrive without one
//!   ([`Partition::default_time`]),
//! * **node filters** — the job sizes the partition admits
//!   ([`Partition::job_nodes`]) and an optional cap on how many nodes the
//!   partition may hold concurrently ([`Partition::capacity`]),
//! * **a QOS weight** — the partition's service class, consumed by the
//!   QOS priority factor.
//!
//! A [`PartitionSet`] routes each job to the first partition whose filter
//! admits it; the last partition is the catch-all default and must admit
//! any job, so routing can never strand one. The default set
//! ([`PartitionSet::single_default`]) is a single unconstrained partition:
//! with it, the scheduler behaves bit-identically to a partition-unaware
//! one — the layering invariant the parity tests pin.

use simclock::SimSpan;
use std::rc::Rc;

/// One logical node group with its own limits and service class.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    /// Partition name (reports and audit rendering).
    pub name: String,
    /// Hard walltime cap: job limits are clamped to this.
    pub max_time: Option<SimSpan>,
    /// Walltime applied when neither the user nor a model supplied an
    /// estimate (replaces the policy's global default attribution).
    pub default_time: Option<SimSpan>,
    /// Smallest job size (in nodes, after cluster clamping) admitted.
    pub min_job_nodes: u32,
    /// Largest job size admitted (`None` = unbounded).
    pub max_job_nodes: Option<u32>,
    /// Nodes this partition may occupy concurrently (`None` = the whole
    /// cluster). Checked at every start decision, including backfills.
    pub capacity: Option<u32>,
    /// QOS weight for the priority QOS factor (1.0 = neutral).
    pub qos_weight: f64,
}

impl Partition {
    /// An unconstrained partition named `name`.
    pub fn named(name: impl Into<String>) -> Self {
        Partition {
            name: name.into(),
            max_time: None,
            default_time: None,
            min_job_nodes: 0,
            max_job_nodes: None,
            capacity: None,
            qos_weight: 1.0,
        }
    }

    /// Set the hard walltime cap.
    pub fn max_time(mut self, t: SimSpan) -> Self {
        self.max_time = Some(t);
        self
    }

    /// Set the default walltime for estimate-less jobs.
    pub fn default_time(mut self, t: SimSpan) -> Self {
        self.default_time = Some(t);
        self
    }

    /// Admit only jobs of `min..=max` nodes.
    pub fn job_nodes(mut self, min: u32, max: Option<u32>) -> Self {
        self.min_job_nodes = min;
        self.max_job_nodes = max;
        self
    }

    /// Cap the partition's concurrent node occupancy.
    pub fn capacity(mut self, nodes: u32) -> Self {
        self.capacity = Some(nodes);
        self
    }

    /// Set the QOS weight.
    pub fn qos(mut self, weight: f64) -> Self {
        self.qos_weight = weight;
        self
    }

    /// Whether this partition's filter admits a job of `nodes` nodes.
    /// A capacity-limited partition never admits a job bigger than its
    /// capacity (it could never start there).
    pub fn admits(&self, nodes: u32) -> bool {
        nodes >= self.min_job_nodes
            && self.max_job_nodes.is_none_or(|m| nodes <= m)
            && self.capacity.is_none_or(|c| nodes <= c)
    }

    /// Whether this partition constrains anything at all.
    fn is_unconstrained(&self) -> bool {
        self.max_time.is_none()
            && self.default_time.is_none()
            && self.min_job_nodes == 0
            && self.max_job_nodes.is_none()
            && self.capacity.is_none()
            && self.qos_weight == 1.0
    }
}

/// An ordered set of partitions; jobs route to the first admitting one.
/// Cheap to clone (the partitions are shared).
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionSet {
    parts: Rc<Vec<Partition>>,
}

impl Default for PartitionSet {
    fn default() -> Self {
        Self::single_default()
    }
}

impl PartitionSet {
    /// The trivial set: one unconstrained catch-all partition. With this
    /// set the scheduler is bit-identical to a partition-unaware one.
    pub fn single_default() -> Self {
        PartitionSet {
            parts: Rc::new(vec![Partition::named("all")]),
        }
    }

    /// A set of partitions, routed in order. The last partition is the
    /// default and must admit any job size (no node filter, no capacity
    /// cap), so routing can never strand a job.
    ///
    /// # Panics
    /// If `parts` is empty or the last partition filters by size/capacity.
    pub fn new(parts: Vec<Partition>) -> Self {
        assert!(
            !parts.is_empty(),
            "a partition set needs at least one partition"
        );
        let last = parts.last().unwrap();
        assert!(
            last.min_job_nodes == 0 && last.max_job_nodes.is_none() && last.capacity.is_none(),
            "the last partition ({}) is the default and must admit any job",
            last.name
        );
        PartitionSet {
            parts: Rc::new(parts),
        }
    }

    /// Whether this is the trivial single-default set (the bit-identical
    /// fast path: partition logic is skipped entirely).
    pub fn is_trivial(&self) -> bool {
        self.parts.len() == 1 && self.parts[0].is_unconstrained()
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The partition at `idx`.
    pub fn get(&self, idx: usize) -> &Partition {
        &self.parts[idx]
    }

    /// Iterate the partitions in routing order.
    pub fn iter(&self) -> impl Iterator<Item = &Partition> {
        self.parts.iter()
    }

    /// Route a job of `nodes` nodes (after cluster clamping): the first
    /// partition whose filter admits it, else the default (last).
    pub fn route(&self, nodes: u32) -> usize {
        self.parts
            .iter()
            .position(|p| p.admits(nodes))
            .unwrap_or(self.parts.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_default_is_trivial_and_admits_everything() {
        let set = PartitionSet::single_default();
        assert!(set.is_trivial());
        assert_eq!(set.route(0), 0);
        assert_eq!(set.route(1_000_000), 0);
    }

    #[test]
    fn routing_picks_first_admitting_partition() {
        let set = PartitionSet::new(vec![
            Partition::named("small").job_nodes(0, Some(4)).qos(1.5),
            Partition::named("large").job_nodes(5, None).capacity(512),
            Partition::named("all"),
        ]);
        assert!(!set.is_trivial());
        assert_eq!(set.get(set.route(2)).name, "small");
        assert_eq!(set.get(set.route(5)).name, "large");
        // Bigger than "large"'s capacity: falls through to the default.
        assert_eq!(set.get(set.route(600)).name, "all");
    }

    #[test]
    fn constrained_single_partition_is_not_trivial() {
        let set = PartitionSet::new(vec![
            Partition::named("capped").max_time(SimSpan::from_hours(1))
        ]);
        assert!(!set.is_trivial());
    }

    #[test]
    #[should_panic(expected = "must admit any job")]
    fn last_partition_must_be_a_catch_all() {
        PartitionSet::new(vec![Partition::named("narrow").job_nodes(0, Some(8))]);
    }
}
