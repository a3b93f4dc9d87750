//! FP-Tree: the failure-prediction-based communication tree (paper §IV).
//!
//! The FP-Tree constructor takes the node list of a broadcast task and the
//! set of nodes the monitoring subsystem currently suspects will fail, and
//! produces a *rearranged* node list such that, when the ordinary grouping
//! tree is built over it, the suspected nodes land on leaf positions. A
//! failed leaf delays nobody: it has no descendants to strand behind a
//! connection timeout, and its parent needs no fault-tolerant re-routing.
//!
//! Total construction cost is `O(n)`: leaf location is `Θ(n)` (Eq. 2 via
//! the master theorem) and the rearrangement pass is a single traversal.

use crate::tree::{leaf_positions, CommTree};
use std::collections::HashSet;

/// Rearrange `nodelist` so that members of `suspects` occupy leaf positions
/// of the width-`w` grouping tree (paper §IV-E).
///
/// The output is a permutation of the input. Relative order is preserved
/// within the suspected and healthy groups, so topology-aware orderings
/// produced upstream survive as much as the failure constraint allows.
/// When there are more suspects than leaves (never seen in practice — the
/// paper reports < 2 % failed nodes while > 50 % of positions are leaves),
/// the overflow stays in internal positions.
pub fn rearrange(nodelist: &[u32], suspects: &HashSet<u32>, w: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(nodelist.len());
    rearrange_into(nodelist, suspects, w, &mut out);
    out
}

/// [`rearrange`] into a caller-provided buffer (appended, not cleared),
/// so hot relay loops can reuse one allocation across many trees.
pub fn rearrange_into(nodelist: &[u32], suspects: &HashSet<u32>, w: usize, out: &mut Vec<u32>) {
    rearrange_sorted_into(nodelist, &sorted_suspects(suspects), w, out);
}

/// The suspect set as a sorted list, for [`rearrange_sorted_into`]: a
/// binary search over the few suspects of a broadcast instead of a hash
/// per node.
pub fn sorted_suspects(suspects: &HashSet<u32>) -> Vec<u32> {
    let mut v: Vec<u32> = suspects.iter().copied().collect();
    v.sort_unstable();
    v
}

/// [`rearrange_into`] with the suspects given as a sorted, duplicate-free
/// slice (see [`sorted_suspects`]). With no suspects it is a plain copy.
pub fn rearrange_sorted_into(nodelist: &[u32], suspects: &[u32], w: usize, out: &mut Vec<u32>) {
    debug_assert!(suspects.windows(2).all(|p| p[0] < p[1]));
    let n = nodelist.len();
    if suspects.is_empty() || n == 0 {
        out.extend_from_slice(nodelist);
        return;
    }
    let leaves = leaf_positions(n, w);
    // Two order-preserving queues over the input, consumed from the front:
    // reversed so `pop` is O(1).
    let (mut failed, mut healthy): (Vec<u32>, Vec<u32>) = nodelist
        .iter()
        .rev()
        .partition(|node| suspects.binary_search(node).is_ok());
    let n_failed = failed.len();

    // Spread suspects *evenly* across the leaf positions instead of
    // packing them into the earliest ones: a run of consecutive dead
    // children would serialize their parent's connection slots behind
    // timeout after timeout, delaying its healthy children — the very
    // latency the FP-Tree exists to avoid.
    let leaf_idx: Vec<usize> = (0..n).filter(|&p| leaves[p]).collect();
    let mut failed_slot = vec![false; n];
    if n_failed > 0 && !leaf_idx.is_empty() {
        let take = n_failed.min(leaf_idx.len());
        for k in 0..take {
            // k-th of `take` evenly spaced picks among the leaf positions.
            let pos = leaf_idx[k * leaf_idx.len() / take];
            failed_slot[pos] = true;
        }
    }

    out.reserve(n);
    for (p, is_leaf) in leaves.iter().enumerate() {
        let pick = if *is_leaf && failed_slot[p] {
            failed.pop().or_else(|| healthy.pop())
        } else {
            // Internal position, or a leaf kept for a healthy node.
            healthy.pop().or_else(|| failed.pop())
        };
        out.push(pick.expect("queues jointly hold exactly n nodes"));
    }
}

/// Statistics of one FP-Tree construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FpTreeStats {
    /// Number of suspected nodes in the input list.
    pub suspects_in_list: usize,
    /// How many of them ended up on leaf positions.
    pub suspects_on_leaves: usize,
    /// Number of leaf positions in the tree.
    pub leaf_count: usize,
}

impl FpTreeStats {
    /// Fraction of suspects placed on leaves (1.0 when there are none).
    pub fn leaf_placement_ratio(&self) -> f64 {
        if self.suspects_in_list == 0 {
            1.0
        } else {
            self.suspects_on_leaves as f64 / self.suspects_in_list as f64
        }
    }
}

/// The FP-Tree constructor (paper Fig. 3/4): combines leaf location,
/// nodelist rearrangement, and tree construction.
///
/// ```
/// use topology::FpTreeConstructor;
/// use std::collections::HashSet;
///
/// let nodes: Vec<u32> = (0..64).collect();
/// let suspects: HashSet<u32> = [3, 17, 42].into_iter().collect();
/// let (list, tree, stats) = FpTreeConstructor::new(8).construct(&nodes, &suspects);
///
/// // Same nodes, new order — every suspect now sits on a leaf.
/// assert_eq!(stats.leaf_placement_ratio(), 1.0);
/// assert_eq!(list.len(), 64);
/// assert!(tree.depth() >= 2);
/// ```
#[derive(Clone, Debug)]
pub struct FpTreeConstructor {
    /// Width of the grouping tree.
    pub width: usize,
}

impl FpTreeConstructor {
    /// A constructor for width-`w` trees.
    pub fn new(width: usize) -> Self {
        assert!(width >= 2, "tree width must be at least 2");
        FpTreeConstructor { width }
    }

    /// Build the FP-Tree over `nodelist` given the currently suspected
    /// nodes. Returns the rearranged list, the tree over its positions,
    /// and placement statistics.
    pub fn construct(
        &self,
        nodelist: &[u32],
        suspects: &HashSet<u32>,
    ) -> (Vec<u32>, CommTree, FpTreeStats) {
        let list = rearrange(nodelist, suspects, self.width);
        let tree = CommTree::build(list.len(), self.width);
        let leaves = leaf_positions(list.len(), self.width);
        let mut on_leaves = 0;
        let mut in_list = 0;
        for (pos, node) in list.iter().enumerate() {
            if suspects.contains(node) {
                in_list += 1;
                if leaves[pos] {
                    on_leaves += 1;
                }
            }
        }
        let stats = FpTreeStats {
            suspects_in_list: in_list,
            suspects_on_leaves: on_leaves,
            leaf_count: leaves.iter().filter(|&&l| l).count(),
        };
        (list, tree, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suspects(v: &[u32]) -> HashSet<u32> {
        v.iter().copied().collect()
    }

    /// The rearrangement as first written, with set lookups: the oracle
    /// the sorted-list version is held to.
    fn rearrange_reference(nodelist: &[u32], suspects: &HashSet<u32>, w: usize) -> Vec<u32> {
        let n = nodelist.len();
        if n == 0 {
            return Vec::new();
        }
        let leaves = leaf_positions(n, w);
        let mut failed: Vec<u32> = nodelist
            .iter()
            .copied()
            .filter(|n| suspects.contains(n))
            .collect();
        let mut healthy: Vec<u32> = nodelist
            .iter()
            .copied()
            .filter(|n| !suspects.contains(n))
            .collect();
        let n_failed = failed.len();
        failed.reverse();
        healthy.reverse();
        let leaf_idx: Vec<usize> = (0..n).filter(|&p| leaves[p]).collect();
        let mut failed_slot = vec![false; n];
        if n_failed > 0 && !leaf_idx.is_empty() {
            let take = n_failed.min(leaf_idx.len());
            for k in 0..take {
                let pos = leaf_idx[k * leaf_idx.len() / take];
                failed_slot[pos] = true;
            }
        }
        let mut out = Vec::with_capacity(n);
        for (p, is_leaf) in leaves.iter().enumerate() {
            let pick = if *is_leaf && failed_slot[p] {
                failed.pop().or_else(|| healthy.pop())
            } else if *is_leaf {
                healthy.pop().or_else(|| failed.pop())
            } else {
                healthy.pop().or_else(|| failed.pop())
            };
            out.push(pick.expect("queues jointly hold exactly n nodes"));
        }
        out
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            /// `rearrange_into` against the set-lookup oracle: lists of up
            /// to 300 distinct nodes, widths 2–33, and suspect sets from
            /// empty to every node, some of them outside the list.
            #[test]
            fn rearrange_into_matches_the_set_lookup_oracle(
                len in 0usize..300,
                w in 2usize..34,
                every in 1u32..40,
                offset in 0u32..1000,
                extra in 0u32..5,
            ) {
                let list: Vec<u32> = (0..len as u32).map(|i| offset + i * 7 % 1009).collect();
                let s: HashSet<u32> = list
                    .iter()
                    .copied()
                    .filter(|n| n % every == 0)
                    .chain((0..extra).map(|i| 5_000 + i))
                    .collect();
                let mut out = vec![u32::MAX];
                rearrange_into(&list, &s, w, &mut out);
                prop_assert_eq!(out[0], u32::MAX, "appends, does not clear");
                prop_assert_eq!(&out[1..], &rearrange_reference(&list, &s, w)[..]);
            }
        }
    }

    #[test]
    fn output_is_permutation() {
        let list: Vec<u32> = (100..200).collect();
        let s = suspects(&[105, 150, 199]);
        let out = rearrange(&list, &s, 4);
        let mut sorted = out.clone();
        sorted.sort();
        assert_eq!(sorted, list);
    }

    #[test]
    fn all_suspects_land_on_leaves() {
        let list: Vec<u32> = (0..1000).collect();
        let s = suspects(&(0..20).map(|i| i * 37).collect::<Vec<_>>());
        let ctor = FpTreeConstructor::new(8);
        let (_, _, stats) = ctor.construct(&list, &s);
        assert_eq!(stats.suspects_in_list, 20);
        assert_eq!(stats.suspects_on_leaves, 20);
        assert_eq!(stats.leaf_placement_ratio(), 1.0);
    }

    #[test]
    fn no_suspects_is_identity() {
        let list: Vec<u32> = (0..50).collect();
        let out = rearrange(&list, &HashSet::new(), 4);
        assert_eq!(out, list);
    }

    #[test]
    fn suspects_not_in_list_are_ignored() {
        let list: Vec<u32> = (0..10).collect();
        let s = suspects(&[1000, 2000]);
        let ctor = FpTreeConstructor::new(2);
        let (out, _, stats) = ctor.construct(&list, &s);
        assert_eq!(out, list);
        assert_eq!(stats.suspects_in_list, 0);
        assert_eq!(stats.leaf_placement_ratio(), 1.0);
    }

    #[test]
    fn overflow_suspects_fill_internal_positions() {
        // More suspects than leaves: everything still placed, permutation
        // holds, leaves all get suspects.
        let list: Vec<u32> = (0..20).collect();
        let s: HashSet<u32> = (0..20).collect();
        let out = rearrange(&list, &s, 4);
        let mut sorted = out.clone();
        sorted.sort();
        assert_eq!(sorted, list);
    }

    #[test]
    fn healthy_relative_order_preserved() {
        let list: Vec<u32> = (0..100).collect();
        let s = suspects(&[3, 50, 97]);
        let out = rearrange(&list, &s, 4);
        let healthy: Vec<u32> = out.iter().copied().filter(|n| !s.contains(n)).collect();
        let mut expected: Vec<u32> = list.iter().copied().filter(|n| !s.contains(n)).collect();
        expected.sort();
        let mut sorted = healthy.clone();
        sorted.sort();
        assert_eq!(sorted, expected);
        assert!(
            healthy.windows(2).all(|w| w[0] < w[1]),
            "healthy order changed"
        );
    }

    #[test]
    fn paper_reported_two_percent_failures_fit_on_leaves() {
        // Production observation: < 2 % of nodes failed; a width-32 tree has
        // > 90 % leaves, so placement ratio must be 1.0.
        let list: Vec<u32> = (0..4096).collect();
        let s: HashSet<u32> = (0..80).map(|i| i * 51).collect();
        let ctor = FpTreeConstructor::new(32);
        let (_, _, stats) = ctor.construct(&list, &s);
        assert_eq!(stats.leaf_placement_ratio(), 1.0);
        // In a width-32 grouping tree roughly 3/4 of positions are leaves —
        // vastly more than the < 2 % failure population.
        assert!(stats.leaf_count as f64 > 0.7 * 4096.0);
    }

    #[test]
    fn empty_list() {
        let ctor = FpTreeConstructor::new(4);
        let (out, tree, stats) = ctor.construct(&[], &HashSet::new());
        assert!(out.is_empty());
        assert!(tree.is_empty());
        assert_eq!(stats.leaf_count, 0);
    }
}
