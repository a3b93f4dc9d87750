//! The grouping-based communication tree of Slurm/ESlurm (paper §IV-B).
//!
//! A sender holding a node list splits it into `w` contiguous groups, uses
//! the first node of each group as a child, and ships the *rest* of the
//! group to that child, which repeats the process. The node's position in
//! the original list therefore fully determines its position in the tree —
//! which is exactly what the FP-Tree exploits: rearranging the list moves
//! nodes between internal and leaf positions without changing the
//! construction algorithm (§IV-D/E).

/// The `k` contiguous, balanced chunks of `len` items, as `(start, len)`
/// pairs computed on the fly; the first `len % k` chunks are one longer.
/// `k` is capped at `len`, so no chunk is empty.
pub fn balanced_chunks(len: usize, k: usize) -> impl ExactSizeIterator<Item = (usize, usize)> {
    assert!(k > 0, "cannot split into zero groups");
    let k = k.min(len);
    // `len == 0` yields no chunks; the divisor only has to be non-zero.
    let (base, extra) = (len / k.max(1), len % k.max(1));
    // Chunk `i` starts after `i` base-sized chunks and `min(i, extra)`
    // one-longer ones.
    (0..k).map(move |i| (i * base + i.min(extra), base + usize::from(i < extra)))
}

/// Mark which positions of an `n`-element node list become **leaves** of a
/// width-`w` grouping tree.
///
/// This is the paper's "leaf-nodes location" step (§IV-D, Eq. 2): it
/// simulates the recursive grouping top-down without materializing the
/// tree, in `Θ(n)` time.
pub fn leaf_positions(n: usize, w: usize) -> Vec<bool> {
    assert!(w >= 2, "tree width must be at least 2");
    let mut leaves = vec![false; n];
    mark(0, n, w, &mut leaves);
    leaves
}

fn mark(start: usize, len: usize, w: usize, leaves: &mut [bool]) {
    if len == 0 {
        return;
    }
    // Fewer nodes than the width: every node becomes its own group head
    // with nothing below it — all leaves (the `n < w` arm of Eq. 2).
    let k = if len < w { len } else { w };
    for (cs, cl) in balanced_chunks(len, k) {
        let head = start + cs;
        if cl == 1 {
            leaves[head] = true;
        } else {
            mark(head + 1, cl - 1, w, leaves);
        }
    }
}

/// Number of relay levels below a sender holding an `n`-node sub-list of
/// a width-`w` grouping tree (0 for an empty list). Ack deadlines must
/// grow with this depth: a parent that timed out before its deepest
/// descendant could finish waiting on a genuinely dead child would drop
/// whole healthy subtrees from the aggregated acknowledgement.
pub fn relay_depth(n: usize, w: usize) -> usize {
    let w = w.max(2);
    let mut depth = 0;
    let mut size = n;
    while size > 0 {
        let k = size.min(w);
        let chunk = size.div_ceil(k); // largest group handed to one head
        size = chunk - 1; // the head keeps relaying the rest
        depth += 1;
    }
    depth
}

/// An explicit grouping tree over list positions `0..n`, with a virtual
/// root (the sender: a satellite node in ESlurm, `slurmctld` in Slurm).
#[derive(Clone, Debug)]
pub struct CommTree {
    /// Positions that are children of the virtual root.
    pub root_children: Vec<u32>,
    /// `children[p]` = positions whose parent is position `p`.
    pub children: Vec<Vec<u32>>,
    /// `parent[p]` = parent position, or `None` for root children.
    pub parent: Vec<Option<u32>>,
    /// Tree width used for construction.
    pub width: usize,
}

impl CommTree {
    /// Build the width-`w` grouping tree over `n` list positions.
    pub fn build(n: usize, w: usize) -> Self {
        assert!(w >= 2, "tree width must be at least 2");
        let mut tree = CommTree {
            root_children: Vec::new(),
            children: vec![Vec::new(); n],
            parent: vec![None; n],
            width: w,
        };
        tree.attach(None, 0, n, w);
        tree
    }

    fn attach(&mut self, parent: Option<u32>, start: usize, len: usize, w: usize) {
        if len == 0 {
            return;
        }
        let k = if len < w { len } else { w };
        for (cs, cl) in balanced_chunks(len, k) {
            let head = (start + cs) as u32;
            match parent {
                None => self.root_children.push(head),
                Some(p) => self.children[p as usize].push(head),
            }
            self.parent[head as usize] = parent;
            if cl > 1 {
                self.attach(Some(head), start + cs + 1, cl - 1, w);
            }
        }
    }

    /// Number of positions in the tree.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Whether position `p` is a leaf.
    pub fn is_leaf(&self, p: u32) -> bool {
        self.children[p as usize].is_empty()
    }

    /// Depth of the tree (root children are at depth 1); 0 when empty.
    pub fn depth(&self) -> usize {
        fn rec(t: &CommTree, p: u32) -> usize {
            1 + t.children[p as usize]
                .iter()
                .map(|&c| rec(t, c))
                .max()
                .unwrap_or(0)
        }
        self.root_children
            .iter()
            .map(|&c| rec(self, c))
            .max()
            .unwrap_or(0)
    }

    /// Number of descendants below position `p` (excluding `p`).
    pub fn descendants(&self, p: u32) -> usize {
        self.children[p as usize]
            .iter()
            .map(|&c| 1 + self.descendants(c))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_balances_sizes() {
        let split = |len, k| balanced_chunks(len, k).collect::<Vec<_>>();
        assert_eq!(split(10, 3), vec![(0, 4), (4, 3), (7, 3)]);
        assert_eq!(split(4, 4), vec![(0, 1), (1, 1), (2, 1), (3, 1)]);
        assert_eq!(split(0, 3), vec![]);
        // k > len collapses to singletons
        assert_eq!(split(2, 5), vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn small_lists_are_all_leaves() {
        // n < w: every node is its own group head with an empty rest.
        let leaves = leaf_positions(3, 8);
        assert_eq!(leaves, vec![true; 3]);
    }

    #[test]
    fn leaf_positions_match_explicit_tree() {
        for (n, w) in [(1, 2), (7, 2), (64, 4), (100, 3), (1000, 32), (4096, 16)] {
            let leaves = leaf_positions(n, w);
            let tree = CommTree::build(n, w);
            for (p, &leaf) in leaves.iter().enumerate() {
                assert_eq!(
                    leaf,
                    tree.is_leaf(p as u32),
                    "mismatch at pos {p} (n={n}, w={w})"
                );
            }
        }
    }

    #[test]
    fn every_position_appears_exactly_once() {
        let n = 500;
        let tree = CommTree::build(n, 8);
        let mut seen = vec![0u32; n];
        for &c in &tree.root_children {
            seen[c as usize] += 1;
        }
        for kids in &tree.children {
            for &c in kids {
                seen[c as usize] += 1;
            }
        }
        assert!(
            seen.iter().all(|&s| s == 1),
            "positions duplicated or missing"
        );
    }

    #[test]
    fn parent_child_links_agree() {
        let tree = CommTree::build(200, 5);
        for p in 0..200u32 {
            match tree.parent[p as usize] {
                Some(par) => assert!(tree.children[par as usize].contains(&p)),
                None => assert!(tree.root_children.contains(&p)),
            }
        }
    }

    #[test]
    fn depth_is_logarithmic() {
        let tree = CommTree::build(4096, 16);
        // 16 + 16*16 + ... a width-16 grouping tree over 4096 nodes stays
        // within a handful of levels.
        let d = tree.depth();
        assert!((3..=5).contains(&d), "depth {d}");
    }

    #[test]
    fn descendants_count() {
        let tree = CommTree::build(10, 3);
        let total: usize = tree
            .root_children
            .iter()
            .map(|&c| 1 + tree.descendants(c))
            .sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn empty_tree() {
        let tree = CommTree::build(0, 4);
        assert!(tree.is_empty());
        assert_eq!(tree.depth(), 0);
        assert!(tree.root_children.is_empty());
    }

    #[test]
    fn relay_depth_matches_tree_depth() {
        for (n, w) in [
            (0usize, 4usize),
            (1, 4),
            (4, 4),
            (5, 4),
            (100, 3),
            (4096, 16),
        ] {
            let d = relay_depth(n, w);
            let t = CommTree::build(n, w).depth();
            assert_eq!(d, t, "n={n} w={w}");
        }
    }

    #[test]
    fn leaf_fraction_reasonable() {
        // In a width-w grouping tree most positions are leaves.
        let n = 10_000;
        let leaves = leaf_positions(n, 32);
        let frac = leaves.iter().filter(|&&l| l).count() as f64 / n as f64;
        assert!(frac > 0.5, "leaf fraction {frac}");
    }
}
