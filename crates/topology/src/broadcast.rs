//! Fault-aware broadcast-time simulation for the five communication
//! structures compared in the paper's Fig. 8(b): ring, star, shared-memory,
//! plain grouping tree, and FP-Tree.
//!
//! The model captures the mechanics the paper attributes the differences
//! to:
//!
//! * contacting a **failed** node costs `attempts × detect` of connection
//!   timeouts at the contacting side;
//! * a failed **internal** tree node additionally strands all its
//!   descendants until the parent detects the failure and *adopts* the
//!   failed node's sub-lists (fault-tolerant re-routing);
//! * senders have limited outbound concurrency (`parallel` worker slots),
//!   so timeouts also congest a busy parent;
//! * the ring is inherently serial, the star is a single serial sender,
//!   and the shared-memory board is insensitive to client failures.

use crate::fptree::rearrange;
use crate::tree::balanced_chunks;
use simclock::SimSpan;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};

/// Cost parameters of one broadcast.
#[derive(Clone, Debug)]
pub struct BcastParams {
    /// Grouping-tree width.
    pub width: usize,
    /// Sender-side serialization per message (NIC/tx gap).
    pub gap: SimSpan,
    /// One-way per-hop latency including connection setup.
    pub latency: SimSpan,
    /// Receiver processing before it starts forwarding.
    pub proc: SimSpan,
    /// Wall time to detect one failed connection attempt.
    pub detect: SimSpan,
    /// Connection attempts before a node is given up on.
    pub attempts: u32,
    /// Concurrent outbound connections per sender (tree nodes).
    pub parallel: usize,
    /// Poll interval of the shared-memory structure's clients.
    pub shmem_poll: SimSpan,
    /// Sender-side serialization per *covered node* of a relayed message:
    /// a launch message carries credentials/environment for every node of
    /// the subtree it is handing over, so shipping a k-node sub-list holds
    /// the sender for `k × per_node_payload`. This is what satellite
    /// splitting parallelizes (paper §VII-A "message broadcasting").
    pub per_node_payload: SimSpan,
}

impl Default for BcastParams {
    /// Defaults calibrated to Slurm-era constants: a width-32 tree, ~150 µs
    /// per-hop connect+send, 1 ms of daemon processing, 2 s to detect a dead
    /// peer, three attempts, 16 forwarding threads per daemon.
    fn default() -> Self {
        BcastParams {
            width: 32,
            gap: SimSpan::from_micros(8),
            latency: SimSpan::from_micros(150),
            proc: SimSpan::from_millis(1),
            detect: SimSpan::from_secs(2),
            attempts: 3,
            parallel: 16,
            shmem_poll: SimSpan::from_millis(500),
            per_node_payload: SimSpan::ZERO,
        }
    }
}

/// The communication structures of Fig. 8(b).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Structure {
    /// Sequential relay in list order.
    Ring,
    /// One sender contacts every node directly, serially.
    Star,
    /// Message cached on a board; clients poll it.
    SharedMem,
    /// Plain grouping tree (Slurm-style).
    KTree,
    /// Grouping tree over the FP-rearranged list.
    FpTree,
}

impl Structure {
    /// All five structures, in the paper's presentation order.
    pub const ALL: [Structure; 5] = [
        Structure::Ring,
        Structure::Star,
        Structure::SharedMem,
        Structure::KTree,
        Structure::FpTree,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Structure::Ring => "ring",
            Structure::Star => "star",
            Structure::SharedMem => "shared-mem",
            Structure::KTree => "tree",
            Structure::FpTree => "FP-Tree",
        }
    }
}

/// Outcome of one simulated broadcast.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BcastResult {
    /// Time until the last live node received the message.
    pub completion: SimSpan,
    /// Live nodes that received the message.
    pub reached: usize,
    /// Individual failed connection attempts.
    pub failed_attempts: u64,
    /// Fault-tolerant re-routings (a parent adopting a failed child's
    /// sub-lists).
    pub adoptions: u64,
    /// Successful point-to-point messages sent.
    pub messages: u64,
}

/// Simulate one broadcast of `structure` over `nodelist`, where members of
/// `failed` are down. For [`Structure::FpTree`], `predicted` is the suspect
/// set the constructor saw (pass `failed` itself for a perfect predictor,
/// or a noisy set to study misprediction).
pub fn broadcast(
    structure: Structure,
    nodelist: &[u32],
    failed: &HashSet<u32>,
    predicted: &HashSet<u32>,
    params: &BcastParams,
) -> BcastResult {
    match structure {
        Structure::Ring => ring(nodelist, failed, params),
        Structure::Star => {
            // A star is a "tree" whose root has every node as a child and a
            // single-threaded sender.
            let mut p = params.clone();
            p.width = nodelist.len().max(2);
            p.parallel = 1;
            tree_sim(nodelist, failed, &p)
        }
        Structure::SharedMem => shared_mem(nodelist, failed, params),
        Structure::KTree => tree_sim(nodelist, failed, params),
        Structure::FpTree => {
            let list = rearrange(nodelist, predicted, params.width);
            tree_sim(&list, failed, params)
        }
    }
}

fn ring(nodelist: &[u32], failed: &HashSet<u32>, p: &BcastParams) -> BcastResult {
    let mut t = SimSpan::ZERO;
    let mut res = BcastResult {
        completion: SimSpan::ZERO,
        reached: 0,
        failed_attempts: 0,
        adoptions: 0,
        messages: 0,
    };
    for node in nodelist {
        if failed.contains(node) {
            // The current holder burns its attempts, then skips ahead.
            res.failed_attempts += p.attempts as u64;
            t += p.detect * p.attempts as u64;
        } else {
            t += p.gap + p.per_node_payload + p.latency;
            res.messages += 1;
            res.reached += 1;
            res.completion = t;
            t += p.proc; // the new holder processes before relaying
        }
    }
    res
}

fn shared_mem(nodelist: &[u32], failed: &HashSet<u32>, p: &BcastParams) -> BcastResult {
    // The sender posts once; each live client notices the update within one
    // poll interval and fetches it. Client failures don't affect anyone
    // else; the board serializes fetches at `gap` apiece.
    let live = nodelist.iter().filter(|n| !failed.contains(n)).count();
    let fetch_serialization = (p.gap + p.per_node_payload) * live as u64;
    BcastResult {
        completion: p.latency + p.shmem_poll + fetch_serialization + p.latency,
        reached: live,
        failed_attempts: 0,
        adoptions: 0,
        messages: live as u64 + 1,
    }
}

/// One pending delivery task of a sender: a sub-list whose head must be
/// contacted and handed the rest.
struct Task {
    avail: SimSpan,
    lo: usize,
    hi: usize,
}

fn tree_sim(list: &[u32], failed: &HashSet<u32>, p: &BcastParams) -> BcastResult {
    let mut res = BcastResult {
        completion: SimSpan::ZERO,
        reached: 0,
        failed_attempts: 0,
        adoptions: 0,
        messages: 0,
    };
    if list.is_empty() {
        return res;
    }
    // Stack of senders to process: (sender ready time, sub-list range).
    // The virtual root (satellite/controller) is ready at t=0 and owns the
    // whole list.
    let mut stack: Vec<(SimSpan, usize, usize)> = vec![(SimSpan::ZERO, 0, list.len())];
    // Per-sender working state, hoisted out of the loop and reused: a
    // 20K-node broadcast visits hundreds of senders and previously paid a
    // task queue and a slot heap allocation for each.
    let mut tasks: VecDeque<Task> = VecDeque::with_capacity(p.width.max(1));
    let mut slots: BinaryHeap<Reverse<SimSpan>> = BinaryHeap::with_capacity(p.parallel.max(1));

    while let Some((ready, lo, hi)) = stack.pop() {
        let len = hi - lo;
        if len == 0 {
            continue;
        }
        // Chunk the sender's list.
        tasks.clear();
        tasks.extend(balanced_chunks(len, p.width).map(|(cs, cl)| Task {
            avail: ready,
            lo: lo + cs,
            hi: lo + cs + cl,
        }));
        // Worker slots (outbound connection threads), min-heap of free times.
        slots.clear();
        for _ in 0..p.parallel.max(1) {
            slots.push(Reverse(ready));
        }

        while let Some(task) = tasks.pop_front() {
            let Reverse(slot_free) = slots.pop().expect("slot heap never empty");
            let start = slot_free.max(task.avail);
            let head = list[task.lo];
            let rest_lo = task.lo + 1;
            let rest_hi = task.hi;
            if failed.contains(&head) {
                let end = start + p.detect * p.attempts as u64;
                res.failed_attempts += p.attempts as u64;
                slots.push(Reverse(end));
                // Adopt the stranded sub-lists: re-chunk the rest and take
                // over delivery ourselves.
                let rest_len = rest_hi - rest_lo;
                if rest_len > 0 {
                    res.adoptions += 1;
                    tasks.extend(balanced_chunks(rest_len, p.width).map(|(cs, cl)| Task {
                        avail: end,
                        lo: rest_lo + cs,
                        hi: rest_lo + cs + cl,
                    }));
                }
            } else {
                let covered = (rest_hi - rest_lo + 1) as u64;
                let sent = start + p.gap + p.per_node_payload * covered;
                let arrive = sent + p.latency;
                res.messages += 1;
                res.reached += 1;
                res.completion = res.completion.max(arrive);
                // The slot is busy for serialization + connect/send.
                slots.push(Reverse(arrive));
                if rest_hi > rest_lo {
                    stack.push((arrive + p.proc, rest_lo, rest_hi));
                }
            }
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<u32> {
        (0..n).collect()
    }

    fn no_fail() -> HashSet<u32> {
        HashSet::new()
    }

    fn fail_every(nodes: &[u32], stride: usize) -> HashSet<u32> {
        nodes.iter().step_by(stride).copied().collect()
    }

    #[test]
    fn healthy_broadcast_reaches_everyone() {
        let list = nodes(500);
        for s in Structure::ALL {
            let r = broadcast(s, &list, &no_fail(), &no_fail(), &BcastParams::default());
            assert_eq!(r.reached, 500, "{} reached {}", s.name(), r.reached);
            assert_eq!(r.failed_attempts, 0);
            assert!(r.completion > SimSpan::ZERO);
        }
    }

    #[test]
    fn failed_nodes_never_counted_reached() {
        let list = nodes(400);
        let failed = fail_every(&list, 10); // 10 %
        for s in Structure::ALL {
            let r = broadcast(s, &list, &failed, &failed, &BcastParams::default());
            assert_eq!(r.reached, 360, "{}", s.name());
        }
    }

    #[test]
    fn tree_beats_ring_and_star_when_healthy() {
        let list = nodes(4096);
        let p = BcastParams::default();
        let tree = broadcast(Structure::KTree, &list, &no_fail(), &no_fail(), &p);
        let ring = broadcast(Structure::Ring, &list, &no_fail(), &no_fail(), &p);
        let star = broadcast(Structure::Star, &list, &no_fail(), &no_fail(), &p);
        assert!(tree.completion < ring.completion);
        assert!(tree.completion < star.completion);
    }

    #[test]
    fn fp_tree_insensitive_to_predicted_failures() {
        let list = nodes(4096);
        let p = BcastParams::default();
        let failed = fail_every(&list, 5); // 20 %
        let fp = broadcast(Structure::FpTree, &list, &failed, &failed, &p);
        let plain = broadcast(Structure::KTree, &list, &failed, &failed, &p);
        let base = broadcast(Structure::KTree, &list, &no_fail(), &no_fail(), &p);
        // FP-Tree stays within an order of magnitude of the failure-free
        // time; the plain tree suffers adoption cascades.
        assert!(
            fp.completion < plain.completion,
            "fp {} vs plain {}",
            fp.completion,
            plain.completion
        );
        assert!(
            fp.completion.as_secs_f64() < 10.0,
            "fp completion {}",
            fp.completion
        );
        assert!(fp.completion >= base.completion);
    }

    #[test]
    fn plain_tree_adoptions_recover_descendants() {
        let list = nodes(1000);
        let failed = fail_every(&list, 4); // 25 %, many internal heads fail
        let r = broadcast(
            Structure::KTree,
            &list,
            &failed,
            &no_fail(),
            &BcastParams::default(),
        );
        assert_eq!(r.reached, 750);
        assert!(r.adoptions > 0, "expected fault-tolerant re-routing");
    }

    #[test]
    fn shared_mem_flat_under_failures() {
        let list = nodes(2000);
        let p = BcastParams::default();
        let healthy = broadcast(Structure::SharedMem, &list, &no_fail(), &no_fail(), &p);
        let failed = fail_every(&list, 3);
        let degraded = broadcast(Structure::SharedMem, &list, &failed, &failed, &p);
        // Fewer clients fetch, so if anything it completes sooner.
        assert!(degraded.completion <= healthy.completion);
    }

    #[test]
    fn ring_cost_scales_with_failures() {
        let list = nodes(1000);
        let p = BcastParams::default();
        let r10 = broadcast(
            Structure::Ring,
            &list,
            &fail_every(&list, 10),
            &no_fail(),
            &p,
        );
        let r5 = broadcast(
            Structure::Ring,
            &list,
            &fail_every(&list, 5),
            &no_fail(),
            &p,
        );
        assert!(r5.completion > r10.completion);
        // 100 failures at 3 attempts x 2 s each = 600 s of pure detection.
        assert!(r10.completion.as_secs_f64() > 600.0);
    }

    #[test]
    fn empty_and_singleton_lists() {
        let p = BcastParams::default();
        for s in Structure::ALL {
            let r = broadcast(s, &[], &no_fail(), &no_fail(), &p);
            assert_eq!(r.reached, 0);
            assert_eq!(r.completion, SimSpan::ZERO.max(r.completion));
            let r1 = broadcast(s, &[7], &no_fail(), &no_fail(), &p);
            assert_eq!(r1.reached, 1, "{}", s.name());
        }
    }

    #[test]
    fn misprediction_degrades_fp_tree_gracefully() {
        let list = nodes(2048);
        let p = BcastParams::default();
        let failed = fail_every(&list, 8);
        // Predictor missed everything: FP-Tree degenerates to the plain tree.
        let blind = broadcast(Structure::FpTree, &list, &failed, &no_fail(), &p);
        let plain = broadcast(Structure::KTree, &list, &failed, &no_fail(), &p);
        assert_eq!(blind.completion, plain.completion);
        // Perfect prediction is no worse.
        let sighted = broadcast(Structure::FpTree, &list, &failed, &failed, &p);
        assert!(sighted.completion <= blind.completion);
    }
}
