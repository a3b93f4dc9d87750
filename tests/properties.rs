//! Property-based tests on the core invariants, spanning crates.

use eslurm_suite::eslurm::satellites_needed;
use eslurm_suite::sched::prelude::{simulate, BackfillConfig, UserLimit};
use eslurm_suite::topology::{
    broadcast, leaf_positions, rearrange, relay_depth, split_balanced, BcastParams, Structure,
};
use eslurm_suite::workload::TraceConfig;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    /// FP rearrangement is always a permutation of its input, and when
    /// leaves outnumber suspects every suspect lands on a leaf.
    #[test]
    fn rearrange_is_permutation(
        n in 1usize..600,
        w in 2usize..40,
        suspect_stride in 1usize..50,
    ) {
        let list: Vec<u32> = (0..n as u32).collect();
        let suspects: HashSet<u32> = (0..n as u32).step_by(suspect_stride).collect();
        let out = rearrange(&list, &suspects, w);
        let mut sorted = out.clone();
        sorted.sort();
        prop_assert_eq!(&sorted, &list);
        let leaves = leaf_positions(n, w);
        let leaf_count = leaves.iter().filter(|&&l| l).count();
        if suspects.len() <= leaf_count {
            for (pos, node) in out.iter().enumerate() {
                if suspects.contains(node) {
                    prop_assert!(leaves[pos], "suspect {node} at internal pos {pos}");
                }
            }
        }
    }

    /// Leaf marking agrees with the recursion cost model: at least one
    /// leaf, never more leaves than nodes, and leaf count grows with w.
    #[test]
    fn leaf_positions_sane(n in 1usize..2000, w in 2usize..64) {
        let leaves = leaf_positions(n, w);
        prop_assert_eq!(leaves.len(), n);
        prop_assert!(leaves.iter().any(|&l| l), "no leaves at all");
    }

    /// split_balanced covers the range exactly with near-equal parts.
    #[test]
    fn split_covers(len in 0usize..10_000, k in 1usize..64) {
        let parts = split_balanced(len, k);
        let total: usize = parts.iter().map(|(_, l)| l).sum();
        prop_assert_eq!(total, len);
        let mut expect = 0;
        for (start, l) in &parts {
            prop_assert_eq!(*start, expect);
            expect += l;
            prop_assert!(*l >= 1);
        }
        if let (Some(min), Some(max)) = (
            parts.iter().map(|(_, l)| l).min(),
            parts.iter().map(|(_, l)| l).max(),
        ) {
            prop_assert!(max - min <= 1);
        }
    }

    /// Every broadcast structure reaches exactly the live nodes.
    #[test]
    fn broadcast_reaches_all_live(
        n in 1u32..800,
        stride in 2usize..20,
        structure in prop::sample::select(&Structure::ALL[..]),
    ) {
        let nodes: Vec<u32> = (0..n).collect();
        let failed: HashSet<u32> = (0..n).step_by(stride).collect();
        let params = BcastParams::default();
        let r = broadcast(structure, &nodes, &failed, &failed, &params);
        prop_assert_eq!(r.reached, (n as usize) - failed.len());
    }

    /// Eq. 1 stays within `[1, m]` and is monotone in `s`.
    #[test]
    fn eq1_bounds(s in 1usize..100_000, w in 1usize..5_000, m in 1usize..64) {
        let n = satellites_needed(s, w, m);
        prop_assert!(n >= 1 && n <= m);
        let n2 = satellites_needed(s + w, w, m);
        prop_assert!(n2 >= n, "Eq.1 not monotone: {n2} < {n}");
    }

    /// relay_depth is monotone in n and logarithmic-ish.
    #[test]
    fn relay_depth_monotone(n in 0usize..100_000, w in 2usize..64) {
        let d = relay_depth(n, w);
        prop_assert!(relay_depth(n + 1, w) >= d);
        if n > 0 {
            // Never deeper than a chain of per-level shrink factors.
            prop_assert!(d <= 2 + (n as f64).log2() as usize);
        } else {
            prop_assert_eq!(d, 0);
        }
    }

    /// The scheduler conserves jobs: completed + abandoned = submitted.
    #[test]
    fn scheduler_conserves_jobs(n_jobs in 10usize..200, nodes in 8u32..256, seed in 0u64..50) {
        let jobs = TraceConfig::small(n_jobs, seed).generate();
        let mut policy = UserLimit::default();
        let r = simulate(&jobs, &mut policy, &BackfillConfig::new(nodes));
        prop_assert_eq!(r.completed + r.abandoned, n_jobs);
        prop_assert!(r.utilization() <= 1.0);
        prop_assert!(r.useful_utilization() <= r.utilization() + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Trace generation is a function of its seed (no hidden global state).
    #[test]
    fn trace_deterministic(seed in 0u64..1_000) {
        let a = TraceConfig::small(200, seed).generate();
        let b = TraceConfig::small(200, seed).generate();
        prop_assert_eq!(a, b);
    }

    /// No job is ever lost: whatever random compute-node outages happen,
    /// every submitted job's lifecycle completes (partial acks, timeouts,
    /// reassignment, and takeover all eventually converge).
    #[test]
    fn eslurm_never_loses_jobs_under_random_failures(
        seed in 0u64..200,
        n_outages in 0usize..12,
    ) {
        use eslurm_suite::eslurm::prelude::{Arrival, EslurmConfig, Scenario, SimSpan, SimTime};
        use eslurm_suite::eslurm::scenario::small_outages;

        let n_slaves = 120;
        let cfg = EslurmConfig {
            n_satellites: 2,
            eq1_width: 48,
            relay_width: 8,
            ..Default::default()
        };
        let jobs = (0..8u64).map(|j| {
            let start = (j as usize * 11) % 40;
            Arrival {
                at: SimTime::from_secs(5 + j * 20),
                job: j,
                nodes: start..start + 60,
                runtime: SimSpan::from_secs(15),
            }
        });
        // Random compute-node outages over the first 400 s (never the
        // master or satellites, which have their own dedicated tests).
        let outages = small_outages(n_slaves, SimSpan::from_secs(400), n_outages, seed);
        let sys = Scenario::new(cfg, n_slaves, seed, SimTime::from_secs(1200))
            .arrivals(jobs)
            .outages(outages)
            .run(|b| b);
        prop_assert_eq!(sys.master().records.len(), 8, "jobs lost");
    }
}
