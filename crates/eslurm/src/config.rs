//! ESlurm deployment configuration and Eq. 1 satellite allocation.

use simclock::SimSpan;

/// Configuration of an ESlurm deployment.
#[derive(Clone, Debug)]
pub struct EslurmConfig {
    /// Number of satellite nodes configured (`m` in Eq. 1).
    pub n_satellites: usize,
    /// `w` in Eq. 1: the share of nodes that warrants one satellite
    /// (the paper settles on ~one satellite per several thousand nodes).
    pub eq1_width: usize,
    /// Grouping width of the relay trees satellites and slaves build
    /// (bounds a satellite's concurrent downstream connections).
    pub relay_width: usize,
    /// Compute-node heartbeat sweep period (collected via satellites).
    pub hb_sweep_interval: SimSpan,
    /// Master → satellite health-check period.
    pub sat_hb_interval: SimSpan,
    /// How long the master waits for a satellite's `BcastDone` before
    /// declaring BT-failure and reassigning.
    pub task_timeout: SimSpan,
    /// Reassignments of the same task before the master takes over
    /// (paper default: 2).
    pub reassign_threshold: u32,
    /// Master CPU per protocol message.
    pub msg_cpu: SimSpan,
    /// Master CPU per scheduling decision.
    pub sched_cpu: SimSpan,
    /// Master CPU to prepare/dispatch one broadcast task (serializing the
    /// sub-list, credentials, payload).
    pub task_prep_cpu: SimSpan,
    /// Satellite processing per node in a task (FP-Tree construction +
    /// payload marshalling); this is the cost that favours more satellites.
    pub sat_per_node_cpu: SimSpan,
    /// Master baseline virtual / resident memory.
    pub base_virt: u64,
    /// Master baseline resident memory.
    pub base_real: u64,
    /// Master memory pinned per compute node (virtual, resident).
    pub per_node_virt: u64,
    /// Master resident memory per compute node.
    pub per_node_real: u64,
    /// Master memory pinned per active job (virtual, resident).
    pub per_job_virt: u64,
    /// Master resident memory per active job.
    pub per_job_real: u64,
    /// Job-history bytes retained after completion.
    pub job_record_leak: u64,
    /// Satellite baseline virtual memory (Table VI shows ~10 GB).
    pub sat_base_virt: u64,
    /// Satellite baseline resident memory.
    pub sat_base_real: u64,
    /// Satellite resident bytes per node of its current largest task
    /// (relay buffers; high-water semantics).
    pub sat_per_task_node_real: u64,
    /// Ephemeral connection lifetime.
    pub conn_lifetime: SimSpan,
}

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

impl Default for EslurmConfig {
    fn default() -> Self {
        EslurmConfig {
            n_satellites: 2,
            eq1_width: 400,
            relay_width: 64,
            hb_sweep_interval: SimSpan::from_secs(120),
            sat_hb_interval: SimSpan::from_secs(10),
            task_timeout: SimSpan::from_secs(8),
            reassign_threshold: 2,
            msg_cpu: SimSpan::from_micros(50),
            sched_cpu: SimSpan::from_millis(2),
            task_prep_cpu: SimSpan::from_millis(5),
            sat_per_node_cpu: SimSpan::from_micros(100),
            base_virt: GIB + 200 * MIB,
            base_real: 40 * MIB,
            per_node_virt: 64 * 1024,
            per_node_real: 4 * 1024,
            per_job_virt: MIB,
            per_job_real: 64 * 1024,
            job_record_leak: 8 * 1024,
            sat_base_virt: 10 * GIB,
            sat_base_real: 40 * MIB,
            sat_per_task_node_real: 5 * 1024,
            conn_lifetime: SimSpan::from_millis(500),
        }
    }
}

/// Eq. 1: the number of satellites used to relay a broadcast to `s`
/// participating nodes, given tree width `w` and pool size `m`.
pub fn satellites_needed(s: usize, w: usize, m: usize) -> usize {
    assert!(w > 0 && m > 0);
    if s <= w {
        1
    } else if s >= m * w {
        m
    } else {
        s.div_ceil(w)
    }
}

/// Split `0..len` into `n` balanced contiguous ranges (the per-satellite
/// sub-lists).
pub fn partition(len: usize, n: usize) -> Vec<(usize, usize)> {
    topology::split_balanced(len, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_branches() {
        // s <= w: one satellite.
        assert_eq!(satellites_needed(10, 500, 20), 1);
        assert_eq!(satellites_needed(500, 500, 20), 1);
        // middle: ceil(s/w).
        assert_eq!(satellites_needed(501, 500, 20), 2);
        assert_eq!(satellites_needed(2500, 500, 20), 5);
        // s >= m*w: all satellites.
        assert_eq!(satellites_needed(10_000, 500, 20), 20);
        assert_eq!(satellites_needed(9_999, 500, 20), 20);
    }

    #[test]
    fn eq1_never_exceeds_pool() {
        for s in [1usize, 10, 100, 1000, 50_000] {
            for m in [1usize, 2, 10, 50] {
                let n = satellites_needed(s, 500, m);
                assert!(n >= 1 && n <= m, "s={s} m={m} n={n}");
            }
        }
    }

    #[test]
    fn partition_is_balanced_cover() {
        let parts = partition(20_480, 7);
        assert_eq!(parts.len(), 7);
        let total: usize = parts.iter().map(|(_, l)| l).sum();
        assert_eq!(total, 20_480);
        let (min, max) = parts
            .iter()
            .fold((usize::MAX, 0), |(mn, mx), (_, l)| (mn.min(*l), mx.max(*l)));
        assert!(max - min <= 1);
    }
}
