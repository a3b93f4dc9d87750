//! Behavioural profiles of the five centralized RMs the paper compares
//! against (SGE 8.1.9, Torque 6.13, OpenPBS 20.0.1, LSF 10.0.1,
//! Slurm 20.11.7).
//!
//! Each profile captures the *architectural* properties the paper's Fig. 7
//! measurements reflect: how liveness is tracked (master polls vs. slaves
//! push), whether connections are persistent, how job launches fan out,
//! and the master's [`MasterCost`] — per-message daemon cost and the
//! memory the master pins per node and per job, calibrated as that type
//! says.

use crate::master::MasterCost;
use simclock::SimSpan;

/// How the RM tracks node liveness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeartbeatMode {
    /// The master contacts every slave each interval (SGE/Torque/PBS
    /// style) — O(n) work and connections at the master.
    MasterPolls {
        /// Poll period.
        interval: SimSpan,
    },
    /// Slaves report in each interval (Slurm/LSF style). `synchronized`
    /// slaves fire on wall-clock multiples of the interval, producing the
    /// bursty connection spikes of Fig. 7(e).
    SlavePush {
        /// Report period.
        interval: SimSpan,
        /// Epoch-aligned (bursty) vs. phase-staggered reporting.
        synchronized: bool,
    },
}

/// How a job-control message reaches its nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fanout {
    /// Grouping-tree relay of the given width through the slaves.
    Tree {
        /// Tree width.
        width: u16,
    },
    /// Master contacts nodes one at a time, serially (models RMs whose
    /// launcher is single-threaded — the SGE/Torque behaviour behind
    /// Fig. 7(f)'s blow-up).
    Sequential,
}

/// A centralized RM's behavioural profile.
#[derive(Clone, Debug)]
pub struct RmProfile {
    /// Display name.
    pub name: &'static str,
    /// Liveness tracking style.
    pub heartbeat: HeartbeatMode,
    /// Whether the master keeps a connection per slave open permanently.
    pub persistent_connections: bool,
    /// Job-control fan-out.
    pub fanout: Fanout,
    /// What the master pays for its work and its state.
    pub cost: MasterCost,
    /// Lifetime of an ephemeral connection (poll/heartbeat exchange).
    pub conn_lifetime: SimSpan,
    /// Pacing of the serial launcher (only used with
    /// [`Fanout::Sequential`]).
    pub seq_gap: SimSpan,
}

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

impl RmProfile {
    /// Slurm 20.11.7: slaves push synchronized heartbeats, tree fan-out,
    /// lean CPU, but a large in-memory state (bitmaps, job records) and
    /// growing history.
    pub fn slurm() -> Self {
        RmProfile {
            name: "Slurm",
            heartbeat: HeartbeatMode::SlavePush {
                interval: SimSpan::from_secs(30),
                synchronized: true,
            },
            persistent_connections: false,
            fanout: Fanout::Tree { width: 50 },
            cost: MasterCost {
                msg_cpu: SimSpan::from_micros(60),
                sched_cpu: SimSpan::from_millis(3),
                base_virt: 6 * GIB,
                base_real: 120 * MIB,
                per_node_virt: MIB,
                per_node_real: 56 * 1024,
                per_job_virt: 2 * MIB,
                per_job_real: 96 * 1024,
                job_record_leak: 24 * 1024,
            },
            conn_lifetime: SimSpan::from_millis(500),
            seq_gap: SimSpan::from_millis(8),
        }
    }

    /// IBM LSF 10.0.1: pushed but staggered reports, direct fan-out with
    /// bursts of traffic, moderate memory.
    pub fn lsf() -> Self {
        RmProfile {
            name: "LSF",
            heartbeat: HeartbeatMode::SlavePush {
                interval: SimSpan::from_secs(15),
                synchronized: true,
            },
            persistent_connections: false,
            fanout: Fanout::Tree { width: 32 },
            cost: MasterCost {
                msg_cpu: SimSpan::from_micros(120),
                sched_cpu: SimSpan::from_millis(5),
                base_virt: 3 * GIB,
                base_real: 200 * MIB,
                per_node_virt: 512 * 1024,
                per_node_real: 48 * 1024,
                per_job_virt: MIB,
                per_job_real: 64 * 1024,
                job_record_leak: 8 * 1024,
            },
            conn_lifetime: SimSpan::from_millis(800),
            seq_gap: SimSpan::from_millis(8),
        }
    }

    /// SGE 8.1.9: master polls every node over persistent connections,
    /// heavy per-message cost.
    pub fn sge() -> Self {
        RmProfile {
            name: "SGE",
            heartbeat: HeartbeatMode::MasterPolls {
                interval: SimSpan::from_secs(20),
            },
            persistent_connections: true,
            fanout: Fanout::Sequential,
            cost: MasterCost {
                msg_cpu: SimSpan::from_micros(900),
                sched_cpu: SimSpan::from_millis(8),
                base_virt: 2 * GIB,
                base_real: 300 * MIB,
                per_node_virt: 384 * 1024,
                per_node_real: 96 * 1024,
                per_job_virt: MIB,
                per_job_real: 128 * 1024,
                job_record_leak: 4 * 1024,
            },
            conn_lifetime: SimSpan::from_secs(2),
            seq_gap: SimSpan::from_millis(10),
        }
    }

    /// Torque 6.13: polling with ephemeral connections and a serial
    /// launcher; the pbs_server is CPU-hungry at scale.
    pub fn torque() -> Self {
        RmProfile {
            name: "Torque",
            heartbeat: HeartbeatMode::MasterPolls {
                interval: SimSpan::from_secs(15),
            },
            persistent_connections: false,
            fanout: Fanout::Sequential,
            cost: MasterCost {
                msg_cpu: SimSpan::from_micros(1100),
                sched_cpu: SimSpan::from_millis(10),
                base_virt: GIB,
                base_real: 250 * MIB,
                per_node_virt: 256 * 1024,
                per_node_real: 80 * 1024,
                per_job_virt: 768 * 1024,
                per_job_real: 96 * 1024,
                job_record_leak: 6 * 1024,
            },
            conn_lifetime: SimSpan::from_secs(1),
            seq_gap: SimSpan::from_millis(10),
        }
    }

    /// OpenPBS 20.0.1: polling over persistent connections (many
    /// concurrent sockets); its launcher is serial like Torque's, just a
    /// little faster.
    pub fn openpbs() -> Self {
        RmProfile {
            name: "OpenPBS",
            heartbeat: HeartbeatMode::MasterPolls {
                interval: SimSpan::from_secs(20),
            },
            persistent_connections: true,
            fanout: Fanout::Sequential,
            cost: MasterCost {
                msg_cpu: SimSpan::from_micros(700),
                sched_cpu: SimSpan::from_millis(8),
                base_virt: GIB + 512 * MIB,
                base_real: 280 * MIB,
                per_node_virt: 320 * 1024,
                per_node_real: 88 * 1024,
                per_job_virt: MIB,
                per_job_real: 112 * 1024,
                job_record_leak: 5 * 1024,
            },
            conn_lifetime: SimSpan::from_secs(2),
            seq_gap: SimSpan::from_millis(5),
        }
    }

    /// How long the connection one control message opens stays up: `None`
    /// where the master keeps a persistent one per slave.
    pub fn socket(&self) -> Option<SimSpan> {
        (!self.persistent_connections).then_some(self.conn_lifetime)
    }

    /// All five baseline profiles in the paper's order.
    pub fn baselines() -> Vec<RmProfile> {
        vec![
            RmProfile::sge(),
            RmProfile::torque(),
            RmProfile::openpbs(),
            RmProfile::lsf(),
            RmProfile::slurm(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_distinct_baselines() {
        let names: Vec<&str> = RmProfile::baselines().iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["SGE", "Torque", "OpenPBS", "LSF", "Slurm"]);
    }

    #[test]
    fn slurm_has_largest_virtual_memory() {
        // Fig. 7(c): Slurm's ~10 GB virtual footprint tops the field.
        let slurm_virt =
            RmProfile::slurm().cost.base_virt + 4096 * RmProfile::slurm().cost.per_node_virt;
        for p in RmProfile::baselines() {
            let v = p.cost.base_virt + 4096 * p.cost.per_node_virt;
            assert!(v <= slurm_virt, "{} virt exceeds Slurm", p.name);
        }
        assert!(slurm_virt > 9 * GIB && slurm_virt < 12 * GIB);
    }

    #[test]
    fn pollers_poll_and_pushers_push() {
        assert!(matches!(
            RmProfile::sge().heartbeat,
            HeartbeatMode::MasterPolls { .. }
        ));
        assert!(matches!(
            RmProfile::openpbs().heartbeat,
            HeartbeatMode::MasterPolls { .. }
        ));
        assert!(matches!(
            RmProfile::slurm().heartbeat,
            HeartbeatMode::SlavePush { .. }
        ));
        assert!(matches!(
            RmProfile::lsf().heartbeat,
            HeartbeatMode::SlavePush { .. }
        ));
    }
}
