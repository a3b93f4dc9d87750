//! # eslurm-sched
//!
//! The scheduling substrate: an event-driven cluster simulator running
//! **EASY backfill** (the algorithm the paper applies to every RM in
//! §VII-D), with
//!
//! * per-RM dispatch/cleanup overhead models ([`backfill::DispatchModel`] —
//!   the "job occupation time" of Fig. 7(f)),
//! * walltime limits from pluggable [`policy::LimitPolicy`] sources
//!   (user requests, an oracle, or — from the `eslurm` crate — the ML
//!   estimation framework),
//! * kill-at-limit semantics with resubmission (the cost of
//!   underestimation the slack variable α exists to control),
//! * RM outage windows (the Slurm crash/reboot cycles of §II-B), and
//! * **multi-tenant policy layers** ([`SchedPolicies`]): partitions
//!   ([`partition`]), fair-share accounting ([`fairshare`]), and
//!   multifactor priority ([`priority`]) — composable and individually
//!   optional, with the all-default configuration bit-identical to a
//!   policy-unaware scheduler.
//!
//! Metrics follow §VII-D: system utilization, average waiting time, and
//! average bounded slowdown with τ = 10 s.
//!
//! Import the policy surface through [`prelude`]:
//!
//! ```
//! use sched::prelude::*;
//! use workload::TraceConfig;
//!
//! let jobs = TraceConfig::small(100, 7).generate();
//! let mut cfg = BackfillConfig::new(128);
//! cfg.policies = SchedPolicies::default().with_priority(MultifactorPriority::slurm_default());
//! let report = simulate(&jobs, &mut UserLimit::default(), &cfg);
//! assert_eq!(report.completed + report.abandoned, 100);
//! ```

#![forbid(unsafe_code)]

pub mod backfill;
pub mod fairshare;
pub mod metrics;
pub mod partition;
pub mod policy;
pub mod priority;
pub mod profile_resv;

use fairshare::FairShareLedger;
use partition::PartitionSet;
use priority::MultifactorPriority;

/// The composable multi-tenant policy layers of one scheduler: partition
/// routing, fair-share accounting, and queue-ordering priority. Each
/// layer defaults to its trivial form — a single unconstrained partition,
/// a disabled ledger, uniform priority — and the all-default bundle is
/// **bit-identical** to a policy-unaware scheduler (the invariant the
/// multi-tenant parity tests pin).
#[derive(Clone, Debug, Default)]
pub struct SchedPolicies {
    /// Logical node groups with per-partition limits and QOS.
    pub partitions: PartitionSet,
    /// Decayed per-user / per-bank consumed CPU-time, charged on job end.
    pub fairshare: FairShareLedger,
    /// The queue-ordering priority composition.
    pub priority: MultifactorPriority,
}

impl SchedPolicies {
    /// Replace the partition set.
    pub fn with_partitions(mut self, partitions: PartitionSet) -> Self {
        self.partitions = partitions;
        self
    }

    /// Replace the fair-share ledger.
    pub fn with_fairshare(mut self, fairshare: FairShareLedger) -> Self {
        self.fairshare = fairshare;
        self
    }

    /// Replace the priority composition.
    pub fn with_priority(mut self, priority: MultifactorPriority) -> Self {
        self.priority = priority;
        self
    }

    /// Whether every layer is in its trivial form (the bit-identical
    /// default path; an enabled-but-unconsulted ledger still counts as
    /// non-trivial because it observes completions).
    pub fn is_trivial(&self) -> bool {
        self.partitions.is_trivial() && !self.fairshare.enabled() && self.priority.is_uniform()
    }
}

/// One import for the whole policy surface: the simulator entry point,
/// limit policies, and the three multi-tenant layers.
pub mod prelude {
    pub use crate::backfill::{simulate, BackfillConfig, DispatchModel, SchedAlgo};
    pub use crate::fairshare::{bank_of, FairShareLedger};
    pub use crate::metrics::{bounded_slowdown, ScheduleReport};
    pub use crate::partition::{Partition, PartitionSet};
    pub use crate::policy::{LimitInfo, LimitPolicy, OracleLimit, UserLimit};
    pub use crate::priority::{
        AgeFactor, FactorCtx, FactorShare, FairShareFactor, MultifactorPriority, PriorityFactor,
        QosFactor, SizeFactor,
    };
    pub use crate::profile_resv::AvailabilityProfile;
    pub use crate::SchedPolicies;
}
