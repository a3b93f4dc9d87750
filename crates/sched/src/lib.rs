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
//! * **multi-tenant policy layers** ([`SchedPolicies`]): fair-share
//!   accounting ([`fairshare`]) and multifactor priority ([`priority`]) —
//!   each optional, with the default configuration bit-identical to a
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
pub mod policy;
pub mod priority;
pub mod profile_resv;

use fairshare::FairShareLedger;
use priority::MultifactorPriority;

/// The multi-tenant policy layers of one scheduler: fair-share accounting
/// and queue-ordering priority. Each layer defaults to its trivial form —
/// a disabled ledger, uniform priority — and the default bundle is
/// **bit-identical** to a policy-unaware scheduler (the invariant the
/// multi-tenant parity tests pin).
#[derive(Clone, Debug, Default)]
pub struct SchedPolicies {
    /// Decayed per-user / per-bank consumed CPU-time, charged on job end.
    pub fairshare: FairShareLedger,
    /// The queue-ordering priority.
    pub priority: MultifactorPriority,
}

impl SchedPolicies {
    /// Replace the fair-share ledger.
    pub fn with_fairshare(mut self, fairshare: FairShareLedger) -> Self {
        self.fairshare = fairshare;
        self
    }

    /// Replace the priority.
    pub fn with_priority(mut self, priority: MultifactorPriority) -> Self {
        self.priority = priority;
        self
    }
}

/// One import for the whole policy surface: the simulator entry point,
/// limit policies, and the two multi-tenant layers.
pub mod prelude {
    pub use crate::backfill::{simulate, BackfillConfig, DispatchModel, SchedAlgo};
    pub use crate::fairshare::{bank_of, FairShareLedger};
    pub use crate::metrics::{bounded_slowdown, ScheduleReport};
    pub use crate::policy::{LimitInfo, LimitPolicy, OracleLimit, UserLimit};
    pub use crate::priority::{FactorCtx, MultifactorPriority};
    pub use crate::profile_resv::AvailabilityProfile;
    pub use crate::SchedPolicies;
}
