//! # eslurm-core
//!
//! **ESlurm**: the distributed resource manager of *Towards Scalable
//! Resource Management for Supercomputers* (SC'22), reproduced in Rust on
//! an emulated cluster.
//!
//! The crate implements the paper's three contributions:
//!
//! * the **distributed RM architecture** (§III): a master that keeps the
//!   global resource/job view but offloads all large-scale communication
//!   to satellite nodes — dynamic satellite allocation (Eq. 1, [`config`]),
//!   round-robin mapping, the satellite state machine of Fig. 2/Table II
//!   ([`fsm`]), BT/HB failure detection, task reassignment, and master
//!   takeover ([`master`]);
//! * the **FP-Tree** (§IV): satellites construct failure-prediction-based
//!   communication trees from the failure predictor's suspect sets
//!   before every relay ([`satellite`], building on `eslurm-topology`);
//! * the **job-runtime-estimation framework** (§V) wired into the
//!   backfill scheduler as a walltime-limit policy ([`limits`], building
//!   on `eslurm-estimate` and `eslurm-sched`).
//!
//! [`system`] assembles complete emulated deployments for the paper's
//! experiments — ESlurm's master + satellites + compute nodes, or a
//! centralized baseline's master + compute nodes — through one builder,
//! and [`scenario`] states one experiment on it: stack, size, seed, job
//! arrivals, compute-node outages and horizon.
//!
//! ```
//! use eslurm::{EslurmConfig, EslurmSystemBuilder};
//! use simclock::{SimSpan, SimTime};
//!
//! let cfg = EslurmConfig { n_satellites: 2, eq1_width: 16, relay_width: 8, ..Default::default() };
//! let mut sys = EslurmSystemBuilder::new(cfg, 64, 1).build();
//! sys.submit(SimTime::from_secs(1), 1, 0..16, SimSpan::from_secs(10));
//! sys.sim.run_until(SimTime::from_secs(60));
//! assert_eq!(sys.master().records.len(), 1);
//! ```

pub mod config;
pub mod fsm;
pub mod limits;
pub mod master;
pub mod satellite;
pub mod scenario;
pub mod system;

pub use config::{satellites_needed, EslurmConfig};
pub use fsm::{SatEvent, SatFsm, SatState};
pub use limits::PredictiveLimit;
pub use master::{EslurmMaster, SweepRecord};
pub use satellite::{FpPlacementStats, SatelliteDaemon};
pub use scenario::Scenario;
pub use system::{EslurmNode, EslurmSystem, EslurmSystemBuilder, Stack, System, SystemBuilder};

/// One-stop imports for examples, benches, and downstream experiments:
/// everything needed to assemble a cluster, drive it, and observe it,
/// without reaching into internal module paths.
pub mod prelude {
    pub use crate::config::{satellites_needed, EslurmConfig};
    pub use crate::fsm::{SatEvent, SatState};
    pub use crate::master::{EslurmMaster, SweepRecord};
    pub use crate::satellite::{FpPlacementStats, SatelliteDaemon};
    pub use crate::scenario::Scenario;
    pub use crate::system::{
        EslurmNode, EslurmSystem, EslurmSystemBuilder, Stack, System, SystemBuilder,
    };
    pub use emu::{Actor, Context, FaultPlan, FaultPlanBuilder, NodeId, Outage, SimConfig};
    pub use obs::{Counter, EventKind, Gauge, Hist, MetricsSummary, Recorder, TraceEvent};
    pub use rm::{Arrival, CtlKind, JobStream, MasterLog, NodeSlice, RmMsg, RmProfile};
    pub use simclock::{SimSpan, SimTime};
}
