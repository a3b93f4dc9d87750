//! # eslurm-rm
//!
//! Centralized resource-manager baselines running on the cluster emulator:
//!
//! * [`proto`] — the control-plane message set (shared with the ESlurm
//!   overlay in the `eslurm` crate), with modelled wire sizes, zero-copy
//!   node-list slices, and the one grouping-tree send and ack tally;
//! * [`profile`] — behavioural profiles of SGE, Torque, OpenPBS, LSF, and
//!   Slurm (heartbeat style, connection policy, fan-out, and the master's
//!   cost: CPU per message and decision, per-node/job memory);
//! * [`slave`] — the per-node daemon: heartbeats, poll replies, and
//!   grouping-tree relay with aggregated, timeout-guarded acks;
//! * [`master`] — what both masters share (the [`master::MasterCost`]
//!   model; the [`master::JobBook`] of admission, run window, cancel and
//!   retirement, which holds the master's front desk), and the
//!   centralized master daemon (the bottleneck the paper measures in
//!   Fig. 7);
//! * [`driver`] — the actors of a centralized deployment (deployed on the
//!   DES by `eslurm::system`, as ESlurm is), and the one synthetic job
//!   stream ([`JobStream`]) every stack is loaded with.

#![forbid(unsafe_code)]

pub mod driver;
pub mod master;
pub mod profile;
pub mod proto;
pub mod slave;

pub use driver::{actors, Arrival, JobStream, RmNode};
pub use master::{CentralizedMaster, JobRecord, MasterLog};
pub use profile::{Fanout, HeartbeatMode, RmProfile};
pub use proto::{CtlKind, NodeSlice, RmMsg};
pub use slave::{SlaveConfig, SlaveDaemon, SlaveGroup, SlaveHeartbeat};
