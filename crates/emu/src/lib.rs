//! # eslurm-emu
//!
//! Cluster emulation substrate for the ESlurm reproduction.
//!
//! The paper evaluates resource managers on two physical supercomputers
//! (Tianhe-2A, 16 384 nodes; NG-Tianhe, 20K+ nodes). This crate substitutes
//! those machines with an emulated cluster:
//!
//! * [`actor`] — the actor/context programming model every daemon is
//!   written against;
//! * [`sim`] — the deterministic discrete-event engine that runs them,
//!   scaling to tens of thousands of nodes and 24-hour virtual horizons;
//! * [`network`] — the link model (latency, transmit gaps, connection
//!   setup) representing the Tianhe proprietary interconnect;
//! * [`fault`] — ground-truth outage schedules, including a generator for
//!   the failure mix the paper observed in production;
//! * [`meter`] — per-node CPU/memory/socket snapshots matching the
//!   measurements in the paper's Figs. 7 and 9 and Tables V and VI.

pub mod actor;
pub mod fault;
pub mod meter;
pub mod network;
pub mod node;
pub mod sim;
mod state;

pub use actor::{Actor, Context, Payload};
pub use fault::{FaultPlan, FaultPlanBuilder, Outage};
pub use meter::{Meter, Sample};
pub use network::LatencyModel;
pub use node::NodeId;
pub use sim::{SimCluster, SimConfig};
