//! # eslurm-topology
//!
//! Communication structures for resource-manager control traffic:
//!
//! * [`tree`] — the grouping tree used by Slurm-style RMs: list-position ⇒
//!   tree-position construction, `Θ(n)` leaf location (paper Eq. 2);
//! * [`fptree`] — the **failure-prediction-based tree** (the paper's §IV
//!   contribution): nodelist rearrangement placing suspected nodes on
//!   leaves, in `O(n)`;
//! * [`topo_aware`] — topology-aware ordering plus the FP fine-tuner
//!   that preserves chassis locality while moving suspects to leaves
//!   (paper §IV-E, last paragraph);
//! * [`mod@broadcast`] — a fault-aware broadcast-time simulator comparing
//!   ring, star, shared-memory, plain tree, and FP-Tree (paper Fig. 8b).

#![forbid(unsafe_code)]

pub mod broadcast;
pub mod fptree;
pub mod topo_aware;
pub mod tree;

pub use broadcast::{broadcast, BcastParams, BcastResult, Structure};
pub use fptree::{rearrange, FpTreeConstructor, FpTreeStats};
pub use topo_aware::{chassis_locality, fine_tune, topology_order};
pub use tree::{balanced_chunks, leaf_positions, relay_depth, CommTree};
