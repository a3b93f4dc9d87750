//! # eslurm-monitoring
//!
//! The suspect-set feed of the Tianhe monitoring and diagnostic subsystem
//! (paper §IV-C): the pluggable [`FailurePredictor`] the FP-Tree
//! constructor reads, and [`OraclePredictor`], a parameterised oracle over
//! the ground-truth fault plan.
//!
//! Substitution note (see `DESIGN.md` §1): the real subsystem reads 200+
//! hardware indicators over a dedicated network. The FP-Tree consumes only
//! the resulting *suspect set*, so the oracle models the statistical
//! behaviour of that set — detection lead time, recall, and false
//! positives per query — as controlled experiment parameters.

#![forbid(unsafe_code)]

pub mod predictor;

pub use predictor::{score, FailurePredictor, OraclePredictor, PredictionQuality};
