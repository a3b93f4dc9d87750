//! # eslurm-ml
//!
//! A from-scratch machine-learning substrate sized for the ESlurm runtime
//! estimation framework (paper §V) and its comparison baselines:
//!
//! * [`kmeans`] — K-means++ clustering with the elbow method for choosing K;
//! * [`svr`] — ε-insensitive support vector regression (RBF/linear
//!   kernels), the paper's per-cluster estimator;
//! * [`forest`] — CART regression trees and random forests;
//! * [`linear`] — Bayesian ridge regression (an IRPA ingredient);
//! * [`tobit`] — censored (Tobit) regression, the core of TRIP;
//! * [`features`] — the common [`Regressor`] trait and standard scaling;
//! * [`linalg`] — the small dense solves the above need.
//!
//! Everything is deterministic given a seed and depends only on `rand`.

pub mod features;
pub mod forest;
pub mod kmeans;
pub mod linalg;
pub mod linear;
pub mod svr;
pub mod tobit;

pub use features::{Regressor, StandardScaler};
pub use forest::{DecisionTree, RandomForest};
pub use kmeans::{elbow_k, KMeans};
pub use linear::BayesianRidge;
pub use svr::{Kernel, Svr};
pub use tobit::{CensoredSample, Tobit};

#[cfg(test)]
mod reference;
