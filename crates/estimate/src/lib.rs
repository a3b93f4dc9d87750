//! # eslurm-estimate
//!
//! The ESlurm job-runtime-estimation framework (paper §V) and every
//! baseline it is compared against:
//!
//! * [`features`] — the Table IV feature extraction (name, user, nodes,
//!   cores, submission hour) with a log-runtime target;
//! * [`framework`] — model generator (K-means++ + per-cluster SVR),
//!   real-time estimation module (slack α, AEA gate vs. user estimates),
//!   record module (Eqs. 4–5);
//! * [`baselines`] — User, Last-2, SVM, RandomForest, IRPA, TRIP, PREP
//!   behind a common [`baselines::RuntimePredictor`] interface;
//! * [`eval`] — chronological replay scoring (accuracy and
//!   underestimation rate, Fig. 11(b) / Table VIII).

#![forbid(unsafe_code)]

pub mod baselines;
pub mod eval;
pub mod features;
pub mod framework;

pub use baselines::{
    forest_baseline, svm_baseline, EslurmPredictor, Irpa, Last2, Prep, RuntimePredictor, Trip,
    UserEstimate,
};
pub use eval::{evaluate, signed_error_percentiles, ModelReport};
pub use framework::{
    estimation_accuracy, ClusterDiag, Estimate, EstimateSource, EstimatorConfig, RuntimeEstimator,
};
