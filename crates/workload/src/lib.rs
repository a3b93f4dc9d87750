//! # eslurm-workload
//!
//! Synthetic HPC workload substrate replacing the proprietary Tianhe-2A and
//! NG-Tianhe production traces (paper Table III):
//!
//! * [`job`] — the job record an RM sees (Table IV features + ground
//!   truth);
//! * [`generator`] — a template-based generator calibrated to every trace
//!   statistic the paper reports (over-estimation CDF, 24 h resubmission
//!   probability, evening clustering of long jobs, correlation decay);
//! * [`stats`] — the Fig. 5 analyses (P CDF, correlation vs. interval and
//!   vs. ID gap) plus summary statistics;
//! * [`trace`] — JSON-lines persistence;
//! * [`swf`] — Standard Workload Format import/export, so the pipeline
//!   can also replay real traces from the Parallel Workloads Archive.

#![forbid(unsafe_code)]

pub mod generator;
pub mod job;
pub mod stats;
pub mod swf;
pub mod trace;

pub use generator::TraceConfig;
pub use job::{Job, JobId, UserId};
pub use stats::{summarize, TraceSummary};
