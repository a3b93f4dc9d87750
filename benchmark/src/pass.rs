//! What one pass over a workload's input yields, and the stopwatch for
//! its timed region.

use crate::procfs;
use std::collections::BTreeMap;
use std::time::Instant;

/// The result of one pass: end-to-end readings, the outcome fingerprint,
/// the job accounting, and (on a traced pass) the per-layer metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pass {
    /// Everything before the timed region.
    pub setup_s: f64,
    /// Wall time of the timed region.
    pub wall_s: f64,
    /// User + system CPU over the timed region; `None` without `/proc`.
    pub cpu_s: Option<f64>,
    /// FNV-1a over everything the run produced (see each workload).
    pub outcome_fp: u64,
    /// Jobs submitted.
    pub attempted: u64,
    /// Jobs that reached no terminal record, or were abandoned.
    pub failed: u64,
    /// Per-layer metrics by name; only a traced pass fills these.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Wall and CPU clock over a region.
pub struct Stopwatch {
    wall: Instant,
    cpu: Option<f64>,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu: procfs::cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// `(wall_s, cpu_s)` since [`Stopwatch::start`].
    pub fn stop(self) -> (f64, Option<f64>) {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = procfs::cpu_seconds()
            .zip(self.cpu)
            .map(|(end, start)| end - start);
        (wall, cpu)
    }
}

/// An invariant of a workload's output that did not hold.
#[derive(Debug)]
pub struct Violation(pub String);

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// `Err(Violation)` unless `cond` holds.
pub fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), Violation> {
    if cond {
        Ok(())
    } else {
        Err(Violation(what()))
    }
}
