//! Trace persistence: JSON-lines files, one job per line.
//!
//! The format is deliberately simple so that traces generated here can be
//! inspected with standard tools and external traces (e.g. converted SWF
//! archives) can be imported.

use crate::job::Job;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Write `jobs` to `path` as JSON lines.
pub fn save_jsonl(jobs: &[Job], path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for j in jobs {
        serde_json::to_writer(&mut w, j).map_err(io::Error::other)?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

/// Read a JSON-lines trace from `path`. Jobs are returned in file order;
/// blank lines are skipped. A line that does not parse, or whose job ends
/// past the 2^53 µs trace horizon, is an `InvalidData` error naming it.
pub fn load_jsonl(path: &Path) -> io::Result<Vec<Job>> {
    let r = BufReader::new(File::open(path)?);
    let mut jobs = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let bad = |msg: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {msg}", lineno + 1),
            )
        };
        let job: Job = serde_json::from_str(&line).map_err(|e| bad(e.to_string()))?;
        job.check_horizon().map_err(bad)?;
        jobs.push(job);
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceConfig;
    use proptest::prelude::*;

    #[test]
    fn round_trip() {
        let jobs = TraceConfig::small(50, 1).generate();
        let dir = std::env::temp_dir().join("eslurm-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        save_jsonl(&jobs, &path).unwrap();
        let back = load_jsonl(&path).unwrap();
        assert_eq!(jobs, back);
        std::fs::remove_file(&path).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Arbitrary integers in every integer field of a JSONL job and of
        /// an SWF record — magnitudes spread by a random shift, or placed
        /// near half the 2^53 µs horizon so that a submit plus a runtime
        /// lands on either side of it: the trace either loads with every
        /// job inside the horizon or fails with `InvalidData`, and never
        /// panics.
        #[test]
        fn loaders_hold_the_time_horizon(
            json in prop::collection::vec((any::<u64>(), 0u32..64, any::<bool>()), 7),
            swf in prop::collection::vec((any::<i64>(), 0u32..64, any::<bool>()), 17),
            flags in (any::<bool>(), any::<bool>()),
        ) {
            let dir = std::env::temp_dir().join("eslurm-trace-test");
            std::fs::create_dir_all(&dir).unwrap();
            let within = |jobs: &[Job]| {
                jobs.iter().all(|j| {
                    let span = j.actual_runtime.max(j.user_estimate.unwrap_or_default());
                    j.submit.as_micros() as u128 + span.as_micros() as u128 <= 1 << 53
                })
            };
            let holds = |loaded: io::Result<Vec<Job>>| match loaded {
                Ok(jobs) => within(&jobs),
                Err(e) => e.kind() == io::ErrorKind::InvalidData,
            };

            // µs: [0.75, 1.25) × 2^52 when near.
            let v: Vec<u64> = json
                .iter()
                .map(|&(x, shift, near)| if near { (3 << 50) + (x >> 13) } else { x >> shift })
                .collect();
            let estimate = if flags.0 { v[5].to_string() } else { "null".into() };
            let line = format!(
                "{{\"id\":{},\"name\":\"j\",\"user\":{},\"nodes\":{},\"cores_per_node\":{},\
                 \"submit\":{},\"user_estimate\":{estimate},\"actual_runtime\":{}}}\n",
                v[0], v[1], v[2], v[3], v[4], v[6]
            );
            let path = dir.join("horizon.jsonl");
            std::fs::write(&path, line).unwrap();
            prop_assert!(holds(load_jsonl(&path)));

            // Seconds: [0.375, 0.625) × the horizon when near.
            let max_s = (1i64 << 53) / 1_000_000;
            let mut f: Vec<i64> = swf
                .iter()
                .map(|&(x, shift, near)| {
                    if near { max_s * 3 / 8 + x.rem_euclid(max_s / 4) } else { x >> shift }
                })
                .collect();
            if flags.1 {
                f[9] = 1; // status completed: the record becomes a job if it can
            }
            let mut record: Vec<String> = f.iter().map(i64::to_string).collect();
            record.insert(5, "-1".into()); // average CPU time, a float field
            let path = dir.join("horizon.swf");
            std::fs::write(&path, record.join(" ") + "\n").unwrap();
            let opts = crate::swf::SwfImportOptions::default();
            prop_assert!(holds(crate::swf::load_swf(&path, &opts)));
        }
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let dir = std::env::temp_dir().join("eslurm-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(&path, "{not json}\n").unwrap();
        let err = load_jsonl(&path).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
