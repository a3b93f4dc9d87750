//! Standard Workload Format (SWF) import/export.
//!
//! SWF is the format of the Parallel Workloads Archive, the de-facto
//! interchange format for HPC job traces. Supporting it means the whole
//! evaluation pipeline (estimation framework, scheduler replay, Fig. 5
//! analyses) can run against real published traces instead of — or next
//! to — the synthetic generator.
//!
//! Format: one job per line, 18 whitespace-separated fields, `;` comment
//! lines. See <https://www.cs.huji.ac.il/labs/parallel/workload/swf.html>.

use crate::job::{Job, JobId, UserId, MAX_TRACE_US};
use simclock::{SimSpan, SimTime};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// The 18 SWF fields of one job record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwfRecord {
    /// 1: job number.
    pub job_number: i64,
    /// 2: submit time, seconds from trace start.
    pub submit: i64,
    /// 3: wait time in seconds (-1 = unknown).
    pub wait: i64,
    /// 4: actual run time in seconds.
    pub run_time: i64,
    /// 5: number of allocated processors.
    pub allocated_procs: i64,
    /// 6: average CPU time used per processor (-1 = unknown).
    pub avg_cpu: f64,
    /// 7: used memory (KB, -1 = unknown).
    pub used_mem: i64,
    /// 8: requested processors.
    pub requested_procs: i64,
    /// 9: requested (wall) time in seconds.
    pub requested_time: i64,
    /// 10: requested memory (-1 = unknown).
    pub requested_mem: i64,
    /// 11: completion status (1 = completed, 0 = failed, 5 = cancelled).
    pub status: i64,
    /// 12: user id.
    pub user: i64,
    /// 13: group id.
    pub group: i64,
    /// 14: executable (application) number.
    pub executable: i64,
    /// 15: queue number.
    pub queue: i64,
    /// 16: partition number.
    pub partition: i64,
    /// 17: preceding job number.
    pub preceding_job: i64,
    /// 18: think time after the preceding job.
    pub think_time: i64,
}

impl SwfRecord {
    fn parse(line: &str, lineno: usize) -> io::Result<SwfRecord> {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 18 {
            return Err(bad(
                lineno,
                &format!("expected 18 fields, found {}", fields.len()),
            ));
        }
        let int = |idx: usize| -> io::Result<i64> {
            fields[idx]
                .parse()
                .map_err(|e| bad(lineno, &format!("field {}: {e}", idx + 1)))
        };
        let float = |idx: usize| -> io::Result<f64> {
            fields[idx]
                .parse()
                .map_err(|e| bad(lineno, &format!("field {}: {e}", idx + 1)))
        };
        Ok(SwfRecord {
            job_number: int(0)?,
            submit: int(1)?,
            wait: int(2)?,
            run_time: int(3)?,
            allocated_procs: int(4)?,
            avg_cpu: float(5)?,
            used_mem: int(6)?,
            requested_procs: int(7)?,
            requested_time: int(8)?,
            requested_mem: int(9)?,
            status: int(10)?,
            user: int(11)?,
            group: int(12)?,
            executable: int(13)?,
            queue: int(14)?,
            partition: int(15)?,
            preceding_job: int(16)?,
            think_time: int(17)?,
        })
    }

    /// Reject a record whose times, in seconds, pass the 2^53 µs trace
    /// horizon, before they are scaled to µs.
    fn check_horizon(&self, lineno: usize) -> io::Result<()> {
        const MAX_S: i64 = (MAX_TRACE_US / 1_000_000) as i64;
        let times = [
            ("submit", self.submit),
            ("run_time", self.run_time),
            ("requested_time", self.requested_time),
        ];
        match times.into_iter().find(|&(_, s)| s > MAX_S) {
            Some((field, s)) => Err(bad(
                lineno,
                &format!("{field} {s} s is past the 2^53 µs trace horizon"),
            )),
            None => Ok(()),
        }
    }

    fn format(&self) -> String {
        format!(
            "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            self.job_number,
            self.submit,
            self.wait,
            self.run_time,
            self.allocated_procs,
            self.avg_cpu,
            self.used_mem,
            self.requested_procs,
            self.requested_time,
            self.requested_mem,
            self.status,
            self.user,
            self.group,
            self.executable,
            self.queue,
            self.partition,
            self.preceding_job,
            self.think_time
        )
    }
}

fn bad(lineno: usize, msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("SWF line {lineno}: {msg}"),
    )
}

/// How SWF processor counts map onto our node-oriented [`Job`] model.
#[derive(Clone, Copy, Debug)]
pub struct SwfImportOptions {
    /// Processors per node of the traced machine (SWF counts processors;
    /// our jobs count nodes × cores).
    pub cores_per_node: u32,
    /// Drop records whose status is not "completed" (1). Cancelled and
    /// failed jobs have unreliable runtimes.
    pub completed_only: bool,
}

impl Default for SwfImportOptions {
    fn default() -> Self {
        SwfImportOptions {
            cores_per_node: 1,
            completed_only: true,
        }
    }
}

/// Convert one SWF record into a [`Job`]. Returns `None` for records the
/// options exclude or that carry no usable runtime. Times are taken as
/// they stand; [`load_swf`] rejects a record past the trace horizon first.
pub fn record_to_job(r: &SwfRecord, opts: &SwfImportOptions, id: u64) -> Option<Job> {
    if opts.completed_only && r.status != 1 {
        return None;
    }
    if r.run_time <= 0 || r.submit < 0 {
        return None;
    }
    let procs = if r.requested_procs > 0 {
        r.requested_procs
    } else {
        r.allocated_procs
    };
    if procs <= 0 {
        return None;
    }
    let nodes = (procs as u32).div_ceil(opts.cores_per_node).max(1);
    Some(Job {
        id: JobId(id),
        // The executable number is the closest SWF analogue of a job name
        // (the paper's "running path").
        name: format!("exec{}", r.executable),
        user: UserId(r.user.max(0) as u32),
        nodes,
        cores_per_node: opts.cores_per_node,
        submit: SimTime::from_secs(r.submit as u64),
        user_estimate: (r.requested_time > 0).then(|| SimSpan::from_secs(r.requested_time as u64)),
        actual_runtime: SimSpan::from_secs(r.run_time as u64),
    })
}

/// Convert a [`Job`] back into an SWF record (fields we don't model are
/// `-1` per the SWF convention).
pub fn job_to_record(job: &Job) -> SwfRecord {
    SwfRecord {
        job_number: job.id.0 as i64 + 1,
        submit: job.submit.as_secs() as i64,
        wait: -1,
        run_time: job.actual_runtime.as_secs() as i64,
        allocated_procs: job.cores() as i64,
        avg_cpu: -1.0,
        used_mem: -1,
        requested_procs: job.cores() as i64,
        requested_time: job.user_estimate.map(|e| e.as_secs() as i64).unwrap_or(-1),
        requested_mem: -1,
        status: 1,
        user: job.user.0 as i64,
        group: -1,
        executable: crate::job::name_code(&job.name) as i64,
        queue: -1,
        partition: -1,
        preceding_job: -1,
        think_time: -1,
    }
}

/// Load an SWF file into jobs (IDs renumbered in file order). A record
/// that does not parse, or whose times pass the 2^53 µs trace horizon, is
/// an `InvalidData` error naming its line.
pub fn load_swf(path: &Path, opts: &SwfImportOptions) -> io::Result<Vec<Job>> {
    let r = BufReader::new(File::open(path)?);
    let mut jobs = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with(';') {
            continue;
        }
        let record = SwfRecord::parse(trimmed, lineno + 1)?;
        record.check_horizon(lineno + 1)?;
        if let Some(job) = record_to_job(&record, opts, jobs.len() as u64) {
            job.check_horizon().map_err(|m| bad(lineno + 1, &m))?;
            jobs.push(job);
        }
    }
    Ok(jobs)
}

/// Write jobs to an SWF file with a minimal header.
pub fn save_swf(jobs: &[Job], path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "; SWF trace exported by eslurm-workload")?;
    writeln!(w, "; Jobs: {}", jobs.len())?;
    for j in jobs {
        writeln!(w, "{}", job_to_record(j).format())?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceConfig;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("eslurm-swf-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn parses_a_real_style_line() {
        let line = "1 0 1204 1122 128 -1 -1 128 1200 -1 1 17 1 5 2 1 -1 -1";
        let r = SwfRecord::parse(line, 1).unwrap();
        assert_eq!(r.job_number, 1);
        assert_eq!(r.run_time, 1122);
        assert_eq!(r.requested_procs, 128);
        let job = record_to_job(&r, &SwfImportOptions::default(), 0).unwrap();
        assert_eq!(job.nodes, 128);
        assert_eq!(job.user_estimate, Some(SimSpan::from_secs(1200)));
        assert_eq!(job.actual_runtime, SimSpan::from_secs(1122));
        assert_eq!(job.user, UserId(17));
    }

    #[test]
    fn cores_per_node_scaling() {
        let line = "1 0 -1 600 48 -1 -1 48 900 -1 1 3 1 9 1 1 -1 -1";
        let r = SwfRecord::parse(line, 1).unwrap();
        let opts = SwfImportOptions {
            cores_per_node: 16,
            completed_only: true,
        };
        let job = record_to_job(&r, &opts, 0).unwrap();
        assert_eq!(job.nodes, 3);
        assert_eq!(job.cores(), 48);
    }

    #[test]
    fn skips_failed_and_garbage_records() {
        let failed = SwfRecord::parse("2 10 -1 600 4 -1 -1 4 900 -1 0 3 1 9 1 1 -1 -1", 1).unwrap();
        assert!(record_to_job(&failed, &SwfImportOptions::default(), 0).is_none());
        let zero_rt = SwfRecord::parse("3 10 -1 0 4 -1 -1 4 900 -1 1 3 1 9 1 1 -1 -1", 1).unwrap();
        assert!(record_to_job(&zero_rt, &SwfImportOptions::default(), 0).is_none());
    }

    #[test]
    fn malformed_lines_error_with_line_number() {
        let path = tmp("bad.swf");
        std::fs::write(&path, "; header\n1 2 three\n").unwrap();
        let err = load_swf(&path, &SwfImportOptions::default()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn round_trip_through_swf() {
        let jobs = TraceConfig::small(120, 3).generate();
        let path = tmp("rt.swf");
        save_swf(&jobs, &path).unwrap();
        let opts = SwfImportOptions {
            cores_per_node: 12,
            completed_only: true,
        };
        let back = load_swf(&path, &opts).unwrap();
        assert_eq!(back.len(), jobs.len());
        for (a, b) in jobs.iter().zip(&back) {
            assert_eq!(a.cores(), b.cores());
            // Seconds precision is the SWF limit.
            assert_eq!(a.actual_runtime.as_secs(), b.actual_runtime.as_secs());
            assert_eq!(a.submit.as_secs(), b.submit.as_secs());
            assert_eq!(a.user, b.user);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let path = tmp("hdr.swf");
        std::fs::write(
            &path,
            "; Computer: Tianhe-2A\n;\n\n1 0 -1 60 4 -1 -1 4 120 -1 1 1 1 1 1 1 -1 -1\n",
        )
        .unwrap();
        let jobs = load_swf(&path, &SwfImportOptions::default()).unwrap();
        assert_eq!(jobs.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
