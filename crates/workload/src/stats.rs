//! Trace statistics reproducing the paper's workload analysis (Fig. 5,
//! §V-A observations).

use crate::job::Job;
use rand::rngs::StdRng;
use rand::RngExt;
use simclock::rng::stream_rng;
use simclock::SimSpan;
use std::collections::HashMap;

/// Per-job estimation-accuracy values `P = t_s / t_r` for jobs that carry a
/// user estimate (Fig. 5a).
pub fn p_values(jobs: &[Job]) -> Vec<f64> {
    jobs.iter().filter_map(|j| j.user_p()).collect()
}

/// Fraction of user-estimated jobs with `P > 1` (overestimates).
pub fn frac_overestimated(jobs: &[Job]) -> f64 {
    let ps = p_values(jobs);
    if ps.is_empty() {
        return 0.0;
    }
    ps.iter().filter(|&&p| p > 1.0).count() as f64 / ps.len() as f64
}

/// Empirical CDF of `values` evaluated at each of `points`.
pub fn cdf(values: &[f64], points: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    points
        .iter()
        .map(|&x| {
            let cnt = sorted.partition_point(|&v| v <= x);
            (
                x,
                if sorted.is_empty() {
                    0.0
                } else {
                    cnt as f64 / sorted.len() as f64
                },
            )
        })
        .collect()
}

/// Average, over users, of the probability that a resubmitted job repeats
/// a `(user, name)` pair from the preceding 24 hours.
///
/// The paper reports "an average 89.2 % probability **for a user** to
/// submit the same job that the user has submitted in the past 24 hours" —
/// a per-user (macro) average, so sporadic users weigh as much as the
/// heavy hitters.
pub fn resubmit_within_24h_prob(jobs: &[Job]) -> f64 {
    let day = SimSpan::from_hours(24);
    let mut last_seen: HashMap<(u32, &str), simclock::SimTime> = HashMap::new();
    let mut per_user: HashMap<u32, (usize, usize)> = HashMap::new(); // (hits, considered)
    for j in jobs {
        let key = (j.user.0, j.name.as_str());
        if let Some(&prev) = last_seen.get(&key) {
            let e = per_user.entry(j.user.0).or_default();
            e.1 += 1;
            if j.submit.since(prev) <= day {
                e.0 += 1;
            }
        }
        last_seen.insert(key, j.submit);
    }
    let probs: Vec<f64> = per_user
        .values()
        .filter(|(_, c)| *c > 0)
        .map(|(h, c)| *h as f64 / *c as f64)
        .collect();
    if probs.is_empty() {
        0.0
    } else {
        probs.iter().sum::<f64>() / probs.len() as f64
    }
}

/// Fraction of jobs longer than six hours that were submitted between
/// 18:00 and 24:00 (the paper reports 71.4 %).
pub fn frac_long_jobs_in_evening(jobs: &[Job]) -> f64 {
    let long: Vec<&Job> = jobs
        .iter()
        .filter(|j| j.actual_runtime > SimSpan::from_hours(6))
        .collect();
    if long.is_empty() {
        return 0.0;
    }
    long.iter().filter(|j| j.submit_hour() >= 18).count() as f64 / long.len() as f64
}

/// Job-weighted variant of [`resubmit_within_24h_prob`]: the fraction of
/// all resubmissions that repeat a `(user, name)` pair from the preceding
/// 24 hours. Heavy users dominate this measure; the paper's 89.2 % falls
/// between the two variants.
pub fn resubmit_within_24h_prob_job_weighted(jobs: &[Job]) -> f64 {
    let day = SimSpan::from_hours(24);
    let mut last_seen: HashMap<(u32, &str), simclock::SimTime> = HashMap::new();
    let (mut hits, mut considered) = (0usize, 0usize);
    for j in jobs {
        let key = (j.user.0, j.name.as_str());
        if let Some(&prev) = last_seen.get(&key) {
            considered += 1;
            if j.submit.since(prev) <= day {
                hits += 1;
            }
        }
        last_seen.insert(key, j.submit);
    }
    if considered == 0 {
        0.0
    } else {
        hits as f64 / considered as f64
    }
}

/// Job-correlation ratio vs. submission interval (Fig. 5b).
///
/// For each interval bucket `[edges[i], edges[i+1])` (in hours), samples
/// job pairs whose submission gap falls in the bucket and reports the
/// fraction that are correlated per [`Job::correlated_with`]. Pair
/// sampling keeps this `O(buckets × samples × log n)` instead of `O(n²)`.
pub fn correlation_vs_interval(
    jobs: &[Job],
    edges_hours: &[f64],
    samples: usize,
    seed: u64,
) -> Vec<(f64, f64)> {
    assert!(edges_hours.len() >= 2);
    let mut sorted: Vec<&Job> = jobs.iter().collect();
    sorted.sort_by_key(|j| j.submit);
    let times: Vec<u64> = sorted.iter().map(|j| j.submit.as_micros()).collect();
    let mut rng = stream_rng(seed, 0xC0);
    let mut out = Vec::new();
    for w in edges_hours.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let lo_us = (lo * 3.6e9) as u64;
        let hi_us = (hi * 3.6e9) as u64;
        let mut correlated = 0usize;
        let mut total = 0usize;
        for _ in 0..samples {
            let i = rng.random_range(0..sorted.len());
            let t = times[i];
            // Candidate partners fall in [t + lo_us, t + hi_us).
            let a = times.partition_point(|&x| x < t + lo_us);
            let b = times.partition_point(|&x| x < t + hi_us);
            if a >= b {
                continue;
            }
            let j = rng.random_range(a..b);
            if i == j {
                continue;
            }
            total += 1;
            if sorted[i].correlated_with(sorted[j]) {
                correlated += 1;
            }
        }
        let mid = (lo + hi) / 2.0;
        out.push((
            mid,
            if total == 0 {
                0.0
            } else {
                correlated as f64 / total as f64
            },
        ));
    }
    out
}

/// Job-correlation ratio vs. job-ID gap (Fig. 5c): for each gap `g`,
/// samples pairs `(i, i + g)` and reports the correlated fraction.
pub fn correlation_vs_id_gap(
    jobs: &[Job],
    gaps: &[usize],
    samples: usize,
    seed: u64,
) -> Vec<(usize, f64)> {
    let mut rng: StdRng = stream_rng(seed, 0xC1);
    gaps.iter()
        .map(|&g| {
            let mut correlated = 0usize;
            let mut total = 0usize;
            if jobs.len() > g + 1 {
                for _ in 0..samples {
                    let i = rng.random_range(0..jobs.len() - g);
                    total += 1;
                    if jobs[i].correlated_with(&jobs[i + g]) {
                        correlated += 1;
                    }
                }
            }
            (
                g,
                if total == 0 {
                    0.0
                } else {
                    correlated as f64 / total as f64
                },
            )
        })
        .collect()
}

/// Histogram of job sizes in power-of-two buckets: `(bucket upper bound,
/// count)`.
pub fn size_histogram(jobs: &[Job]) -> Vec<(u32, usize)> {
    let mut buckets: Vec<(u32, usize)> = Vec::new();
    let max = jobs.iter().map(|j| j.nodes).max().unwrap_or(1);
    let mut bound = 1u32;
    while bound < max {
        bound = bound.saturating_mul(2);
        buckets.push((bound, 0));
    }
    if buckets.is_empty() {
        buckets.push((1, 0));
    }
    for j in jobs {
        let idx = buckets
            .iter()
            .position(|&(b, _)| j.nodes <= b)
            .unwrap_or(buckets.len() - 1);
        buckets[idx].1 += 1;
    }
    buckets
}

/// Summary statistics of a trace, for reports and sanity checks.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSummary {
    /// Number of jobs.
    pub jobs: usize,
    /// Distinct users.
    pub users: usize,
    /// Distinct job names.
    pub names: usize,
    /// Mean actual runtime in seconds.
    pub mean_runtime_s: f64,
    /// Mean requested nodes.
    pub mean_nodes: f64,
    /// Fraction overestimated.
    pub frac_overestimated: f64,
}

/// Compute a [`TraceSummary`].
pub fn summarize(jobs: &[Job]) -> TraceSummary {
    let users: std::collections::HashSet<u32> = jobs.iter().map(|j| j.user.0).collect();
    let names: std::collections::HashSet<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
    TraceSummary {
        jobs: jobs.len(),
        users: users.len(),
        names: names.len(),
        mean_runtime_s: mean(jobs.iter().map(|j| j.actual_runtime.as_secs_f64())),
        mean_nodes: mean(jobs.iter().map(|j| j.nodes as f64)),
        frac_overestimated: frac_overestimated(jobs),
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in it {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceConfig;
    use crate::job::{JobId, UserId};
    use simclock::SimTime;

    fn mk(name: &str, user: u32, submit_s: u64, runtime_s: u64, est_s: Option<u64>) -> Job {
        Job {
            id: JobId(0),
            name: name.into(),
            user: UserId(user),
            nodes: 2,
            cores_per_node: 4,
            submit: SimTime::from_secs(submit_s),
            user_estimate: est_s.map(SimSpan::from_secs),
            actual_runtime: SimSpan::from_secs(runtime_s),
        }
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let vals = vec![1.0, 2.0, 2.0, 3.0];
        let c = cdf(&vals, &[0.5, 1.0, 2.0, 5.0]);
        assert_eq!(c[0].1, 0.0);
        assert_eq!(c[1].1, 0.25);
        assert_eq!(c[2].1, 0.75);
        assert_eq!(c[3].1, 1.0);
    }

    #[test]
    fn overestimation_fraction_counts_p_above_one() {
        let jobs = vec![
            mk("a", 1, 0, 100, Some(200)), // P = 2
            mk("a", 1, 10, 100, Some(50)), // P = 0.5
            mk("a", 1, 20, 100, None),     // no estimate
        ];
        assert!((frac_overestimated(&jobs) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn resubmit_probability_on_crafted_trace() {
        let jobs = vec![
            mk("x", 1, 0, 100, None),
            mk("x", 1, 3600, 100, None), // within 24 h -> hit
            mk("x", 1, 3600 + 100 * 3600, 100, None), // 100 h later -> miss
        ];
        assert!((resubmit_within_24h_prob(&jobs) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn correlation_decays_with_interval() {
        let jobs = TraceConfig::small(6000, 21).generate();
        let series = correlation_vs_interval(&jobs, &[0.0, 0.1, 1.0, 10.0, 30.0, 100.0], 4000, 1);
        assert_eq!(series.len(), 5);
        let first = series.first().unwrap().1;
        let last = series.last().unwrap().1;
        assert!(first > last, "correlation should decay: {series:?}");
        assert!(first > 0.2, "short-interval correlation too low: {first}");
    }

    #[test]
    fn correlation_decays_with_id_gap() {
        let jobs = TraceConfig::small(6000, 22).generate();
        let series = correlation_vs_id_gap(&jobs, &[1, 10, 100, 1000], 4000, 2);
        let first = series.first().unwrap().1;
        let last = series.last().unwrap().1;
        assert!(first > last, "correlation should decay: {series:?}");
    }

    #[test]
    fn churny_system_has_lower_correlation_floor() {
        // The Tianhe-2A-like config (stable apps) must plateau higher than
        // the NG-like config (churning apps) at long intervals — Fig. 5b.
        let stable = TraceConfig::small(8000, 31); // churn 0.01
        let mut churny = TraceConfig::small(8000, 31);
        churny.template_churn = 0.08;
        churny.templates_per_user = 8;
        let edges = [30.0, 120.0];
        let s = correlation_vs_interval(&stable.generate(), &edges, 4000, 3)[0].1;
        let c = correlation_vs_interval(&churny.generate(), &edges, 4000, 3)[0].1;
        assert!(s > c, "stable {s} should exceed churny {c}");
    }

    #[test]
    fn size_histogram_buckets_cover() {
        let jobs = vec![
            mk("a", 1, 0, 10, None),
            mk("a", 1, 5, 10, None),
            mk("a", 1, 9, 10, None),
        ];
        let mut j2 = mk("b", 2, 0, 10, None);
        j2.nodes = 100;
        let mut all = jobs;
        all.push(j2);
        let h = size_histogram(&all);
        let total: usize = h.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 4);
        assert!(h.last().unwrap().0 >= 100);
    }

    #[test]
    fn summary_counts() {
        let jobs = vec![
            mk("a", 1, 0, 100, Some(200)),
            mk("b", 2, 10, 300, Some(100)),
        ];
        let s = summarize(&jobs);
        assert_eq!(s.jobs, 2);
        assert_eq!(s.users, 2);
        assert_eq!(s.names, 2);
        assert!((s.mean_runtime_s - 200.0).abs() < 1e-9);
        assert!((s.frac_overestimated - 0.5).abs() < 1e-9);
    }
}
