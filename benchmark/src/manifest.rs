//! The benchmark's contract: its command, workloads and metric tables,
//! and the `BENCHMARK.json` text generated from them.

use crate::workloads::Workload;

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 25;

/// The command the driver appends `--workload … --seed … --seconds …
/// --trace …` to.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// All host-domain. `fail_frac` is reported by the one-command run and
/// carried in the driver's `attempted`/`failed` counts; it is always 0
/// on these workloads, which the contract rules out for a listed metric.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer, from the traced run. No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every traced run emits all of these; a metric whose layer the workload
/// bypasses reads 0.
pub const PER_LAYER: [PerLayer; 57] = [
    layer("trace_overhead_frac", "fraction", Lower),
    layer("simclock.queue_ops", "count", Lower),
    layer("simclock.keyed_depth", "count", Lower),
    layer("simclock.keyed_ns_per_op", "ns", Lower),
    layer("simclock.eventq_ns_per_op", "ns", Lower),
    layer("emu.events", "count", Lower),
    layer("emu.dropped_msgs", "count", Lower),
    layer("emu.events_per_s", "1/s", Higher),
    layer("emu.ns_per_event", "ns", Lower),
    layer("emu.engine_self_s", "s", Lower),
    layer("emu.ctx_send_s", "s", Lower),
    layer("emu.ctx_send_calls", "count", Lower),
    layer("emu.build_s", "s", Lower),
    layer("emu.inject_s", "s", Lower),
    layer("emu.workers2_wall_ratio", "ratio", Lower),
    layer("rm.slave_handle_s", "s", Lower),
    layer("rm.slave_calls", "count", Lower),
    layer("eslurm.master_handle_s", "s", Lower),
    layer("eslurm.master_calls", "count", Lower),
    layer("eslurm.satellite_handle_s", "s", Lower),
    layer("eslurm.satellite_calls", "count", Lower),
    layer("topology.rearrange_replay_s", "s", Lower),
    layer("topology.rearrange_ns_per_node", "ns", Lower),
    layer("topology.fptree_construct_ns_per_node", "ns", Lower),
    layer("monitoring.predict_s", "s", Lower),
    layer("monitoring.predict_calls", "count", Lower),
    layer("monitoring.suspects_mean", "count", Lower),
    layer("workload.generate_s", "s", Lower),
    layer("workload.jobs", "count", Higher),
    layer("workload.jsonl_roundtrip_s", "s", Lower),
    layer("estimate.limit_s", "s", Lower),
    layer("estimate.limit_calls", "count", Lower),
    layer("estimate.limit_p50_us", "us", Lower),
    layer("estimate.limit_p99_us", "us", Lower),
    layer("estimate.on_complete_s", "s", Lower),
    layer("estimate.retrain_count", "count", Lower),
    layer("estimate.retrain_s", "s", Lower),
    layer("estimate.estimate_ns_per_call", "ns", Lower),
    layer("estimate.aea", "fraction", Higher),
    layer("estimate.model_limit_frac", "fraction", Higher),
    layer("ml.kmeans_fit_s", "s", Lower),
    layer("ml.svr_fit_s", "s", Lower),
    layer("ml.svr_predict_ns", "ns", Lower),
    layer("sched.simulate_s", "s", Lower),
    layer("sched.self_s", "s", Lower),
    layer("sched.us_per_job", "us", Lower),
    layer("sched.backfill_hit_rate", "fraction", Higher),
    layer("sched.decisions", "count", Lower),
    layer("sched.audit_overhead_frac", "fraction", Lower),
    layer("sched.completed", "count", Higher),
    layer("sched.killed", "count", Lower),
    layer("sched.util", "fraction", Higher),
    layer("sched.wait_mean_s", "s", Lower),
    layer("obs.instr_overhead_frac", "fraction", Lower),
    layer("obs.export_s", "s", Lower),
    layer("obs.export_bytes", "bytes", Lower),
    layer("obs.samples", "count", Lower),
];

fn quote(s: &str) -> String {
    debug_assert!(!s.contains(['"', '\\', '\n']));
    format!("\"{s}\"")
}

/// The text of `BENCHMARK.json`: exactly the contract's keys, one entry
/// per line.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|c| quote(c)).collect();
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                quote(w.name()),
                quote(w.why())
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        let mut names: Vec<&str> = Vec::new();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        for m in &END_TO_END {
            assert!(
                valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.len() <= 128 && (1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let text = benchmark_json();
        let v = serde_json::parse_value_str(&text).expect("generated manifest parses");
        let Value::Object(o) = &v else {
            panic!("manifest is not an object")
        };
        let keys: Vec<&str> = o.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            std::fs::read_to_string(crate::BENCHMARK_JSON)
                .expect("BENCHMARK.json at the repository root"),
            text,
            "run the benchmark once to regenerate BENCHMARK.json"
        );
    }
}
