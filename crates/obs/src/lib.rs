//! # eslurm-obs
//!
//! The virtual-time observability layer for the ESlurm reproduction.
//! Three instruments ride a run: a metrics [`Recorder`]
//! (counters / gauges / fixed-bucket histograms keyed by static ids, a
//! labeled per-entity registry, and in full-trace mode span-style events
//! with causal records), a virtual-time [`Sampler`] whose one store
//! exports as CSV, and the online [`SloEngine`] — fed by the
//! discrete-event engine, its actors and the backfill scheduler. The
//! host-heap profiler ([`MemProfiler`]) is not an instrument of the run
//! but a report around it: arm, run, read.
//!
//! ## Design
//!
//! - **Handles are free to clone and free to disable.** [`Recorder`],
//!   [`Sampler`], [`SloEngine`] and [`DecisionLog`] are `Option<Rc<..>>`;
//!   the defaults ([`Recorder::disabled`], [`Sampler::disabled`], …) make
//!   every recording call an inlined branch, so instrumented hot paths cost
//!   nothing in un-observed runs.
//! - **Metrics are `Cell`s.** The simulation is single-threaded, so
//!   counters, gauges and histogram buckets are plain wrapping adds and
//!   stores on `Cell<u64>`/`Cell<i64>`, and the logs behind them sit in a
//!   `RefCell`. Labeled metrics pay a registry lookup once per entity
//!   ([`Recorder::labeled_counter`]); the returned handle records into its
//!   own cell thereafter. No `RefCell` borrow is held across a call that
//!   can reach the same handle, so a recording call never finds its own
//!   state borrowed.
//! - **Events are virtual-time stamped.** Timestamps are `SimTime` µs, so
//!   a seed fixes every stamp, and a post-mortem re-runs the seed with the
//!   full trace on (`eslurm explain`, `critical-path`, `why-job`) instead
//!   of keeping a ring of recent events. No instrument writes a file
//!   mid-run.
//! - **Exports are deterministic.** [`export::to_chrome_trace`] renders a
//!   `chrome://tracing` / Perfetto-loadable document, [`export::to_jsonl`]
//!   one object per line, [`export::to_prometheus`] the text exposition
//!   format, and [`series::SeriesStore::to_csv`] the sampler's time series
//!   — all byte-for-byte reproducible for a seed, which is what lets
//!   [`series::compare_csv`] gate regressions with a zero self-diff.
//!
//! ## Example
//!
//! ```
//! use obs::{MetricId, Recorder, Sampler, Counter, Hist, EventKind};
//! use simclock::{SimSpan, SimTime};
//!
//! let rec = Recorder::full();
//! rec.inc(Counter::MsgsSent);
//! rec.observe(Hist::HopLatencyUs, 120);
//! rec.labeled_counter(MetricId::new("rpcs").with("node", "master")).inc();
//! rec.span(1_000, 120, 3, EventKind::MsgSend, 5, 0);
//!
//! let sampler = Sampler::every(SimSpan::from_secs(1));
//! sampler.snapshot(SimTime::from_secs(1), &rec);
//! assert!(sampler.to_csv().starts_with("metric,t_us,value\n"));
//!
//! let doc = obs::export::to_chrome_trace(&rec.events());
//! assert!(doc.starts_with("{\"traceEvents\":["));
//! ```

pub mod alloc;
pub mod audit;
pub mod causal;
pub mod event;
pub mod export;
pub mod label;
pub mod metric;
pub mod recorder;
pub mod sampler;
pub mod series;
pub mod slo;

pub use alloc::{
    mem_profile_compiled, tag_scope, MemProfiler, MemReport, MemTag, MemTagReport, TagScope,
};
pub use audit::{
    AccuracyStats, AuditReport, Decision, DecisionLog, DecisionRecord, EstSource, EstimateRef,
    SkipReason,
};
pub use causal::{
    build_traces, flow_summaries, CausalRecord, CriticalPath, FlowKind, FlowSummary, Hop, HopSend,
    PathStep, TraceContext, TraceTree,
};
pub use event::{EventKind, TraceEvent};
pub use label::MetricId;
pub use metric::{bucket_index, Counter, Gauge, Hist, HistSnapshot, Histogram};
pub use recorder::{
    LabeledCounter, LabeledGauge, LabeledHist, LabeledValue, MetricsSummary, Recorder,
};
pub use sampler::Sampler;
pub use series::{
    compare_csv, parse_csv, DiffOptions, DiffReport, MetricDelta, SeriesPoint, SeriesStore,
    SeriesSummary,
};
pub use slo::{
    SloEngine, SloEvent, SloEventKind, SloOp, SloReport, SloSignal, SloSpec, SLO_TRACK_PID,
};
