//! Replays: a layer's public function run alone on the op mix a workload
//! produced. They are estimates of what the layer costs inside the run —
//! caches are warmer here and nothing else competes — not self time.

use crate::des::{DesJob, DesParams};
use estimate::features;
use ml::{KMeans, Kernel, Regressor, StandardScaler, Svr};
use monitoring::{FailurePredictor, OraclePredictor};
use rand::RngExt;
use simclock::rng::stream_rng;
use simclock::{EventKey, EventQueue, KeyedQueue, SimSpan, SimTime};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;
use topology::fptree::rearrange_into;
use topology::FpTreeConstructor;
use workload::Job;

type Layers = BTreeMap<&'static str, f64>;

/// Pop-then-push rounds a hold-model replay times.
const HOLD_ROUNDS: usize = 1_000_000;

/// `KeyedQueue` in the classic hold model: at a steady `depth`, pop the
/// earliest event and push one a random increment later.
pub fn keyed_queue(l: &mut Layers, depth: u64, seed: u64) {
    let depth = depth.max(1) as usize;
    let mut rng = stream_rng(seed, 0x4E7);
    let mut q: KeyedQueue<u64> = KeyedQueue::with_capacity(depth + 1);
    let mut seq = 0u64;
    let mut push = |q: &mut KeyedQueue<u64>, base: SimTime, rng: &mut rand::rngs::StdRng| {
        let at = base + SimSpan::from_micros(rng.random_range(1..120_000_000));
        q.push(EventKey::for_node(at, (seq % 65_536) as u32, seq), seq);
        seq += 1;
    };
    for _ in 0..depth {
        push(&mut q, SimTime::ZERO, &mut rng);
    }
    let start = Instant::now();
    for _ in 0..HOLD_ROUNDS {
        let (key, ev) = q.pop().expect("hold model keeps the queue non-empty");
        black_box(ev);
        push(&mut q, key.time, &mut rng);
    }
    let ns = start.elapsed().as_nanos() as f64;
    l.insert("simclock.keyed_ns_per_op", ns / (2 * HOLD_ROUNDS) as f64);
}

/// `EventQueue` in the hold model at the scheduler's depth.
pub fn event_queue(l: &mut Layers, depth: u64, seed: u64) {
    let depth = depth.max(1) as usize;
    let mut rng = stream_rng(seed, 0xE7E);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth + 1);
    for i in 0..depth {
        q.push(SimTime(rng.random_range(1..86_400_000_000)), i as u64);
    }
    let start = Instant::now();
    for i in 0..HOLD_ROUNDS {
        let (at, ev) = q.pop().expect("hold model keeps the queue non-empty");
        black_box(ev);
        let next = at + SimSpan::from_micros(rng.random_range(1..3_600_000_000));
        q.push(next, i as u64);
    }
    let ns = start.elapsed().as_nanos() as f64;
    l.insert("simclock.eventq_ns_per_op", ns / (2 * HOLD_ROUNDS) as f64);
}

/// FP-Tree work over every job's node list with the suspect set at its
/// submit time: the rearrangement alone, then full tree construction.
pub fn topology(
    l: &mut Layers,
    p: &DesParams,
    jobs: &[DesJob],
    mut predictor: Option<OraclePredictor>,
) {
    let first_slave = 1 + p.satellites as u32;
    let inputs: Vec<(Vec<u32>, HashSet<u32>)> = jobs
        .iter()
        .map(|j| {
            let list = j.nodes.iter().map(|&i| first_slave + i).collect();
            let suspects = predictor
                .as_mut()
                .map_or_else(HashSet::new, |p| p.suspects(j.at));
            (list, suspects)
        })
        .collect();
    let nodes: usize = inputs.iter().map(|(list, _)| list.len()).sum();

    let mut out = Vec::new();
    let start = Instant::now();
    for (list, suspects) in &inputs {
        out.clear();
        rearrange_into(list, suspects, p.relay_width, &mut out);
        black_box(&out);
    }
    let rearrange_s = start.elapsed().as_secs_f64();

    let ctor = FpTreeConstructor::new(p.relay_width);
    let start = Instant::now();
    for (list, suspects) in &inputs {
        black_box(ctor.construct(list, suspects));
    }
    let construct_s = start.elapsed().as_secs_f64();

    let per_node = |s: f64| s * 1e9 / nodes.max(1) as f64;
    l.insert("topology.rearrange_replay_s", rearrange_s);
    l.insert("topology.rearrange_ns_per_node", per_node(rearrange_s));
    l.insert(
        "topology.fptree_construct_ns_per_node",
        per_node(construct_s),
    );
}

/// The estimator's two model fits and one prediction on a frozen window:
/// the last `window` jobs of the trace, prepared the way the framework
/// prepares them (as `perf_report` does).
pub fn ml(l: &mut Layers, jobs: &[Job], window: usize, k: usize, seed: u64) {
    let tail = &jobs[jobs.len().saturating_sub(window)..];
    let raw: Vec<Vec<f64>> = tail.iter().map(features::features).collect();
    let scaler = StandardScaler::fit(&raw);
    let x: Vec<Vec<f64>> = scaler
        .transform_all(&raw)
        .iter()
        .map(|r| features::apply_weights(r))
        .collect();
    let y: Vec<f64> = tail.iter().map(features::target).collect();

    let start = Instant::now();
    let km = KMeans::fit(&x, k, 60, seed);
    l.insert("ml.kmeans_fit_s", start.elapsed().as_secs_f64());
    black_box(km.k());

    // One per-cluster SVR at the mean cluster size, framework kernel.
    let n = (x.len() / k.max(1)).max(2).min(x.len());
    let mut svr = Svr::default_rbf()
        .with_kernel(Kernel::Rbf { gamma: 30.0 })
        .with_params(30.0, 0.05);
    let start = Instant::now();
    svr.fit(&x[..n], &y[..n]);
    l.insert("ml.svr_fit_s", start.elapsed().as_secs_f64());

    const QUERIES: usize = 10_000;
    let start = Instant::now();
    for i in 0..QUERIES {
        black_box(svr.predict(black_box(&x[i % x.len()])));
    }
    l.insert(
        "ml.svr_predict_ns",
        start.elapsed().as_nanos() as f64 / QUERIES as f64,
    );
}
