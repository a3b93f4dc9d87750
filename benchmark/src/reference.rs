//! The reference loop: a fixed piece of work, independent of the library,
//! timed right before and right after every pass to tell how fast the
//! host is at that moment.
//!
//! The benchmark runs on two cores of a shared host whose speed moves in
//! phases of seconds to minutes, through other tenants' contention for
//! the memory system and for the cores: the same pass takes 10 % to 60 %
//! longer in a loud phase, in CPU time as much as in wall time (the
//! kernel's steal counter stays flat). No statistic over one run removes
//! a phase that outlasts the run. So every time the benchmark reports is
//! in reference seconds: the measured seconds times the host's speed
//! around that pass, see [`speed`].
//!
//! The loop mixes what the workloads mix, about a quarter of its time each:
//! dependent reads and writes scattered over 16 MB (the DES queues miss
//! the L2 in the same way), a hold model on a binary heap in cache,
//! floating-point sums with `exp` (the estimator's K-means and SVR), and
//! first-fit scans down a queue (the backfill pass). Which of the four a
//! loud phase slows most changes from phase to phase.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The loop's time on the quiet reference box (2 cores of a Xeon at
/// 2.1 GHz): the low decile of 1,200 readings over 50 minutes.
pub const NOMINAL_S: f64 = 0.16;

/// How much of the loop's slowdown a pass shows. The loop is 0.3 s of
/// samples around a 2 s pass, and bursts shorter than a pass hit one and
/// miss the other, so scaling by the loop's full slowdown would put the
/// loop's own noise into quiet runs. Fitted as the slope of log run time
/// on log loop time over 240 runs of 25 s (all five workloads, two
/// 50-minute samples with loud and quiet phases): 0.4 to 0.8 by workload
/// and sample.
const TRACKING: f64 = 0.75;

/// The host's speed given the loop's time `ref_s`: 1 on the quiet
/// reference box, less in a loud phase. Measured seconds times this are
/// reference seconds.
pub fn speed(ref_s: f64) -> f64 {
    (NOMINAL_S / ref_s).powf(TRACKING)
}

/// SplitMix64's output function: a fixed, seedless scrambler.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Dependent reads and writes scattered over 16 MB.
fn chase(buf: &mut [u64], steps: u32) {
    let mask = buf.len() - 1;
    let mut x = 1u64;
    for _ in 0..steps {
        let i = x as usize & mask;
        let v = buf[i];
        x = mix(x ^ v);
        buf[i] = v.rotate_left(7) ^ x;
    }
    black_box(x);
}

/// Hold model on a binary heap of 128 k keys: pop the top, push it back
/// a random step further on.
fn hold(heap: &mut BinaryHeap<u64>, steps: u32) {
    let mut x = 7u64;
    for _ in 0..steps {
        x = mix(x);
        let top = heap.pop().unwrap_or(u64::MAX);
        heap.push(top.wrapping_sub(x >> 44));
    }
    black_box(x);
}

/// Gaussian kernel sums of `rounds` points against 512, 16 dimensions.
fn kernel_sums(points: &[[f64; 16]], rounds: usize) {
    let mut acc = 0.0f64;
    for a in points.iter().cycle().take(rounds) {
        for b in points {
            let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
            acc += (-0.5 * d2).exp();
        }
    }
    black_box(acc);
}

/// First-fit scans down a queue of 32 k jobs in cache: few candidates fit,
/// so the branches predict well and the core runs at its widest.
fn scan(queue: &[(u32, u32)], rounds: u32) {
    let mut placed = 0u64;
    for round in 0..rounds {
        let (mut free, window) = (64 + round % 64, 600 + round % 300);
        for &(nodes, limit) in queue {
            if nodes <= free && limit <= window {
                free -= nodes;
                placed += 1;
            }
        }
    }
    black_box(placed);
}

/// The loop with its inputs, kept by the process that starts the passes.
pub struct Reference {
    buf: Vec<u64>,
    points: Vec<[f64; 16]>,
    queue: Vec<(u32, u32)>,
    /// The latest reading, in seconds.
    last: f64,
}

impl Reference {
    /// Build the inputs and take a first reading.
    pub fn new() -> Self {
        let mut r = Reference {
            buf: (0..1u64 << 21).map(mix).collect(),
            points: (0..512u64)
                .map(|i| std::array::from_fn(|d| (mix(i * 16 + d as u64) % 1000) as f64 / 1000.0))
                .collect(),
            queue: (0..1u64 << 15)
                .map(|i| (1 + (mix(i) % 512) as u32, (mix(!i) % 86_400) as u32))
                .collect(),
            last: 0.0,
        };
        r.turn();
        r
    }

    /// Time one turn of the loop; returns the mean of this reading and
    /// the one before it: the loop's time around what ran in between.
    pub fn turn(&mut self) -> f64 {
        // Rebuilt every turn so that every turn does the same work.
        let mut heap: BinaryHeap<u64> =
            (0..1u64 << 17).map(|i| u64::MAX - (mix(i) >> 27)).collect();
        let t = Instant::now();
        chase(&mut self.buf, 400_000);
        hold(&mut heap, 450_000);
        kernel_sums(&self.points, 7_000);
        scan(&self.queue, 1_200);
        let before = std::mem::replace(&mut self.last, t.elapsed().as_secs_f64());
        (before + self.last) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_turn_reports_the_mean_of_the_last_two_readings() {
        let mut r = Reference::new();
        let first = r.last;
        let mean = r.turn();
        assert!(first > 0.0 && r.last > 0.0);
        assert!((mean - (first + r.last) / 2.0).abs() < 1e-12);
    }
}
