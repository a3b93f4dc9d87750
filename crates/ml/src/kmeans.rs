//! K-means++ clustering and the elbow method (paper §V-A: "we use
//! K-means++ for clustering … the classical elbow method to calculate the
//! optimal value of K, K = 15 in our case").

use crate::linalg::{dot, sq_dist, Matrix};
use rand::rngs::StdRng;
use rand::RngExt;
use simclock::rng::{stream_rng, weighted_index};

/// A fitted K-means model.
#[derive(Clone, Debug)]
pub struct KMeans {
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances of every point to its centroid (inertia).
    pub inertia: f64,
    /// Assignment of each training point to a centroid index.
    pub labels: Vec<usize>,
}

impl KMeans {
    /// Fit `k` clusters to `points` with K-means++ seeding, up to
    /// `max_iter` Lloyd iterations. `k` is clamped to `1..=points.len()`.
    pub fn fit(points: &[Vec<f64>], k: usize, max_iter: usize, seed: u64) -> KMeans {
        assert!(!points.is_empty(), "cannot cluster zero points");
        let k = k.clamp(1, points.len());
        let mut rng = stream_rng(seed, 0x4B);
        // Recurrent jobs repeat feature rows bit for bit, and copies have
        // the same distances to every centroid: the seeding's distance
        // refresh and the assign step run once per distinct row, and the
        // per-point arrays take their group's value.
        let (rows, group) = Matrix::from_distinct_rows(points);
        // Seeding is kept byte-identical to the original implementation:
        // the weighted draws consume the RNG stream in a d2-dependent
        // order, so any change here would silently change every result.
        let seeded = plus_plus_init(&rows, &group, k, &mut rng);
        let d = rows.cols();

        // Lloyd iterations over flat row-major storage with cached
        // centroid norms: argmin over c of ‖p−c‖² is argmin of
        // ‖c‖² − 2p·c (the ‖p‖² term is constant per point), which
        // halves the flops of the assign step. Scores accumulate
        // dimension-major over a transposed centroid block, so the inner
        // loop is a contiguous axpy across all k centroids at once — no
        // per-centroid dot products or horizontal reductions. Buffers are
        // allocated once and reused.
        let mut cm = Matrix::from_rows(&seeded);
        let mut c_norms = cm.row_sq_norms();
        let mut ct = vec![0.0; d * k]; // centroids transposed: ct[di*k + ci]
        let mut scores = vec![0.0; k];
        let mut nearest = vec![0usize; rows.rows()];
        let mut labels = vec![0usize; points.len()];
        let mut sums = vec![0.0; k * d];
        let mut counts = vec![0usize; k];
        for _ in 0..max_iter {
            // Assign, once per distinct row.
            for ci in 0..k {
                for (di, &v) in cm.row(ci).iter().enumerate() {
                    ct[di * k + ci] = v;
                }
            }
            for (g, best) in nearest.iter_mut().enumerate() {
                let p = rows.row(g);
                scores.copy_from_slice(&c_norms);
                let mut di = 0usize;
                while di + 2 <= d {
                    // Two dimensions per pass halves the score-buffer
                    // traffic relative to one axpy per dimension.
                    let t0 = -2.0 * p[di];
                    let t1 = -2.0 * p[di + 1];
                    let c0 = &ct[di * k..(di + 1) * k];
                    let c1 = &ct[(di + 1) * k..(di + 2) * k];
                    for ((s, &a), &b) in scores.iter_mut().zip(c0).zip(c1) {
                        *s += t0 * a + t1 * b;
                    }
                    di += 2;
                }
                if di < d {
                    let t = -2.0 * p[di];
                    for (s, &cv) in scores.iter_mut().zip(&ct[di * k..(di + 1) * k]) {
                        *s += t * cv;
                    }
                }
                *best = 0;
                let mut best_score = scores[0];
                for (ci, &s) in scores.iter().enumerate().skip(1) {
                    if s < best_score {
                        *best = ci;
                        best_score = s;
                    }
                }
            }
            let mut changed = false;
            for (l, &g) in labels.iter_mut().zip(&group) {
                if *l != nearest[g] {
                    *l = nearest[g];
                    changed = true;
                }
            }
            // Update. Accumulation order matches the original row-of-rows
            // code (points in index order), so means are bit-identical.
            sums.fill(0.0);
            counts.fill(0);
            for (&g, &l) in group.iter().zip(&labels) {
                counts[l] += 1;
                for (s, v) in sums[l * d..(l + 1) * d].iter_mut().zip(rows.row(g)) {
                    *s += v;
                }
            }
            for ci in 0..k {
                if counts[ci] > 0 {
                    let row = cm.row_mut(ci);
                    for (c, s) in row.iter_mut().zip(&sums[ci * d..(ci + 1) * d]) {
                        *c = s / counts[ci] as f64;
                    }
                    c_norms[ci] = dot(cm.row(ci), cm.row(ci));
                }
                // Empty clusters keep their centroid (they may capture
                // points in a later iteration).
            }
            if !changed {
                break;
            }
        }
        let centroids: Vec<Vec<f64>> = cm.iter_rows().map(|r| r.to_vec()).collect();
        // Inertia uses the exact squared distance, not the norm trick.
        let inertia = points
            .iter()
            .zip(&labels)
            .map(|(p, &l)| sq_dist(p, &centroids[l]))
            .sum();
        KMeans {
            centroids,
            inertia,
            labels,
        }
    }

    /// Index of the centroid closest to `p`.
    pub fn assign(&self, p: &[f64]) -> usize {
        nearest_centroid(p, &self.centroids).0
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }
}

fn nearest_centroid(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = sq_dist(p, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

/// K-means++ seeding: first centroid uniform, each next centroid drawn with
/// probability proportional to the squared distance from the nearest
/// already-chosen centroid. `rows` holds the distinct points and `group`
/// each point's row; the draws run over the per-point distances.
fn plus_plus_init(rows: &Matrix, group: &[usize], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let n = group.len();
    let mut centroids = Vec::with_capacity(k);
    centroids.push(rows.row(group[rng.random_range(0..n)]).to_vec());
    let mut row_d2: Vec<f64> = (0..rows.rows())
        .map(|g| sq_dist(rows.row(g), &centroids[0]))
        .collect();
    let mut d2: Vec<f64> = group.iter().map(|&g| row_d2[g]).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= 0.0 {
            // All remaining points coincide with a centroid; pick uniformly.
            rng.random_range(0..n)
        } else {
            weighted_index(rng, &d2)
        };
        centroids.push(rows.row(group[idx]).to_vec());
        let last = centroids.last().expect("just pushed");
        for (g, d) in row_d2.iter_mut().enumerate() {
            *d = d.min(sq_dist(rows.row(g), last));
        }
        for (d, &g) in d2.iter_mut().zip(group) {
            *d = row_d2[g];
        }
    }
    centroids
}

/// The elbow method: fit K-means for every `k` in `1..=k_max` and pick the
/// `k` whose inertia point is farthest from the line joining the first and
/// last inertia points (the "knee").
pub fn elbow_k(points: &[Vec<f64>], k_max: usize, seed: u64) -> usize {
    let k_max = k_max.clamp(1, points.len());
    if k_max <= 2 {
        return k_max;
    }
    let inertias: Vec<f64> = (1..=k_max)
        .map(|k| KMeans::fit(points, k, 50, seed).inertia)
        .collect();
    // Distance of each (k, inertia) to the chord, in normalized coords.
    let (x0, y0) = (1.0, inertias[0]);
    let (x1, y1) = (k_max as f64, inertias[k_max - 1]);
    let y_scale = (y0 - y1).abs().max(1e-12);
    let x_scale = (x1 - x0).max(1e-12);
    let mut best = (1usize, f64::NEG_INFINITY);
    for (i, &inertia) in inertias.iter().enumerate() {
        let x = (1.0 + i as f64 - x0) / x_scale;
        let y = (inertia - y1) / y_scale; // 0 at the end, ~1 at the start
                                          // Chord from (0,1) to (1,0): distance ∝ 1 - x - y (signed).
        let d = 1.0 - x - y;
        if d > best.1 {
            best = (i + 1, d);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs in 2-D.
    fn blobs(per: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = stream_rng(seed, 1);
        let centers = [[0.0, 0.0], [10.0, 10.0], [-10.0, 8.0]];
        let mut pts = Vec::new();
        let mut truth = Vec::new();
        for (ci, c) in centers.iter().enumerate() {
            for _ in 0..per {
                pts.push(vec![
                    c[0] + simclock::rng::normal(&mut rng, 0.0, 0.5),
                    c[1] + simclock::rng::normal(&mut rng, 0.0, 0.5),
                ]);
                truth.push(ci);
            }
        }
        (pts, truth)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (pts, truth) = blobs(50, 3);
        let km = KMeans::fit(&pts, 3, 100, 7);
        // Every ground-truth blob maps to exactly one k-means label.
        for blob in 0..3 {
            let labels: std::collections::HashSet<usize> = truth
                .iter()
                .zip(&km.labels)
                .filter(|(t, _)| **t == blob)
                .map(|(_, l)| *l)
                .collect();
            assert_eq!(labels.len(), 1, "blob {blob} split across clusters");
        }
        assert!(km.inertia < 200.0, "inertia {}", km.inertia);
    }

    #[test]
    fn assign_matches_training_labels() {
        let (pts, _) = blobs(30, 5);
        let km = KMeans::fit(&pts, 3, 100, 9);
        for (p, &l) in pts.iter().zip(&km.labels) {
            assert_eq!(km.assign(p), l);
        }
    }

    #[test]
    fn k_clamped_to_point_count() {
        let pts = vec![vec![1.0], vec![2.0]];
        let km = KMeans::fit(&pts, 10, 10, 1);
        assert_eq!(km.k(), 2);
    }

    #[test]
    fn identical_points_dont_panic() {
        let pts = vec![vec![3.0, 3.0]; 20];
        let km = KMeans::fit(&pts, 4, 10, 2);
        assert_eq!(km.inertia, 0.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let (pts, _) = blobs(40, 8);
        let a = KMeans::fit(&pts, 3, 100, 42);
        let b = KMeans::fit(&pts, 3, 100, 42);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.inertia, b.inertia);
    }

    /// The fit as it was before the seeding refresh and the assign step
    /// went per distinct row: both per point.
    fn oracle_fit(points: &[Vec<f64>], k: usize, max_iter: usize, seed: u64) -> KMeans {
        let k = k.clamp(1, points.len());
        let mut rng = stream_rng(seed, 0x4B);
        let mut seeded = vec![points[rng.random_range(0..points.len())].clone()];
        let mut d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &seeded[0])).collect();
        while seeded.len() < k {
            let total: f64 = d2.iter().sum();
            let idx = if total <= 0.0 {
                rng.random_range(0..points.len())
            } else {
                weighted_index(&mut rng, &d2)
            };
            seeded.push(points[idx].clone());
            for (d, p) in d2.iter_mut().zip(points) {
                *d = d.min(sq_dist(p, seeded.last().expect("just pushed")));
            }
        }
        let d = points[0].len();
        let pm = Matrix::from_rows(points);
        let mut cm = Matrix::from_rows(&seeded);
        let mut c_norms = cm.row_sq_norms();
        let mut ct = vec![0.0; d * k];
        let mut scores = vec![0.0; k];
        let mut labels = vec![0usize; points.len()];
        let mut sums = vec![0.0; k * d];
        let mut counts = vec![0usize; k];
        for _ in 0..max_iter {
            for ci in 0..k {
                for (di, &v) in cm.row(ci).iter().enumerate() {
                    ct[di * k + ci] = v;
                }
            }
            let mut changed = false;
            for (i, p) in pm.iter_rows().enumerate() {
                scores.copy_from_slice(&c_norms);
                let mut di = 0usize;
                while di + 2 <= d {
                    let t0 = -2.0 * p[di];
                    let t1 = -2.0 * p[di + 1];
                    let c0 = &ct[di * k..(di + 1) * k];
                    let c1 = &ct[(di + 1) * k..(di + 2) * k];
                    for ((s, &a), &b) in scores.iter_mut().zip(c0).zip(c1) {
                        *s += t0 * a + t1 * b;
                    }
                    di += 2;
                }
                if di < d {
                    let t = -2.0 * p[di];
                    for (s, &cv) in scores.iter_mut().zip(&ct[di * k..(di + 1) * k]) {
                        *s += t * cv;
                    }
                }
                let mut best = 0usize;
                let mut best_score = scores[0];
                for (ci, &s) in scores.iter().enumerate().skip(1) {
                    if s < best_score {
                        best = ci;
                        best_score = s;
                    }
                }
                if labels[i] != best {
                    labels[i] = best;
                    changed = true;
                }
            }
            sums.fill(0.0);
            counts.fill(0);
            for (p, &l) in pm.iter_rows().zip(&labels) {
                counts[l] += 1;
                for (s, v) in sums[l * d..(l + 1) * d].iter_mut().zip(p) {
                    *s += v;
                }
            }
            for ci in 0..k {
                if counts[ci] > 0 {
                    let row = cm.row_mut(ci);
                    for (c, s) in row.iter_mut().zip(&sums[ci * d..(ci + 1) * d]) {
                        *c = s / counts[ci] as f64;
                    }
                    c_norms[ci] = dot(cm.row(ci), cm.row(ci));
                }
            }
            if !changed {
                break;
            }
        }
        let centroids: Vec<Vec<f64>> = cm.iter_rows().map(|r| r.to_vec()).collect();
        let inertia = points
            .iter()
            .zip(&labels)
            .map(|(p, &l)| sq_dist(p, &centroids[l]))
            .sum();
        KMeans {
            centroids,
            inertia,
            labels,
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Points on a coarse grid, most of them copies, many of them
            /// equidistant from two centroids: labels, centroids and
            /// inertia equal the per-point oracle's to the bit.
            #[test]
            fn per_row_fit_matches_the_per_point_oracle_bit_for_bit(
                cells in prop::collection::vec((-3i64..4, -3i64..4, 1usize..12), 1..40),
                k in 1usize..8,
                scale in prop::sample::select(&[1.0f64, 0.1, 1e-3]),
                seed in 0u64..1000,
            ) {
                let mut rng = stream_rng(seed, 2);
                let mut pts = Vec::new();
                for &(a, b, copies) in &cells {
                    for _ in 0..copies {
                        pts.push(vec![a as f64 * scale, b as f64 * scale]);
                    }
                }
                for i in (1..pts.len()).rev() {
                    pts.swap(i, rng.random_range(0..=i));
                }
                let got = KMeans::fit(&pts, k, 60, seed);
                let want = oracle_fit(&pts, k, 60, seed);
                prop_assert_eq!(&got.labels, &want.labels);
                let bits = |c: &[Vec<f64>]| -> Vec<u64> {
                    c.iter().flatten().map(|v| v.to_bits()).collect()
                };
                prop_assert_eq!(bits(&got.centroids), bits(&want.centroids));
                prop_assert_eq!(got.inertia.to_bits(), want.inertia.to_bits());
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Every point is assigned to its nearest centroid, and the
            /// label array covers exactly the inputs.
            #[test]
            fn assignments_are_nearest(
                pts in prop::collection::vec(
                    prop::collection::vec(-100.0f64..100.0, 2),
                    2..60,
                ),
                k in 1usize..6,
                seed in 0u64..100,
            ) {
                let km = KMeans::fit(&pts, k, 30, seed);
                prop_assert_eq!(km.labels.len(), pts.len());
                for (p, &l) in pts.iter().zip(&km.labels) {
                    let d_assigned = crate::linalg::sq_dist(p, &km.centroids[l]);
                    for c in &km.centroids {
                        prop_assert!(
                            d_assigned <= crate::linalg::sq_dist(p, c) + 1e-9
                        );
                    }
                }
                prop_assert!(km.inertia >= 0.0);
            }
        }
    }

    #[test]
    fn elbow_finds_three_blobs() {
        let (pts, _) = blobs(60, 11);
        let k = elbow_k(&pts, 10, 5);
        assert!((2..=4).contains(&k), "elbow picked k={k}");
    }
}
