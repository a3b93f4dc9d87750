//! Feature extraction: paper Table IV.
//!
//! | # | Feature                      | Type    |
//! |---|------------------------------|---------|
//! | 1 | Job name                     | String  |
//! | 2 | User name                    | String  |
//! | 3 | Required nodes               | Integer |
//! | 4 | Required cores               | Integer |
//! | 5 | Submission time (hours only) | Integer |
//!
//! String features are embedded as stable hashes scaled to `[0, 1)`; the
//! clustering stage groups jobs with identical names/users together, after
//! which the per-cluster SVR sees locally meaningful numeric features.
//! Node/core counts enter in log scale (job sizes span four orders of
//! magnitude).

use workload::Job;

/// Number of features per job. The job name occupies three independently
/// salted hash dimensions: a single hash axis cannot separate the
/// thousands of distinct names a production window contains (nearest
/// neighbours collide under any usable kernel bandwidth), while three
/// axes keep distinct names far apart and identical names at distance
/// zero.
pub const N_FEATURES: usize = 7;

/// Post-standardization importance weights. The job name dimensions
/// dominate (they identify the application); the submission hour is a
/// weak prior — without down-weighting it, a familiar job submitted at an
/// unusual hour would land in the wrong cluster and miss its history.
pub const FEATURE_WEIGHTS: [f64; N_FEATURES] = [2.0, 2.0, 2.0, 1.0, 1.5, 1.5, 0.02];

/// Apply [`FEATURE_WEIGHTS`] to a standardized feature vector.
pub fn apply_weights(scaled: &[f64]) -> Vec<f64> {
    scaled
        .iter()
        .zip(FEATURE_WEIGHTS)
        .map(|(v, w)| v * w)
        .collect()
}

/// FNV-1a, stable across runs and platforms (unlike `DefaultHasher`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The top 53 bits of a hash as a fraction in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Hash a string into `[0, 1)`.
pub fn hash01(s: &str) -> f64 {
    unit(fnv1a(s.as_bytes()))
}

/// `hash01(&format!("u{user}"))` without building the `String`: the same
/// bytes, written into a stack buffer from the last digit backwards.
fn hash01_user(user: u64) -> f64 {
    let mut buf = [0u8; 21]; // 'u' + the 20 digits of u64::MAX
    let mut at = buf.len();
    let mut rest = user;
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    at -= 1;
    buf[at] = b'u';
    unit(fnv1a(&buf[at..]))
}

/// Salted variant of [`hash01`], for multi-dimensional embeddings.
pub fn hash01_salted(s: &str, salt: u8) -> f64 {
    let mut h = fnv1a(s.as_bytes()) ^ (0x9E3779B97F4A7C15u64.wrapping_mul(salt as u64 + 1));
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    unit(h ^ (h >> 31))
}

/// Extract the Table IV feature vector from a job.
pub fn features(job: &Job) -> Vec<f64> {
    feature_row(job).to_vec()
}

/// [`features`] on the stack: the framework keys its per-model memo by
/// this row's bits, so a repeated job shape allocates nothing.
pub(crate) fn feature_row(job: &Job) -> [f64; N_FEATURES] {
    [
        hash01_salted(&job.name, 0),
        hash01_salted(&job.name, 1),
        hash01_salted(&job.name, 2),
        hash01_user(job.user.0.into()),
        (job.nodes.max(1) as f64).log2(),
        (job.cores().max(1) as f64).log2(),
        job.submit_hour() as f64 / 24.0,
    ]
}

/// The regression target: natural log of the runtime in seconds. Runtimes
/// are heavy-tailed; regressing the log keeps the loss balanced and makes
/// multiplicative accuracy (the EA metric) the natural error measure.
pub fn target(job: &Job) -> f64 {
    job.actual_runtime.as_secs_f64().max(1.0).ln()
}

/// Convert a predicted log-runtime back to seconds, clamped to a sane
/// positive range.
pub fn untarget(log_runtime: f64) -> f64 {
    log_runtime.clamp(0.0, 20.0).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::{SimSpan, SimTime};
    use workload::{JobId, UserId};

    fn job(name: &str, nodes: u32, runtime_s: u64) -> Job {
        Job {
            id: JobId(1),
            name: name.into(),
            user: UserId(3),
            nodes,
            cores_per_node: 12,
            submit: SimTime::from_secs(3600 * 30),
            user_estimate: None,
            actual_runtime: SimSpan::from_secs(runtime_s),
        }
    }

    #[test]
    fn feature_vector_shape_and_ranges() {
        let f = features(&job("cfd.1", 64, 100));
        assert_eq!(f.len(), N_FEATURES);
        for (i, v) in f.iter().take(4).enumerate() {
            assert!((0.0..1.0).contains(v), "feature {i} out of range");
        }
        assert_eq!(f[4], 6.0); // log2(64)
        assert!((f[6] - 6.0 / 24.0).abs() < 1e-9); // hour 6
    }

    #[test]
    fn hashing_is_stable_and_distinct() {
        assert_eq!(hash01("abc"), hash01("abc"));
        assert_ne!(hash01("abc"), hash01("abd"));
        // The three salted axes are mutually independent.
        assert_ne!(hash01_salted("abc", 0), hash01_salted("abc", 1));
        assert_ne!(hash01_salted("abc", 1), hash01_salted("abc", 2));
        assert_eq!(hash01_salted("abc", 1), hash01_salted("abc", 1));
    }

    #[test]
    fn user_hash_matches_the_formatted_spelling() {
        for user in (0..10_000).chain([u64::MAX]) {
            assert_eq!(hash01_user(user), hash01(&format!("u{user}")), "{user}");
        }
    }

    #[test]
    fn target_round_trips() {
        let j = job("a", 1, 5000);
        assert!((untarget(target(&j)) - 5000.0).abs() < 1.0);
    }

    #[test]
    fn untarget_clamps_extremes() {
        assert!(untarget(100.0) < 5e8);
        assert_eq!(untarget(-5.0), 1.0);
    }
}
