//! Minimal dense linear algebra: just enough for ridge-style closed forms
//! plus the flat row-major [`Matrix`] backing the kernel-method hot paths.
//!
//! Feature vectors in this project are tiny (five features, paper
//! Table IV), so an `O(d³)` Cholesky solve on a `Vec<Vec<f64>>` is both
//! simple and fast. Kernel matrices are a different story: an SVR fit over
//! an n-sample cluster walks an n×n Gram matrix every iteration, where a
//! `Vec<Vec<f64>>` costs one pointer chase per row and scatters rows across
//! the heap. [`Matrix`] stores those in one contiguous allocation, and
//! [`rbf_gram`] builds RBF Grams from precomputed squared norms
//! (`‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b`) so the inner loop is a plain dot
//! product.

use std::collections::HashMap;

/// Solve `A x = b` for symmetric positive-definite `A` via Cholesky
/// decomposition. Returns `None` when `A` is not positive definite.
#[allow(clippy::needless_range_loop)] // index triples read clearer here
pub fn cholesky_solve(a: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
    let n = a.len();
    assert!(a.iter().all(|row| row.len() == n), "matrix must be square");
    assert_eq!(b.len(), n);
    // Decompose A = L Lᵀ.
    let mut l = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i][j];
            for k in 0..j {
                sum -= l[i][k] * l[j][k];
            }
            if i == j {
                if sum <= 0.0 {
                    return None;
                }
                l[i][j] = sum.sqrt();
            } else {
                l[i][j] = sum / l[j][j];
            }
        }
    }
    // Forward solve L y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i][k] * y[k];
        }
        y[i] = sum / l[i][i];
    }
    // Back solve Lᵀ x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= l[k][i] * x[k];
        }
        x[i] = sum / l[i][i];
    }
    Some(x)
}

/// `XᵀX + ridge·I` and `Xᵀy` for design matrix `x` (rows are samples) —
/// the normal equations of ridge regression.
#[allow(clippy::needless_range_loop)] // symmetric fill via index pairs
pub fn normal_equations(x: &[Vec<f64>], y: &[f64], ridge: f64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let n = x.len();
    assert_eq!(n, y.len());
    let d = x.first().map(|r| r.len()).unwrap_or(0);
    let mut xtx = vec![vec![0.0; d]; d];
    let mut xty = vec![0.0; d];
    for (row, &target) in x.iter().zip(y) {
        assert_eq!(row.len(), d, "ragged design matrix");
        for i in 0..d {
            xty[i] += row[i] * target;
            for j in 0..=i {
                xtx[i][j] += row[i] * row[j];
            }
        }
    }
    for i in 0..d {
        for j in 0..i {
            xtx[j][i] = xtx[i][j];
        }
        xtx[i][i] += ridge;
    }
    (xtx, xty)
}

/// A dense row-major matrix in one contiguous allocation.
///
/// Rows are `cols`-long windows of a single `Vec<f64>`, so iterating a row
/// is a slice walk (no per-row pointer chase) and iterating consecutive
/// rows streams linearly through memory — the access pattern of every
/// kernel-matrix loop in this crate.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Copy a `Vec<Vec<f64>>`-style list of rows into flat storage.
    /// Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        let cols = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged row in Matrix::from_rows");
            data.extend_from_slice(r);
        }
        Matrix {
            data,
            rows: rows.len(),
            cols,
        }
    }

    /// Collapse bitwise-identical rows: the distinct rows in
    /// first-occurrence order and, for every input row, the index of the
    /// distinct row it equals. Panics on ragged input.
    pub fn from_distinct_rows(rows: &[Vec<f64>]) -> (Matrix, Vec<usize>) {
        let cols = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut seen: HashMap<Vec<u64>, usize> = HashMap::with_capacity(rows.len());
        let mut data = Vec::new();
        let group = rows.iter().map(|r| {
            assert_eq!(r.len(), cols, "ragged row in Matrix::from_distinct_rows");
            let next = seen.len();
            let bits = r.iter().map(|v| v.to_bits()).collect();
            *seen.entry(bits).or_insert_with(|| {
                data.extend_from_slice(r);
                next
            })
        });
        let group = group.collect();
        (Matrix::from_flat(data, seen.len(), cols), group)
    }

    /// Build from flat row-major data. Panics when `data.len() != rows*cols`.
    pub fn from_flat(data: Vec<f64>, rows: usize, cols: usize) -> Matrix {
        assert_eq!(data.len(), rows * cols, "flat data does not match shape");
        Matrix { data, rows, cols }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Set entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// The whole storage as one flat slice (row-major).
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Iterator over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Squared Euclidean norm of every row.
    pub fn row_sq_norms(&self) -> Vec<f64> {
        self.iter_rows().map(|r| dot(r, r)).collect()
    }

    /// Keep only the rows whose index satisfies `keep`, compacting in
    /// place (used to prune zero-coefficient support vectors).
    pub fn retain_rows(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let cols = self.cols;
        let mut write = 0usize;
        for read in 0..self.rows {
            if keep(read) {
                if write != read {
                    self.data
                        .copy_within(read * cols..(read + 1) * cols, write * cols);
                }
                write += 1;
            }
        }
        self.rows = write;
        self.data.truncate(write * cols);
    }
}

/// The RBF Gram matrix `Kᵢⱼ = exp(-γ‖xᵢ−xⱼ‖²)` of the rows of `x`,
/// built from precomputed squared norms: `‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b`.
/// Only the lower triangle is computed; the upper is mirrored. The norm
/// expansion can go ε-negative under cancellation, so distances clamp at
/// zero.
pub fn rbf_gram(x: &Matrix, gamma: f64) -> Matrix {
    let n = x.rows();
    let norms = x.row_sq_norms();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        let xi = x.row(i);
        for j in 0..=i {
            let d2 = (norms[i] + norms[j] - 2.0 * dot_unrolled(xi, x.row(j))).max(0.0);
            let v = (-gamma * d2).exp();
            k.set(i, j, v);
            k.set(j, i, v);
        }
    }
    k
}

/// The linear Gram matrix `Kᵢⱼ = xᵢ·xⱼ` of the rows of `x`.
pub fn linear_gram(x: &Matrix) -> Matrix {
    let n = x.rows();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        let xi = x.row(i);
        for j in 0..=i {
            let v = dot_unrolled(xi, x.row(j));
            k.set(i, j, v);
            k.set(j, i, v);
        }
    }
    k
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Dot product over four independent accumulators.
///
/// A plain [`dot`] is a serial FP-add chain the compiler must not
/// reassociate, so it runs at one add per FLOP-latency. Splitting the
/// reduction across four accumulators keeps four multiplies in flight
/// (and lets the backend vectorize the chunked loop). On x86-64 hosts
/// with AVX2+FMA (detected once at runtime) this dispatches to a fused
/// multiply-add kernel with four 256-bit accumulators. Either way the
/// summation order (and FMA rounding) differs from [`dot`] by a few
/// ulps — callers on the kernel-method hot paths budget `1e-9` of drift
/// for exactly this.
pub fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if a.len() >= SIMD_MIN_LEN && simd::available() {
        // SAFETY: `available()` verified AVX2 and FMA support on this CPU.
        return unsafe { simd::dot_fma(a, b) };
    }
    dot_unrolled_portable(a, b)
}

/// Below this length the call + dispatch overhead of the AVX2 kernels
/// outweighs their throughput; short vectors (e.g. the ~8-dim feature
/// rows) stay on the inlinable portable paths.
const SIMD_MIN_LEN: usize = 16;

fn dot_unrolled_portable(a: &[f64], b: &[f64]) -> f64 {
    let quads = a.len() / 4 * 4;
    let (a4, a_tail) = a.split_at(quads);
    let (b4, b_tail) = b.split_at(quads);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        s0 += ca[0] * cb[0];
        s1 += ca[1] * cb[1];
        s2 += ca[2] * cb[2];
        s3 += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (x, y) in a_tail.iter().zip(b_tail) {
        tail += x * y;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// `kb = K·β` for symmetric `K` (its leading `n×n` block, `n = beta.len()`),
/// touching each stored entry of the lower triangle exactly once.
///
/// A plain row-times-vector pass streams the whole n×n matrix through the
/// cache every iteration; since `K` is symmetric, each row prefix also *is*
/// the mirrored column, so accumulating both the dot (`kb[i] += K[i,j]·β[j]`)
/// and the scatter (`kb[j] += K[i,j]·β[i]`) while the prefix is hot halves
/// the memory traffic. On AVX2+FMA hosts the whole triangular sweep runs
/// behind a single dispatched call so short row prefixes pay no per-row
/// call overhead.
pub fn sym_matvec(k: &Matrix, beta: &[f64], kb: &mut [f64]) {
    let n = beta.len();
    assert!(k.rows() >= n && k.cols() >= n, "gram smaller than beta");
    assert_eq!(kb.len(), n);
    #[cfg(target_arch = "x86_64")]
    if n >= SIMD_MIN_LEN && simd::available() {
        // SAFETY: `available()` verified AVX2 and FMA support on this CPU.
        unsafe { simd::sym_matvec_fma(k.as_flat(), k.cols(), beta, kb) };
        return;
    }
    kb.fill(0.0);
    for i in 0..n {
        let row = &k.row(i)[..i];
        let bi = beta[i];
        let s = dot_unrolled_portable(row, &beta[..i]);
        for (kbj, kij) in kb[..i].iter_mut().zip(row) {
            *kbj += bi * kij;
        }
        kb[i] += s + k.get(i, i) * bi;
    }
}

/// The per-sample passes of one SVR dual iteration ([`crate::svr`]) on
/// the AVX2 kernels: each does every quad `i < n/4·4` and returns the four
/// lane sums of what it wrote, or `None` — nothing written — where the CPU
/// lacks AVX2 and the caller's scalar loop does every index. Same bits
/// either way.
///
/// `out[i] = soft(β[i] + η·(y[i] − kb[group[i]]), t)`.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn svr_gradient_quads(
    beta: &[f64],
    y: &[f64],
    kb: &[f64],
    group: &[usize],
    eta: f64,
    t: f64,
    out: &mut [f64],
) -> Option<[f64; 4]> {
    #[cfg(target_arch = "x86_64")]
    if simd::available() {
        // SAFETY: `available()` verified AVX2 support on this CPU.
        return Some(unsafe { simd::svr_gradient(beta, y, kb, group, eta, t, out) });
    }
    None
}

/// `buf[i] = (buf[i] − mean).clamp(−c, c)`, as [`svr_gradient_quads`].
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn svr_project_quads(buf: &mut [f64], mean: f64, c: f64) -> Option<[f64; 4]> {
    #[cfg(target_arch = "x86_64")]
    if simd::available() {
        // SAFETY: `available()` verified AVX2 support on this CPU.
        return Some(unsafe { simd::svr_project(buf, mean, c) });
    }
    None
}

/// The last projection round committed — `v = (buf[i] − mean).clamp(−c,
/// c)`, `buf[i] = |v − β[i]|`, `β[i] = v`, `group_beta[group[i]] += v` —
/// as [`svr_gradient_quads`]; the lanes sum `|Δβ|`.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn svr_commit_quads(
    buf: &mut [f64],
    beta: &mut [f64],
    mean: f64,
    c: f64,
    group: &[usize],
    group_beta: &mut [f64],
) -> Option<[f64; 4]> {
    #[cfg(target_arch = "x86_64")]
    if simd::available() {
        // SAFETY: `available()` verified AVX2 support on this CPU.
        return Some(unsafe { simd::svr_commit(buf, beta, mean, c, group, group_beta) });
    }
    None
}

/// Runtime-dispatched AVX2+FMA kernels for the Gram/matvec hot paths.
///
/// The workspace builds for the baseline x86-64 target (SSE2), which caps
/// a dot product at two f64 lanes with separate multiply and add. These
/// kernels are compiled for AVX2+FMA behind `#[target_feature]` and only
/// ever called after a cached CPUID check, so the same binary runs on
/// pre-AVX2 hosts through the portable fallbacks above.
#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::*;

    /// Whether this CPU (and OS) supports the AVX2+FMA kernels. Detected
    /// once via CPUID/XGETBV and cached; this std build ships without
    /// `std_detect`, so the check is spelled out by hand.
    #[inline]
    pub fn available() -> bool {
        static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVAILABLE.get_or_init(detect)
    }

    fn detect() -> bool {
        // Leaf 1 ECX: bit 12 = FMA, bit 27 = OSXSAVE, bit 28 = AVX.
        if __cpuid(0).eax < 7 {
            return false;
        }
        let ecx = __cpuid(1).ecx;
        let (fma, osxsave, avx) = ((ecx >> 12) & 1, (ecx >> 27) & 1, (ecx >> 28) & 1);
        if fma & osxsave & avx != 1 {
            return false;
        }
        // The OS must have enabled XMM+YMM state saving (XCR0 bits 1–2);
        // OSXSAVE above guarantees XGETBV itself is legal to execute.
        // SAFETY: OSXSAVE is set, so the xgetbv instruction is available.
        if unsafe { xgetbv0() } & 0x6 != 0x6 {
            return false;
        }
        // Leaf 7 subleaf 0 EBX: bit 5 = AVX2.
        (__cpuid_count(7, 0).ebx >> 5) & 1 == 1
    }

    /// # Safety
    /// CPUID must report OSXSAVE (leaf 1, ECX bit 27).
    #[target_feature(enable = "xsave")]
    unsafe fn xgetbv0() -> u64 {
        _xgetbv(0)
    }

    /// `Σ a[i]·b[i]` with four 256-bit FMA accumulators (16 doubles in
    /// flight, enough to cover the ~4-cycle FMA latency at 2/cycle).
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (check [`available`]).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_fma(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 16 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 4)),
                _mm256_loadu_pd(bp.add(i + 4)),
                acc1,
            );
            acc2 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 8)),
                _mm256_loadu_pd(bp.add(i + 8)),
                acc2,
            );
            acc3 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 12)),
                _mm256_loadu_pd(bp.add(i + 12)),
                acc3,
            );
            i += 16;
        }
        while i + 4 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), acc0);
            i += 4;
        }
        let acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        while i < n {
            s += *ap.add(i) * *bp.add(i);
            i += 1;
        }
        s
    }

    /// The symmetric triangular matvec of [`super::sym_matvec`], entirely
    /// inside one AVX2+FMA compilation context so no per-row dispatch or
    /// call overhead remains. Rows are processed in pairs: one fused pass
    /// over the shared prefix `j < i` computes both rows' dots and both
    /// scatters, so `beta` and `kb` stream through the registers once per
    /// two rows instead of once per row. The scatter applies row `i`'s
    /// FMA before row `i+1`'s — the exact op sequence of two sequential
    /// axpys, so pairing does not change a single rounding.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (check [`available`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sym_matvec_fma(flat: &[f64], stride: usize, beta: &[f64], kb: &mut [f64]) {
        let n = beta.len();
        kb.fill(0.0);
        let (bp, kbp, fp) = (beta.as_ptr(), kb.as_mut_ptr(), flat.as_ptr());
        let mut i = 0usize;
        while i + 2 <= n {
            let r0 = fp.add(i * stride);
            let r1 = fp.add((i + 1) * stride);
            let (bi0, bi1) = (*bp.add(i), *bp.add(i + 1));
            let (v0, v1) = (_mm256_set1_pd(bi0), _mm256_set1_pd(bi1));
            let mut s0a = _mm256_setzero_pd();
            let mut s0b = _mm256_setzero_pd();
            let mut s1a = _mm256_setzero_pd();
            let mut s1b = _mm256_setzero_pd();
            let mut j = 0usize;
            while j + 8 <= i {
                let ra0 = _mm256_loadu_pd(r0.add(j));
                let rb0 = _mm256_loadu_pd(r1.add(j));
                let be0 = _mm256_loadu_pd(bp.add(j));
                let y0 = _mm256_loadu_pd(kbp.add(j));
                s0a = _mm256_fmadd_pd(ra0, be0, s0a);
                s1a = _mm256_fmadd_pd(rb0, be0, s1a);
                _mm256_storeu_pd(
                    kbp.add(j),
                    _mm256_fmadd_pd(v1, rb0, _mm256_fmadd_pd(v0, ra0, y0)),
                );
                let ra1 = _mm256_loadu_pd(r0.add(j + 4));
                let rb1 = _mm256_loadu_pd(r1.add(j + 4));
                let be1 = _mm256_loadu_pd(bp.add(j + 4));
                let y1 = _mm256_loadu_pd(kbp.add(j + 4));
                s0b = _mm256_fmadd_pd(ra1, be1, s0b);
                s1b = _mm256_fmadd_pd(rb1, be1, s1b);
                _mm256_storeu_pd(
                    kbp.add(j + 4),
                    _mm256_fmadd_pd(v1, rb1, _mm256_fmadd_pd(v0, ra1, y1)),
                );
                j += 8;
            }
            while j + 4 <= i {
                let ra = _mm256_loadu_pd(r0.add(j));
                let rb = _mm256_loadu_pd(r1.add(j));
                let be = _mm256_loadu_pd(bp.add(j));
                let y = _mm256_loadu_pd(kbp.add(j));
                s0a = _mm256_fmadd_pd(ra, be, s0a);
                s1a = _mm256_fmadd_pd(rb, be, s1a);
                _mm256_storeu_pd(
                    kbp.add(j),
                    _mm256_fmadd_pd(v1, rb, _mm256_fmadd_pd(v0, ra, y)),
                );
                j += 4;
            }
            let sv0 = _mm256_add_pd(s0a, s0b);
            let sv1 = _mm256_add_pd(s1a, s1b);
            let mut l0 = [0.0f64; 4];
            let mut l1 = [0.0f64; 4];
            _mm256_storeu_pd(l0.as_mut_ptr(), sv0);
            _mm256_storeu_pd(l1.as_mut_ptr(), sv1);
            let mut s0 = (l0[0] + l0[1]) + (l0[2] + l0[3]);
            let mut s1 = (l1[0] + l1[1]) + (l1[2] + l1[3]);
            while j < i {
                let bj = *bp.add(j);
                s0 = (*r0.add(j)).mul_add(bj, s0);
                s1 = (*r1.add(j)).mul_add(bj, s1);
                *kbp.add(j) = (*r1.add(j)).mul_add(bi1, (*r0.add(j)).mul_add(bi0, *kbp.add(j)));
                j += 1;
            }
            // Diagonal block: K[i][i], K[i+1][i] (mirrored), K[i+1][i+1].
            let kii = *r0.add(i);
            let k10 = *r1.add(i);
            let k11 = *r1.add(i + 1);
            *kbp.add(i) += s0 + kii * bi0 + k10 * bi1;
            *kbp.add(i + 1) += (s1 + k10 * *bp.add(i)) + k11 * bi1;
            i += 2;
        }
        if i < n {
            let row = &flat[i * stride..i * stride + i];
            let bi = beta[i];
            let s = dot_fma(row, &beta[..i]);
            axpy_fma(bi, row, &mut kb[..i]);
            kb[i] += s + flat[i * stride + i] * bi;
        }
    }

    /// `y[..] += alpha·x[..]` with 256-bit FMA.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (check [`available`]).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy_fma(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len().min(y.len());
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let va = _mm256_set1_pd(alpha);
        let mut i = 0usize;
        while i + 8 <= n {
            let y0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            let y1 = _mm256_fmadd_pd(
                va,
                _mm256_loadu_pd(xp.add(i + 4)),
                _mm256_loadu_pd(yp.add(i + 4)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + 4), y1);
            i += 8;
        }
        while i + 4 <= n {
            let y0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            _mm256_storeu_pd(yp.add(i), y0);
            i += 4;
        }
        while i < n {
            *yp.add(i) += alpha * *xp.add(i);
            i += 1;
        }
    }

    // The kernels behind `super::svr_*_quads`: lane `i mod 4` sums in index
    // order, as the SVR's four-lane sums add them. Unlike the FMA kernels above,
    // every op is one IEEE operation per element (multiply then add;
    // `andnot`/`max`/`or` for the soft threshold; `max`/`min` for the
    // clamp, operands ordered so a NaN passes through as in `f64::clamp`),
    // so these are bit-identical to the scalar formulas.

    /// `out[i] = soft(β[i] + η·(y[i] − kb[group[i]]), t)`, where
    /// `soft(z, t) = (|z| − t)₊` with `z`'s sign.
    ///
    /// # Safety
    /// The CPU must support AVX2 (check [`available`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn svr_gradient(
        beta: &[f64],
        y: &[f64],
        kb: &[f64],
        group: &[usize],
        eta: f64,
        t: f64,
        out: &mut [f64],
    ) -> [f64; 4] {
        let n = out.len();
        assert!(beta.len() == n && y.len() == n && group.len() == n);
        // Every pointer access below is at `i..i + 4` with `i + 4 <= n`,
        // inside slices of length `n`; `kb` is indexed with bounds checks.
        let (bp, yp, op) = (beta.as_ptr(), y.as_ptr(), out.as_mut_ptr());
        let (sign, zero) = (_mm256_set1_pd(-0.0), _mm256_setzero_pd());
        let (veta, vt) = (_mm256_set1_pd(eta), _mm256_set1_pd(t));
        let mut acc = zero;
        let mut i = 0usize;
        while i + 4 <= n {
            let k = _mm256_set_pd(
                kb[group[i + 3]],
                kb[group[i + 2]],
                kb[group[i + 1]],
                kb[group[i]],
            );
            let step = _mm256_mul_pd(veta, _mm256_sub_pd(_mm256_loadu_pd(yp.add(i)), k));
            let z = _mm256_add_pd(_mm256_loadu_pd(bp.add(i)), step);
            let mag = _mm256_max_pd(_mm256_sub_pd(_mm256_andnot_pd(sign, z), vt), zero);
            let v = _mm256_or_pd(mag, _mm256_and_pd(sign, z));
            _mm256_storeu_pd(op.add(i), v);
            acc = _mm256_add_pd(acc, v);
            i += 4;
        }
        lanes(acc)
    }

    /// `buf[i] = (buf[i] − mean).clamp(−c, c)`.
    ///
    /// # Safety
    /// The CPU must support AVX2 (check [`available`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn svr_project(buf: &mut [f64], mean: f64, c: f64) -> [f64; 4] {
        let n = buf.len();
        // Every pointer access below is at `i..i + 4` with `i + 4 <= n`.
        let p = buf.as_mut_ptr();
        let (vmean, lo, hi) = (_mm256_set1_pd(mean), _mm256_set1_pd(-c), _mm256_set1_pd(c));
        let mut acc = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_sub_pd(_mm256_loadu_pd(p.add(i)), vmean);
            let v = _mm256_min_pd(hi, _mm256_max_pd(lo, x));
            _mm256_storeu_pd(p.add(i), v);
            acc = _mm256_add_pd(acc, v);
            i += 4;
        }
        lanes(acc)
    }

    /// The last projection round, committed: `v = (buf[i] − mean).clamp(−c,
    /// c)`, then `buf[i] = |v − β[i]|`, `β[i] = v` and
    /// `group_beta[group[i]] += v` in index order. The lanes sum `|Δβ|`.
    ///
    /// # Safety
    /// The CPU must support AVX2 (check [`available`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn svr_commit(
        buf: &mut [f64],
        beta: &mut [f64],
        mean: f64,
        c: f64,
        group: &[usize],
        group_beta: &mut [f64],
    ) -> [f64; 4] {
        let n = buf.len();
        assert!(beta.len() == n && group.len() == n);
        // Every pointer access below is at `i..i + 4` with `i + 4 <= n`,
        // inside slices of length `n`; `group_beta` is indexed with bounds
        // checks.
        let (p, bp) = (buf.as_mut_ptr(), beta.as_mut_ptr());
        let sign = _mm256_set1_pd(-0.0);
        let (vmean, lo, hi) = (_mm256_set1_pd(mean), _mm256_set1_pd(-c), _mm256_set1_pd(c));
        let mut acc = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_sub_pd(_mm256_loadu_pd(p.add(i)), vmean);
            let v = _mm256_min_pd(hi, _mm256_max_pd(lo, x));
            let d = _mm256_andnot_pd(sign, _mm256_sub_pd(v, _mm256_loadu_pd(bp.add(i))));
            _mm256_storeu_pd(bp.add(i), v);
            _mm256_storeu_pd(p.add(i), d);
            acc = _mm256_add_pd(acc, d);
            for (l, vl) in lanes(v).into_iter().enumerate() {
                group_beta[group[i + l]] += vl;
            }
            i += 4;
        }
        lanes(acc)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn lanes(v: __m256d) -> [f64; 4] {
        let mut out = [0.0f64; 4];
        // SAFETY: `out` holds exactly the four doubles an unaligned store writes.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), v) };
        out
    }
}

/// `Σ |aᵢ|·wᵢ` over four independent accumulators: the ‖·‖₁ norm of a
/// kernel-matrix row whose column `i` stands for `wᵢ` identical columns
/// (the row sums bounding the full matrix's spectral radius).
pub fn dot_abs_unrolled(a: &[f64], w: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), w.len());
    let quads = a.len() / 4 * 4;
    let (a4, a_tail) = a.split_at(quads);
    let (w4, w_tail) = w.split_at(quads);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (c, v) in a4.chunks_exact(4).zip(w4.chunks_exact(4)) {
        s0 += c[0].abs() * v[0];
        s1 += c[1].abs() * v[1];
        s2 += c[2].abs() * v[2];
        s3 += c[3].abs() * v[3];
    }
    let mut t = 0.0;
    for (x, v) in a_tail.iter().zip(w_tail) {
        t += x.abs() * v;
    }
    (s0 + s1) + (s2 + s3) + t
}

/// Squared Euclidean distance.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_simple_spd_system() {
        // A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5]
        let a = vec![vec![4.0, 2.0], vec![2.0, 3.0]];
        let x = cholesky_solve(&a, &[10.0, 8.0]).unwrap();
        assert!((x[0] - 1.75).abs() < 1e-12);
        assert!((x[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_spd() {
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert!(cholesky_solve(&a, &[1.0, 1.0]).is_none());
    }

    #[test]
    fn normal_equations_recover_exact_line() {
        // y = 3x + 1 with design [x, 1].
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 1.0]).collect();
        let y: Vec<f64> = (0..10).map(|i| 3.0 * i as f64 + 1.0).collect();
        let (a, b) = normal_equations(&x, &y, 1e-9);
        let w = cholesky_solve(&a, &b).unwrap();
        assert!((w[0] - 3.0).abs() < 1e-6);
        assert!((w[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dot_and_dist() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn dot_unrolled_matches_dot() {
        for n in [0usize, 1, 3, 4, 5, 8, 16, 17, 19, 32, 100] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).cos()).collect();
            let reference = dot(&a, &b);
            for unrolled in [dot_unrolled(&a, &b), dot_unrolled_portable(&a, &b)] {
                assert!(
                    (reference - unrolled).abs() <= 1e-12 * reference.abs().max(1.0),
                    "n={n}: {reference} vs {unrolled}"
                );
            }
        }
    }

    #[test]
    fn sym_matvec_matches_naive_product() {
        // Sizes straddle the SIMD dispatch threshold.
        for n in [1usize, 2, 5, 15, 16, 17, 47, 100] {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| ((i * j) as f64 * 0.13).sin() + 0.2)
                        .collect()
                })
                .collect();
            // Symmetrize.
            let mut k = Matrix::from_rows(&rows);
            for i in 0..n {
                for j in 0..i {
                    let v = k.get(i, j);
                    k.set(j, i, v);
                }
            }
            let beta: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41).cos()).collect();
            let mut kb = vec![0.0; n];
            sym_matvec(&k, &beta, &mut kb);
            for (i, &got) in kb.iter().enumerate() {
                let want = dot(k.row(i), &beta);
                assert!(
                    (got - want).abs() <= 1e-11 * want.abs().max(1.0),
                    "n={n} i={i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn matrix_round_trips_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = Matrix::from_rows(&rows);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(2, 0), 5.0);
        assert_eq!(m.as_flat(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let collected: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[2], &[5.0, 6.0]);
    }

    #[test]
    fn distinct_rows_group_by_bits_in_first_occurrence_order() {
        let rows = vec![
            vec![1.0, 0.0],
            vec![2.0, 3.0],
            vec![1.0, 0.0],
            vec![1.0, -0.0], // equal as numbers, not as bits
            vec![2.0, 3.0],
        ];
        let (m, group) = Matrix::from_distinct_rows(&rows);
        assert_eq!(group, vec![0, 1, 0, 2, 1]);
        assert_eq!(m.rows(), 3);
        for (row, &g) in rows.iter().zip(&group) {
            assert_eq!(m.row(g), row.as_slice());
        }
        let (empty, group) = Matrix::from_distinct_rows(&[]);
        assert_eq!((empty.rows(), group.len()), (0, 0));
    }

    #[test]
    fn matrix_retain_rows_compacts() {
        let mut m = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![2.0, 2.0],
            vec![3.0, 3.0],
        ]);
        m.retain_rows(|i| i % 2 == 1);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), &[1.0, 1.0]);
        assert_eq!(m.row(1), &[3.0, 3.0]);
    }

    #[test]
    fn rbf_gram_matches_pairwise_eval() {
        let rows = vec![
            vec![0.3, -1.2, 4.0],
            vec![2.0, 0.1, -0.7],
            vec![-3.0, 2.2, 1.1],
            vec![0.3, -1.2, 4.0], // duplicate: diagonal-like entry of 1
        ];
        let gamma = 0.7;
        let k = rbf_gram(&Matrix::from_rows(&rows), gamma);
        for i in 0..rows.len() {
            assert!((k.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..rows.len() {
                let direct = (-gamma * sq_dist(&rows[i], &rows[j])).exp();
                assert!(
                    (k.get(i, j) - direct).abs() < 1e-12,
                    "K[{i}][{j}] = {} vs direct {direct}",
                    k.get(i, j)
                );
                assert_eq!(k.get(i, j), k.get(j, i));
            }
        }
    }

    #[test]
    fn linear_gram_matches_pairwise_dot() {
        let rows = vec![vec![1.0, 2.0], vec![-0.5, 3.0], vec![4.0, 0.0]];
        let k = linear_gram(&Matrix::from_rows(&rows));
        for i in 0..rows.len() {
            for j in 0..rows.len() {
                assert!((k.get(i, j) - dot(&rows[i], &rows[j])).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn row_sq_norms_match_dot() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0], vec![1.0, -1.0]]);
        let n = m.row_sq_norms();
        assert_eq!(n, vec![25.0, 2.0]);
    }
}
