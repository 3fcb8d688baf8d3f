//! Numerically-stable softmax over the last dimension.

use tgl_runtime::{parallel_for, UnsafeSlice};

use crate::kernel::{self, Simd};
use crate::ops::rows_threshold;
use crate::pool::{self, PooledBuf};
use crate::Tensor;

/// AVX2 forward for one row: vector max / `exp256` / sum / normalize.
/// Fast-only — the horizontal reductions and polynomial exp change
/// low-order bits vs the scalar reference (still thread-invariant: the
/// arithmetic is a function of the row alone).
///
/// # Safety
///
/// Requires AVX2+FMA; `yrow.len() == row.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn softmax_row_avx2(row: &[f32], yrow: &mut [f32]) {
    use std::arch::x86_64::*;

    use crate::kernel::x86::{exp256, hmax, hsum};
    let n = row.len();
    let chunks = n / 8;
    let mut m = f32::NEG_INFINITY;
    if chunks > 0 {
        let mut vm = _mm256_loadu_ps(row.as_ptr());
        for q in 1..chunks {
            vm = _mm256_max_ps(vm, _mm256_loadu_ps(row.as_ptr().add(q * 8)));
        }
        m = hmax(vm);
    }
    for p in chunks * 8..n {
        m = m.max(*row.get_unchecked(p));
    }
    let mv = _mm256_set1_ps(m);
    let mut vsum = _mm256_setzero_ps();
    for q in 0..chunks {
        let e = exp256(_mm256_sub_ps(_mm256_loadu_ps(row.as_ptr().add(q * 8)), mv));
        _mm256_storeu_ps(yrow.as_mut_ptr().add(q * 8), e);
        vsum = _mm256_add_ps(vsum, e);
    }
    let mut sum = hsum(vsum);
    for p in chunks * 8..n {
        let e = (row.get_unchecked(p) - m).exp();
        *yrow.get_unchecked_mut(p) = e;
        sum += e;
    }
    let sv = _mm256_set1_ps(sum);
    for q in 0..chunks {
        let v = _mm256_div_ps(_mm256_loadu_ps(yrow.as_ptr().add(q * 8)), sv);
        _mm256_storeu_ps(yrow.as_mut_ptr().add(q * 8), v);
    }
    for p in chunks * 8..n {
        *yrow.get_unchecked_mut(p) /= sum;
    }
}

/// AVX2 backward for one row: `out = (go - <go, y>) * y`. Fast-only
/// (8-lane FMA dot).
///
/// # Safety
///
/// Requires AVX2+FMA; all slices have equal length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn softmax_grad_row_avx2(go: &[f32], y: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;

    use crate::kernel::x86::dot_fast;
    let dot = dot_fast(go, y);
    let n = go.len();
    let chunks = n / 8;
    let dv = _mm256_set1_ps(dot);
    for q in 0..chunks {
        let p = q * 8;
        let g = _mm256_loadu_ps(go.as_ptr().add(p));
        let yv = _mm256_loadu_ps(y.as_ptr().add(p));
        _mm256_storeu_ps(out.as_mut_ptr().add(p), _mm256_mul_ps(_mm256_sub_ps(g, dv), yv));
    }
    for p in chunks * 8..n {
        *out.get_unchecked_mut(p) = (go.get_unchecked(p) - dot) * y.get_unchecked(p);
    }
}

impl Tensor {
    /// Softmax over the last dimension.
    ///
    /// Rows are processed independently with max-subtraction for
    /// numerical stability; row blocks are partitioned across the pool
    /// (each row's arithmetic is self-contained, so results are
    /// thread-count invariant).
    ///
    /// # Panics
    ///
    /// Panics on rank-0 tensors.
    pub fn softmax_last(&self) -> Tensor {
        assert!(self.rank() >= 1, "softmax needs rank >= 1");
        let cols = self.dim(self.rank() - 1);
        let rows = self.numel() / cols;
        let device = self.device();
        let n = self.numel() as u64;
        let _prof = tgl_obs::profile::op("softmax_last")
            // max-subtract, exp, divide ≈ 5 flops/elem (exp dominates).
            .flops(5 * n)
            .io(4 * n, 8 * n)
            .shape(&[self.dims()])
            .backward_cost(4 * n, 8 * n, 4 * n);
        let fast_simd = kernel::fast() && kernel::simd() >= Simd::Avx2;
        #[cfg(not(target_arch = "x86_64"))]
        let _ = fast_simd;
        let x = self.inner.storage.read();
        // Fully overwritten row by row — recycled memory needs no zeroing.
        let mut y = pool::take_uninit(x.len(), device);
        {
            let y_sl = UnsafeSlice::new(&mut y);
            let x = &x;
            parallel_for(rows, rows_threshold(cols), |rs: std::ops::Range<usize>| {
                // SAFETY: row ranges are disjoint across chunks.
                let out = unsafe { y_sl.slice_mut(rs.start * cols, rs.len() * cols) };
                for (k, r) in rs.enumerate() {
                    let row = &x[r * cols..(r + 1) * cols];
                    let yrow = &mut out[k * cols..(k + 1) * cols];
                    #[cfg(target_arch = "x86_64")]
                    if fast_simd {
                        // SAFETY: `fast_simd` implies an AVX2-or-above level.
                        unsafe { softmax_row_avx2(row, yrow) };
                        continue;
                    }
                    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let mut sum = 0.0;
                    for (o, &v) in yrow.iter_mut().zip(row) {
                        let e = (v - m).exp();
                        *o = e;
                        sum += e;
                    }
                    for o in yrow.iter_mut() {
                        *o /= sum;
                    }
                }
            });
        }
        drop(x);
        // Backward needs the normalized output; keep a pooled copy that
        // recycles when the graph drops.
        let y_copy = {
            let mut c = pool::take_uninit(y.len(), device);
            c.copy_from_slice(&y);
            PooledBuf::new(c, device)
        };
        Tensor::make_result(
            y,
            self.shape().clone(),
            self.device(),
            std::slice::from_ref(self),
            move |go| {
                // dx = (go - sum(go*y)) * y, per row
                let mut g = pool::take_uninit(y_copy.len(), device);
                {
                    let g_sl = UnsafeSlice::new(&mut g);
                    let (go, y_copy) = (&go, &y_copy);
                    parallel_for(rows, rows_threshold(cols), |rs: std::ops::Range<usize>| {
                        // SAFETY: row ranges are disjoint across chunks.
                        let out = unsafe { g_sl.slice_mut(rs.start * cols, rs.len() * cols) };
                        for (k, r) in rs.enumerate() {
                            let base = r * cols;
                            #[cfg(target_arch = "x86_64")]
                            if fast_simd {
                                // SAFETY: `fast_simd` implies avx2.
                                unsafe {
                                    softmax_grad_row_avx2(
                                        &go[base..base + cols],
                                        &y_copy[base..base + cols],
                                        &mut out[k * cols..(k + 1) * cols],
                                    )
                                };
                                continue;
                            }
                            let dot: f32 =
                                (0..cols).map(|j| go[base + j] * y_copy[base + j]).sum();
                            for j in 0..cols {
                                out[k * cols + j] = (go[base + j] - dot) * y_copy[base + j];
                            }
                        }
                    });
                }
                vec![Some(g)]
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::{assert_close, check_gradient};
    use crate::Tensor;

    #[test]
    fn rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], [2, 3]);
        let s = t.softmax_last();
        let v = s.to_vec();
        assert_close(&[v[0] + v[1] + v[2], v[3] + v[4] + v[5]], &[1.0, 1.0], 1e-6);
    }

    #[test]
    fn uniform_input_uniform_output() {
        let t = Tensor::zeros([1, 4]);
        assert_close(&t.softmax_last().to_vec(), &[0.25; 4], 1e-6);
    }

    #[test]
    fn stable_with_large_values() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0], [2]);
        let v = t.softmax_last().to_vec();
        assert!(v.iter().all(|x| x.is_finite()));
        assert_close(&[v[0] + v[1]], &[1.0], 1e-6);
    }

    #[test]
    fn monotone_in_logits() {
        let t = Tensor::from_vec(vec![0.0, 1.0, 2.0], [3]);
        let v = t.softmax_last().to_vec();
        assert!(v[0] < v[1] && v[1] < v[2]);
    }

    #[test]
    fn gradcheck() {
        let t = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, 0.7, -0.3], [2, 3]).requires_grad(true);
        let w = Tensor::from_vec(vec![1.0, -2.0, 0.5, 2.0, 1.0, -1.0], [2, 3]);
        check_gradient(&t, |x| x.softmax_last().mul(&w).sum_all(), 1e-2);
    }
}
