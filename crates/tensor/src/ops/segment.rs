//! Segmented (per-group) operators.
//!
//! These are the kernels underneath TGLite's edge-wise block operators:
//! `edge_softmax` is a segmented softmax grouped by destination node,
//! `edge_reduce` is a segmented reduction, and `src_scatter` uses
//! segmented mean. Inputs are `[N, D]` row tensors plus a per-row
//! segment id; segment ids need not be sorted.

use tgl_runtime::{parallel_for, UnsafeSlice};

use crate::kernel::{self, Simd};
use crate::pool::{self, PooledBuf};
use crate::Tensor;

/// AVX2 forward for one 8-column block of one segment: per-lane
/// max / `exp256` / sum / normalize over the segment's rows (ascending,
/// strided by `d`). Fast-only — `exp256` differs from libm `exp`.
///
/// # Safety
///
/// Requires AVX2+FMA; `j0 + 8 <= d`; the caller's segment owns rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn seg_softmax_block_avx2(
    x: &[f32],
    y: &UnsafeSlice<f32>,
    rows: &[usize],
    d: usize,
    j0: usize,
) {
    use std::arch::x86_64::*;

    use crate::kernel::x86::exp256;
    let mut vm = _mm256_set1_ps(f32::NEG_INFINITY);
    for &i in rows {
        vm = _mm256_max_ps(vm, _mm256_loadu_ps(x.as_ptr().add(i * d + j0)));
    }
    let mut vs = _mm256_setzero_ps();
    for &i in rows {
        let e = exp256(_mm256_sub_ps(_mm256_loadu_ps(x.as_ptr().add(i * d + j0)), vm));
        // SAFETY: segments partition rows, so row `i` is written by
        // exactly one segment; columns j0..j0+8 are in bounds.
        let out = y.slice_mut(i * d + j0, 8);
        _mm256_storeu_ps(out.as_mut_ptr(), e);
        vs = _mm256_add_ps(vs, e);
    }
    for &i in rows {
        let out = y.slice_mut(i * d + j0, 8);
        let v = _mm256_div_ps(_mm256_loadu_ps(out.as_ptr()), vs);
        _mm256_storeu_ps(out.as_mut_ptr(), v);
    }
}

/// AVX2 backward for one 8-column block of one segment:
/// `g_i = (go_i - Σ_k go_k y_k) * y_i` per lane. Exact-safe — the
/// per-column dot accumulates mul-then-add over ascending rows, the
/// identical roundings and order as the scalar loop.
///
/// # Safety
///
/// Requires AVX2+FMA; `j0 + 8 <= d`; the caller's segment owns rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn seg_softmax_grad_block_avx2(
    go: &[f32],
    yv: &[f32],
    g: &UnsafeSlice<f32>,
    rows: &[usize],
    d: usize,
    j0: usize,
) {
    use std::arch::x86_64::*;
    let mut vdot = _mm256_setzero_ps();
    for &i in rows {
        vdot = _mm256_add_ps(
            vdot,
            _mm256_mul_ps(
                _mm256_loadu_ps(go.as_ptr().add(i * d + j0)),
                _mm256_loadu_ps(yv.as_ptr().add(i * d + j0)),
            ),
        );
    }
    for &i in rows {
        // SAFETY: segments partition rows; columns are in bounds.
        let out = g.slice_mut(i * d + j0, 8);
        let v = _mm256_mul_ps(
            _mm256_sub_ps(_mm256_loadu_ps(go.as_ptr().add(i * d + j0)), vdot),
            _mm256_loadu_ps(yv.as_ptr().add(i * d + j0)),
        );
        _mm256_storeu_ps(out.as_mut_ptr(), v);
    }
}

/// Rows grouped by segment: `rows[starts[s]..starts[s + 1]]` lists the
/// row indices of segment `s` in ascending order (counting sort, so the
/// grouping is stable). Built sequentially in O(n); parallel kernels
/// then own whole segments, which keeps per-segment accumulation in the
/// same ascending-row floating-point order as the sequential loops.
struct SegmentIndex {
    starts: Vec<usize>,
    rows: Vec<usize>,
}

impl SegmentIndex {
    fn build(segments: &[usize], num_segments: usize) -> SegmentIndex {
        let mut starts = vec![0usize; num_segments + 1];
        for &s in segments {
            starts[s + 1] += 1;
        }
        for s in 0..num_segments {
            starts[s + 1] += starts[s];
        }
        let mut cursor = starts.clone();
        let mut rows = vec![0usize; segments.len()];
        for (i, &s) in segments.iter().enumerate() {
            rows[cursor[s]] = i;
            cursor[s] += 1;
        }
        SegmentIndex { starts, rows }
    }

    fn rows_of(&self, s: usize) -> &[usize] {
        &self.rows[self.starts[s]..self.starts[s + 1]]
    }
}

/// Segment batches below ~4096 total elements run inline — expressed as
/// a `parallel_for` element threshold over the segment count.
fn seg_seq_threshold(total_elems: usize, num_segments: usize) -> usize {
    if total_elems <= 4096 {
        num_segments
    } else {
        1
    }
}

fn check_segments(values: &Tensor, segments: &[usize], num_segments: usize) -> (usize, usize) {
    assert!(values.rank() >= 1, "segment ops need rank >= 1 values");
    let n = values.dim(0);
    assert_eq!(
        segments.len(),
        n,
        "segment ids ({}) must match rows ({n})",
        segments.len()
    );
    for &s in segments {
        assert!(
            s < num_segments,
            "segment id {s} out of range ({num_segments} segments)"
        );
    }
    let d: usize = values.dims()[1..].iter().product();
    (n, d)
}

/// Sums rows of `values` into `num_segments` buckets:
/// `out[s] = Σ_{i: segments[i]==s} values[i]`.
///
/// Empty segments produce zero rows. Differentiable.
///
/// # Panics
///
/// Panics if `segments.len() != values.dim(0)` or any id is out of
/// range.
///
/// # Examples
///
/// ```
/// use tgl_tensor::{ops::segment_sum, Tensor};
///
/// let v = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3, 1]);
/// let s = segment_sum(&v, &[0, 1, 0], 2);
/// assert_eq!(s.to_vec(), vec![4.0, 2.0]);
/// ```
pub fn segment_sum(values: &Tensor, segments: &[usize], num_segments: usize) -> Tensor {
    let (n, d) = check_segments(values, segments, num_segments);
    let _prof = tgl_obs::profile::op("segment_sum")
        .flops((n * d) as u64)
        .io(4 * (n * d) as u64, 4 * (num_segments * d) as u64)
        .shape(&[values.dims(), &[num_segments]])
        .backward_cost(0, 4 * (num_segments * d) as u64, 4 * (n * d) as u64);
    let device = values.device();
    let idx = SegmentIndex::build(segments, num_segments);
    // Accumulates with `+=` (and empty segments stay zero), so the
    // recycled buffer must start zeroed.
    let mut out = pool::take_zeroed(num_segments * d, device);
    {
        let x = values.inner.storage.read();
        let out_sl = UnsafeSlice::new(&mut out);
        parallel_for(
            num_segments,
            seg_seq_threshold(n * d, num_segments),
            |segs: std::ops::Range<usize>| {
                // SAFETY: each segment owns its own output row.
                let rows_out = unsafe { out_sl.slice_mut(segs.start * d, segs.len() * d) };
                for (si, s) in segs.enumerate() {
                    let orow = &mut rows_out[si * d..(si + 1) * d];
                    for &i in idx.rows_of(s) {
                        // Exact-safe SIMD: lane-wise adds in ascending
                        // row order, bitwise equal to the scalar loop.
                        kernel::add_assign_dispatch(orow, &x[i * d..(i + 1) * d]);
                    }
                }
            },
        );
    }
    let mut out_dims = values.dims().to_vec();
    out_dims[0] = num_segments;
    let seg = segments.to_vec();
    Tensor::make_result(out, out_dims, values.device(), std::slice::from_ref(values), move |go| {
        // Gather: every input row copies its segment's gradient row.
        let mut g = pool::take_uninit(n * d, device);
        let g_sl = UnsafeSlice::new(&mut g);
        parallel_for(n, seg_seq_threshold(n * d, n), |rows: std::ops::Range<usize>| {
            // SAFETY: disjoint row ranges per chunk.
            let g_rows = unsafe { g_sl.slice_mut(rows.start * d, rows.len() * d) };
            for (ri, i) in rows.enumerate() {
                let s = seg[i];
                g_rows[ri * d..(ri + 1) * d].copy_from_slice(&go[s * d..(s + 1) * d]);
            }
        });
        vec![Some(g)]
    })
}

/// Averages rows of `values` per segment. Empty segments yield zeros.
pub fn segment_mean(values: &Tensor, segments: &[usize], num_segments: usize) -> Tensor {
    let (n, d) = check_segments(values, segments, num_segments);
    let _prof = tgl_obs::profile::op("segment_mean")
        .flops(2 * (n * d) as u64)
        .io(4 * (n * d) as u64, 4 * (num_segments * d) as u64)
        .shape(&[values.dims(), &[num_segments]])
        .backward_cost((n * d) as u64, 4 * (num_segments * d) as u64, 4 * (n * d) as u64);
    let mut counts = vec![0.0f32; num_segments];
    for &s in segments {
        counts[s] += 1.0;
    }
    let device = values.device();
    let idx = SegmentIndex::build(segments, num_segments);
    let mut out = pool::take_zeroed(num_segments * d, device);
    {
        let x = values.inner.storage.read();
        let out_sl = UnsafeSlice::new(&mut out);
        let counts = &counts;
        parallel_for(
            num_segments,
            seg_seq_threshold(n * d, num_segments),
            |segs: std::ops::Range<usize>| {
                // SAFETY: each segment owns its own output row.
                let rows_out = unsafe { out_sl.slice_mut(segs.start * d, segs.len() * d) };
                for (si, s) in segs.enumerate() {
                    let orow = &mut rows_out[si * d..(si + 1) * d];
                    for &i in idx.rows_of(s) {
                        // Exact-safe SIMD: lane-wise div-then-add, the
                        // same two roundings as the scalar loop.
                        kernel::add_div_dispatch(orow, &x[i * d..(i + 1) * d], counts[s]);
                    }
                }
            },
        );
    }
    let mut out_dims = values.dims().to_vec();
    out_dims[0] = num_segments;
    let seg = segments.to_vec();
    Tensor::make_result(out, out_dims, values.device(), std::slice::from_ref(values), move |go| {
        let mut g = pool::take_uninit(n * d, device);
        let g_sl = UnsafeSlice::new(&mut g);
        let (seg, counts) = (&seg, &counts);
        parallel_for(n, seg_seq_threshold(n * d, n), |rows: std::ops::Range<usize>| {
            // SAFETY: disjoint row ranges per chunk.
            let g_rows = unsafe { g_sl.slice_mut(rows.start * d, rows.len() * d) };
            for (ri, i) in rows.enumerate() {
                let s = seg[i];
                for j in 0..d {
                    g_rows[ri * d + j] = go[s * d + j] / counts[s];
                }
            }
        });
        vec![Some(g)]
    })
}

/// Per-segment max of rows. Empty segments yield zeros; gradient routes
/// to the (first) argmax row per segment/column.
pub fn segment_max(values: &Tensor, segments: &[usize], num_segments: usize) -> Tensor {
    let (n, d) = check_segments(values, segments, num_segments);
    let _prof = tgl_obs::profile::op("segment_max")
        .flops((n * d) as u64)
        .io(4 * (n * d) as u64, 4 * (num_segments * d) as u64)
        .shape(&[values.dims(), &[num_segments]])
        .backward_cost(0, 4 * (num_segments * d) as u64, 4 * (n * d) as u64);
    let device = values.device();
    let mut out = pool::take_uninit(num_segments * d, device);
    out.fill(f32::NEG_INFINITY);
    let mut argmax = vec![usize::MAX; num_segments * d];
    {
        let x = values.inner.storage.read();
        for (i, &s) in segments.iter().enumerate() {
            for j in 0..d {
                if x[i * d + j] > out[s * d + j] {
                    out[s * d + j] = x[i * d + j];
                    argmax[s * d + j] = i;
                }
            }
        }
    }
    for v in out.iter_mut() {
        if !v.is_finite() {
            *v = 0.0; // empty segment
        }
    }
    let mut out_dims = values.dims().to_vec();
    out_dims[0] = num_segments;
    Tensor::make_result(out, out_dims, values.device(), std::slice::from_ref(values), move |go| {
        // Only argmax positions receive gradient; the rest must be zero.
        let mut g = pool::take_zeroed(n * d, device);
        for (sd, &i) in argmax.iter().enumerate() {
            if i != usize::MAX {
                let j = sd % d;
                g[i * d + j] = go[sd];
            }
        }
        vec![Some(g)]
    })
}

/// Segmented softmax: softmax across the rows of each segment,
/// independently per column (column = attention head).
///
/// For single-column `[N, 1]` values with segments = destination ids,
/// this is exactly TGLite's `edge_softmax`. Empty segments contribute
/// nothing; rows keep their position.
pub fn segment_softmax(values: &Tensor, segments: &[usize], num_segments: usize) -> Tensor {
    let (n, d) = check_segments(values, segments, num_segments);
    let _prof = tgl_obs::profile::op("segment_softmax")
        .flops(5 * (n * d) as u64)
        .io(4 * (n * d) as u64, 8 * (n * d) as u64)
        .shape(&[values.dims(), &[num_segments]])
        .backward_cost(4 * (n * d) as u64, 8 * (n * d) as u64, 4 * (n * d) as u64);
    let device = values.device();
    let idx = SegmentIndex::build(segments, num_segments);
    let fast_simd = kernel::fast() && kernel::simd() >= Simd::Avx2;
    #[cfg(not(target_arch = "x86_64"))]
    let _ = fast_simd;
    // Segments partition the rows, so every element is written below.
    let mut y = pool::take_uninit(n * d, device);
    {
        let x = values.inner.storage.read();
        let y_sl = UnsafeSlice::new(&mut y);
        let idx = &idx;
        parallel_for(
            num_segments,
            seg_seq_threshold(n * d, num_segments),
            |segs: std::ops::Range<usize>| {
                for s in segs {
                    let rows = idx.rows_of(s);
                    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
                    let mut j0 = 0;
                    #[cfg(target_arch = "x86_64")]
                    if fast_simd {
                        while j0 + 8 <= d {
                            // SAFETY: `fast_simd` implies avx2; the
                            // block's 8 columns are in bounds.
                            unsafe { seg_softmax_block_avx2(&x[..], &y_sl, rows, d, j0) };
                            j0 += 8;
                        }
                    }
                    for j in j0..d {
                        // Per (segment, column) max for stability, then
                        // exp and normalize — all over ascending rows.
                        let mut mx = f32::NEG_INFINITY;
                        for &i in rows {
                            mx = mx.max(x[i * d + j]);
                        }
                        let mut sum = 0.0f32;
                        for &i in rows {
                            let e = (x[i * d + j] - mx).exp();
                            // SAFETY: segments partition rows, so row
                            // `i` is written by exactly one segment.
                            unsafe { *y_sl.get_mut(i * d + j) = e };
                            sum += e;
                        }
                        for &i in rows {
                            unsafe { *y_sl.get_mut(i * d + j) /= sum };
                        }
                    }
                }
            },
        );
    }
    let y_copy = {
        let mut c = pool::take_uninit(y.len(), device);
        c.copy_from_slice(&y);
        PooledBuf::new(c, device)
    };
    Tensor::make_result(
        y,
        values.shape().clone(),
        values.device(),
        std::slice::from_ref(values),
        move |go| {
            // Per segment/column: dx_i = (go_i - Σ_k go_k y_k) * y_i
            let simd = kernel::simd() >= Simd::Avx2;
            #[cfg(not(target_arch = "x86_64"))]
            let _ = simd;
            let mut g = pool::take_uninit(n * d, device);
            let g_sl = UnsafeSlice::new(&mut g);
            let (idx, y_copy) = (&idx, &y_copy);
            parallel_for(
                num_segments,
                seg_seq_threshold(n * d, num_segments),
                |segs: std::ops::Range<usize>| {
                    for s in segs {
                        let rows = idx.rows_of(s);
                        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
                        let mut j0 = 0;
                        #[cfg(target_arch = "x86_64")]
                        if simd {
                            while j0 + 8 <= d {
                                // SAFETY: `simd` is an AVX2-or-above level; the
                                // block is exact-safe (see its docs).
                                unsafe {
                                    seg_softmax_grad_block_avx2(go, &y_copy[..], &g_sl, rows, d, j0)
                                };
                                j0 += 8;
                            }
                        }
                        for j in j0..d {
                            let mut dot = 0.0f32;
                            for &i in rows {
                                dot += go[i * d + j] * y_copy[i * d + j];
                            }
                            for &i in rows {
                                // SAFETY: segments partition rows.
                                unsafe {
                                    *g_sl.get_mut(i * d + j) =
                                        (go[i * d + j] - dot) * y_copy[i * d + j];
                                }
                            }
                        }
                    }
                },
            );
            vec![Some(g)]
        },
    )
}

/// Checks that `wide` is `[rows, heads · dim]` with `dim > 0` and
/// returns `(heads, dim)`.
fn check_heads(wide: &Tensor, heads: usize) -> (usize, usize) {
    assert_eq!(wide.rank(), 2, "expected [rows, heads*dim], got {}", wide.shape());
    assert!(
        heads > 0 && wide.dim(1) > 0 && wide.dim(1).is_multiple_of(heads),
        "{} columns do not split into {heads} heads",
        wide.dim(1)
    );
    (heads, wide.dim(1) / heads)
}

/// Per-head dot product of every row of `k` with the row of `q` its
/// segment selects, scaled:
/// `out[e, h] = (Σ_d q[segments[e], h, d] · k[e, h, d]) · scale`
/// for `q: [S, H·D]`, `k: [E, H·D]`, giving `[E, H]`.
///
/// This is the attention-logit step of an edge-wise block (`q` holds
/// one query per destination, `k` one key per sampled edge); the query
/// row is read through `segments` inside the kernel instead of being
/// gathered into an `[E, H·D]` copy first. Each dot accumulates
/// mul-then-add from zero in ascending `d`, then takes one multiply by
/// `scale`: the roundings of
/// `q.index_select(segments).mul(k).reshape([E, H, D]).sum_dim(2).mul_scalar(scale)`.
/// Backward writes `dk` per row and `dq` per segment (rows ascending),
/// so both are invariant across thread counts.
///
/// # Panics
///
/// Panics on a shape mismatch or a segment id past `q`'s rows.
pub fn segment_dot(q: &Tensor, k: &Tensor, segments: &[usize], heads: usize, scale: f32) -> Tensor {
    let device = crate::ops::same_device(q, k);
    let (h, d) = check_heads(k, heads);
    let (n, hd, num_segments) = (k.dim(0), h * d, q.dim(0));
    assert_eq!(q.dims(), &[num_segments, hd], "segment_dot query shape {}", q.shape());
    check_segments(k, segments, num_segments);
    let (need_q, need_k) = (q.requires_grad_flag(), k.requires_grad_flag());
    let (wq, wk) = (need_q as usize, need_k as usize);
    let _prof = tgl_obs::profile::op("segment_dot")
        .flops((2 * n * hd + n * h) as u64)
        .io(8 * (n * hd) as u64, 4 * (n * h) as u64)
        .shape(&[q.dims(), k.dims()])
        .backward_cost(
            (n * h + 2 * (wq + wk) * n * hd) as u64,
            4 * (n * h + (wq + wk) * n * hd) as u64,
            4 * (wk * n * hd + wq * num_segments * hd) as u64,
        );
    let mut out = pool::take_uninit(n * h, device);
    {
        let qd = q.inner.storage.read();
        let kd = k.inner.storage.read();
        let out_sl = UnsafeSlice::new(&mut out);
        parallel_for(n, crate::ops::rows_threshold(hd), |rows: std::ops::Range<usize>| {
            // SAFETY: disjoint row ranges per chunk.
            let o = unsafe { out_sl.slice_mut(rows.start * h, rows.len() * h) };
            for (oe, e) in o.chunks_exact_mut(h).zip(rows) {
                let (q_row, k_row) = (&qd[segments[e] * hd..][..hd], &kd[e * hd..][..hd]);
                for (hh, oh) in oe.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for (&a, &b) in q_row[hh * d..][..d].iter().zip(&k_row[hh * d..][..d]) {
                        acc += a * b;
                    }
                    *oh = acc * scale;
                }
            }
        });
    }
    let (q_t, k_t) = (q.clone(), k.clone());
    let seg = segments.to_vec();
    Tensor::make_result(out, [n, h], device, &[q.clone(), k.clone()], move |go| {
        let fma = kernel::fast();
        let qd = q_t.inner.storage.read();
        let kd = k_t.inner.storage.read();
        // dk[e,h,:] = (go[e,h]·scale) · q[seg[e],h,:], one row per edge.
        let gk = need_k.then(|| {
            let mut gk = pool::take_uninit(n * hd, device);
            let gk_sl = UnsafeSlice::new(&mut gk);
            parallel_for(n, crate::ops::rows_threshold(hd), |rows: std::ops::Range<usize>| {
                // SAFETY: disjoint row ranges per chunk.
                let g_rows = unsafe { gk_sl.slice_mut(rows.start * hd, rows.len() * hd) };
                for (g_row, e) in g_rows.chunks_exact_mut(hd).zip(rows) {
                    let q_row = &qd[seg[e] * hd..][..hd];
                    for hh in 0..h {
                        let g = go[e * h + hh] * scale;
                        for (o, &v) in g_row[hh * d..][..d].iter_mut().zip(&q_row[hh * d..][..d]) {
                            *o = g * v;
                        }
                    }
                }
            });
            gk
        });
        // dq[s,h,:] = Σ_{e in s, ascending} (go[e,h]·scale) · k[e,h,:],
        // one row per segment (empty segments stay zero).
        let gq = need_q.then(|| {
            let mut gq = pool::take_zeroed(num_segments * hd, device);
            let gq_sl = UnsafeSlice::new(&mut gq);
            let idx = SegmentIndex::build(&seg, num_segments);
            parallel_for(
                num_segments,
                seg_seq_threshold(n * hd, num_segments),
                |segs: std::ops::Range<usize>| {
                    // SAFETY: each segment owns its own output row.
                    let g_rows = unsafe { gq_sl.slice_mut(segs.start * hd, segs.len() * hd) };
                    for (g_row, s) in g_rows.chunks_exact_mut(hd).zip(segs) {
                        for &e in idx.rows_of(s) {
                            let k_row = &kd[e * hd..][..hd];
                            for hh in 0..h {
                                let g = go[e * h + hh] * scale;
                                let (o, x) = (&mut g_row[hh * d..][..d], &k_row[hh * d..][..d]);
                                kernel::axpy_dispatch(o, x, g, fma);
                            }
                        }
                    }
                },
            );
            gq
        });
        vec![gq, gk]
    })
}

/// Per-head weighted sum of the rows of `v` into segments:
/// `out[s, h, :] = Σ_{e: segments[e]==s} v[e, h, :] · a[e, h]`
/// for `v: [E, H·D]`, `a: [E, H]`, giving `[num_segments, H·D]`.
///
/// This is the attention-output step of an edge-wise block (`a` holds
/// the normalized attention of each edge, `v` its value row). Rows are
/// accumulated in ascending order, each product rounded before it is
/// added: the roundings of
/// `segment_sum(v.reshape([E, H, D]).mul(a.reshape([E, H, 1])).reshape([E, H·D]), ..)`
/// without the `[E, H·D]` intermediate. Empty segments yield zero
/// rows. Segments own their output rows and backward writes one row
/// per edge, so results are invariant across thread counts.
///
/// # Panics
///
/// Panics on a shape mismatch or a segment id out of range.
pub fn segment_weighted_sum(
    v: &Tensor,
    a: &Tensor,
    segments: &[usize],
    num_segments: usize,
) -> Tensor {
    let device = crate::ops::same_device(v, a);
    assert_eq!(a.rank(), 2, "segment_weighted_sum weights must be [E, H], got {}", a.shape());
    let (h, d) = check_heads(v, a.dim(1));
    let (n, hd) = (v.dim(0), h * d);
    assert_eq!(a.dim(0), n, "segment_weighted_sum needs one weight row per value row");
    check_segments(v, segments, num_segments);
    let (need_v, need_a) = (v.requires_grad_flag(), a.requires_grad_flag());
    let (wv, wa) = (need_v as usize, need_a as usize);
    let _prof = tgl_obs::profile::op("segment_weighted_sum")
        .flops(2 * (n * hd) as u64)
        .io(4 * (n * hd + n * h) as u64, 4 * (num_segments * hd) as u64)
        .shape(&[v.dims(), a.dims(), &[num_segments]])
        .backward_cost(
            ((wv + 2 * wa) * n * hd) as u64,
            4 * (n * hd + wa * n * hd + wv * n * h) as u64,
            4 * (wv * n * hd + wa * n * h) as u64,
        );
    let fma = kernel::fast();
    let idx = SegmentIndex::build(segments, num_segments);
    // Accumulates with `+=` (and empty segments stay zero).
    let mut out = pool::take_zeroed(num_segments * hd, device);
    {
        let vd = v.inner.storage.read();
        let ad = a.inner.storage.read();
        let out_sl = UnsafeSlice::new(&mut out);
        parallel_for(
            num_segments,
            seg_seq_threshold(n * hd, num_segments),
            |segs: std::ops::Range<usize>| {
                // SAFETY: each segment owns its own output row.
                let o_rows = unsafe { out_sl.slice_mut(segs.start * hd, segs.len() * hd) };
                for (o_row, s) in o_rows.chunks_exact_mut(hd).zip(segs) {
                    for &e in idx.rows_of(s) {
                        let v_row = &vd[e * hd..][..hd];
                        for hh in 0..h {
                            let (o, x) = (&mut o_row[hh * d..][..d], &v_row[hh * d..][..d]);
                            kernel::axpy_dispatch(o, x, ad[e * h + hh], fma);
                        }
                    }
                }
            },
        );
    }
    let (v_t, a_t) = (v.clone(), a.clone());
    let seg = segments.to_vec();
    Tensor::make_result(out, [num_segments, hd], device, &[v.clone(), a.clone()], move |go| {
        let vd = v_t.inner.storage.read();
        let ad = a_t.inner.storage.read();
        let mut gv = need_v.then(|| pool::take_uninit(n * hd, device));
        let mut ga = need_a.then(|| pool::take_uninit(n * h, device));
        {
            let gv_sl = gv.as_mut().map(|g| UnsafeSlice::new(g));
            let ga_sl = ga.as_mut().map(|g| UnsafeSlice::new(g));
            parallel_for(n, crate::ops::rows_threshold(hd), |rows: std::ops::Range<usize>| {
                for e in rows {
                    let go_row = &go[seg[e] * hd..][..hd];
                    // dv[e,h,:] = go[s,h,:] · a[e,h]
                    if let Some(gv_sl) = &gv_sl {
                        // SAFETY: row `e` belongs to exactly one chunk.
                        let g_row = unsafe { gv_sl.slice_mut(e * hd, hd) };
                        for hh in 0..h {
                            let w = ad[e * h + hh];
                            for (o, &g) in g_row[hh * d..][..d].iter_mut().zip(&go_row[hh * d..][..d]) {
                                *o = g * w;
                            }
                        }
                    }
                    // da[e,h] = Σ_d go[s,h,d] · v[e,h,d], d ascending.
                    if let Some(ga_sl) = &ga_sl {
                        // SAFETY: row `e` belongs to exactly one chunk.
                        let g_row = unsafe { ga_sl.slice_mut(e * h, h) };
                        let v_row = &vd[e * hd..][..hd];
                        for (hh, o) in g_row.iter_mut().enumerate() {
                            let mut acc = 0.0f32;
                            for (&g, &x) in go_row[hh * d..][..d].iter().zip(&v_row[hh * d..][..d]) {
                                acc += g * x;
                            }
                            *o = acc;
                        }
                    }
                }
            });
        }
        vec![gv, ga]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{assert_close, check_gradient};

    #[test]
    fn segment_sum_values() {
        let v = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 2]);
        let s = segment_sum(&v, &[1, 0, 1], 2);
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.to_vec(), vec![3.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn segment_sum_empty_segment_zero() {
        let v = Tensor::from_vec(vec![1.0, 2.0], [2, 1]);
        let s = segment_sum(&v, &[0, 0], 3);
        assert_eq!(s.to_vec(), vec![3.0, 0.0, 0.0]);
    }

    #[test]
    fn segment_mean_values() {
        let v = Tensor::from_vec(vec![2.0, 4.0, 6.0], [3, 1]);
        let m = segment_mean(&v, &[0, 0, 1], 2);
        assert_eq!(m.to_vec(), vec![3.0, 6.0]);
    }

    #[test]
    fn segment_max_values_and_grad() {
        let v = Tensor::from_vec(vec![1.0, 5.0, 3.0], [3, 1]).requires_grad(true);
        let m = segment_max(&v, &[0, 0, 1], 2);
        assert_eq!(m.to_vec(), vec![5.0, 3.0]);
        m.sum_all().backward();
        assert_eq!(v.grad().unwrap(), vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let v = Tensor::from_vec(vec![1.0, 2.0, 3.0, 0.5], [4, 1]);
        let y = segment_softmax(&v, &[0, 0, 1, 1], 2).to_vec();
        assert_close(&[y[0] + y[1]], &[1.0], 1e-6);
        assert_close(&[y[2] + y[3]], &[1.0], 1e-6);
        assert!(y[1] > y[0]);
    }

    #[test]
    fn segment_softmax_single_row_segment_is_one() {
        let v = Tensor::from_vec(vec![42.0], [1, 1]);
        let y = segment_softmax(&v, &[0], 1);
        assert_close(&y.to_vec(), &[1.0], 1e-6);
    }

    #[test]
    fn segment_softmax_multihead_columns_independent() {
        // Two columns should each softmax independently within segments.
        let v = Tensor::from_vec(vec![0.0, 10.0, 0.0, 10.0], [2, 2]);
        let y = segment_softmax(&v, &[0, 0], 1).to_vec();
        assert_close(&[y[0] + y[2]], &[1.0], 1e-6);
        assert_close(&[y[1] + y[3]], &[1.0], 1e-6);
        assert_close(&[y[0], y[1]], &[0.5, 0.5], 1e-6);
    }

    #[test]
    fn segment_softmax_matches_dense_softmax_single_segment() {
        let v = Tensor::from_vec(vec![1.0, -1.0, 0.5], [3, 1]);
        let seg = segment_softmax(&v, &[0, 0, 0], 1).to_vec();
        let dense = Tensor::from_vec(vec![1.0, -1.0, 0.5], [3]).softmax_last().to_vec();
        assert_close(&seg, &dense, 1e-6);
    }

    #[test]
    fn segment_sum_gradcheck() {
        let v = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1], [4, 1]).requires_grad(true);
        let w = Tensor::from_vec(vec![1.0, 3.0], [2, 1]);
        check_gradient(&v, |x| segment_sum(x, &[1, 0, 1, 0], 2).mul(&w).sum_all(), 1e-2);
    }

    #[test]
    fn segment_mean_gradcheck() {
        let v = Tensor::from_vec(vec![0.5, -1.0, 2.0], [3, 1]).requires_grad(true);
        let w = Tensor::from_vec(vec![2.0, -1.0], [2, 1]);
        check_gradient(&v, |x| segment_mean(x, &[0, 0, 1], 2).mul(&w).sum_all(), 1e-2);
    }

    #[test]
    fn segment_softmax_gradcheck() {
        let v = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1], [4, 1]).requires_grad(true);
        let w = Tensor::from_vec(vec![1.0, -2.0, 0.5, 2.0], [4, 1]);
        check_gradient(
            &v,
            |x| segment_softmax(x, &[0, 0, 1, 1], 2).mul(&w).sum_all(),
            1e-2,
        );
    }

    #[test]
    fn segment_dot_known_values() {
        // Two heads of width 2; edges 0 and 2 belong to destination 1.
        let q = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 1.0, -1.0], [2, 4]);
        let k = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 0.5, 0.5, 0.5, 0.5],
            [3, 4],
        );
        let out = segment_dot(&q, &k, &[1, 0, 1], 2, 0.5);
        assert_eq!(out.dims(), &[3, 2]);
        // e0 -> q[1]: (2+4)/2, (3-4)/2; e1 -> q[0]: 5/2, 8/2; e2 -> q[1]: 2/2, 0/2
        assert_eq!(out.to_vec(), vec![3.0, -0.5, 2.5, 4.0, 1.0, 0.0]);
    }

    #[test]
    fn segment_weighted_sum_known_values_and_empty_segment() {
        let v = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], [2, 4]);
        let a = Tensor::from_vec(vec![0.5, 2.0, 1.0, 0.1], [2, 2]);
        let out = segment_weighted_sum(&v, &a, &[2, 2], 3);
        assert_eq!(out.dims(), &[3, 4]);
        let mut want = vec![0.0; 8];
        want.extend([0.5 + 10.0, 1.0 + 20.0, 6.0 + 3.0, 8.0 + 4.0]);
        assert_eq!(out.to_vec(), want);
        // No edges at all: every segment is empty.
        let none = segment_weighted_sum(&Tensor::zeros([0, 4]), &Tensor::zeros([0, 2]), &[], 2);
        assert_eq!(none.to_vec(), vec![0.0; 8]);
    }

    #[test]
    fn attention_kernels_gradcheck() {
        let seg = [1usize, 0, 1, 1];
        let q = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, 0.3, 0.7, -0.4, 1.5], [2, 4]).requires_grad(true);
        let k = Tensor::from_vec((0..16).map(|i| (i as f32 * 0.37).sin()).collect(), [4, 4]);
        let w = Tensor::from_vec((0..8).map(|i| 0.5 - i as f32 * 0.2).collect(), [4, 2]);
        check_gradient(&q, |t| segment_dot(t, &k, &seg, 2, 0.7).mul(&w).sum_all(), 1e-2);
        let kg = k.requires_grad(true);
        let q0 = q.detach();
        check_gradient(&kg, |t| segment_dot(&q0, t, &seg, 2, 0.7).mul(&w).sum_all(), 1e-2);
        let a = Tensor::from_vec((0..8).map(|i| 0.1 + i as f32 * 0.1).collect(), [4, 2]).requires_grad(true);
        let wr = Tensor::from_vec((0..8).map(|i| (i as f32 * 0.9).cos()).collect(), [2, 4]);
        check_gradient(&a, |t| segment_weighted_sum(&k, t, &seg, 2).mul(&wr).sum_all(), 1e-2);
        let a0 = a.detach();
        check_gradient(&kg, |t| segment_weighted_sum(t, &a0, &seg, 2).mul(&wr).sum_all(), 1e-2);
    }

    #[test]
    #[should_panic(expected = "do not split into")]
    fn segment_dot_rejects_indivisible_heads() {
        segment_dot(&Tensor::zeros([1, 5]), &Tensor::zeros([2, 5]), &[0, 0], 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn segment_id_out_of_range_panics() {
        segment_sum(&Tensor::zeros([2, 1]), &[0, 5], 2);
    }

    #[test]
    #[should_panic(expected = "must match rows")]
    fn segment_len_mismatch_panics() {
        segment_sum(&Tensor::zeros([3, 1]), &[0], 2);
    }
}
