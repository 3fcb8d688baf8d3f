//! Cache-blocked GEMM: one packed `MR×NR` register-tile core behind
//! `mm_nn`, `mm_nt` and `mm_tn`.
//!
//! [`gemm`] is the only dense kernel. It computes `C += A'·B'` where
//! each operand is read as stored or transposed, so the three entry
//! points differ only in how the core reaches their operands:
//!
//! * **B packer** — every variant walks the reduction in [`KC`]-deep
//!   blocks and packs the block of `B'` into [`NR`]-wide column panels
//!   (zero-padded past the last column). `mm_nt` (`dA = dC·Bᵀ`) fills
//!   the same panels through a transposed reader.
//! * **A reader** — the tile kernel takes a row of `A'` as a start
//!   plus the stride between consecutive reduction indices: 1 for
//!   `mm_nn` / `mm_nt`, whose rows are contiguous, and the row length
//!   of `a` for `mm_tn` (`dB = Aᵀ·dC`), whose four tile rows are then
//!   four adjacent floats of one row of `a` — no copy of A at all.
//!
//! A panel tile (`KC × NR × 4 B` = 8 KiB) stays L1-resident while a
//! [`MR`]`×`[`NR`] register tile accumulates across it in place on C
//! ([`NR`] = one `__m256` per row on AVX2 hosts); partial tiles at the
//! right and bottom edges run the same kernel on a zero-padded copy.
//! The only scratch is the packed block, `KC · n` floats (rounded up
//! to `NR`) per worker from the tensor pool — never operand-sized,
//! whatever the reduction depth.
//!
//! Contract (see `DESIGN.md` "Kernel contract"): **every output element
//! accumulates its products in ascending reduction-index order** — `KC`
//! blocks ascending, index ascending within a block — in all three
//! variants, whichever tile it falls in. Output rows are split into one
//! panel per pool thread, and since no element's order depends on
//! where a panel starts, results are invariant across thread counts.
//! In `exact` mode the AVX2 tile uses lane-wise `mul`+`add` (one
//! rounding each, the arithmetic of the scalar tile), so results are
//! also bitwise equal to the naive triple loop on every host; `fast`
//! mode contracts to FMA.
//!
//! Operands that are mostly zero (ReLU'd activations, zero-initialised
//! node memory, one-hot features) take zero-skipping row loops instead
//! — branchy but proportional to the nonzero count, and bitwise equal
//! to the dense path in exact mode (`x + 0.0 == x`).

use tgl_device::Device;
use tgl_runtime::{parallel_for, parallel_for_chunks, UnsafeSlice};

use crate::kernel;
use crate::pool;

/// A pass over finished whole rows of `C` (bias add, activation).
pub(crate) type Epilogue<'a> = dyn Fn(&mut [f32]) + Sync + 'a;

/// The epilogue of a plain product.
const NO_EPILOGUE: &Epilogue<'static> = &|_| {};

/// Rows of A per register tile.
pub(crate) const MR: usize = 4;
/// Columns of B per packed panel (one `__m256` of `f32`s; `MR × NR`
/// accumulators fit the 16-register AVX ymm file with room for the A
/// broadcast and B panel load).
pub(crate) const NR: usize = 8;
/// Reduction depth of a packed block.
pub(crate) const KC: usize = 256;

/// Multiply-add count below which a matmul runs inline on the caller;
/// pool dispatch costs more than the arithmetic.
const MM_SEQ_FLOPS: usize = 32 * 1024;

/// Output rows (of `row_flops` multiply-adds each) per sequential-path
/// threshold — feeds `parallel_for`'s element threshold.
pub(crate) fn seq_rows(row_flops: usize) -> usize {
    (MM_SEQ_FLOPS / row_flops.max(1)).max(1)
}

/// Cheap sparsity probe: samples up to 256 evenly spaced elements and
/// reports whether more than half are exactly zero. The zero-skip
/// branch in the `nn`/`tn` kernels only pays off on such operands; on
/// dense data it costs a branch per inner-loop trip.
pub(crate) fn mostly_zero(x: &[f32]) -> bool {
    if x.is_empty() {
        return false;
    }
    // Round the stride *up* so the probe honors its 256-sample cap
    // (`len / 256` rounded down could sample up to 511 elements).
    let step = x.len().div_ceil(256);
    let mut zeros = 0usize;
    let mut total = 0usize;
    let mut i = 0;
    while i < x.len() {
        total += 1;
        if x[i] == 0.0 {
            zeros += 1;
        }
        i += step;
    }
    zeros * 2 > total
}

// ---------------------------------------------------------------------
// Register-tile kernels
// ---------------------------------------------------------------------

/// AVX2 `MR×NR` tile update: row `r` of the tile lives at
/// `c[r * ldc..][..NR]` and gains `sum_kk ar[r][kk * ps] * pan[kk]` —
/// or, with `first`, is overwritten by that sum started from zero.
///
/// With `FMA = false` each lane performs mul-then-add — the identical
/// two IEEE roundings, per element, in the same k order as the scalar
/// tile, so the result is bitwise equal to it. With `FMA = true` the
/// multiply-add contracts to one rounding (fast mode only).
///
/// # Safety
///
/// Requires AVX2+FMA (checked by `kernel::avx2()`); `pan` must hold at
/// least `kc * NR` elements, each `ar[r]` at least `kc`, and `c` at
/// least `(MR - 1) * ldc + NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile_avx2<const FMA: bool>(
    ar: &[&[f32]; MR],
    ps: usize,
    pan: &[f32],
    kc: usize,
    c: &mut [f32],
    ldc: usize,
    first: bool,
) {
    use std::arch::x86_64::*;
    let mut v = [_mm256_setzero_ps(); MR];
    if !first {
        for (r, vr) in v.iter_mut().enumerate() {
            *vr = _mm256_loadu_ps(c.as_ptr().add(r * ldc));
        }
    }
    for kk in 0..kc {
        let pb = _mm256_loadu_ps(pan.as_ptr().add(kk * NR));
        for (vr, a_row) in v.iter_mut().zip(ar) {
            let av = _mm256_set1_ps(*a_row.get_unchecked(kk * ps));
            *vr = if FMA {
                _mm256_fmadd_ps(av, pb, *vr)
            } else {
                _mm256_add_ps(*vr, _mm256_mul_ps(av, pb))
            };
        }
    }
    for (r, vr) in v.into_iter().enumerate() {
        _mm256_storeu_ps(c.as_mut_ptr().add(r * ldc), vr);
    }
}

/// Tile update in place on C (layout as in [`tile_avx2`]) with SIMD
/// dispatch and the scalar reference as the fallback (and the
/// exact-mode ground truth).
#[allow(clippy::too_many_arguments)]
fn tile_update(
    ar: &[&[f32]; MR],
    ps: usize,
    pan: &[f32],
    kc: usize,
    c: &mut [f32],
    ldc: usize,
    first: bool,
    simd: bool,
    fma: bool,
) {
    assert!(c.len() >= (MR - 1) * ldc + NR && pan.len() >= kc * NR);
    assert!(kc == 0 || ar.iter().all(|a_row| a_row.len() > (kc - 1) * ps));
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` comes from `kernel::avx2()`; the lengths were
        // asserted just above.
        unsafe {
            if fma {
                tile_avx2::<true>(ar, ps, pan, kc, c, ldc, first);
            } else {
                tile_avx2::<false>(ar, ps, pan, kc, c, ldc, first);
            }
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (simd, fma);
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (r, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&c[r * ldc..][..NR]);
        }
    }
    for kk in 0..kc {
        let pb = &pan[kk * NR..(kk + 1) * NR];
        for (row, a_row) in acc.iter_mut().zip(ar) {
            let av = a_row[kk * ps];
            for (o, &bv) in row.iter_mut().zip(pb) {
                *o += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[r * ldc..][..NR].copy_from_slice(row);
    }
}

// ---------------------------------------------------------------------
// The blocked core and its three entry points
// ---------------------------------------------------------------------

/// `C[m,n] = A'[m,k] · B'[k,n]`, overwriting whatever `c` held (the
/// first reduction block starts every accumulator from zero, so `c`
/// needs no zero pass). `A'` is `a` as stored (`[m,k]`
/// row-major) or, with `ta`, the transpose of `a` stored `[k,m]`;
/// `B'` is `b` stored `[k,n]` or, with `tb`, the transpose of `b`
/// stored `[n,k]`. `epilogue` then runs once over each finished row
/// panel (whole rows of `c`, still cache-warm) on the worker that
/// computed it.
#[allow(clippy::too_many_arguments)]
fn gemm(
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epilogue: &Epilogue<'_>,
) {
    if k == 0 {
        c.fill(0.0);
        return epilogue(c);
    }
    let n_tiles = n.div_ceil(NR);
    let simd = kernel::avx2();
    let fma = kernel::fast();
    let c = UnsafeSlice::new(c);
    // One MR-aligned row panel per pool thread: each panel packs its
    // own copy of B', so fewer panels means less packing. No element's
    // accumulation order depends on where the boundaries fall. Small
    // problems widen the panel so pool dispatch stays amortized.
    let panel_rows = m
        .div_ceil(tgl_runtime::current_threads())
        .next_multiple_of(MR)
        .max(seq_rows(k * n));
    // Element kk of a row of A' sits `kk * ps` past the row's start.
    let ps = if ta { m } else { 1 };
    parallel_for_chunks(m, panel_rows, |_, rows: std::ops::Range<usize>| {
        // SAFETY: panels partition the row space, so these row ranges
        // are disjoint.
        let c_rows = unsafe { c.slice_mut(rows.start * n, rows.len() * n) };
        let (r0, rows_n) = (rows.start, rows.len());
        let mut panel = pool::take_uninit(KC.min(k) * n_tiles * NR, Device::Host);
        for k0 in (0..k).step_by(KC) {
            let (kc, first) = (KC.min(k - k0), k0 == 0);
            // Pack B'[k0..k0+kc, :] into NR-wide panels: panel `jt`
            // holds rows kk-major, zero-padded past column n.
            for jt in 0..n_tiles {
                let (j0, jw) = (jt * NR, NR.min(n - jt * NR));
                let dst = &mut panel[jt * kc * NR..(jt + 1) * kc * NR];
                for kk in 0..kc {
                    let d = &mut dst[kk * NR..(kk + 1) * NR];
                    if !tb {
                        d[..jw].copy_from_slice(&b[(k0 + kk) * n + j0..][..jw]);
                    }
                    d[jw..].fill(0.0);
                }
                if tb {
                    // The transposed reader: column `j` of B' is a
                    // contiguous row of `b`.
                    for jj in 0..jw {
                        for (kk, &v) in b[(j0 + jj) * k + k0..][..kc].iter().enumerate() {
                            dst[kk * NR + jj] = v;
                        }
                    }
                }
            }
            let a_row = |r: usize| if ta { &a[k0 * m + r0 + r..] } else { &a[(r0 + r) * k + k0..] };
            for i in (0..rows_n).step_by(MR) {
                let ih = MR.min(rows_n - i);
                // Past the last row the tile re-reads row `ih - 1`; those
                // lanes are computed and dropped.
                let ar: [&[f32]; MR] = std::array::from_fn(|r| a_row(i + r.min(ih - 1)));
                for jt in 0..n_tiles {
                    let (j0, jw) = (jt * NR, NR.min(n - jt * NR));
                    let pan = &panel[jt * kc * NR..(jt + 1) * kc * NR];
                    if ih == MR && jw == NR {
                        let c_tile = &mut c_rows[i * n + j0..];
                        tile_update(&ar, ps, pan, kc, c_tile, n, first, simd, fma);
                        continue;
                    }
                    // Edge tile: the same kernel on a zero-padded copy.
                    let mut edge = [0.0f32; MR * NR];
                    if !first {
                        for r in 0..ih {
                            let c_row = &c_rows[(i + r) * n + j0..][..jw];
                            edge[r * NR..][..jw].copy_from_slice(c_row);
                        }
                    }
                    tile_update(&ar, ps, pan, kc, &mut edge, NR, first, simd, fma);
                    for r in 0..ih {
                        c_rows[(i + r) * n + j0..][..jw].copy_from_slice(&edge[r * NR..][..jw]);
                    }
                }
            }
        }
        pool::give(panel, Device::Host);
        epilogue(c_rows);
    });
}

/// C[m,n] = A[m,k] * B[k,n]
pub(crate) fn mm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = tgl_obs::timer("gemm");
    if mostly_zero(a) {
        return mm_nn_sparse(a, b, c, m, k, n, NO_EPILOGUE);
    }
    gemm(a, false, b, false, c, m, k, n, NO_EPILOGUE);
}

/// [`mm_nn`] without the sparsity probe, for a left operand that is a
/// gradient: a ReLU mask leaves it about half zeros, where skipping
/// them costs more than the packed tiles do.
pub(crate) fn mm_nn_dense(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = tgl_obs::timer("gemm");
    gemm(a, false, b, false, c, m, k, n, NO_EPILOGUE);
}

/// C[m,k] = A[m,n] * B[k,n]^T  (i.e. A · Bᵀ)
pub(crate) fn mm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    let _t = tgl_obs::timer("gemm");
    gemm(a, false, b, true, c, m, n, k, NO_EPILOGUE);
}

/// `C[m,n] = X[m,k] · W[n,k]ᵀ`, then `epilogue` over the finished rows:
/// the `Linear` forward on the weight as stored. A mostly-zero `x`
/// takes the zero-skipping loop, over a transposed copy of the weight
/// (`k·n` floats against the `m·k·n` product).
pub(crate) fn mm_nt_then(
    x: &[f32],
    w: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epilogue: &Epilogue<'_>,
) {
    let _t = tgl_obs::timer("gemm");
    if mostly_zero(x) {
        let mut wt = pool::take_uninit(k * n, Device::Host);
        crate::ops::transpose_into(w, n, k, &mut wt);
        mm_nn_sparse(x, &wt, c, m, k, n, epilogue);
        return pool::give(wt, Device::Host);
    }
    gemm(x, false, w, true, c, m, k, n, epilogue);
}

/// C[k,n] = A[m,k]^T * B[m,n]  (i.e. Aᵀ · B)
pub(crate) fn mm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = tgl_obs::timer("gemm");
    if mostly_zero(a) {
        return mm_tn_sparse(a, b, c, m, k, n);
    }
    gemm(a, true, b, false, c, k, m, n, NO_EPILOGUE);
}

/// Zero-skipping reference loop for mostly-zero A (identical
/// floating-point order in exact mode: k ascending per output element).
fn mm_nn_sparse(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epilogue: &Epilogue<'_>,
) {
    c.fill(0.0);
    let fma = kernel::fast();
    let c = UnsafeSlice::new(c);
    parallel_for(m, seq_rows(k * n), |rows: std::ops::Range<usize>| {
        // SAFETY: disjoint row ranges per chunk.
        let c_rows = unsafe { c.slice_mut(rows.start * n, rows.len() * n) };
        for (ri, i) in rows.enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c_rows[ri * n..(ri + 1) * n];
            for (kk, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                kernel::axpy_dispatch(c_row, &b[kk * n..(kk + 1) * n], aik, fma);
            }
        }
        epilogue(c_rows);
    });
}

/// Zero-skipping reference loop for mostly-zero A (identical
/// floating-point order in exact mode: i ascending per output element).
fn mm_tn_sparse(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    c.fill(0.0);
    let fma = kernel::fast();
    let c = UnsafeSlice::new(c);
    parallel_for(k, seq_rows(m * n), |rows: std::ops::Range<usize>| {
        // SAFETY: disjoint row ranges per chunk.
        let c_rows = unsafe { c.slice_mut(rows.start * n, rows.len() * n) };
        for (ri, kk) in rows.enumerate() {
            let c_row = &mut c_rows[ri * n..(ri + 1) * n];
            for i in 0..m {
                let aik = a[i * k + kk];
                if aik == 0.0 {
                    continue;
                }
                kernel::axpy_dispatch(c_row, &b[i * n..(i + 1) * n], aik, fma);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelMode;

    /// Bitwise assertions below define the *exact* contract: take the
    /// crate-wide kernel lock and pin exact mode (SIMD stays as
    /// detected — the exact-safe AVX2 tile must match scalar bitwise).
    fn exact_guard() -> std::sync::MutexGuard<'static, ()> {
        let g = crate::kernel::test_serial();
        crate::kernel::set_mode(KernelMode::Exact);
        g
    }

    fn fill(len: usize, salt: usize) -> Vec<f32> {
        (0..len).map(|i| ((i * 37 + salt * 11) % 101) as f32 * 0.02 - 1.0).collect()
    }

    /// The exact-mode ground truth for every variant: the triple loop
    /// over the *logical* product `A'[m,k] · B'[k,n]`, reduction index
    /// ascending per output element.
    fn naive_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    fn transposed(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..x.len()).map(|i| x[(i % rows) * cols + i / rows]).collect()
    }

    /// Runs one entry point on the logical product `A'[m,k] · B'[k,n]`,
    /// storing the transposed operand the way that variant expects it.
    fn run(variant: &str, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        // Stale contents must not leak into the product.
        let mut c = vec![f32::NAN; m * n];
        match variant {
            "nn" => mm_nn(a, b, &mut c, m, k, n),
            "nt" => mm_nt(a, &transposed(b, k, n), &mut c, m, k, n),
            "tn" => mm_tn(&transposed(a, m, k), b, &mut c, k, m, n),
            _ => unreachable!(),
        }
        c
    }

    /// Sizes straddling every tile boundary: below MR/NR, exact
    /// multiples, one over, and spanning multiple KC blocks.
    const SIZES: [(usize, usize, usize); 8] = [
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 8),
        (5, 9, 17),
        (4, 256, 8),
        (5, 257, 9),
        (65, 300, 33),
        (7, 513, 31),
    ];

    /// Same k-ascending order and per-element roundings as the naive
    /// loop (exact mode, SIMD or scalar) => bitwise equal.
    fn assert_matches_naive(variant: &str) {
        let _guard = exact_guard();
        for (m, k, n) in SIZES {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let want = naive_nn(&a, &b, m, k, n);
            assert_eq!(run(variant, &a, &b, m, k, n), want, "mm_{variant} {m}x{k}x{n}");
        }
    }

    fn assert_simd_matches_scalar(variant: &str) {
        let _guard = exact_guard();
        for (m, k, n) in SIZES {
            let a = fill(m * k, 7);
            let b = fill(k * n, 9);
            crate::kernel::set_simd(false);
            let scalar = run(variant, &a, &b, m, k, n);
            crate::kernel::set_simd(true);
            let simd = run(variant, &a, &b, m, k, n);
            assert_eq!(simd, scalar, "mm_{variant} simd parity {m}x{k}x{n}");
        }
    }

    /// 1 vs 4 threads, bitwise, in both kernel modes. The shapes span
    /// several row panels with a reduction crossing a KC boundary, plus
    /// one whose reduction and width sit below NR.
    fn assert_thread_count_invariant(variant: &str) {
        let _guard = exact_guard();
        let before = tgl_runtime::current_threads();
        for mode in [KernelMode::Exact, KernelMode::Fast] {
            crate::kernel::set_mode(mode);
            for (m, k, n) in [(300, 257, 33), (9000, 3, 5)] {
                let a = fill(m * k, 11);
                let b = fill(k * n, 12);
                tgl_runtime::set_threads(1);
                let one = run(variant, &a, &b, m, k, n);
                tgl_runtime::set_threads(4);
                let four = run(variant, &a, &b, m, k, n);
                assert_eq!(one, four, "mm_{variant} {m}x{k}x{n} {mode:?} 1 vs 4 threads");
            }
        }
        tgl_runtime::set_threads(before);
        crate::kernel::set_mode(KernelMode::Exact);
    }

    #[test]
    fn blocked_nn_matches_naive_bitwise() {
        assert_matches_naive("nn");
    }

    #[test]
    fn blocked_nt_matches_reference() {
        assert_matches_naive("nt");
    }

    #[test]
    fn blocked_tn_matches_naive_bitwise() {
        assert_matches_naive("tn");
    }

    #[test]
    fn blocked_nn_simd_matches_scalar_bitwise() {
        assert_simd_matches_scalar("nn");
    }

    #[test]
    fn blocked_nt_simd_matches_scalar_bitwise() {
        assert_simd_matches_scalar("nt");
    }

    #[test]
    fn blocked_tn_simd_matches_scalar_bitwise() {
        assert_simd_matches_scalar("tn");
    }

    #[test]
    fn mc_panel_parallel_nn_thread_count_invariant() {
        assert_thread_count_invariant("nn");
    }

    #[test]
    fn mc_panel_parallel_nt_thread_count_invariant() {
        assert_thread_count_invariant("nt");
    }

    #[test]
    fn mc_panel_parallel_tn_thread_count_invariant() {
        assert_thread_count_invariant("tn");
    }

    #[test]
    fn sparse_operand_takes_skip_path_and_matches() {
        let _guard = exact_guard();
        let (m, k, n) = (33, 40, 21);
        let mut a = vec![0.0f32; m * k];
        for i in (0..m * k).step_by(7) {
            a[i] = (i % 13) as f32 * 0.1;
        }
        assert!(mostly_zero(&a));
        let b = fill(k * n, 8);
        let want = naive_nn(&a, &b, m, k, n);
        let mut got = vec![f32::NAN; m * n];
        mm_nn(&a, &b, &mut got, m, k, n);
        // Zero-skip changes which terms are added (skipping exact
        // zeros), which cannot change the result bitwise: x + 0.0 == x
        // for all finite x.
        assert_eq!(got, want);
    }

    #[test]
    fn mostly_zero_probe_caps_samples() {
        // Dense-but-tiny and exactly-300: the probe must sample at most
        // 256 elements (stride rounds up).
        assert_eq!(300usize.div_ceil(256), 2);
        let mut x = vec![1.0f32; 300];
        assert!(!mostly_zero(&x));
        // With an upward-rounded stride of 2, only even indices are
        // probed: zeroing them flips the verdict even though odd
        // indices stay dense.
        for i in (0..300).step_by(2) {
            x[i] = 0.0;
        }
        assert!(mostly_zero(&x));
        assert!(!mostly_zero(&[]));
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c = vec![0.0f32; 0];
        mm_nn(&[], &[], &mut c, 0, 0, 0);
        mm_nt(&[], &[], &mut c, 0, 0, 0);
        mm_tn(&[], &[], &mut c, 0, 0, 0);
        let mut c2 = vec![5.0f32; 6];
        mm_nn(&[], &[], &mut c2, 2, 0, 3);
        assert_eq!(c2, vec![0.0; 6], "an empty reduction is a zero product");
    }
}
