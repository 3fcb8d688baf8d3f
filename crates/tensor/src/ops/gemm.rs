//! Cache-blocked GEMM: one packed `MR×NR` register-tile core behind
//! `mm_nn`, `mm_nt` and `mm_tn`.
//!
//! [`gemm`] is the only dense kernel. It computes `C = A'·B'` where
//! each operand is read as stored or transposed, so the three entry
//! points differ only in how the core reaches their operands:
//!
//! * **B packer** — every variant walks the reduction in [`KC`]-deep
//!   blocks and packs the block of `B'` into [`NR`]-wide column panels
//!   (zero-padded past the last column). `mm_nt` (`dA = dC·Bᵀ`) fills
//!   the same panels through a transposed reader. Rows of `b` are
//!   `ldb` apart, so `B'` may be a block of columns of a wider matrix
//!   (`dX_p = dY · W[:, part p]` on the weight as stored).
//! * **A reader** — the tile kernel takes each row of `A'` as a start
//!   plus the stride between consecutive reduction indices: 1 for
//!   `mm_nn` / `mm_nt`, whose rows are contiguous, and the row length
//!   of `a` for `mm_tn` (`dB = Aᵀ·dC`), whose four tile rows are then
//!   four adjacent floats of one row of `a` — no copy of A at all.
//!   `A'` may also be several matrices side by side ([`Lhs`]): the
//!   reader walks the parts in turn, so an affine layer over
//!   `[x₀ ‖ x₁ ‖ ..]` runs on the parts and the concatenation is never
//!   built.
//!
//! A panel tile (`KC × NR × 4 B` = 8 KiB) stays L1-resident while a
//! [`MR`]`×`[`NR`] register tile accumulates across it in place on C
//! ([`NR`] = one `__m256` per row on AVX2 hosts); partial tiles at the
//! right and bottom edges run the same kernel on a zero-padded copy.
//! The only scratch is the packed block, `KC · n` floats (rounded up
//! to `NR`) that each worker thread keeps from one product to the next
//! — never operand-sized, whatever the reduction depth.
//!
//! Contract (see `DESIGN.md` "Kernel contract"): **every output element
//! accumulates its products in ascending reduction-index order** — `KC`
//! blocks ascending, index ascending within a block, the parts of `A'`
//! in the order given — in all three variants, whichever tile it falls
//! in. Output rows are split into one
//! panel per pool thread, and since no element's order depends on
//! where a panel starts, results are invariant across thread counts.
//! In `exact` mode the AVX2 tile uses lane-wise `mul`+`add` (one
//! rounding each, the arithmetic of the scalar tile), so results are
//! also bitwise equal to the naive triple loop on every host; `fast`
//! mode contracts to FMA.

use tgl_runtime::{parallel_for_chunks, UnsafeSlice};

use crate::kernel;

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

thread_local! {
    /// This thread's packed block of `B'` (`KC · n` floats for the
    /// widest `n` it has seen).
    static PANEL: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Multiply-add count below which a matmul runs inline on the caller;
/// pool dispatch costs more than the arithmetic.
const MM_SEQ_FLOPS: usize = 32 * 1024;

/// Output rows (of `row_flops` multiply-adds each) per sequential-path
/// threshold — feeds `parallel_for`'s element threshold.
pub(crate) fn seq_rows(row_flops: usize) -> usize {
    (MM_SEQ_FLOPS / row_flops.max(1)).max(1)
}

/// One of the matrices a left operand is made of: row-major data and
/// its row length.
pub(crate) type Part<'a> = (&'a [f32], usize);

/// The left operand `A'` of a product: row-major matrices of one row
/// count read side by side, as `[x₀ ‖ x₁ ‖ ..]` or, with `t`, as the
/// transpose of that concatenation.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    parts: &'a [Part<'a>],
    t: bool,
}

/// A stretch of the reduction over which the rows of a register tile
/// read one part of `A'`: row `r` is `rows[r][kk * ps]` for `kk` in
/// `0..len`, all in bounds ([`Run::new`] is the only constructor).
struct Run<'a> {
    rows: [&'a [f32]; MR],
    ps: usize,
    len: usize,
}

impl<'a> Run<'a> {
    fn new(rows: [&'a [f32]; MR], ps: usize, len: usize) -> Run<'a> {
        assert!(len > 0 && rows.iter().all(|row| row.len() > (len - 1) * ps));
        Run { rows, ps, len }
    }
}

impl<'a> Lhs<'a> {
    /// The part holding column `col` of the concatenation, and the
    /// column's place in it.
    fn part_of(&self, mut col: usize) -> (Part<'a>, usize) {
        for &part in self.parts {
            if col < part.1 {
                return (part, col);
            }
            col -= part.1;
        }
        unreachable!("an index past the last part of A'")
    }

    /// How many rows of `A'` from `r` on one register tile may hold:
    /// rows of the transpose are columns, and a tile stays in one part
    /// so that its rows share a stride.
    fn tile_rows(&self, r: usize) -> usize {
        if !self.t {
            return MR;
        }
        let ((_, width), col) = self.part_of(r);
        MR.min(width - col)
    }

    /// Reduction indices `k0..k0 + kc` of the `ih` rows of `A'` from
    /// `r` on into `runs`, one per part they pass through.
    fn runs(&self, r: usize, ih: usize, k0: usize, kc: usize, runs: &mut Vec<Run<'a>>) {
        runs.clear();
        if self.t {
            let ((x, width), col) = self.part_of(r);
            return runs.push(Run::new(tile(ih, |q| &x[k0 * width + col + q..]), width, kc));
        }
        // Every row passes from part to part at the same indices.
        let mut col0 = 0;
        for &(x, width) in self.parts {
            let (lo, hi) = (k0.max(col0), (k0 + kc).min(col0 + width));
            if lo < hi {
                runs.push(Run::new(tile(ih, |q| &x[(r + q) * width + lo - col0..]), 1, hi - lo));
            }
            col0 += width;
        }
    }
}

/// The `MR` rows of a register tile that has `ih` of its own: `row(q)`
/// for those, the last of them again for the rest (lanes computed and
/// dropped).
fn tile<'a>(ih: usize, row: impl Fn(usize) -> &'a [f32]) -> [&'a [f32]; MR] {
    std::array::from_fn(|q| row(q.min(ih - 1)))
}

// ---------------------------------------------------------------------
// Register-tile kernels
// ---------------------------------------------------------------------

/// AVX2 `MR×NR` tile update: row `r` of the tile lives at
/// `c[r * ldc..][..NR]` and gains `sum_kk a[r][kk] * pan[kk]`, `kk`
/// running through `runs` in order — or, with `first`, is overwritten
/// by that sum started from zero. The accumulators stay in registers
/// from the first run to the last.
///
/// With `FMA = false` each lane performs mul-then-add — the identical
/// two IEEE roundings, per element, in the same k order as the scalar
/// tile, so the result is bitwise equal to it. With `FMA = true` the
/// multiply-add contracts to one rounding (fast mode only).
///
/// # Safety
///
/// Requires AVX2+FMA (checked by `kernel::avx2()`); `pan` must hold at
/// least `NR` elements per reduction index of `runs` and `c` at least
/// `(MR - 1) * ldc + NR` (a [`Run`] keeps its own rows in bounds).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile_avx2<const FMA: bool>(
    runs: &[Run<'_>],
    pan: &[f32],
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
    let mut pan = pan.as_ptr();
    for run in runs {
        for kk in 0..run.len {
            let pb = _mm256_loadu_ps(pan.add(kk * NR));
            for (vr, a_row) in v.iter_mut().zip(&run.rows) {
                let av = _mm256_set1_ps(*a_row.get_unchecked(kk * run.ps));
                *vr = if FMA {
                    _mm256_fmadd_ps(av, pb, *vr)
                } else {
                    _mm256_add_ps(*vr, _mm256_mul_ps(av, pb))
                };
            }
        }
        pan = pan.add(run.len * NR);
    }
    for (r, vr) in v.into_iter().enumerate() {
        _mm256_storeu_ps(c.as_mut_ptr().add(r * ldc), vr);
    }
}

/// Tile update in place on C (layout as in [`tile_avx2`]) with SIMD
/// dispatch and the scalar reference as the fallback (and the
/// exact-mode ground truth).
fn tile_update(
    runs: &[Run<'_>],
    pan: &[f32],
    c: &mut [f32],
    ldc: usize,
    first: bool,
    simd: bool,
    fma: bool,
) {
    let kc: usize = runs.iter().map(|run| run.len).sum();
    assert!(c.len() >= (MR - 1) * ldc + NR && pan.len() >= kc * NR);
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` comes from `kernel::avx2()`; `c` and `pan` were
        // measured just above and every `Run` when it was built.
        unsafe {
            if fma {
                tile_avx2::<true>(runs, pan, c, ldc, first);
            } else {
                tile_avx2::<false>(runs, pan, c, ldc, first);
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
    let mut pan = pan.chunks_exact(NR);
    for run in runs {
        for (kk, pb) in pan.by_ref().take(run.len).enumerate() {
            for (row, a_row) in acc.iter_mut().zip(&run.rows) {
                let av = a_row[kk * run.ps];
                for (o, &bv) in row.iter_mut().zip(pb) {
                    *o += av * bv;
                }
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[r * ldc..][..NR].copy_from_slice(row);
    }
}

// ---------------------------------------------------------------------
// The blocked core and its entry points
// ---------------------------------------------------------------------

/// `C[m,n] = A'[m,k] · B'[k,n]`, overwriting whatever `c` held (the
/// first reduction block starts every accumulator from zero, so `c`
/// needs no zero pass). `A'` is the parts of `a` side by side or the
/// transpose of that ([`Lhs`]); `B'` is `b` stored `[k,n]` or, with
/// `tb`, the transpose of `b` stored `[n,k]`, and in both cases
/// consecutive rows of `b` start `ldb` floats apart. `epilogue` then
/// runs once over each finished row panel (whole rows of `c`, still
/// cache-warm) on the worker that computed it.
#[allow(clippy::too_many_arguments)]
fn gemm(
    a: Lhs<'_>,
    b: &[f32],
    tb: bool,
    ldb: usize,
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
    parallel_for_chunks(m, panel_rows, |_, rows: std::ops::Range<usize>| {
        // SAFETY: panels partition the row space, so these row ranges
        // are disjoint.
        let c_rows = unsafe { c.slice_mut(rows.start * n, rows.len() * n) };
        let (r0, rows_n) = (rows.start, rows.len());
        // The packed block lives with the worker: grown to the largest
        // block it has packed, never handed back, so it is L1-hot from
        // one product to the next.
        let mut panel = PANEL.take();
        panel.resize(panel.len().max(KC.min(k) * n_tiles * NR), 0.0);
        let mut runs = Vec::new();
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            // Pack B'[k0..k0+kc, :] into NR-wide panels: panel `jt`
            // holds rows kk-major, zero-padded past column n.
            for jt in 0..n_tiles {
                let (j0, jw) = (jt * NR, NR.min(n - jt * NR));
                let dst = &mut panel[jt * kc * NR..(jt + 1) * kc * NR];
                for kk in 0..kc {
                    let d = &mut dst[kk * NR..(kk + 1) * NR];
                    if !tb {
                        d[..jw].copy_from_slice(&b[(k0 + kk) * ldb + j0..][..jw]);
                    }
                    d[jw..].fill(0.0);
                }
                if tb {
                    // The transposed reader: column `j` of B' is a
                    // contiguous row of `b`.
                    for jj in 0..jw {
                        for (kk, &v) in b[(j0 + jj) * ldb + k0..][..kc].iter().enumerate() {
                            dst[kk * NR + jj] = v;
                        }
                    }
                }
            }
            let first = k0 == 0;
            let mut i = 0;
            while i < rows_n {
                // Past its last row a short tile re-reads that row; those
                // lanes are computed and dropped.
                let ih = a.tile_rows(r0 + i).min(rows_n - i);
                a.runs(r0 + i, ih, k0, kc, &mut runs);
                for jt in 0..n_tiles {
                    let (j0, jw) = (jt * NR, NR.min(n - jt * NR));
                    let pan = &panel[jt * kc * NR..(jt + 1) * kc * NR];
                    if ih == MR && jw == NR {
                        let c_tile = &mut c_rows[i * n + j0..];
                        tile_update(&runs, pan, c_tile, n, first, simd, fma);
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
                    tile_update(&runs, pan, &mut edge, NR, first, simd, fma);
                    for r in 0..ih {
                        c_rows[(i + r) * n + j0..][..jw].copy_from_slice(&edge[r * NR..][..jw]);
                    }
                }
                i += ih;
            }
        }
        PANEL.set(panel);
        epilogue(c_rows);
    });
}

/// C[m,n] = A[m,k] * B[k,n]
pub(crate) fn mm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    mm_nn_cols(a, b, n, c, m, k, n);
}

/// [`mm_nn`] against `n` columns of a wider `B`: row `kk` of the block
/// starts at `b[kk * ldb]` (`dX_p = dY · W[:, part p]` on the weight as
/// stored).
pub(crate) fn mm_nn_cols(
    a: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let _t = tgl_obs::timer("gemm");
    gemm(Lhs { parts: &[(a, k)], t: false }, b, false, ldb, c, m, k, n, NO_EPILOGUE);
}

/// C[m,k] = A[m,n] * B[k,n]^T  (i.e. A · Bᵀ)
pub(crate) fn mm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    let _t = tgl_obs::timer("gemm");
    gemm(Lhs { parts: &[(a, n)], t: false }, b, true, n, c, m, n, k, NO_EPILOGUE);
}

/// `C[m,n] = [x₀ ‖ x₁ ‖ ..] · W[n,k]ᵀ` over the `m`-row parts `x`
/// (`k` = the sum of their widths), then `epilogue` over the finished
/// rows: the `Linear` forward on the weight as stored and on the
/// parts of its input as they are.
pub(crate) fn mm_nt_then(
    x: &[Part<'_>],
    w: &[f32],
    c: &mut [f32],
    m: usize,
    n: usize,
    epilogue: &Epilogue<'_>,
) {
    let _t = tgl_obs::timer("gemm");
    let k = x.iter().map(|part| part.1).sum();
    gemm(Lhs { parts: x, t: false }, w, true, k, c, m, k, n, epilogue);
}

/// `C[k,n] = [a₀ ‖ a₁ ‖ ..]ᵀ · B[m,n]` over the `m`-row parts `a` (`k`
/// = the sum of their widths): `Aᵀ · B`.
pub(crate) fn mm_tn(a: &[Part<'_>], b: &[f32], c: &mut [f32], m: usize, n: usize) {
    let _t = tgl_obs::timer("gemm");
    let k = a.iter().map(|part| part.1).sum();
    gemm(Lhs { parts: a, t: true }, b, false, n, c, k, m, n, NO_EPILOGUE);
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
            "tn" => mm_tn(&[(&transposed(a, m, k), m)], b, &mut c, k, n),
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

    /// `A'` in parts cut anywhere, a part of no columns among them, is
    /// the one product bit for bit, as stored and transposed; so is a
    /// column block of `B` read through `ldb`.
    #[test]
    fn parts_and_column_blocks_match_the_whole_product() {
        let _guard = exact_guard();
        for mode in [KernelMode::Exact, KernelMode::Fast] {
            crate::kernel::set_mode(mode);
            for (m, k, n, cuts) in [
                (5, 8, 3, vec![3]),
                (33, 300, 21, vec![256]),
                (9, 80, 32, vec![32, 64]),
                (70, 300, 9, vec![200, 200, 299]),
                (7, 12, 9, vec![0]),
            ] {
                let x = fill(m * k, 3);
                let w = fill(n * k, 4);
                let dy = fill(m * n, 5);
                // Columns c0..c1 of every row of X.
                let cols = |c0: usize, c1: usize| -> Vec<f32> {
                    x.chunks_exact(k).flat_map(|row| row[c0..c1].to_vec()).collect()
                };
                let bounds: Vec<usize> = [0].into_iter().chain(cuts.clone()).chain([k]).collect();
                let owned: Vec<(Vec<f32>, usize)> =
                    bounds.windows(2).map(|b| (cols(b[0], b[1]), b[1] - b[0])).collect();
                let parts: Vec<Part<'_>> = owned.iter().map(|(x, width)| (&x[..], *width)).collect();

                let (mut whole, mut split) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
                mm_nt_then(&[(&x, k)], &w, &mut whole, m, n, NO_EPILOGUE);
                mm_nt_then(&parts, &w, &mut split, m, n, NO_EPILOGUE);
                assert_eq!(split, whole, "{mode:?} X·Wᵀ {m}x{k}x{n} cut at {cuts:?}");

                let (mut whole, mut split) = (vec![f32::NAN; k * n], vec![f32::NAN; k * n]);
                mm_tn(&[(&x, k)], &dy, &mut whole, m, n);
                mm_tn(&parts, &dy, &mut split, m, n);
                assert_eq!(split, whole, "{mode:?} Xᵀ·dY {m}x{k}x{n} cut at {cuts:?}");

                // dX = dY · W, and its columns from the first cut on.
                let cut = cuts[0];
                let mut dx = vec![f32::NAN; m * k];
                mm_nn(&dy, &w, &mut dx, m, n, k);
                let mut block = vec![f32::NAN; m * (k - cut)];
                mm_nn_cols(&dy, &w[cut..], k, &mut block, m, n, k - cut);
                let want: Vec<f32> = dx.chunks_exact(k).flat_map(|row| row[cut..].to_vec()).collect();
                assert_eq!(block, want, "{mode:?} dX columns {cut}.. of {m}x{n}x{k}");
            }
        }
        crate::kernel::set_mode(KernelMode::Exact);
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c = vec![0.0f32; 0];
        mm_nn(&[], &[], &mut c, 0, 0, 0);
        mm_nt(&[], &[], &mut c, 0, 0, 0);
        mm_tn(&[(&[], 0)], &[], &mut c, 0, 0);
        let mut c2 = vec![5.0f32; 6];
        mm_nn(&[], &[], &mut c2, 2, 0, 3);
        assert_eq!(c2, vec![0.0; 6], "an empty reduction is a zero product");
    }
}
