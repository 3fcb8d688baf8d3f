//! Cache-blocked GEMM: one packed register-tile core behind `mm_nn`,
//! `mm_nt` and `mm_tn`.
//!
//! [`gemm`] is the only dense kernel. It computes `C = A'·B'` where
//! each operand is read as stored or transposed, so the three entry
//! points differ only in how the core reaches their operands:
//!
//! * **B packer** — every variant walks the reduction in [`KC`]-deep
//!   blocks and packs the block of `B'` into column panels one register
//!   tile wide (zero-padded past the last column). `mm_nt` (`dA =
//!   dC·Bᵀ`) fills the same panels through a transposed reader. Rows of
//!   `b` are `ldb` apart, so `B'` may be a block of columns of a wider
//!   matrix (`dX_p = dY · W[:, part p]` on the weight as stored).
//! * **A reader** — the tile kernel takes each row of `A'` as a start
//!   plus the stride between consecutive reduction indices: 1 for
//!   `mm_nn` / `mm_nt`, whose rows are contiguous, and the row length
//!   of `a` for `mm_tn` (`dB = Aᵀ·dC`), whose four tile rows are then
//!   four adjacent floats of one row of `a` — no copy of A at all.
//!   `A'` may also be several matrices side by side ([`Lhs`]): the
//!   reader walks the parts in turn, so an affine layer over
//!   `[x₀ ‖ x₁ ‖ ..]` runs on the parts and the concatenation is never
//!   built. A part may name its rows in a wider table ([`Mat::rows`]):
//!   a tile row of `mm_nt_then` is then that table row, and `mm_tn`
//!   walks the reduction through the index, so a gather feeding the
//!   product is never built either.
//!
//! The register tile ([`tile_body`]) is [`MR`] rows by [`NV`] vectors of
//! the widest kind the host has: `4 × 8` floats at the scalar level, `4 ×
//! 16` on AVX2 and `4 × 32` on AVX-512F, eight independent accumulator
//! registers at either SIMD level (a multiply-add waits 4 cycles for
//! the one before it on the same register and two issue per cycle, so
//! fewer than eight chains leave the FMA ports idle). Each row panel
//! of `C` is one [`RowPanel`], which [`kernel::run_lanes`] runs on the
//! active level's vectors. A last column panel that one vector covers
//! runs the one-vector-wide form of the same body, so a narrow `C` (`n`
//! up to 16) pays for no second vector of padding; a `C` that one
//! vector covers whole runs that form [`NARROW_MR`] rows tall, which
//! keeps eight chains going again. A panel (`KC` rows of
//! at most 32 floats = 16 KiB) stays L1-resident while the tile
//! accumulates across it in place on C; partial tiles at the right and
//! bottom edges run the same kernel on a zero-padded copy. The only
//! scratch is the packed block, `KC · n` floats (rounded up to a
//! panel) that each worker thread keeps from one product to the next
//! — never operand-sized, whatever the reduction depth — and a `B'`
//! that is stored as one packed panel already (`mm_nn` / `mm_tn` with
//! `n` one tile wide) is read where it lies.
//!
//! Contract (see `DESIGN.md` "Kernel contract"): **every output element
//! accumulates its products in ascending reduction-index order** — `KC`
//! blocks ascending, index ascending within a block, the parts of `A'`
//! in the order given — in all three variants, whichever tile it falls
//! in. Output rows are split into one
//! panel per pool thread, and since no element's order depends on
//! where a panel starts, results are invariant across thread counts.
//! Every tile runs one fused multiply-add per product
//! ([`Lanes::mul_add`]: one rounding, at every level, the scalar tile's
//! emulated one included), so which lane of which tile an element lands
//! in cannot show: results are bitwise equal to the naive triple loop of
//! `f32::mul_add` at every SIMD level and on every host.

use tgl_runtime::{parallel_rows, Chunks, Rows};

use crate::kernel::{self, LaneKernel, Lanes};

/// A pass over finished whole rows of `C` (bias add, activation).
pub(crate) type Epilogue<'a> = dyn Fn(&mut [f32]) + Sync + 'a;

/// The epilogue of a plain product.
pub(crate) const NO_EPILOGUE: &Epilogue<'static> = &|_| {};

/// Rows of A per register tile.
pub(crate) const MR: usize = 4;
/// Rows of A per register tile of a `C` one vector wide: `NARROW_MR × 1`
/// = 8 accumulators, as many as the wide tile's `MR × NV`.
const NARROW_MR: usize = 2 * MR;
/// Vectors per tile row: `MR × NV` = 8 accumulators (see the module
/// docs), leaving half of the 16 AVX2 registers for the A broadcast
/// and the B panel loads.
const NV: usize = 2;
/// The widest tile row of any level, in floats (AVX-512F).
const MAX_NR: usize = NV * 16;
/// Reduction depth of a packed block: a panel of the widest tile is
/// `KC × 32` floats = 16 KiB, a third of L1D, which leaves room for the
/// lines of `A'` that `mm_tn` walks at a stride beside it (at 256 the
/// two evict each other and `tn` runs out of L2). Where the blocks are
/// cut shows in no bit: an element's products keep their order.
pub(crate) const KC: usize = 128;

thread_local! {
    /// This thread's packed block of `B'` (`KC · n` floats for the
    /// widest `n` it has seen).
    static PANEL: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Multiply-add count below which a matmul runs inline on the caller:
/// the 2-thread break-even of the fused multiply-add tile. Measured on
/// the 2-vCPU AVX-512 host that recorded `BENCH_micro.json` with the
/// split forced at every size, `matmul` alternating 1 and 2 threads in
/// one process, the mean of back-to-back calls, median of 20 pairs (two
/// sessions): at 2 threads `m×32×32` reads 0.93-0.99x at `m` = 1024
/// (1 M multiply-adds), 1.04-1.14x at 2048 (2.1 M), 1.39-1.45x at 4608
/// (4.7 M) and 1.47-1.51x at 6144; `1024×80×32` (2.6 M) 0.97-1.19x,
/// `2304×80×32` (5.9 M) 1.53-1.55x, `4608×80×32` (11.8 M) 1.39-1.81x.
/// One thread runs these at about 100 GFLOP/s. Waking a worker costs
/// what about 1-2 M multiply-adds cost one thread (10-30 µs); a third
/// session on a busier host read 0.8-0.97x up to 6.3 M, so the
/// threshold keeps its margin above the break-even.
const MM_SEQ_FLOPS: usize = 4 << 20;

/// Output rows (of `row_flops` multiply-adds each) per sequential-path
/// threshold: the smallest row panel a chunk of a product is given.
pub(crate) fn seq_rows(row_flops: usize) -> usize {
    (MM_SEQ_FLOPS / row_flops.max(1)).max(1)
}

/// One of the matrices a left operand is made of: row-major `data`,
/// `width` floats a row, rows `ld` floats apart, read whole or, with
/// `rows`, as the table rows `rows` names in that order (row `i` of the
/// part is row `rows[i]` of `data`).
#[derive(Clone, Copy)]
pub(crate) struct Mat<'a> {
    data: &'a [f32],
    width: usize,
    ld: usize,
    rows: Option<&'a [usize]>,
}

impl<'a> Mat<'a> {
    /// `data` as it is stored.
    pub(crate) fn whole(data: &'a [f32], width: usize) -> Mat<'a> {
        Mat::strided(data, width, width)
    }

    /// `width` columns of a matrix whose rows are `ld` floats apart,
    /// `data` starting at the first of them: one head's block of
    /// columns, read where it lies.
    pub(crate) fn strided(data: &'a [f32], width: usize, ld: usize) -> Mat<'a> {
        assert!(width <= ld, "a block of {width} columns in rows of {ld}");
        Mat { data, width, ld, rows: None }
    }

    /// The rows `rows` of the table `data`, read where they lie.
    ///
    /// # Panics
    ///
    /// Panics unless every row named lies inside `data`.
    pub(crate) fn rows(data: &'a [f32], width: usize, rows: &'a [usize]) -> Mat<'a> {
        let n = data.len().checked_div(width).unwrap_or(usize::MAX);
        assert!(rows.iter().all(|&r| r < n), "an indexed part names a row past its table's {n}");
        Mat { data, width, ld: width, rows: Some(rows) }
    }

    /// The part's column count.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Row `i` of the part, from column `col` to the end of the table.
    pub(crate) fn row(&self, i: usize, col: usize) -> &'a [f32] {
        &self.data[self.rows.map_or(i, |rows| rows[i]) * self.ld + col..]
    }
}

/// The left operand `A'` of a product: matrices of one row count read
/// side by side, as `[x₀ ‖ x₁ ‖ ..]` or, with `t`, as the transpose of
/// that concatenation.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    parts: &'a [Mat<'a>],
    t: bool,
}

/// A stretch of the reduction over which the rows of a register tile
/// read one part of `A'`: row `r` is `rows[r][off(kk)]` for `kk` in
/// `0..len`, where `off(kk)` is `kk * ps`, or `idx[kk] * ps` through an
/// index; all in bounds ([`Run::new`] and [`Run::indexed`] are the only
/// constructors).
struct Run<'a, const R: usize> {
    rows: [&'a [f32]; R],
    ps: usize,
    len: usize,
    idx: Option<&'a [usize]>,
}

impl<'a, const R: usize> Run<'a, R> {
    fn new(rows: [&'a [f32]; R], ps: usize, len: usize) -> Run<'a, R> {
        assert!(len > 0 && rows.iter().all(|row| row.len() > (len - 1) * ps));
        Run { rows, ps, len, idx: None }
    }

    fn indexed(rows: [&'a [f32]; R], ps: usize, idx: &'a [usize]) -> Run<'a, R> {
        let last = idx.iter().max().expect("a run of no reduction index");
        assert!(rows.iter().all(|row| row.len() > last * ps));
        Run { rows, ps, len: idx.len(), idx: Some(idx) }
    }
}

impl<'a> Lhs<'a> {
    /// The part holding column `col` of the concatenation, and the
    /// column's place in it.
    fn part_of(&self, mut col: usize) -> (Mat<'a>, usize) {
        for &part in self.parts {
            if col < part.width {
                return (part, col);
            }
            col -= part.width;
        }
        unreachable!("an index past the last part of A'")
    }

    /// How many rows of `A'` from `r` on one register tile of `R` rows
    /// may hold: rows of the transpose are columns, and a tile stays in
    /// one part so that its rows share a stride.
    fn tile_rows<const R: usize>(&self, r: usize) -> usize {
        if !self.t {
            return R;
        }
        let (part, col) = self.part_of(r);
        R.min(part.width - col)
    }

    /// Reduction indices `k0..k0 + kc` of the `ih` rows of `A'` from
    /// `r` on into `runs`, one per part they pass through.
    fn runs<const R: usize>(&self, r: usize, ih: usize, k0: usize, kc: usize, runs: &mut Vec<Run<'a, R>>) {
        runs.clear();
        if self.t {
            // Rows of `A'` are columns of the part; the reduction walks
            // its rows, through the index if it has one.
            let (part, col) = self.part_of(r);
            let (x, ld) = (part.data, part.ld);
            return runs.push(match part.rows {
                None => Run::new(tile(ih, |q| &x[k0 * ld + col + q..]), ld, kc),
                Some(rows) => Run::indexed(tile(ih, |q| &x[col + q..]), ld, &rows[k0..k0 + kc]),
            });
        }
        // Every row passes from part to part at the same indices.
        let mut col0 = 0;
        for part in self.parts {
            let (lo, hi) = (k0.max(col0), (k0 + kc).min(col0 + part.width));
            if lo < hi {
                runs.push(Run::new(tile(ih, |q| part.row(r + q, lo - col0)), 1, hi - lo));
            }
            col0 += part.width;
        }
    }
}

/// The `R` rows of a register tile that has `ih` of its own: `row(q)`
/// for those, the last of them again for the rest (lanes computed and
/// dropped).
fn tile<'a, const R: usize>(ih: usize, row: impl Fn(usize) -> &'a [f32]) -> [&'a [f32]; R] {
    std::array::from_fn(|q| row(q.min(ih - 1)))
}

// ---------------------------------------------------------------------
// Register-tile kernels
// ---------------------------------------------------------------------

/// The tile update, written once: `R` rows of `W` vectors. Row `r` of
/// the tile lives at `c[r * ldc..][..W * V::LANES]` and gains `sum_kk
/// a[r][kk] * pan[kk]`, `kk` running through the reduction indices of
/// `runs` in order — or, with `first`, is overwritten by that sum
/// started from zero. The `R × W` accumulators stay in registers from
/// the first run to the last, and each lane performs its element's
/// products in that order whatever `V`, `W` and `R` are.
///
/// # Safety
///
/// `V`'s instruction set must be enabled in the caller (this inlines
/// into [`RowPanel`], run by [`kernel::run_lanes`]); `pan` must hold
/// one tile row (`W` vectors) of floats per reduction index of `runs`
/// and `c` at least `(R - 1) * ldc` floats plus one tile row (a
/// [`Run`] keeps its own rows in bounds).
#[inline(always)]
unsafe fn tile_body<V: Lanes, const W: usize, const R: usize>(
    runs: &[Run<'_, R>],
    pan: &[f32],
    c: &mut [f32],
    ldc: usize,
    first: bool,
) {
    let nr = W * V::LANES;
    debug_assert!(c.len() >= (R - 1) * ldc + nr);
    debug_assert!(pan.len() >= runs.iter().map(|run| run.len).sum::<usize>() * nr);
    let mut acc = [[V::splat(0.0); W]; R];
    if !first {
        for (r, row) in acc.iter_mut().enumerate() {
            for (w, v) in row.iter_mut().enumerate() {
                *v = V::load(c.as_ptr().add(r * ldc + w * V::LANES));
            }
        }
    }
    let mut pan = pan.as_ptr();
    for run in runs {
        match run.idx {
            None => {
                for kk in 0..run.len {
                    tile_step::<V, W, R>(&mut acc, &run.rows, kk * run.ps, pan);
                    pan = pan.add(nr);
                }
            }
            Some(idx) => {
                for &i in idx {
                    tile_step::<V, W, R>(&mut acc, &run.rows, i * run.ps, pan);
                    pan = pan.add(nr);
                }
            }
        }
    }
    for (r, row) in acc.into_iter().enumerate() {
        for (w, v) in row.into_iter().enumerate() {
            v.store(c.as_mut_ptr().add(r * ldc + w * V::LANES));
        }
    }
}

/// One reduction index of [`tile_body`]: tile row `r` gains `rows[r][at]`
/// times the panel row at `pan`.
///
/// # Safety
///
/// As [`tile_body`]: `at` lies inside every row and `pan` holds `W`
/// vectors.
#[inline(always)]
unsafe fn tile_step<V: Lanes, const W: usize, const R: usize>(
    acc: &mut [[V; W]; R],
    rows: &[&[f32]; R],
    at: usize,
    pan: *const f32,
) {
    let pb: [V; W] = std::array::from_fn(|w| V::load(pan.add(w * V::LANES)));
    for (row, a_row) in acc.iter_mut().zip(rows) {
        let av = V::splat(*a_row.get_unchecked(at));
        for (v, &b) in row.iter_mut().zip(&pb) {
            *v = v.mul_add(av, b);
        }
    }
}

/// Width of column panel `jt` of an `n`-column `B'` on vectors of
/// `lanes` floats: panels are `NV * lanes` wide, except a last one that
/// a single vector covers. Panel `jt` starts at column `jt * NV * lanes`
/// and, packed `kc` deep, at float `jt * kc * NV * lanes` of the block.
fn panel_width(lanes: usize, n: usize, jt: usize) -> usize {
    if n - jt * NV * lanes <= lanes {
        lanes
    } else {
        NV * lanes
    }
}

/// Packs `B'[k0..k0 + kc, ..n]` into `block`, one column panel after
/// the other: panel `jt` holds its rows kk-major, zero-padded past
/// column `n`. `B'` is `b` (`tb`: its transpose), rows `ldb` apart.
#[allow(clippy::too_many_arguments)]
fn pack(lanes: usize, b: &[f32], tb: bool, ldb: usize, k0: usize, kc: usize, n: usize, block: &mut [f32]) {
    let nr = NV * lanes;
    for jt in 0..n.div_ceil(nr) {
        let (j0, pw) = (jt * nr, panel_width(lanes, n, jt));
        let jw = pw.min(n - j0);
        let dst = &mut block[jt * kc * nr..][..kc * pw];
        for kk in 0..kc {
            let d = &mut dst[kk * pw..(kk + 1) * pw];
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
                    dst[kk * pw + jj] = v;
                }
            }
        }
    }
}

/// One row panel of [`gemm`]: the whole rows `c` of `C`, from row `r0`
/// of `A'` on. Each `KC` block of `B'` is packed (or read as stored)
/// and every register tile of the panel updated over it.
struct RowPanel<'a, 'c> {
    a: Lhs<'a>,
    b: &'a [f32],
    tb: bool,
    ldb: usize,
    k: usize,
    n: usize,
    r0: usize,
    c: &'c mut [f32],
}

impl LaneKernel for RowPanel<'_, '_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        if self.n <= V::LANES {
            self.tiles::<V, NARROW_MR>()
        } else {
            self.tiles::<V, MR>()
        }
    }
}

impl RowPanel<'_, '_> {
    /// [`RowPanel`] on register tiles of `R` rows.
    ///
    /// # Safety
    ///
    /// `V`'s instruction set must be enabled.
    #[inline(always)]
    unsafe fn tiles<V: Lanes, const R: usize>(self) {
        let RowPanel { a, b, tb, ldb, k, n, r0, c } = self;
        let (lanes, nr) = (V::LANES, NV * V::LANES);
        let (rows_n, n_tiles) = (c.len() / n, n.div_ceil(nr));
        // Floats per reduction index of the packed block.
        let packed_row = (n_tiles - 1) * nr + panel_width(lanes, n, n_tiles - 1);
        // A `B'` of one panel whose rows are whole panel rows, back to
        // back, is its own packed block.
        let as_stored = !tb && n_tiles == 1 && ldb == n && n == packed_row;
        // The packed block lives with the worker: grown to the largest
        // block it has packed, never handed back, so it is L1-hot from
        // one product to the next.
        let mut panel = PANEL.take();
        if !as_stored {
            panel.resize(panel.len().max(KC.min(k) * packed_row), 0.0);
        }
        let mut runs = Vec::new();
        let mut edge = [0.0f32; MR * MAX_NR];
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            let block: &[f32] = if as_stored {
                &b[k0 * n..][..kc * n]
            } else {
                pack(lanes, b, tb, ldb, k0, kc, n, &mut panel);
                &panel
            };
            let first = k0 == 0;
            let mut i = 0;
            while i < rows_n {
                // Past its last row a short tile re-reads that row; those
                // lanes are computed and dropped.
                let ih = a.tile_rows::<R>(r0 + i).min(rows_n - i);
                a.runs(r0 + i, ih, k0, kc, &mut runs);
                for jt in 0..n_tiles {
                    let (j0, pw) = (jt * nr, panel_width(lanes, n, jt));
                    let jw = pw.min(n - j0);
                    let pan = &block[jt * kc * nr..][..kc * pw];
                    let whole = ih == R && jw == pw;
                    let (tile, ldt) = if whole {
                        (&mut c[i * n + j0..], n)
                    } else {
                        // Edge tile: the same kernel on a zero-padded copy.
                        edge.fill(0.0);
                        if !first {
                            for r in 0..ih {
                                edge[r * pw..][..jw].copy_from_slice(&c[(i + r) * n + j0..][..jw]);
                            }
                        }
                        (&mut edge[..], pw)
                    };
                    assert!(tile.len() >= (R - 1) * ldt + pw && pan.len() >= kc * pw);
                    // SAFETY (both): `tile` and `pan` were measured just
                    // above against the instance's width, every `Run` when
                    // it was built.
                    if pw == lanes {
                        tile_body::<V, 1, R>(&runs, pan, tile, ldt, first);
                    } else {
                        tile_body::<V, NV, R>(&runs, pan, tile, ldt, first);
                    }
                    if !whole {
                        for r in 0..ih {
                            c[(i + r) * n + j0..][..jw].copy_from_slice(&edge[r * pw..][..jw]);
                        }
                    }
                }
                i += ih;
            }
        }
        PANEL.set(panel);
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
    if n == 0 {
        return;
    }
    // One MR-aligned row panel per pool thread: each panel packs its
    // own copy of B', so fewer panels means less packing. No element's
    // accumulation order depends on where the boundaries fall. Small
    // problems widen the panel so pool dispatch stays amortized.
    let panel_rows = m
        .div_ceil(tgl_runtime::current_threads())
        .next_multiple_of(MR)
        .max(seq_rows(k * n));
    parallel_rows(m, Chunks::Fixed(panel_rows), Rows::width(c, n), |rows, c_rows| {
        kernel::run_lanes(RowPanel { a, b, tb, ldb, k, n, r0: rows.start, c: c_rows });
        epilogue(c_rows);
    });
}

/// C[m,n] = A[m,k] * B[k,n]
pub(crate) fn mm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    mm_nn_cols(Mat::whole(a, k), b, n, c, m, n);
}

/// `C[m,n] = A[m,k] · B[k,n]` for a part `a` of `k` columns, against
/// `n` columns of a wider `B`: row `kk` of the block starts at
/// `b[kk * ldb]` (`dX_p = dY · W[:, part p]` on the weight as stored).
pub(crate) fn mm_nn_cols(a: Mat<'_>, b: &[f32], ldb: usize, c: &mut [f32], m: usize, n: usize) {
    let _t = tgl_obs::timer("gemm");
    gemm(Lhs { parts: &[a], t: false }, b, false, ldb, c, m, a.width, n, NO_EPILOGUE);
}

/// C[m,k] = A[m,n] * B[k,n]^T  (i.e. A · Bᵀ)
pub(crate) fn mm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    let _t = tgl_obs::timer("gemm");
    gemm(Lhs { parts: &[Mat::whole(a, n)], t: false }, b, true, n, c, m, n, k, NO_EPILOGUE);
}

/// `C[m,n] = [x₀ ‖ x₁ ‖ ..] · W[n,k]ᵀ` over the `m`-row parts `x`
/// (`k` = the sum of their widths), then `epilogue` over the finished
/// rows: the `Linear` forward on the weight as stored and on the
/// parts of its input where they lie.
pub(crate) fn mm_nt_then(
    x: &[Mat<'_>],
    w: &[f32],
    c: &mut [f32],
    m: usize,
    n: usize,
    epilogue: &Epilogue<'_>,
) {
    let _t = tgl_obs::timer("gemm");
    let k = x.iter().map(|part| part.width).sum();
    gemm(Lhs { parts: x, t: false }, w, true, k, c, m, k, n, epilogue);
}

/// `C[k,n] = [a₀ ‖ a₁ ‖ ..]ᵀ · B[m,n]` over the `m`-row parts `a` (`k`
/// = the sum of their widths), rows of `b` `ldb` floats apart: `Aᵀ · B`.
pub(crate) fn mm_tn(a: &[Mat<'_>], b: &[f32], ldb: usize, c: &mut [f32], m: usize, n: usize) {
    let _t = tgl_obs::timer("gemm");
    let k = a.iter().map(|part| part.width).sum();
    gemm(Lhs { parts: a, t: true }, b, false, ldb, c, k, m, n, NO_EPILOGUE);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Simd;

    /// Holds the crate-wide kernel lock; puts the process back at the
    /// host's own SIMD level when the test ends, however it ends.
    struct KernelGuard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

    impl Drop for KernelGuard {
        fn drop(&mut self) {
            kernel::set_simd(Simd::Avx512);
        }
    }

    /// Takes the crate-wide kernel lock (the tests walk the SIMD levels
    /// themselves — every level's tile must match the naive loop
    /// bitwise).
    fn exact_guard() -> KernelGuard {
        KernelGuard(kernel::test_serial())
    }

    fn fill(len: usize, salt: usize) -> Vec<f32> {
        (0..len).map(|i| ((i * 37 + salt * 11) % 101) as f32 * 0.02 - 1.0).collect()
    }

    /// The ground truth for every variant: the triple loop
    /// over the *logical* product `A'[m,k] · B'[k,n]`, reduction index
    /// ascending per output element, one fused multiply-add per product.
    fn naive_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    c[i * n + j] = a[i * k + kk].mul_add(b[kk * n + j], c[i * n + j]);
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
            "tn" => mm_tn(&[Mat::whole(&transposed(a, m, k), m)], b, n, &mut c, k, n),
            _ => unreachable!(),
        }
        c
    }

    /// Sizes straddling every tile boundary of every level: `m` below,
    /// at and above `MR` (and `NARROW_MR` with `C` one vector wide); `n`
    /// one below, at and one above a vector and a whole tile row (4 / 8
    /// floats scalar, 8 / 16 AVX2, 16 / 32 AVX-512F), so the narrow last
    /// panel, the wide one and both kinds of edge copy all run; `k`
    /// below, at and across `KC` blocks.
    const SIZES: [(usize, usize, usize); 20] = [
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 8),
        (5, 9, 17),
        (4, 256, 8),
        (5, 257, 9),
        (65, 300, 33),
        (7, 513, 31),
        (3, 4, 15),
        (4, 127, 16),
        (5, 7, 17),
        (8, 31, 32),
        (9, 128, 48),
        (13, 129, 49),
        (6, 258, 63),
        (12, 3, 64),
        (11, 40, 65),
        (8, 130, 4),
        (17, 9, 8),
        (23, 257, 16),
    ];

    /// Same k-ascending order and per-element roundings as the naive
    /// loop (at whichever SIMD level) => bitwise equal.
    fn assert_matches_naive(variant: &str) {
        let _guard = exact_guard();
        for level in kernel::simd_levels() {
            kernel::set_simd(level);
            for (m, k, n) in SIZES {
                let a = fill(m * k, 1);
                let b = fill(k * n, 2);
                let want = naive_nn(&a, &b, m, k, n);
                assert_eq!(run(variant, &a, &b, m, k, n), want, "mm_{variant} {m}x{k}x{n} at {level:?}");
            }
        }
    }

    /// Every level against the scalar level, on other operand values
    /// than the naive comparison sees.
    fn assert_simd_matches_scalar(variant: &str) {
        let _guard = exact_guard();
        for (m, k, n) in SIZES {
            let a = fill(m * k, 7);
            let b = fill(k * n, 9);
            kernel::set_simd(Simd::Scalar);
            let scalar = run(variant, &a, &b, m, k, n);
            for level in kernel::simd_levels() {
                kernel::set_simd(level);
                let simd = run(variant, &a, &b, m, k, n);
                assert_eq!(simd, scalar, "mm_{variant} {level:?} vs scalar {m}x{k}x{n}");
            }
        }
    }

    /// 1 vs 4 threads, bitwise, at every level. Both
    /// shapes carry more than `MM_SEQ_FLOPS` multiply-adds, so they do
    /// split into several row panels: one with a reduction crossing `KC`
    /// boundaries, one whose reduction and width sit below a vector.
    fn assert_thread_count_invariant(variant: &str) {
        let _guard = exact_guard();
        let before = tgl_runtime::current_threads();
        for level in kernel::simd_levels() {
            kernel::set_simd(level);
            for (m, k, n) in [(1300, 257, 33), (300_000, 3, 5)] {
                assert!(seq_rows(k * n) < m, "{m}x{k}x{n} would run as one panel");
                let a = fill(m * k, 11);
                let b = fill(k * n, 12);
                tgl_runtime::set_threads(1);
                let one = run(variant, &a, &b, m, k, n);
                tgl_runtime::set_threads(4);
                let four = run(variant, &a, &b, m, k, n);
                assert_eq!(one, four, "mm_{variant} {m}x{k}x{n} {level:?} 1 vs 4 threads");
            }
        }
        tgl_runtime::set_threads(before);
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

    /// `A'` in parts cut anywhere (inside a register tile, on a vector,
    /// past `KC`), a part of no columns among them, is the one product
    /// bit for bit, as stored and transposed; so is a column block of
    /// `B` read through `ldb`. At every level.
    #[test]
    fn parts_and_column_blocks_match_the_whole_product() {
        let _guard = exact_guard();
        for level in kernel::simd_levels() {
            kernel::set_simd(level);
            for (m, k, n, cuts) in [
                (5, 8, 3, vec![3]),
                (33, 300, 21, vec![128, 256]),
                (9, 80, 32, vec![32, 64]),
                (70, 300, 9, vec![200, 200, 299]),
                (7, 12, 9, vec![0]),
                (6, 50, 33, vec![1, 17, 18, 47]),
                (10, 270, 16, vec![15, 31, 129, 257]),
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
                let parts: Vec<Mat<'_>> = owned.iter().map(|(x, width)| Mat::whole(x, *width)).collect();
                let at = format!("{level:?}");

                let (mut whole, mut split) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
                mm_nt_then(&[Mat::whole(&x, k)], &w, &mut whole, m, n, NO_EPILOGUE);
                mm_nt_then(&parts, &w, &mut split, m, n, NO_EPILOGUE);
                assert_eq!(split, whole, "{at} X·Wᵀ {m}x{k}x{n} cut at {cuts:?}");

                let (mut whole, mut split) = (vec![f32::NAN; k * n], vec![f32::NAN; k * n]);
                mm_tn(&[Mat::whole(&x, k)], &dy, n, &mut whole, m, n);
                mm_tn(&parts, &dy, n, &mut split, m, n);
                assert_eq!(split, whole, "{at} Xᵀ·dY {m}x{k}x{n} cut at {cuts:?}");

                // dX = dY · W, and its columns from the first cut on.
                let cut = cuts[0];
                let mut dx = vec![f32::NAN; m * k];
                mm_nn(&dy, &w, &mut dx, m, n, k);
                let mut block = vec![f32::NAN; m * (k - cut)];
                mm_nn_cols(Mat::whole(&dy, n), &w[cut..], k, &mut block, m, k - cut);
                let want: Vec<f32> = dx.chunks_exact(k).flat_map(|row| row[cut..].to_vec()).collect();
                assert_eq!(block, want, "{at} dX columns {cut}.. of {m}x{n}x{k}");
            }
        }
    }

    /// Every element rounds each multiply-add once, at every level, in
    /// every tile position and at 1 and 4 threads: row `[1, 1 + 2⁻¹²]`
    /// times column `[-1, 1 + 2⁻¹²]` is `2⁻¹¹ + 2⁻²⁴` fused, where a
    /// rounded product would leave `2⁻¹¹`. Every variant over 301 rows,
    /// and at 4 threads `mm_nn` over enough rows to split into panels.
    #[test]
    fn every_product_is_one_fused_multiply_add() {
        let _guard = exact_guard();
        let before = tgl_runtime::current_threads();
        let (k, n, split) = (2, 33, 65_539);
        assert!(seq_rows(k * n) < split, "{split}x{k}x{n} would run as one panel");
        let x = 1.0 + 2f32.powi(-12);
        let (fused, rounded) = (2f32.powi(-11) + 2f32.powi(-24), 2f32.powi(-11));
        assert_eq!(((x * x) - 1.0, x.mul_add(x, -1.0)), (rounded, fused));
        let a: Vec<f32> = (0..split).flat_map(|_| [1.0, x]).collect();
        let b: Vec<f32> = [-1.0; 33].into_iter().chain([x; 33]).collect();
        for level in kernel::simd_levels() {
            kernel::set_simd(level);
            for threads in [1, 4] {
                tgl_runtime::set_threads(threads);
                let panels = (threads > 1).then_some(("nn", split));
                for (variant, m) in [("nn", 301), ("nt", 301), ("tn", 301)].into_iter().chain(panels) {
                    let c = run(variant, &a[..m * k], &b, m, k, n);
                    let wrong = c.iter().position(|&v| v != fused);
                    assert_eq!(wrong, None, "mm_{variant} over {m} rows at {level:?}, {threads} threads");
                }
            }
        }
        tgl_runtime::set_threads(before);
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c = vec![0.0f32; 0];
        mm_nn(&[], &[], &mut c, 0, 0, 0);
        mm_nt(&[], &[], &mut c, 0, 0, 0);
        mm_tn(&[Mat::whole(&[], 0)], &[], 0, &mut c, 0, 0);
        let mut c2 = vec![5.0f32; 6];
        mm_nn(&[], &[], &mut c2, 2, 0, 3);
        assert_eq!(c2, vec![0.0; 6], "an empty reduction is a zero product");
        // A part of no columns asks `mm_nn_cols` for a `C` of none.
        mm_nn(&[1.0; 6], &[], &mut c, 2, 3, 0);
    }
}
