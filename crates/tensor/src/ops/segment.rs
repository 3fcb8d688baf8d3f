//! Segmented (per-group) operators.
//!
//! These are the kernels underneath TGLite's edge-wise block operators:
//! `edge_softmax` is a segmented softmax grouped by destination node,
//! `edge_reduce` is a segmented reduction, and `src_scatter` uses
//! segmented mean. Inputs are `[N, D]` row tensors plus a per-row
//! segment id; segment ids need not be sorted, but when they are
//! nondecreasing (a block's destination index always is) each segment
//! is read as one run of consecutive rows (`SegmentRows`).
//!
//! The sum and mean are the row scatter-add behind `index_select`'s
//! backward (`kernel::add_rows`), which adds each segment's rows in
//! ascending order. The softmax runs one body at every SIMD level
//! (`kernel::run_lanes`) with one output element per lane, packing
//! whole rows of a run into a vector when they are narrower than one
//! (`Softmax`). Either way an element's operations come in the scalar
//! loop's order, so results do not depend on the level or the row
//! source. They run once over all segments on the caller's
//! thread. [`edge_attention`], the fused attention of TGAT, TGN and
//! APAN, keeps one order of its own at every level and is the one
//! segment kernel that splits its segments across the pool (above
//! [`SEG_SEQ_ROWS`] rows).

use std::borrow::Cow;
use std::marker::PhantomData;
use std::ops::Range;

use tgl_runtime::{parallel_rows, Chunks, Rows};

use crate::kernel::{self, LaneKernel, Lanes};
use crate::ops::gemm::{mm_nn_cols, mm_nt_then, mm_tn, Mat, NO_EPILOGUE};
use crate::ops::matmul::with_parts;
use crate::ops::index::scatter_add_rows;
use crate::ops::Part;
use crate::pool::{self, PooledBuf};
use crate::Tensor;

/// Rows grouped by segment: `rows[starts[s]..starts[s + 1]]` lists the
/// row indices of segment `s` in ascending order (counting sort, so the
/// grouping is stable), built in O(n): per-segment accumulation keeps
/// the ascending-row floating-point order of the scalar loops.
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

/// A kernel over consecutive segments, called once per segment with its
/// rows in ascending order.
trait SegmentKernel {
    /// The `k`-th segment of the range [`SegmentRows::each`] walks.
    fn segment(&mut self, k: usize, rows: impl Iterator<Item = usize> + Clone);
}

/// Where each segment's rows come from. Nondecreasing ids (a block's
/// destination index: the sampler emits each destination's edges
/// together) make segment `s` one run of consecutive rows,
/// `starts[s]..starts[s + 1]`, found in one pass over the ids; any other
/// order goes through the counting-sort [`SegmentIndex`]. Both hand a
/// kernel the same rows in the same ascending order: the kernel body is
/// one, compiled for each source; a run reads no index.
enum SegmentRows {
    Runs(Vec<usize>),
    Index(SegmentIndex),
}

impl SegmentRows {
    fn new(ids: &[usize], num_segments: usize) -> SegmentRows {
        if !ids.is_sorted() {
            return SegmentRows::Index(SegmentIndex::build(ids, num_segments));
        }
        // Each row writes where its segment ends (the last write wins),
        // then an empty segment starts and ends where the one before it
        // ended: no branch per row.
        let mut starts = vec![0; num_segments + 1];
        for (i, &id) in ids.iter().enumerate() {
            starts[id + 1] = i + 1;
        }
        for s in 1..=num_segments {
            starts[s] = starts[s].max(starts[s - 1]);
        }
        SegmentRows::Runs(starts)
    }

    /// A range of row positions that holds every row of the segments
    /// `segs`: their run, or all rows for unsorted ids.
    fn span(&self, segs: &Range<usize>) -> Range<usize> {
        match self {
            SegmentRows::Runs(starts) => starts[segs.start]..starts[segs.end],
            SegmentRows::Index(idx) => 0..idx.rows.len(),
        }
    }

    /// The number of segments.
    fn len(&self) -> usize {
        match self {
            SegmentRows::Runs(starts) => starts.len() - 1,
            SegmentRows::Index(idx) => idx.starts.len() - 1,
        }
    }

    /// Whether segment `s` has no rows.
    fn is_empty_at(&self, s: usize) -> bool {
        let starts = match self {
            SegmentRows::Runs(starts) => starts,
            SegmentRows::Index(idx) => &idx.starts,
        };
        starts[s] == starts[s + 1]
    }

    /// The first row each segment owns of a per-row output, as
    /// [`Rows::offsets`] cuts it: a run's `starts`, or, for unsorted ids
    /// (which scatter a segment's rows over the output, so one chunk owns
    /// them all), every segment at 0 and the end at the row count.
    fn offsets(&self) -> Cow<'_, [usize]> {
        match self {
            SegmentRows::Runs(starts) => Cow::Borrowed(starts),
            SegmentRows::Index(idx) => {
                let mut at = vec![0; idx.starts.len()];
                at[idx.starts.len() - 1] = idx.rows.len();
                Cow::Owned(at)
            }
        }
    }

    /// How [`edge_attention`] cuts the segments for [`parallel_rows`]:
    /// runs split from [`SEG_SEQ_ROWS`] rows; unsorted ids stay one
    /// chunk.
    fn chunks(&self) -> Chunks {
        match self {
            SegmentRows::Runs(starts) if starts[self.len()] >= SEG_SEQ_ROWS => Chunks::Auto(1),
            _ => Chunks::Auto(self.len()),
        }
    }

    /// Runs `kernel` over the segments `segs`, in order. Inlined, so
    /// that a kernel built on [`Lanes`] stays inside its level's
    /// [`kernel::run_lanes`] instance.
    #[inline(always)]
    fn each(&self, segs: Range<usize>, kernel: &mut impl SegmentKernel) {
        match self {
            SegmentRows::Runs(starts) => {
                for (k, s) in segs.enumerate() {
                    kernel.segment(k, starts[s]..starts[s + 1]);
                }
            }
            SegmentRows::Index(idx) => {
                for (k, s) in segs.enumerate() {
                    kernel.segment(k, idx.rows_of(s).iter().copied());
                }
            }
        }
    }
}

/// Rows (edges) below which [`edge_attention`] runs inline on the
/// caller, its 2-thread break-even. Measured on the 2-vCPU AVX-512
/// host that recorded `BENCH_micro.json` with the split forced at every
/// size, each thread count in its own process (7 alternating process
/// pairs, 80-wide `z` rows, about 9 edges per destination): 0.64-1.12x
/// at 1 000 edges, 0.62-1.60x at 2 500, 0.94-1.64x at 3 000 and
/// 1.15-1.44x at 4 000, forward and forward + backward alike.
const SEG_SEQ_ROWS: usize = 4096;

fn check_segments(values: &Tensor, segments: &[usize], num_segments: usize) -> (usize, usize) {
    assert!(values.rank() >= 1, "segment ops need rank >= 1 values");
    let n = values.dim(0);
    assert_eq!(
        segments.len(),
        n,
        "segment ids ({}) must match rows ({n})",
        segments.len()
    );
    // One vectorizable pass; the largest id names the range it breaks.
    if let Some(s) = segments.iter().copied().max().filter(|&s| s >= num_segments) {
        panic!("segment id {s} out of range ({num_segments} segments)");
    }
    let d: usize = values.dims()[1..].iter().product();
    (n, d)
}

// Per-segment bodies of the reductions and the softmax
// ---------------------------------------------------------------------

/// Softmax over every segment, per column: the column's max over the
/// segment's rows, `exp` ([`Lanes::exp`]) of every row's difference to
/// it, the sum of those over ascending rows from zero and one division
/// of each by it, `x` into `y`.
///
/// A max does not depend on the order it is taken in (a NaN is skipped
/// either way, and which zero wins cannot show once `exp` has made it
/// 1), so every element's arithmetic is the scalar loop's on either
/// path: runs of rows whose width divides the lane count are read as
/// packed vectors ([`shift_run`], [`normalize_run`]), anything else a
/// vector of columns at a time ([`ShiftCols`], [`NormalizeCols`]); one
/// `exp` over all of `y` sits between the two passes.
struct Softmax<'a> {
    x: &'a [f32],
    y: &'a mut [f32],
    d: usize,
    rows: &'a SegmentRows,
}

impl LaneKernel for Softmax<'_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        let Softmax { x, y, d, rows } = self;
        let segs = 0..rows.len();
        assert!(x.len() == y.len() && rows.span(&segs).end * d <= y.len());
        let packed = match rows {
            SegmentRows::Runs(starts) if d < V::LANES && V::LANES.is_multiple_of(d) => Some(starts),
            _ => None,
        };
        // The three passes each run over every segment before the next
        // starts: a segment's work is one chain of dependent operations,
        // and a pass over many segments overlaps them.
        let y0 = y.as_mut_ptr();
        match packed {
            Some(starts) => {
                for s in segs.clone() {
                    let (lo, hi) = (starts[s], starts[s + 1]);
                    let (x, y) = (&x[lo * d..hi * d], &mut y[lo * d..hi * d]);
                    shift_run::<V>(x.as_ptr(), y.as_mut_ptr(), x.len(), d);
                }
            }
            None => rows.each(segs.clone(), &mut ShiftCols::<V> { x: x.as_ptr(), y: y0, d, lanes: PhantomData }),
        }
        kernel::exp_lanes::<V>(y);
        match packed {
            Some(starts) => {
                for s in segs {
                    let (lo, hi) = (starts[s], starts[s + 1]);
                    normalize_run::<V>(&mut y[lo * d..hi * d], d);
                }
            }
            None => rows.each(segs, &mut NormalizeCols::<V> { y: y0, d, lanes: PhantomData }),
        }
    }
}

/// [`ShiftCols`] of one run of `len` floats in rows `d` wide, `x` into
/// `y` (which may be `x`), where `d` divides `V::LANES`: each vector
/// holds `LANES / d` whole rows, so lane `l` is always column `l % d`.
/// The column maxima are the lane-wise max over the run's vectors folded
/// by rotations of `LANES/2, .., d` lanes.
///
/// # Safety
///
/// `V`'s instruction set must be enabled; `x` and `y` hold `len` floats,
/// a multiple of `d`, and `d` divides `V::LANES`.
#[inline(always)]
unsafe fn shift_run<V: Lanes>(xp: *const f32, yp: *mut f32, len: usize, d: usize) {
    let lanes = V::LANES;
    debug_assert!(len.is_multiple_of(d) && lanes.is_multiple_of(d));
    let ninf = V::splat(f32::NEG_INFINITY);
    let mut mx = ninf;
    for at in (0..len).step_by(lanes) {
        let n = lanes.min(len - at);
        // `x > m` is false for a NaN `x`: skipped, as `f32::max` does.
        mx = V::load_part(xp.add(at), n).first(n, ninf).max(mx);
    }
    let mut step = lanes / 2;
    while step >= d {
        mx = mx.max(mx.rotate(step));
        step /= 2;
    }
    for at in (0..len).step_by(lanes) {
        let n = lanes.min(len - at);
        V::load_part(xp.add(at), n).sub(mx).store_part(yp.add(at), n);
    }
}

/// [`NormalizeCols`] of one run as [`shift_run`] reads it: the sums
/// add the `LANES / d` rows of each vector in turn into the first `d`
/// lanes (rotations of `d, 2d, ..` lanes; lanes past the run read zero,
/// and adding `+0.0` to a sum of `exp`s changes no bit), then rotations
/// back spread each sum over its column's lanes.
///
/// # Safety
///
/// As [`shift_run`].
#[inline(always)]
unsafe fn normalize_run<V: Lanes>(y: &mut [f32], d: usize) {
    let (lanes, len, yp) = (V::LANES, y.len(), y.as_mut_ptr());
    let zero = V::splat(0.0);
    let mut sum = zero;
    for at in (0..len).step_by(lanes) {
        let e = V::load_part(yp.add(at), lanes.min(len - at));
        sum = sum.add(e);
        for r in (d..lanes).step_by(d) {
            sum = sum.add(e.rotate(r));
        }
    }
    sum = sum.first(d, zero);
    let mut step = d;
    while step < lanes {
        sum = sum.add(sum.rotate(lanes - step));
        step *= 2;
    }
    for at in (0..len).step_by(lanes) {
        let n = lanes.min(len - at);
        V::load_part(yp.add(at), n).div(sum).store_part(yp.add(at), n);
    }
}

/// The first pass of [`Softmax`] over a segment's rows, a vector of
/// columns at a time (the last one partial): the columns' max over the
/// rows, then every row's difference to it into `y`, whose row 0 is at
/// `y`.
struct ShiftCols<V> {
    x: *const f32,
    y: *mut f32,
    d: usize,
    lanes: PhantomData<V>,
}

impl<V: Lanes> SegmentKernel for ShiftCols<V> {
    #[inline(always)]
    fn segment(&mut self, _k: usize, rows: impl Iterator<Item = usize> + Clone) {
        let (x, y, d) = (self.x, self.y, self.d);
        for j0 in (0..d).step_by(V::LANES) {
            let len = V::LANES.min(d - j0);
            // SAFETY: this runs inside `Softmax::run::<V>` or
            // `softmax_block::<V>`, where `V`'s instruction set is
            // enabled; rows are positions below the id count, and the
            // caller checked that `y`'s buffer holds every row of the
            // segments.
            unsafe {
                let mut mx = V::splat(f32::NEG_INFINITY);
                for i in rows.clone() {
                    mx = V::load_part(x.add(i * d + j0), len).max(mx);
                }
                for i in rows.clone() {
                    let at = i * d + j0;
                    V::load_part(x.add(at), len).sub(mx).store_part(y.wrapping_add(at), len);
                }
            }
        }
    }
}

/// The last pass of [`Softmax`], on `y` as [`ShiftCols`] and then `exp`
/// left it: per column, the sum over ascending rows from zero, then one
/// division of every row by it.
struct NormalizeCols<V> {
    y: *mut f32,
    d: usize,
    lanes: PhantomData<V>,
}

impl<V: Lanes> SegmentKernel for NormalizeCols<V> {
    #[inline(always)]
    fn segment(&mut self, _k: usize, rows: impl Iterator<Item = usize> + Clone) {
        let (y, d) = (self.y, self.d);
        for j0 in (0..d).step_by(V::LANES) {
            let len = V::LANES.min(d - j0);
            // SAFETY: as in `ShiftCols::segment`.
            unsafe {
                let mut sum = V::splat(0.0);
                for i in rows.clone() {
                    sum = sum.add(V::load_part(y.wrapping_add(i * d + j0), len));
                }
                for i in rows.clone() {
                    let at = y.wrapping_add(i * d + j0);
                    V::load_part(at, len).div(sum).store_part(at, len);
                }
            }
        }
    }
}

/// The softmax's backward over every segment, per column:
/// `g_i = (go_i - Σ_k go_k y_k) · y_i`, the dot from zero over ascending
/// rows, one rounding per product and per add; a vector of columns at a
/// time, the last one partial.
struct SoftmaxGrad<'a> {
    go: &'a [f32],
    y: &'a [f32],
    g: &'a mut [f32],
    d: usize,
    rows: &'a SegmentRows,
}

impl LaneKernel for SoftmaxGrad<'_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        let SoftmaxGrad { go, y, g, d, rows } = self;
        let segs = 0..rows.len();
        assert!(go.len() == y.len() && g.len() == y.len() && rows.span(&segs).end * d <= g.len());
        let g = g.as_mut_ptr();
        rows.each(segs, &mut SoftmaxGradRows::<V> { go, y, g, d, lanes: PhantomData });
    }
}

/// [`SoftmaxGrad`] on one segment at a time, in `V`'s registers.
struct SoftmaxGradRows<'a, V> {
    go: &'a [f32],
    y: &'a [f32],
    /// Where row 0 of the gradient starts.
    g: *mut f32,
    d: usize,
    lanes: PhantomData<V>,
}

impl<V: Lanes> SegmentKernel for SoftmaxGradRows<'_, V> {
    #[inline(always)]
    fn segment(&mut self, _k: usize, rows: impl Iterator<Item = usize> + Clone) {
        let (go, y, d) = (self.go.as_ptr(), self.y.as_ptr(), self.d);
        for j0 in (0..d).step_by(V::LANES) {
            let len = V::LANES.min(d - j0);
            // SAFETY: this runs inside `SoftmaxGrad::run::<V>`, where
            // `V`'s instruction set is enabled; rows are positions below
            // the id count, whose rows `go` and `y` hold, and `run`
            // checked that `g`'s buffer holds every row of the segments.
            unsafe {
                let mut dot = V::splat(0.0);
                for i in rows.clone() {
                    let at = i * d + j0;
                    dot = dot.add(V::load_part(go.add(at), len).mul(V::load_part(y.add(at), len)));
                }
                for i in rows.clone() {
                    let at = i * d + j0;
                    let gi = V::load_part(go.add(at), len).sub(dot).mul(V::load_part(y.add(at), len));
                    gi.store_part(self.g.wrapping_add(at), len);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The fused edge attention
// ---------------------------------------------------------------------

/// Copies the `z` rows of a segment's rows, the parts side by side,
/// into `zs` (`k` floats a row, in the segment's order): the block the
/// segment's passes read, in L1, instead of the rows where they lie (an
/// indexed part's anywhere in its table).
///
/// # Panics
///
/// Panics if a row lies outside a part, or the parts' widths do not add
/// up to `k`.
#[inline(always)]
fn gather_z(zs: &mut Vec<f32>, z: &[Mat<'_>], k: usize, rows: impl Iterator<Item = usize> + Clone) {
    zs.clear();
    zs.resize(rows.clone().count() * k, 0.0);
    for (row, e) in zs.chunks_exact_mut(k.max(1)).zip(rows) {
        let mut col = 0;
        for part in z {
            let w = part.width();
            row[col..col + w].copy_from_slice(&part.row(e, 0)[..w]);
            col += w;
        }
    }
}

/// Partial sums of a dot product in [`dot16`]: 16 floats, one vector at
/// AVX-512F, two at AVX2, four `F32x4` at the scalar level.
const PARTIALS: usize = 16;

/// The first `len <= V::LANES` floats from `p`, the other lanes zero;
/// `p` is not read when `len` is 0.
#[inline(always)]
unsafe fn load_n<V: Lanes>(p: *const f32, len: usize) -> V {
    if len == V::LANES {
        V::load(p)
    } else {
        V::load_part(p, len)
    }
}

/// `Σ_c x[c] · y[c]` over `c < k`, in one order at every level: column
/// `c` goes to partial sum `c % 16`, each partial a fused multiply-add
/// chain from zero over its columns in order (a partial with no column
/// left in the last block of 16 adds `0 · 0`, at every level), then the
/// 16 partials summed by one tree: `p[i] + p[i + 8]`, then `+ [i + 4]`,
/// `[i + 2]`, `[i + 1]`.
///
/// # Safety
///
/// `V`'s instruction set must be enabled; `x` and `y` hold `k` floats.
#[inline(always)]
unsafe fn dot16<V: Lanes>(x: *const f32, y: *const f32, k: usize) -> f32 {
    let vectors = PARTIALS / V::LANES;
    let mut acc = [V::splat(0.0); 4];
    let whole = k / PARTIALS * PARTIALS;
    for c in (0..whole).step_by(PARTIALS) {
        for (v, acc) in acc.iter_mut().enumerate().take(vectors) {
            let at = c + v * V::LANES;
            *acc = acc.mul_add(V::load(x.add(at)), V::load(y.add(at)));
        }
    }
    if whole < k {
        for (v, acc) in acc.iter_mut().enumerate().take(vectors) {
            let at = whole + v * V::LANES;
            let len = k.saturating_sub(at).min(V::LANES);
            *acc = acc.mul_add(V::load_part(x.wrapping_add(at), len), V::load_part(y.wrapping_add(at), len));
        }
    }
    let mut n = vectors;
    while n > 1 {
        n /= 2;
        for i in 0..n {
            acc[i] = acc[i].add(acc[i + n]);
        }
    }
    let (mut sum, mut step) = (acc[0], V::LANES / 2);
    while step > 0 {
        sum = sum.add(sum.rotate(step));
        step /= 2;
    }
    let mut lanes = [0.0f32; 16];
    sum.store(lanes.as_mut_ptr());
    lanes[0]
}

/// [`segment_softmax`]'s arithmetic over the `d`-wide rows of `y`, per
/// column, in place: the column's max, `exp` of every row's difference
/// to it, their sum over ascending rows from zero, one division of each
/// by it. [`Softmax`]'s passes over one segment: packed when `d`
/// divides the lane count (one `exp` per vector of rows, not per row),
/// else [`ShiftCols`] and [`NormalizeCols`], a vector of columns at a
/// time.
///
/// # Safety
///
/// `V`'s instruction set must be enabled.
#[inline(always)]
unsafe fn softmax_block<V: Lanes>(y: &mut [f32], d: usize) {
    if d < V::LANES && V::LANES.is_multiple_of(d) {
        shift_run::<V>(y.as_ptr(), y.as_mut_ptr(), y.len(), d);
        kernel::exp_lanes::<V>(y);
        return normalize_run::<V>(y, d);
    }
    let (rows, p) = (0..y.len() / d, y.as_mut_ptr());
    ShiftCols::<V> { x: p, y: p, d, lanes: PhantomData }.segment(0, rows.clone());
    kernel::exp_lanes::<V>(y);
    NormalizeCols::<V> { y: p, d, lanes: PhantomData }.segment(0, rows);
}

/// Heads whose sums one walk over a segment's rows keeps in registers.
const HEAD_GROUP: usize = 4;

/// `out[hh·k + c] = Σ_j w[j·h + hh] · zs[j·k + c]` for every head `hh`
/// and column `c < k` over the rows `j` of a segment's block `zs`, in
/// ascending order, one fused multiply-add per product from zero. Lanes
/// are columns, so every level runs each element's chain as written.
///
/// # Safety
///
/// `V`'s instruction set must be enabled; `out` holds `h·k` floats and
/// `w` `h` weights per row of `zs`.
#[inline(always)]
unsafe fn weighted_rows<V: Lanes>(out: *mut f32, zs: &[f32], w: &[f32], h: usize, k: usize) {
    let rows = zs.len() / k.max(1);
    for c in (0..k).step_by(V::LANES) {
        let len = V::LANES.min(k - c);
        for h0 in (0..h).step_by(HEAD_GROUP) {
            let heads = HEAD_GROUP.min(h - h0);
            let mut acc = [V::splat(0.0); HEAD_GROUP];
            for j in 0..rows {
                let zv = load_n::<V>(zs.as_ptr().add(j * k + c), len);
                for (g, acc) in acc.iter_mut().enumerate().take(heads) {
                    *acc = acc.mul_add(V::splat(w[j * h + h0 + g]), zv);
                }
            }
            for (g, acc) in acc.iter().enumerate().take(heads) {
                acc.store_part(out.add((h0 + g) * k + c), len);
            }
        }
    }
}

/// The shapes [`edge_attention`]'s kernels share: `h` heads, `k`
/// columns of `z` (the parts side by side), `s` segments, the logit
/// `scale`.
#[derive(Clone, Copy)]
struct AttnShape {
    h: usize,
    k: usize,
    s: usize,
    scale: f32,
}

/// [`edge_attention`]'s per-edge forward over the segments `segs`: per
/// segment `s`, its `z` rows into one block ([`gather_z`]), their logits
/// `dot16(qt[hh, s], z_e) · scale` for every head `hh`,
/// [`softmax_block`] of those, copied to the rows of `a`, then
/// `zbar[s, hh] = Σ_e a[e, hh] z_e` ([`weighted_rows`]). `qt` is
/// `[h, s, k]`; `a` holds the segments' rows from `base` on
/// ([`SegmentRows::offsets`]), `zbar` their `[h·k]` rows.
struct Attend<'a> {
    rows: &'a SegmentRows,
    segs: Range<usize>,
    base: usize,
    z: &'a [Mat<'a>],
    qt: &'a [f32],
    a: &'a mut [f32],
    zbar: &'a mut [f32],
    shape: AttnShape,
}

impl LaneKernel for Attend<'_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        let Attend { rows, segs, base, z, qt, a, zbar, shape } = self;
        let AttnShape { h, k, s, .. } = shape;
        let span = rows.span(&segs);
        assert!(base == span.start && a.len() == span.len() * h && zbar.len() == segs.len() * h * k);
        assert!(qt.len() == h * s * k && segs.end <= s);
        let a = a.as_mut_ptr().wrapping_sub(base * h);
        let (zs, l) = (Vec::new(), Vec::new());
        let mut each = AttendSegment::<V> { s0: segs.start, z, qt, a, zbar, zs, l, shape, lanes: PhantomData };
        rows.each(segs, &mut each);
    }
}

/// [`Attend`] on one segment at a time; `a` is where row 0 of the
/// attention would start (the chunk's rows, and only those, are inside
/// its buffer); `zs` and `l` hold the segment's `z` rows and logits.
struct AttendSegment<'a, V> {
    s0: usize,
    z: &'a [Mat<'a>],
    qt: &'a [f32],
    a: *mut f32,
    zbar: &'a mut [f32],
    zs: Vec<f32>,
    l: Vec<f32>,
    shape: AttnShape,
    lanes: PhantomData<V>,
}

impl<V: Lanes> SegmentKernel for AttendSegment<'_, V> {
    #[inline(always)]
    fn segment(&mut self, i: usize, rows: impl Iterator<Item = usize> + Clone) {
        let AttnShape { h, k, s, scale } = self.shape;
        let seg = self.s0 + i;
        // SAFETY: this runs inside `Attend::run::<V>`, where `V`'s
        // instruction set is enabled; rows are positions below the edge
        // count, which every part holds and whose rows of `a` the chunk
        // owns, and `run` measured `qt` and `zbar`.
        unsafe {
            gather_z(&mut self.zs, self.z, k, rows.clone());
            let (zs, l) = (&self.zs, &mut self.l);
            let n = zs.len() / k.max(1);
            l.clear();
            l.resize(n * h, 0.0);
            for hh in 0..h {
                let qt = self.qt.as_ptr().add((hh * s + seg) * k);
                for j in 0..n {
                    l[j * h + hh] = dot16::<V>(qt, zs.as_ptr().add(j * k), k) * scale;
                }
            }
            softmax_block::<V>(l, h);
            for (j, e) in rows.enumerate() {
                std::ptr::copy_nonoverlapping(l.as_ptr().add(j * h), self.a.wrapping_add(e * h), h);
            }
            let out = self.zbar[i * h * k..][..h * k].as_mut_ptr();
            weighted_rows::<V>(out, zs, l, h, k);
        }
    }
}

/// [`edge_attention`]'s per-edge backward over the segments `segs`,
/// given the attention `a` and `dzbar = ∂L/∂zbar` (`[h, s, k]`, as
/// `qt`). Per segment, over its `z` block ([`gather_z`]):
/// `da_e = dot16(dzbar[hh, s], z_e)` for every head, then per head
/// (lanes are heads) the softmax backward
/// `g_e = ((da_e - Σ_e a_e·da_e) · a_e) · scale` (the sum a fused
/// multiply-add chain over ascending rows), `dqt[s, hh] = Σ_e g_e z_e`
/// ([`weighted_rows`]) and, for each part that takes a gradient,
/// `dz_e = Σ_hh (a_e · dzbar[hh, s] + g_e · qt[hh, s])`, heads
/// ascending, each product fused into the sum. `dz` holds the segments'
/// rows from `base` on, `dqt` their own rows.
struct AttendGrad<'a> {
    rows: &'a SegmentRows,
    segs: Range<usize>,
    base: usize,
    z: &'a [Mat<'a>],
    qt: &'a [f32],
    a: &'a [f32],
    dzbar: &'a [f32],
    dqt: &'a mut [f32],
    dz: Vec<Option<&'a mut [f32]>>,
    shape: AttnShape,
}

impl LaneKernel for AttendGrad<'_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        let AttendGrad { rows, segs, base, z, qt, a, dzbar, dqt, dz, shape } = self;
        let AttnShape { h, k, s, .. } = shape;
        let span = rows.span(&segs);
        assert!(a.len() >= span.end * h && qt.len() == h * s * k && dzbar.len() == qt.len() && segs.end <= s);
        assert!(base == span.start && dqt.len() == segs.len() * h * k);
        let widths = dz.iter().zip(z).all(|(d, p)| d.as_ref().is_none_or(|d| d.len() == span.len() * p.width()));
        assert!(dz.len() == z.len() && widths, "a part's gradient rows");
        // Where row 0 of each part's gradient would start.
        let dz: Vec<Option<*mut f32>> =
            dz.into_iter().zip(z).map(|(d, p)| d.map(|d| d.as_mut_ptr().wrapping_sub(base * p.width()))).collect();
        let (zs, g) = (Vec::new(), Vec::new());
        let mut each = AttendGradSegment::<V> { s0: segs.start, z, qt, a, dzbar, dqt, dz: &dz, zs, g, shape, lanes: PhantomData };
        rows.each(segs, &mut each);
    }
}

/// [`AttendGrad`] on one segment at a time; `zs` and `g` hold the
/// segment's `z` rows and `g_e`.
struct AttendGradSegment<'a, V> {
    s0: usize,
    z: &'a [Mat<'a>],
    qt: &'a [f32],
    a: &'a [f32],
    dzbar: &'a [f32],
    dqt: &'a mut [f32],
    dz: &'a [Option<*mut f32>],
    zs: Vec<f32>,
    g: Vec<f32>,
    shape: AttnShape,
    lanes: PhantomData<V>,
}

impl<V: Lanes> SegmentKernel for AttendGradSegment<'_, V> {
    #[inline(always)]
    fn segment(&mut self, i: usize, rows: impl Iterator<Item = usize> + Clone) {
        let AttnShape { h, k, s, scale, .. } = self.shape;
        let seg = self.s0 + i;
        let (a, dzbar, qt) = (self.a.as_ptr(), self.dzbar.as_ptr(), self.qt.as_ptr());
        // SAFETY: this runs inside `AttendGrad::run::<V>`, where `V`'s
        // instruction set is enabled; rows are positions below the edge
        // count, which every part and `a` hold and whose rows of each
        // `dz` the chunk owns, and `run` measured the rest.
        unsafe {
            gather_z(&mut self.zs, self.z, k, rows.clone());
            let (zs, g) = (&self.zs, &mut self.g);
            let n = zs.len() / k.max(1);
            g.clear();
            g.resize(n * h, 0.0);
            for hh in 0..h {
                let dzb = dzbar.add((hh * s + seg) * k);
                for j in 0..n {
                    g[j * h + hh] = dot16::<V>(dzb, zs.as_ptr().add(j * k), k);
                }
            }
            for j0 in (0..h).step_by(V::LANES) {
                let len = V::LANES.min(h - j0);
                let mut dot = V::splat(0.0);
                for (j, e) in rows.clone().enumerate() {
                    dot = dot.mul_add(V::load_part(a.add(e * h + j0), len), V::load_part(g.as_ptr().add(j * h + j0), len));
                }
                let scale = V::splat(scale);
                for (j, e) in rows.clone().enumerate() {
                    let at = g.as_mut_ptr().add(j * h + j0);
                    V::load_part(at, len).sub(dot).mul(V::load_part(a.add(e * h + j0), len)).mul(scale).store_part(at, len);
                }
            }
            let out = self.dqt[i * h * k..][..h * k].as_mut_ptr();
            weighted_rows::<V>(out, zs, g, h, k);
            let mut col = 0;
            for (part, dz) in self.z.iter().zip(self.dz) {
                if let Some(dz) = *dz {
                    let width = part.width();
                    for (j, e) in rows.clone().enumerate() {
                        let dz_row = dz.wrapping_add(e * width);
                        for c in (0..width).step_by(V::LANES) {
                            let len = V::LANES.min(width - c);
                            let mut v = V::splat(0.0);
                            for hh in 0..h {
                                let at = (hh * s + seg) * k + col + c;
                                v = v.mul_add(V::splat(*a.add(e * h + hh)), load_n::<V>(dzbar.add(at), len));
                                v = v.mul_add(V::splat(g[j * h + hh]), load_n::<V>(qt.add(at), len));
                            }
                            v.store_part(dz_row.add(c), len);
                        }
                    }
                }
                col += part.width();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------

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
    let out = scatter_add_rows(&values.inner.storage.read(), segments, d, num_segments * d, device);
    let mut out_dims = values.dims().to_vec();
    out_dims[0] = num_segments;
    let seg = segments.to_vec();
    Tensor::make_result(out, out_dims, device, std::slice::from_ref(values), move |go| {
        // Gather: every input row copies its segment's gradient row.
        let mut g = pool::take_uninit(n * d, device);
        for (g_row, &s) in g.chunks_exact_mut(d.max(1)).zip(&seg) {
            g_row.copy_from_slice(&go[s * d..][..d]);
        }
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
    // Each row divided by its segment's count, then the segment sum:
    // per element the roundings of `out += x / count`, in row order.
    let mut scaled = pool::take_uninit(n * d, device);
    let x = values.inner.storage.read();
    for ((y_row, x_row), &s) in scaled.chunks_exact_mut(d.max(1)).zip(x.chunks_exact(d.max(1))).zip(segments) {
        for (y, &v) in y_row.iter_mut().zip(x_row) {
            *y = v / counts[s];
        }
    }
    drop(x);
    let out = scatter_add_rows(&scaled, segments, d, num_segments * d, device);
    pool::give(scaled, device);
    let mut out_dims = values.dims().to_vec();
    out_dims[0] = num_segments;
    let seg = segments.to_vec();
    Tensor::make_result(out, out_dims, device, std::slice::from_ref(values), move |go| {
        let mut g = pool::take_uninit(n * d, device);
        for (g_row, &s) in g.chunks_exact_mut(d.max(1)).zip(&seg) {
            for (g, &o) in g_row.iter_mut().zip(&go[s * d..][..d]) {
                *g = o / counts[s];
            }
        }
        vec![Some(g)]
    })
}

/// Per-segment max of rows: the largest value of each column over the
/// segment's rows, infinities included. A NaN is the max only of a
/// column that holds nothing else; otherwise NaNs are skipped. The
/// result is always one of the rows' values, and the gradient routes
/// to the first row holding it per segment/column. Segments without
/// rows yield zeros.
pub fn segment_max(values: &Tensor, segments: &[usize], num_segments: usize) -> Tensor {
    let (n, d) = check_segments(values, segments, num_segments);
    let _prof = tgl_obs::profile::op("segment_max")
        .flops((n * d) as u64)
        .io(4 * (n * d) as u64, 4 * (num_segments * d) as u64)
        .shape(&[values.dims(), &[num_segments]])
        .backward_cost(0, 4 * (num_segments * d) as u64, 4 * (n * d) as u64);
    let device = values.device();
    // A segment's first row claims each column; empty segments keep 0.
    let mut out = pool::take_zeroed(num_segments * d, device);
    let mut argmax = vec![usize::MAX; num_segments * d];
    {
        let x = values.inner.storage.read();
        for (i, &s) in segments.iter().enumerate() {
            for j in 0..d {
                let (v, best, arg) = (x[i * d + j], &mut out[s * d + j], &mut argmax[s * d + j]);
                if *arg == usize::MAX || v > *best || (best.is_nan() && !v.is_nan()) {
                    *best = v;
                    *arg = i;
                }
            }
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
    let rows = SegmentRows::new(segments, num_segments);
    // Segments partition the rows, so every element is written below.
    let mut y = pool::take_uninit(n * d, device);
    kernel::run_lanes(Softmax { x: &values.inner.storage.read(), y: &mut y, d, rows: &rows });
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
            let mut g = pool::take_uninit(n * d, device);
            kernel::run_lanes(SoftmaxGrad { go, y: &y_copy, g: &mut g, d, rows: &rows });
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

/// Multi-head attention of every segment over its rows, with the key
/// and value maps applied on the segment's side:
/// `out[s, h] = W_{v,h} · Σ_e a[e, h] z_e + b_{v,h}` where
/// `a[e, h] = softmax_{e ∈ s}(scale · q_h[s] · W_{k,h} z_e)` for
/// `q: [S, H·D]`, the key weight `w_k` and the value map
/// `value = [W_v, b_v]` (`W: [H·D, K]`, `b: [H·D]`; head `h` is rows
/// `h·D..(h+1)·D`), and the `E` rows `z` read as the parts side by side
/// (`K` columns in all; a [`Part::Rows`] through its index, in its
/// table), giving `[S, H·D]`.
///
/// This is the attention of an edge-wise block (`q` one query per
/// destination, `z` one input row per sampled edge) without the per-edge
/// keys and values: `q_h · W_{k,h} z_e = q̃_h · z_e` with
/// `q̃_h = q_h W_{k,h}`, and the attention-weighted values are `W_{v,h}`
/// of the attention-weighted `z` plus `b_{v,h}` (the weights of a
/// segment sum to one), so both maps run once per segment (the GEMM,
/// head by head, on each head's rows of the weight) and the per-edge
/// work is two `K`-wide passes per head. A key bias would add
/// `q_h · b_{k,h}` to every logit of a segment, which the softmax
/// cancels: it takes no part. Segments without rows give zero rows (no
/// bias). Equal in real arithmetic, for any `b_k`, to the chain over
/// per-edge keys `K = linear_cat(z, W_k, b_k)` and values
/// `V = linear_cat(z, W_v, b_v)`: the logits
/// `q.index_select(segments).mul(K)` summed per head and scaled,
/// [`segment_softmax`], and [`segment_sum`] of `V` times its edge's
/// attention; the roundings differ. Every dot product with `z` runs
/// [`dot16`]'s order, every other sum is a fused multiply-add chain in
/// ascending row (or column) order, and segments own their rows each
/// way, so results do not depend on the SIMD level or the thread count.
/// Backward saves the attention, `q̃` and the weighted `z` (nothing else
/// per row) and recomputes the softmax's gradient segment by segment;
/// each part that takes a gradient gets its rows, an indexed part's
/// then added into its table's shape in ascending row order.
///
/// # Panics
///
/// Panics on a shape mismatch, a segment id past `q`'s rows, an indexed
/// part's row past its table, or operands on different devices.
pub fn edge_attention(
    q: &Tensor,
    w_k: &Tensor,
    value: [&Tensor; 2],
    z: &[Part<'_>],
    segments: &[usize],
    heads: usize,
    scale: f32,
) -> Tensor {
    let device = crate::ops::same_device(q, w_k);
    let (h, d) = check_heads(q, heads);
    let (s, hd, n) = (q.dim(0), h * d, segments.len());
    let widths: Vec<usize> = z.iter().map(|p| p.tensor().dim(1)).collect();
    let k: usize = widths.iter().sum();
    let [w_v, b_v] = value;
    assert!(
        w_k.dims() == [hd, k] && w_v.dims() == [hd, k] && b_v.dims() == [hd],
        "edge_attention maps must be [{hd}, {k}] (and a [{hd}] value bias), got {}, {} and {}",
        w_k.shape(),
        w_v.shape(),
        b_v.shape()
    );
    for t in [w_v, b_v].into_iter().chain(z.iter().map(Part::tensor)) {
        crate::ops::same_device(q, t);
    }
    for part in z {
        assert_eq!(part.tensor().rank(), 2, "edge_attention parts must be rank-2");
        assert_eq!(part.len(), n, "edge_attention parts need one row per segment id");
    }
    if let Some(&id) = segments.iter().max().filter(|&&id| id >= s) {
        panic!("segment id {id} out of range ({s} segments)");
    }
    let shape = AttnShape { h, k, s, scale };
    let need: Vec<bool> =
        [q, w_k, w_v, b_v].into_iter().chain(z.iter().map(Part::tensor)).map(Tensor::requires_grad_flag).collect();
    let kz: usize = widths.iter().zip(&need[4..]).map(|(w, &x)| w * x as usize).sum();
    let (nk, sk) = ((n * h * k) as u64, (s * hd * k) as u64);
    let _prof = tgl_obs::profile::op("edge_attention")
        .flops(4 * sk + 4 * nk + 5 * (n * h) as u64)
        .io(4 * (n * k + s * hd + 2 * hd * k) as u64, 4 * (s * hd + n * h) as u64)
        .shape(&[q.dims(), w_k.dims(), &[n, k], &[s]])
        .backward_cost(
            8 * sk + 8 * nk,
            4 * (2 * n * k + n * h + 3 * s * h * k) as u64,
            4 * (n * kz + 2 * hd * k + s * hd) as u64,
        );
    if s == 0 {
        return Tensor::zeros_on([0, hd], device);
    }
    let rows = SegmentRows::new(segments, s);
    let (qd, wk, wv, bv) =
        (q.inner.storage.read(), w_k.inner.storage.read(), w_v.inner.storage.read(), b_v.inner.storage.read());
    // q̃_h = q_h · W_{k,h}, head-major `[H, S, K]`.
    let mut qt = pool::take_uninit(h * s * k, device);
    for (hh, qt) in qt.chunks_exact_mut(s * k).enumerate() {
        mm_nn_cols(Mat::strided(&qd[hh * d..], d, hd), &wk[hh * d * k..], k, qt, s, k);
    }
    let mut a = pool::take_uninit(n * h, device);
    let mut zbar = pool::take_uninit(s * h * k, device);
    let xs: Vec<Tensor> = z.iter().map(|p| p.tensor().clone()).collect();
    let index: Vec<Option<&[usize]>> = z.iter().map(Part::index).collect();
    with_parts(&xs, &index, |parts| {
        let offsets = rows.offsets();
        let outs = (Rows::offsets(&mut a, &offsets, h), Rows::width(&mut zbar, h * k));
        parallel_rows(s, rows.chunks(), outs, |segs, (a, zbar)| {
            let (base, rows, qt) = (offsets[segs.start], &rows, &qt[..]);
            kernel::run_lanes(Attend { rows, segs, base, z: parts, qt, a, zbar, shape });
        });
    });
    // out[:, head h] = zbar_h · W_{v,h}ᵀ, plus b_{v,h} on segments with rows.
    let mut out = pool::take_uninit(s * hd, device);
    let mut head = pool::take_uninit(s * d, device);
    for hh in 0..h {
        mm_nt_then(&[Mat::strided(&zbar[hh * k..], k, h * k)], &wv[hh * d * k..][..d * k], &mut head, s, d, NO_EPILOGUE);
        let b = &bv[hh * d..][..d];
        for (seg, (o, y)) in out.chunks_exact_mut(hd).zip(head.chunks_exact(d)).enumerate() {
            let o = &mut o[hh * d..][..d];
            if rows.is_empty_at(seg) {
                o.copy_from_slice(y);
            } else {
                o.iter_mut().zip(y).zip(b).for_each(|((o, &y), &b)| *o = y + b);
            }
        }
    }
    pool::give(head, device);
    drop((qd, wk, wv, bv));

    // Without a node the saved buffers go back to the pool at once, and
    // the row indices are not copied.
    let tracked = crate::autograd::grad_enabled() && need.contains(&true);
    let (qt, a, zbar) = (PooledBuf::new(qt, device), PooledBuf::new(a, device), PooledBuf::new(zbar, device));
    let index: Vec<Option<Vec<usize>>> = index.iter().map(|rows| rows.filter(|_| tracked).map(<[usize]>::to_vec)).collect();
    let mut inputs = vec![q.clone(), w_k.clone(), w_v.clone(), b_v.clone()];
    inputs.extend(xs);
    let saved = inputs.clone();
    Tensor::make_result(out, [s, hd], device, &inputs, move |go| {
        let [q, wk, wv] = [0, 1, 2].map(|i| saved[i].inner.storage.read());
        let mut grads: Vec<Option<Vec<f32>>> = vec![None; saved.len()];
        // The value side: db_v over the segments with rows (ascending),
        // dW_{v,h} = dout_hᵀ · zbar_h.
        grads[3] = need[3].then(|| {
            let mut gb = pool::take_zeroed(hd, device);
            for (seg, g) in go.chunks_exact(hd).enumerate() {
                if !rows.is_empty_at(seg) {
                    gb.iter_mut().zip(g).for_each(|(b, &g)| *b += g);
                }
            }
            gb
        });
        grads[2] = need[2].then(|| {
            let mut gw = pool::take_uninit(hd * k, device);
            for (hh, gw) in gw.chunks_exact_mut(d * k).enumerate() {
                mm_tn(&[Mat::strided(&go[hh * d..], d, hd)], &zbar[hh * k..], h * k, gw, s, k);
            }
            gw
        });
        if !(need[0] || need[1] || need[4..].contains(&true)) {
            return grads;
        }
        // dzbar_h = dout_h · W_{v,h}, then the edge side, then the key
        // side from dq̃.
        let mut dzbar = pool::take_uninit(h * s * k, device);
        for (hh, dzbar) in dzbar.chunks_exact_mut(s * k).enumerate() {
            mm_nn_cols(Mat::strided(&go[hh * d..], d, hd), &wv[hh * d * k..], k, dzbar, s, k);
        }
        let mut dqt = pool::take_uninit(s * h * k, device);
        let mut dz: Vec<Option<Vec<f32>>> =
            widths.iter().zip(&need[4..]).map(|(&w, &x)| x.then(|| pool::take_uninit(n * w, device))).collect();
        let part_index: Vec<Option<&[usize]>> = index.iter().map(Option::as_deref).collect();
        with_parts(&saved[4..], &part_index, |parts| {
            let offsets = rows.offsets();
            let dz_rows: Vec<_> =
                dz.iter_mut().zip(&widths).map(|(b, &w)| b.as_deref_mut().map(|b| Rows::offsets(b, &offsets, w))).collect();
            parallel_rows(s, rows.chunks(), (Rows::width(&mut dqt, h * k), dz_rows), |segs, (dqt, dz)| {
                let (base, rows, qt, a, dzbar) = (offsets[segs.start], &rows, &qt[..], &a[..], &dzbar[..]);
                kernel::run_lanes(AttendGrad { rows, segs, base, z: parts, qt, a, dzbar, dqt, dz, shape });
            });
        });
        pool::give(dzbar, device);
        // dq_h = dq̃_h · W_{k,h}ᵀ; dW_{k,h} = q_hᵀ · dq̃_h.
        grads[0] = need[0].then(|| {
            let mut gq = pool::take_uninit(s * hd, device);
            let mut head = pool::take_uninit(s * d, device);
            for hh in 0..h {
                mm_nt_then(&[Mat::strided(&dqt[hh * k..], k, h * k)], &wk[hh * d * k..][..d * k], &mut head, s, d, NO_EPILOGUE);
                for (g, y) in gq.chunks_exact_mut(hd).zip(head.chunks_exact(d)) {
                    g[hh * d..][..d].copy_from_slice(y);
                }
            }
            pool::give(head, device);
            gq
        });
        grads[1] = need[1].then(|| {
            let mut gw = pool::take_uninit(hd * k, device);
            for (hh, gw) in gw.chunks_exact_mut(d * k).enumerate() {
                mm_tn(&[Mat::strided(&q[hh * d..], d, hd)], &dqt[hh * k..], h * k, gw, s, k);
            }
            gw
        });
        pool::give(dqt, device);
        for (p, dz) in dz.into_iter().enumerate() {
            grads[4 + p] = dz.map(|gx| {
                let Some(rows) = &index[p] else { return gx };
                let table = scatter_add_rows(&gx, rows, widths[p], saved[4 + p].numel(), device);
                pool::give(gx, device);
                table
            });
        }
        grads
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
    fn segment_max_keeps_infinities_and_zeroes_only_empty_segments() {
        let (inf, ninf, nan) = (f32::INFINITY, f32::NEG_INFINITY, f32::NAN);
        let v = Tensor::from_vec(vec![1.0, inf, ninf, ninf, 2.0, nan, nan, nan, 3.0, nan], [10, 1])
            .requires_grad(true);
        // Segment 0 reaches +inf, 1 holds only -inf, 2 has no rows, 4
        // only NaNs, 5 a number between NaNs.
        let m = segment_max(&v, &[0, 0, 1, 1, 3, 4, 4, 5, 5, 5], 6);
        let got = m.to_vec();
        assert_eq!(got[..4], [inf, ninf, 0.0, 2.0]);
        assert!(got[4].is_nan(), "an all-NaN column gives NaN, got {}", got[4]);
        assert_eq!(got[5], 3.0);
        m.backward_with(vec![1.0, 10.0, 100.0, 1e3, 1e4, 1e5]);
        // An all `-inf` or all-NaN segment's gradient goes to its first
        // row; NaNs beside a number get none.
        let want = [0.0, 1.0, 10.0, 0.0, 1e3, 1e4, 0.0, 0.0, 1e5, 0.0];
        assert_eq!(v.grad().unwrap(), want);
        let m = segment_max(&Tensor::from_vec(vec![1.0, inf], [2, 1]), &[0, 0], 3);
        assert_eq!(m.to_vec(), vec![inf, 0.0, 0.0]);
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
        let e = [1.0f32, -1.0, 0.5].map(|x| (x - 1.0).exp());
        let dense = e.map(|x| x / (e[0] + e[1] + e[2]));
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

    /// Seeded values in `[-1, 1)` of the given shape.
    fn filled(dims: &[usize], salt: usize) -> Tensor {
        let n = dims.iter().product();
        Tensor::from_vec((0..n).map(|i| (((i * 7919 + salt * 104_729) % 2003) as f32 / 1001.5) - 1.0).collect(), dims.to_vec())
    }

    /// The inputs of one attention: a query per segment, both maps, and
    /// `z` as a whole part, rows of a table and a whole part again.
    struct AttnCase {
        q: Tensor,
        maps: [Tensor; 4],
        h_src: Tensor,
        table: Tensor,
        rows: Vec<usize>,
        phi: Tensor,
    }

    impl AttnCase {
        fn new(s: usize, e: usize) -> AttnCase {
            let (hd, k) = (2 * 3, 5 + 3 + 4);
            let leaf = |dims: &[usize], salt| filled(dims, salt).requires_grad(true);
            AttnCase {
                q: leaf(&[s, hd], 1),
                maps: [leaf(&[hd, k], 2), leaf(&[hd], 3), leaf(&[hd, k], 4), leaf(&[hd], 5)],
                h_src: leaf(&[e, 5], 6),
                table: leaf(&[7, 3], 7),
                rows: (0..e).map(|i| (i * 5 + 2) % 7).collect(),
                phi: leaf(&[e, 4], 8),
            }
        }

        fn z(&self) -> [Part<'_>; 3] {
            [Part::Whole(&self.h_src), Part::Rows(&self.table, &self.rows), Part::Whole(&self.phi)]
        }

        fn leaves(&self) -> [&Tensor; 8] {
            let [wk, bk, wv, bv] = &self.maps;
            [&self.q, wk, bk, wv, bv, &self.h_src, &self.table, &self.phi]
        }

        /// The output and every leaf's gradient of a weighted sum of
        /// `attend`'s output.
        fn run(&self, attend: impl Fn(&AttnCase) -> Tensor) -> Vec<Vec<f32>> {
            self.leaves().iter().for_each(|t| t.zero_grad());
            let out = attend(self);
            let w = filled(&[out.dim(0), out.dim(1)], 9);
            out.mul(&w).sum_all().backward();
            let mut all = vec![out.to_vec()];
            all.extend(self.leaves().map(|t| t.grad().unwrap_or_else(|| vec![0.0; t.numel()])));
            all
        }
    }

    fn fused(c: &AttnCase, seg: &[usize]) -> Tensor {
        let [wk, _, wv, bv] = &c.maps;
        edge_attention(&c.q, wk, [wv, bv], &c.z(), seg, 2, 0.6)
    }

    /// The key / value chain the fused op replaces: per-edge keys and
    /// values, the logits by gather, product and sum, the softmax, and
    /// the weighted values summed per segment.
    fn chain(c: &AttnCase, seg: &[usize]) -> Tensor {
        let [wk, bk, wv, bv] = &c.maps;
        let (k, v) = (crate::ops::linear_cat(&c.z(), wk, Some(bk), false), crate::ops::linear_cat(&c.z(), wv, Some(bv), false));
        let (e, s, h, d) = (seg.len(), c.q.dim(0), 2, 3);
        let logits = c.q.index_select(seg).mul(&k).reshape([e, h, d]).sum_dim(2).mul_scalar(0.6);
        let attn = segment_softmax(&logits, seg, s);
        segment_sum(&v.reshape([e, h, d]).mul(&attn.reshape([e, h, 1])).reshape([e, h * d]), seg, s)
    }

    #[test]
    fn edge_attention_matches_the_key_value_chain() {
        // Segment 2 has no rows; ids sorted (runs) and shuffled (index).
        let sorted = [0usize, 0, 0, 1, 3, 3, 3, 3, 3, 4];
        let shuffled = [3usize, 0, 4, 3, 1, 0, 3, 3, 0, 3];
        for seg in [&sorted, &shuffled] {
            let case = AttnCase::new(5, seg.len());
            let (got, want) = (case.run(|c| fused(c, seg)), case.run(|c| chain(c, seg)));
            // The key bias (`all[3]`) cancels in the softmax: the chain's
            // gradient is rounding noise, the op's none.
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_close(g, w, 1e-5 * (1.0 + w.iter().fold(0.0f32, |m, x| m.max(x.abs()))));
                assert!(i == 0 || i == 3 || g.iter().any(|&x| x != 0.0), "leaf {i} got no gradient");
            }
            // The empty segment's row is zero, bias and all.
            assert!(got[0][2 * 6..3 * 6].iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn edge_attention_gradcheck() {
        let seg = [0usize, 0, 2, 2, 2];
        let case = AttnCase::new(3, seg.len());
        let [wk, _, wv, bv] = &case.maps;
        let w = filled(&[3, 6], 11);
        let z = case.z();
        let attend = |q: &Tensor, wk: &Tensor, wv: &Tensor, bv: &Tensor, z: &[Part<'_>]| {
            edge_attention(q, wk, [wv, bv], z, &seg, 2, 0.6).mul(&w).sum_all()
        };
        check_gradient(&case.q, |t| attend(t, wk, wv, bv, &z), 1e-2);
        check_gradient(wk, |t| attend(&case.q, t, wv, bv, &z), 1e-2);
        check_gradient(wv, |t| attend(&case.q, wk, t, bv, &z), 1e-2);
        check_gradient(bv, |t| attend(&case.q, wk, wv, t, &z), 1e-2);
        check_gradient(&case.h_src, |t| attend(&case.q, wk, wv, bv, &[Part::Whole(t), z[1], z[2]]), 1e-2);
        check_gradient(&case.table, |t| attend(&case.q, wk, wv, bv, &[z[0], Part::Rows(t, &case.rows), z[2]]), 1e-2);
    }

    #[test]
    #[should_panic(expected = "do not split into")]
    fn edge_attention_rejects_indivisible_heads() {
        let (w, b) = (Tensor::zeros([5, 3]), Tensor::zeros([5]));
        edge_attention(&Tensor::zeros([1, 5]), &w, [&w, &b], &[Part::Whole(&Tensor::zeros([2, 3]))], &[0, 0], 2, 1.0);
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
