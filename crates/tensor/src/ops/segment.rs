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
//! The three attention kernels run one body at every SIMD level
//! (`kernel::run_lanes`) with one output element per lane: per
//! destination, the rows of a run are accumulated into registers that
//! each hold a vector of output columns (`WeightedRows`); per edge, a
//! block of one vector's width of edges is transposed so that each lane
//! sums its own edge's products (`Dots`). Either way a lane performs
//! its element's operations in the scalar loop's order, so `exact`
//! results do not depend on the level, the row source or the thread
//! count.

use std::marker::PhantomData;
use std::ops::Range;

use tgl_runtime::{parallel_rows, Chunks, Rows};

use crate::kernel::{self, LaneKernel, Lanes};
use crate::pool::{self, PooledBuf};
use crate::Tensor;

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
/// one, compiled for each source. Against the same kernels over the
/// index alone, runs take the self time of the four ops that read
/// segments (the weighted sum, `dq`, the softmax and its backward) from
/// 126.8 to 111.5 ms (median of 12 alternating pairs, faster in all 12;
/// `tgl train --model tgat --scale 1 --threads 1 --epochs 3 --profile`
/// on the host of [`SEG_SEQ_ROWS`]).
enum SegmentRows {
    Runs(Vec<usize>),
    Index(SegmentIndex),
}

impl SegmentRows {
    fn new(ids: &[usize], num_segments: usize) -> SegmentRows {
        if !ids.is_sorted() {
            return SegmentRows::Index(SegmentIndex::build(ids, num_segments));
        }
        let mut starts = Vec::with_capacity(num_segments + 1);
        for (i, &id) in ids.iter().enumerate() {
            starts.resize(starts.len().max(id + 1), i);
        }
        starts.resize(num_segments + 1, ids.len());
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

    /// Runs `kernel(segs, out_rows, base)` over chunks of the segments,
    /// where `out_rows` holds the `d`-wide rows of `out` that the
    /// segments `segs` own and `base` is the first of them. A chunk of
    /// runs owns one range of rows: runs split at their `starts`, in
    /// parallel from `min_rows` rows. Unsorted ids scatter a segment's
    /// rows over the output, so one chunk owns them all (`base` 0).
    fn split_rows(&self, out: &mut [f32], d: usize, min_rows: usize, kernel: impl Fn(Range<usize>, &mut [f32], usize) + Sync) {
        match self {
            SegmentRows::Runs(starts) => {
                let (num_segments, n) = (starts.len() - 1, starts[starts.len() - 1]);
                let chunks = Chunks::Auto(seg_seq_threshold(n, num_segments, min_rows));
                parallel_rows(num_segments, chunks, Rows::offsets(out, starts, d), |segs, rows| {
                    kernel(segs.clone(), rows, starts[segs.start]);
                });
            }
            SegmentRows::Index(idx) => kernel(0..idx.starts.len() - 1, out, 0),
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

/// Rows (edges) below which a segment kernel runs inline on the caller:
/// the 2-thread break-even of `segment_dot`, `segment_softmax` and the
/// weighted sum's backward. Measured on the 2-vCPU AVX-512 host that
/// recorded `BENCH_micro.json` with the split forced at every size,
/// each thread count in its own process (median of 300 runs, twice) at
/// 2 heads of 16 and about 7 edges per destination: at 2 threads
/// `segment_dot` reads 1.13-1.16x at 2 000 edges, `segment_softmax`
/// 1.21-1.26x, the weighted sum's backward 0.85-0.88x at 3 000 and
/// 1.03-1.16x at 4 000.
const SEG_SEQ_ROWS: usize = 4096;

/// [`SEG_SEQ_ROWS`] for the kernels whose passes do one multiply or
/// multiply-add per element read (the weighted sum's forward, the
/// `segment_dot` and softmax backwards), where a second thread takes
/// longer to pay for itself: at 2 threads they read 0.60-0.95x up to
/// 5 000 edges, 0.84-1.18x at 6 000 and 1.01-1.63x at 8 000.
const SEG_SEQ_ROWS_LIGHT: usize = 8192;

/// Elements (rows × row width) below which the forwards of the plain
/// reductions, `segment_sum` and `segment_mean`, run inline. Their rows
/// run from one column (APAN's mail times) to hundreds (its mails,
/// `2 · memory + edge features`), so the split counts elements, not
/// rows. Measured like [`SEG_SEQ_ROWS`] at row widths 32, 96 and 232,
/// about 7 rows per segment, ids sorted and shuffled: at 2 threads they
/// read 0.69-1.08x at 131 072 elements, 0.67-1.29x at 262 144 and
/// 1.08-1.84x at 524 288 (one run of 12 read 0.72x). At APAN's shapes
/// (Wiki, default widths) its mail scatter, `[3 307, 96]` by shuffled
/// ids, reads 1.20-1.22x and its summary sum, `[5 100, 32]`, 0.96-0.98x.
const SEG_SEQ_ELEMS: usize = 1 << 18;

/// [`SEG_SEQ_ELEMS`] for `segment_sum`'s backward, a row copy per input
/// row: at 2 threads 0.24-0.72x at 16 384 elements of rows 32-232 wide,
/// 0.56-1.17x at 65 536, 0.81-1.34x at 131 072 (1.10-1.34x at width
/// 32) and 0.97-1.66x at 262 144; APAN's summary gradient, `[5 850,
/// 32]`, 1.25-1.29x. One-column rows win from 16 384 (1.09-1.35x).
const SEG_SEQ_GATHER: usize = 1 << 17;

/// [`SEG_SEQ_ELEMS`] for `segment_mean`'s backward, a division per
/// element: at 2 threads 0.86-1.15x at 16 384 elements of rows 1-232
/// wide, 0.97-1.56x at 32 768 and 1.26-1.72x at 65 536.
const SEG_SEQ_DIVIDE: usize = 1 << 15;

/// `Chunks::Auto`'s threshold over `items` work items covering `size`
/// rows or elements: all inline below `min_size`, else any split.
fn seg_seq_threshold(size: usize, items: usize, min_size: usize) -> usize {
    if size < min_size {
        items
    } else {
        1
    }
}

/// Edges per work item of the per-edge attention kernels: a multiple of
/// every level's lane count, so only the last item has a ragged tail.
const EDGE_BLOCK: usize = 16;

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

// ---------------------------------------------------------------------
// Lane kernels of the attention operators
// ---------------------------------------------------------------------

/// Row-major `[rows, width]` data read through row pointers that the
/// hot loops do not bounds-check: each kernel checks its shapes once,
/// and its row indices are positions below `rows` or segment ids that
/// [`check_segments`] bounded by the row count.
#[derive(Clone, Copy)]
struct RowPtrs<'a> {
    data: &'a [f32],
    width: usize,
}

impl<'a> RowPtrs<'a> {
    /// `data` as rows of `width`, of which there must be `rows`.
    fn new(data: &'a [f32], width: usize, rows: usize) -> RowPtrs<'a> {
        assert_eq!(data.len(), rows * width, "a [{rows}, {width}] operand");
        RowPtrs { data, width }
    }

    /// Row `i`, `width` floats from the pointer on.
    ///
    /// # Safety
    ///
    /// `i` must be below the row count given to [`RowPtrs::new`].
    #[inline(always)]
    unsafe fn row(self, i: usize) -> *const f32 {
        debug_assert!((i + 1) * self.width <= self.data.len(), "row {i} of a {}-wide operand", self.width);
        self.data.as_ptr().add(i * self.width)
    }
}

/// One vector's share of a row of `h` heads of `d` columns: columns
/// `col..col + len` (`len <= lanes`), all of head `head`. A head takes
/// `ceil(d / lanes)` slots, the last one partial.
#[derive(Clone, Copy, Default)]
struct Slot {
    col: usize,
    len: usize,
    head: usize,
}

/// Slots a [`WeightedRows`] walk over a segment's rows keeps in
/// registers at once.
const GROUP: usize = 4;

/// A row's slots at `lanes` floats per vector, [`GROUP`] at a time
/// (the last group padded with empty slots), and how many of each
/// group are real.
fn slot_groups(h: usize, d: usize, lanes: usize) -> Vec<([Slot; GROUP], usize)> {
    let per_head = d.div_ceil(lanes);
    let all: Vec<Slot> = (0..h * per_head)
        .map(|i| {
            let (head, c) = (i / per_head, i % per_head * lanes);
            Slot { col: head * d + c, len: lanes.min(d - c), head }
        })
        .collect();
    all.chunks(GROUP)
        .map(|g| (std::array::from_fn(|v| g.get(v).copied().unwrap_or_default()), g.len()))
        .collect()
}

/// `out[s, c] = Σ_{e ∈ rows(s)} (w[e·h + c/d] · scale) · x[e·hd + c]`
/// for the segments `segs` (`out` holds their rows; `x` and `w` have `n`
/// rows): each element adds its products to zero in row order, a
/// product rounded before it is added — the arithmetic of an `axpy` of
/// every row into a zeroed output row. Empty segments give zero rows.
/// With `scale` = 1 the weights pass unchanged (`w · 1` is exact).
struct WeightedRows<'a> {
    out: &'a mut [f32],
    segs: Range<usize>,
    rows: &'a SegmentRows,
    n: usize,
    x: &'a [f32],
    w: &'a [f32],
    scale: f32,
    h: usize,
    d: usize,
}

impl LaneKernel for WeightedRows<'_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        let WeightedRows { out, segs, rows, n, x, w, scale, h, d } = self;
        assert_eq!(out.len(), segs.len() * h * d);
        let (x, w) = (RowPtrs::new(x, h * d, n), RowPtrs::new(w, h, n));
        let groups = slot_groups(h, d, V::LANES);
        let mut each = Accumulate::<V> { out, x, w, scale, hd: h * d, groups: &groups, lanes: PhantomData };
        rows.each(segs, &mut each);
    }
}

/// [`WeightedRows`] on one segment at a time, in `V`'s registers.
struct Accumulate<'a, V> {
    out: &'a mut [f32],
    x: RowPtrs<'a>,
    w: RowPtrs<'a>,
    scale: f32,
    hd: usize,
    groups: &'a [([Slot; GROUP], usize)],
    lanes: PhantomData<V>,
}

impl<V: Lanes> SegmentKernel for Accumulate<'_, V> {
    #[inline(always)]
    fn segment(&mut self, k: usize, rows: impl Iterator<Item = usize> + Clone) {
        let hd = self.hd;
        let o_row = &mut self.out[k * hd..][..hd];
        for (slots, real) in self.groups {
            // SAFETY: this runs inside `WeightedRows::run::<V>`, where
            // `V`'s instruction set is enabled; rows are positions below
            // the id count, and a slot's columns lie inside a row.
            unsafe {
                let mut acc = [V::splat(0.0); GROUP];
                for e in rows.clone() {
                    let (x_row, w_row) = (self.x.row(e), self.w.row(e));
                    for (a, s) in acc.iter_mut().zip(slots).take(*real) {
                        let w = V::splat(*w_row.add(s.head) * self.scale);
                        *a = a.mul_add(w, V::load_part(x_row.add(s.col), s.len));
                    }
                }
                for (a, s) in acc.iter().zip(slots).take(*real) {
                    a.store_part(o_row.as_mut_ptr().add(s.col), s.len);
                }
            }
        }
    }
}

/// `out[e - edges.start, c] = (w[e·h + c/d] · scale) · x[sel[e]·hd + c]`
/// for the edges `edges`: a row of `x` (selected per edge; `sel` holds
/// checked segment ids, `x` a row per segment) times its edge's
/// per-head weight, one rounding per element (two with a `scale` other
/// than 1).
struct ScaledRows<'a> {
    out: &'a mut [f32],
    edges: Range<usize>,
    x: &'a [f32],
    sel: &'a [usize],
    w: &'a [f32],
    scale: f32,
    h: usize,
    d: usize,
}

impl LaneKernel for ScaledRows<'_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        let (h, d, hd) = (self.h, self.d, self.h * self.d);
        assert_eq!(self.out.len(), self.edges.len() * hd);
        let x = RowPtrs::new(self.x, hd, self.x.len() / hd);
        for (o_row, e) in self.out.chunks_exact_mut(hd).zip(self.edges) {
            // SAFETY: `sel` holds checked segment ids.
            let x_row = x.row(self.sel[e]);
            for (head, &w) in self.w[e * h..][..h].iter().enumerate() {
                let w = V::splat(w * self.scale);
                let mut c = head * d;
                while c < (head + 1) * d {
                    let len = V::LANES.min((head + 1) * d - c);
                    // SAFETY: columns `c..c + len` lie inside both rows.
                    w.mul(V::load_part(x_row.add(c), len)).store_part(o_row.as_mut_ptr().add(c), len);
                    c += V::LANES;
                }
            }
        }
    }
}

/// `out[(e - edges.start)·h + hh] = (Σ_j a[sel[e]·hd + hh·d + j] ·
/// b[e·hd + hh·d + j]) · scale`, `j` ascending from a zero sum, one
/// rounding per product and per add, then one multiply by `scale` (1
/// leaves the sum as it is). A block of one vector's width of edges
/// multiplies its rows one vector of a head's columns at a time and
/// transposes the products, so that lane `l` holds edge `l`'s products
/// column by column and adds them in order; edges past the last whole
/// block run the same operations one at a time. `sel` holds checked
/// segment ids and `a` a row per segment; `b` has a row per edge.
struct Dots<'a> {
    out: &'a mut [f32],
    edges: Range<usize>,
    a: &'a [f32],
    sel: &'a [usize],
    b: &'a [f32],
    scale: f32,
    h: usize,
    d: usize,
}

impl LaneKernel for Dots<'_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        let (h, d, hd, lanes) = (self.h, self.d, self.h * self.d, V::LANES);
        let Range { start, end } = self.edges;
        assert_eq!(self.out.len(), (end - start) * h);
        let (a, b) = (RowPtrs::new(self.a, hd, self.a.len() / hd), RowPtrs::new(self.b, hd, self.sel.len()));
        assert!(end <= self.sel.len());
        // SAFETY (both): `sel` holds checked segment ids; `e < end`.
        let row_a = |e: usize| a.row(self.sel[e]);
        let row_b = |e: usize| b.row(e);
        let mut e0 = start;
        while e0 + lanes <= end {
            let (mut pa, mut pb) = ([std::ptr::null(); 16], [std::ptr::null(); 16]);
            for l in 0..lanes {
                (pa[l], pb[l]) = (row_a(e0 + l), row_b(e0 + l));
            }
            let out = &mut self.out[(e0 - start) * h..][..lanes * h];
            for head in 0..h {
                let mut acc = V::splat(0.0);
                let mut c = head * d;
                while c < (head + 1) * d {
                    let len = lanes.min((head + 1) * d - c);
                    let mut p = [V::splat(0.0); 16];
                    for l in 0..lanes {
                        // SAFETY: columns `c..c + len` lie inside both rows.
                        p[l] = V::load_part(pa[l].add(c), len).mul(V::load_part(pb[l].add(c), len));
                    }
                    V::transpose(&mut p);
                    for (j, &v) in p.iter().enumerate().take(lanes) {
                        if j < len {
                            acc = acc.add(v);
                        }
                    }
                    c += lanes;
                }
                let mut sums = [0.0f32; 16];
                acc.mul(V::splat(self.scale)).store(sums.as_mut_ptr());
                for (o, &s) in out.chunks_exact_mut(h).zip(&sums) {
                    o[head] = s;
                }
            }
            e0 += lanes;
        }
        for e in e0..end {
            let (x, y) = (std::slice::from_raw_parts(row_a(e), hd), std::slice::from_raw_parts(row_b(e), hd));
            for (hh, o) in self.out[(e - start) * h..][..h].iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (&p, &q) in x[hh * d..][..d].iter().zip(&y[hh * d..][..d]) {
                    acc += p * q;
                }
                *o = acc * self.scale;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Per-segment bodies of the reductions and the softmax
// ---------------------------------------------------------------------

/// `out[k] += x[i]` (or `+= x[i] / counts[s]` given the counts) for the
/// rows `i` of the `k`-th of the segments `segs`, ascending: the scalar
/// loop's roundings (div then add) in its order, lane-wise.
struct SumRows<'a> {
    out: &'a mut [f32],
    segs: Range<usize>,
    rows: &'a SegmentRows,
    x: &'a [f32],
    d: usize,
    counts: Option<&'a [f32]>,
}

impl LaneKernel for SumRows<'_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        let SumRows { out, segs, rows, x, d, counts } = self;
        let counts = counts.map(|c| &c[segs.clone()]);
        rows.each(segs, &mut SumSegment::<V> { out, x, d, counts, lanes: PhantomData });
    }
}

/// [`SumRows`] on one segment at a time, in `V`'s registers.
struct SumSegment<'a, V> {
    out: &'a mut [f32],
    x: &'a [f32],
    d: usize,
    counts: Option<&'a [f32]>,
    lanes: PhantomData<V>,
}

impl<V: Lanes> SegmentKernel for SumSegment<'_, V> {
    #[inline(always)]
    fn segment(&mut self, k: usize, rows: impl Iterator<Item = usize> + Clone) {
        let d = self.d;
        let o_row = &mut self.out[k * d..][..d];
        for i in rows {
            let x_row = &self.x[i * d..][..d];
            // SAFETY (both): this runs inside `SumRows::run::<V>`, where
            // `V`'s instruction set is enabled.
            match self.counts {
                Some(counts) => unsafe { kernel::add_div::<V>(o_row, x_row, counts[k]) },
                None => unsafe { kernel::add_assign::<V>(o_row, x_row) },
            }
        }
    }
}

/// Softmax over a segment's rows, per column: the column's max for
/// stability, then `exp` and the normalizing sum, each over ascending
/// rows. `y` holds the rows from `base` on of the segments it is run
/// over ([`SegmentRows::split_rows`]).
struct SoftmaxRows<'a> {
    x: &'a [f32],
    y: &'a mut [f32],
    base: usize,
    d: usize,
}

impl SegmentKernel for SoftmaxRows<'_> {
    fn segment(&mut self, _k: usize, rows: impl Iterator<Item = usize> + Clone) {
        let (x, y, base, d) = (self.x, &mut *self.y, self.base, self.d);
        for j in 0..d {
            let mut mx = f32::NEG_INFINITY;
            for i in rows.clone() {
                mx = mx.max(x[i * d + j]);
            }
            let mut sum = 0.0f32;
            for i in rows.clone() {
                let e = (x[i * d + j] - mx).exp();
                y[(i - base) * d + j] = e;
                sum += e;
            }
            for i in rows.clone() {
                y[(i - base) * d + j] /= sum;
            }
        }
    }
}

/// The softmax's backward over the segments `segs`, per column:
/// `g_i = (go_i - Σ_k go_k y_k) · y_i`, the dot from zero over ascending
/// rows, one rounding per product and per add; a vector of columns at a
/// time, the last one partial. `g` holds the rows from `base` on of the
/// segments `segs`, as [`SoftmaxRows`] writes `y`.
struct SoftmaxGrad<'a> {
    go: &'a [f32],
    y: &'a [f32],
    g: &'a mut [f32],
    base: usize,
    d: usize,
    segs: Range<usize>,
    rows: &'a SegmentRows,
}

impl LaneKernel for SoftmaxGrad<'_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        let SoftmaxGrad { go, y, g, base, d, segs, rows } = self;
        let span = rows.span(&segs);
        assert!(go.len() == y.len() && base == span.start && g.len() == span.len() * d);
        let g = g.as_mut_ptr().wrapping_sub(base * d);
        rows.each(segs, &mut SoftmaxGradRows::<V> { go, y, g, d, lanes: PhantomData });
    }
}

/// [`SoftmaxGrad`] on one segment at a time, in `V`'s registers.
struct SoftmaxGradRows<'a, V> {
    go: &'a [f32],
    y: &'a [f32],
    /// Where row 0 of the gradient would start: the rows of the chunk's
    /// segments, and only those, are inside its buffer.
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
    let out = sum_rows(values, segments, num_segments, None);
    let mut out_dims = values.dims().to_vec();
    out_dims[0] = num_segments;
    let seg = segments.to_vec();
    let device = values.device();
    Tensor::make_result(out, out_dims, device, std::slice::from_ref(values), move |go| {
        // Gather: every input row copies its segment's gradient row.
        let mut g = pool::take_uninit(n * d, device);
        let chunks = Chunks::Auto(seg_seq_threshold(n * d, n, SEG_SEQ_GATHER));
        parallel_rows(n, chunks, Rows::width(&mut g, d), |rows, g_rows| {
            for (ri, i) in rows.enumerate() {
                let s = seg[i];
                g_rows[ri * d..(ri + 1) * d].copy_from_slice(&go[s * d..(s + 1) * d]);
            }
        });
        vec![Some(g)]
    })
}

/// The forward of [`segment_sum`] and, given the row counts,
/// [`segment_mean`]: segments own their output rows.
fn sum_rows(values: &Tensor, segments: &[usize], num_segments: usize, counts: Option<&[f32]>) -> Vec<f32> {
    let (n, d): (usize, usize) = (values.dim(0), values.dims()[1..].iter().product());
    let seg_rows = SegmentRows::new(segments, num_segments);
    // Accumulates with `+=` (and empty segments stay zero), so the
    // recycled buffer must start zeroed.
    let mut out = pool::take_zeroed(num_segments * d, values.device());
    let x = values.inner.storage.read();
    let chunks = Chunks::Auto(seg_seq_threshold(n * d, num_segments, SEG_SEQ_ELEMS));
    parallel_rows(num_segments, chunks, Rows::width(&mut out, d), |segs, out| {
        kernel::run_lanes(SumRows { out, segs, rows: &seg_rows, x: &x, d, counts });
    });
    drop(x);
    out
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
    let out = sum_rows(values, segments, num_segments, Some(&counts));
    let mut out_dims = values.dims().to_vec();
    out_dims[0] = num_segments;
    let seg = segments.to_vec();
    Tensor::make_result(out, out_dims, device, std::slice::from_ref(values), move |go| {
        let mut g = pool::take_uninit(n * d, device);
        let (seg, counts) = (&seg, &counts);
        let chunks = Chunks::Auto(seg_seq_threshold(n * d, n, SEG_SEQ_DIVIDE));
        parallel_rows(n, chunks, Rows::width(&mut g, d), |rows, g_rows| {
            for (g_row, &s) in g_rows.chunks_exact_mut(d.max(1)).zip(&seg[rows]) {
                for (g, &o) in g_row.iter_mut().zip(&go[s * d..][..d]) {
                    *g = o / counts[s];
                }
            }
        });
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
    let seg_rows = SegmentRows::new(segments, num_segments);
    // Segments partition the rows, so every element is written below.
    let mut y = pool::take_uninit(n * d, device);
    {
        let x = values.inner.storage.read();
        seg_rows.split_rows(&mut y, d, SEG_SEQ_ROWS, |segs, y, base| {
            seg_rows.each(segs, &mut SoftmaxRows { x: &x, y, base, d });
        });
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
            let mut g = pool::take_uninit(n * d, device);
            seg_rows.split_rows(&mut g, d, SEG_SEQ_ROWS_LIGHT, |segs, g, base| {
                let y = &y_copy[..];
                kernel::run_lanes(SoftmaxGrad { go, y, g, base, d, segs, rows: &seg_rows });
            });
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

/// Runs `kernel(out_chunk, edges)` over the `n` edges in
/// [`EDGE_BLOCK`]-aligned chunks, each writing `width` floats per edge
/// of `out`; inline below `min_rows` edges.
fn per_edge(out: &mut [f32], n: usize, width: usize, min_rows: usize, kernel: impl Fn(&mut [f32], Range<usize>) + Sync) {
    let blocks = n.div_ceil(EDGE_BLOCK);
    // The first edge of each block, and `n` after the (ragged) last.
    let firsts: Vec<usize> = (0..=blocks).map(|b| (b * EDGE_BLOCK).min(n)).collect();
    let chunks = Chunks::Auto(seg_seq_threshold(n, blocks, min_rows));
    parallel_rows(blocks, chunks, Rows::offsets(out, &firsts, width), |blocks, out| {
        kernel(out, firsts[blocks.start]..firsts[blocks.end]);
    });
}

/// Runs `kernel(out_chunk, segs)` over the `num_segments` segments of
/// `rows` rows in chunks, each writing its segments' `width`-float
/// output rows; inline below `min_rows` rows.
fn per_segment(
    out: &mut [f32],
    num_segments: usize,
    width: usize,
    rows: usize,
    min_rows: usize,
    kernel: impl Fn(&mut [f32], Range<usize>) + Sync,
) {
    let chunks = Chunks::Auto(seg_seq_threshold(rows, num_segments, min_rows));
    parallel_rows(num_segments, chunks, Rows::width(out, width), |segs, out| kernel(out, segs));
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
        let (qd, kd) = (q.inner.storage.read(), k.inner.storage.read());
        per_edge(&mut out, n, h, SEG_SEQ_ROWS, |out, edges| {
            kernel::run_lanes(Dots { out, edges, a: &qd, sel: segments, b: &kd, scale, h, d });
        });
    }
    let (q_t, k_t) = (q.clone(), k.clone());
    let seg = segments.to_vec();
    Tensor::make_result(out, [n, h], device, &[q.clone(), k.clone()], move |go| {
        let qd = q_t.inner.storage.read();
        let kd = k_t.inner.storage.read();
        // dk[e,h,:] = (go[e,h]·scale) · q[seg[e],h,:], one row per edge.
        let gk = need_k.then(|| {
            let mut gk = pool::take_uninit(n * hd, device);
            per_edge(&mut gk, n, hd, SEG_SEQ_ROWS_LIGHT, |out, edges| {
                kernel::run_lanes(ScaledRows { out, edges, x: &qd, sel: &seg, w: go, scale, h, d });
            });
            gk
        });
        // dq[s,h,:] = Σ_{e in s, ascending} (go[e,h]·scale) · k[e,h,:],
        // one row per segment (empty segments give zero rows).
        let gq = need_q.then(|| {
            let mut gq = pool::take_uninit(num_segments * hd, device);
            let rows = SegmentRows::new(&seg, num_segments);
            per_segment(&mut gq, num_segments, hd, n, SEG_SEQ_ROWS_LIGHT, |out, segs| {
                let kernel = WeightedRows { out, segs, rows: &rows, n, x: &kd, w: go, scale, h, d };
                kernel::run_lanes(kernel);
            });
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
    let rows = SegmentRows::new(segments, num_segments);
    // Every output row is written, empty segments included.
    let mut out = pool::take_uninit(num_segments * hd, device);
    {
        let (vd, ad) = (v.inner.storage.read(), a.inner.storage.read());
        per_segment(&mut out, num_segments, hd, n, SEG_SEQ_ROWS_LIGHT, |out, segs| {
            let kernel = WeightedRows { out, segs, rows: &rows, n, x: &vd, w: &ad, scale: 1.0, h, d };
            kernel::run_lanes(kernel);
        });
    }
    let (v_t, a_t) = (v.clone(), a.clone());
    let seg = segments.to_vec();
    Tensor::make_result(out, [num_segments, hd], device, &[v.clone(), a.clone()], move |go| {
        let vd = v_t.inner.storage.read();
        let ad = a_t.inner.storage.read();
        // dv[e,h,:] = go[s,h,:] · a[e,h]
        let gv = need_v.then(|| {
            let mut gv = pool::take_uninit(n * hd, device);
            per_edge(&mut gv, n, hd, SEG_SEQ_ROWS, |out, edges| {
                kernel::run_lanes(ScaledRows { out, edges, x: go, sel: &seg, w: &ad, scale: 1.0, h, d });
            });
            gv
        });
        // da[e,h] = Σ_d go[s,h,d] · v[e,h,d], d ascending.
        let ga = need_a.then(|| {
            let mut ga = pool::take_uninit(n * h, device);
            per_edge(&mut ga, n, h, SEG_SEQ_ROWS, |out, edges| {
                kernel::run_lanes(Dots { out, edges, a: go, sel: &seg, b: &vd, scale: 1.0, h, d });
            });
            ga
        });
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
