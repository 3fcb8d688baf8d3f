//! Fused differentiable operators.
//!
//! Each fusion collapses a chain of elementwise ops into one kernel:
//! a single output buffer instead of one per link, one backward node
//! instead of a chain, and no intermediate activations captured for
//! the graph. All buffers come from the tensor pool; backward-pass
//! copies are wrapped in [`PooledBuf`] so tearing down the graph at the
//! end of a batch recycles them too.
//!
//! Every kernel here is one pass on the caller's thread except
//! [`time_encode`]'s forward, which splits its rows across the pool
//! above [`TIME_SEQ_ROWS`]; each row is computed on its own, so the
//! bits do not depend on the thread count.

use tgl_runtime::{parallel_rows, Chunks, Rows};

use crate::autograd::grad_enabled;
use crate::kernel::{self, LaneKernel, LaneMap, Lanes, Trig};
use crate::ops::same_device;
use crate::pool::{self, PooledBuf};
use crate::Tensor;

/// One fused elementwise pass over an output, each written once over
/// [`Lanes`]: every element takes the lane operations of its scalar
/// expression below, whatever level runs.
enum Pass<'a> {
    /// `a + b`, then `max(.., 0)` as `maxps` selects it (a NaN sum and
    /// `-0.0` both give `+0.0`).
    AddRelu(&'a [f32], &'a [f32]),
    /// `go` where `y > 0`, else `+0.0`: `go`'s bits pass unchanged.
    ReluMask { go: &'a [f32], y: &'a [f32] },
    /// `base + s * a * b`, the product left-associated.
    Addcmul { base: &'a [f32], a: &'a [f32], b: &'a [f32], s: f32 },
}

/// `max(a + b, 0)` ([`Pass::AddRelu`]).
struct AddRelu;

impl LaneMap<2> for AddRelu {
    #[inline(always)]
    unsafe fn lanes<V: Lanes>(&self, [a, b]: [V; 2]) -> V {
        a.add(b).max(V::splat(0.0))
    }
}

/// `max(a, 0)`.
struct Relu;

impl LaneMap<1> for Relu {
    #[inline(always)]
    unsafe fn lanes<V: Lanes>(&self, [a]: [V; 1]) -> V {
        a.max(V::splat(0.0))
    }
}

/// [`Pass::ReluMask`].
struct ReluMask;

impl LaneMap<2> for ReluMask {
    #[inline(always)]
    unsafe fn lanes<V: Lanes>(&self, [go, y]: [V; 2]) -> V {
        go.where_positive(y)
    }
}

/// [`Pass::Addcmul`] with its `s`.
struct Addcmul(f32);

impl LaneMap<3> for Addcmul {
    #[inline(always)]
    unsafe fn lanes<V: Lanes>(&self, [base, a, b]: [V; 3]) -> V {
        base.add(V::splat(self.0).mul(a).mul(b))
    }
}

/// Runs `pass` into `out` at the active SIMD level.
///
/// # Panics
///
/// Panics unless every input is as long as `out`.
fn elementwise(out: &mut [f32], pass: Pass<'_>) {
    struct Run<'a>(&'a mut [f32], Pass<'a>);
    impl LaneKernel for Run<'_> {
        #[inline(always)]
        unsafe fn run<V: Lanes>(self) {
            let Run(out, pass) = self;
            let (o, n) = (out.as_mut_ptr(), out.len());
            let at = |x: &[f32]| {
                assert_eq!(x.len(), n, "a fused operand of another length");
                x.as_ptr()
            };
            // SAFETY (all three): every input was measured against `out`.
            match pass {
                Pass::AddRelu(a, b) => kernel::map::<V, 2>(o, [at(a), at(b)], n, &AddRelu),
                Pass::ReluMask { go, y } => kernel::map::<V, 2>(o, [at(go), at(y)], n, &ReluMask),
                Pass::Addcmul { base, a, b, s } => kernel::map::<V, 3>(o, [at(base), at(a), at(b)], n, &Addcmul(s)),
            }
        }
    }
    kernel::run_lanes(Run(out, pass));
}

/// The `Linear` epilogue, in place over whole `n`-wide rows:
/// `row += bias` when a bias is given, then `max(row, 0)` under
/// `relu` as [`Pass::AddRelu`] selects it. One entry into the active
/// level for all the rows; a row narrower than a vector is one partial
/// one.
pub(crate) fn bias_act_rows(rows: &mut [f32], n: usize, bias: Option<&[f32]>, relu: bool) {
    struct BiasAct<'a> {
        rows: &'a mut [f32],
        n: usize,
        bias: Option<&'a [f32]>,
        relu: bool,
    }
    impl LaneKernel for BiasAct<'_> {
        #[inline(always)]
        unsafe fn run<V: Lanes>(self) {
            let BiasAct { rows, n, bias, relu } = self;
            for row in rows.chunks_exact_mut(n) {
                let p = row.as_mut_ptr();
                // SAFETY (all three): the row and the bias are `n` long.
                match bias {
                    Some(b) if relu => kernel::map::<V, 2>(p, [p, b.as_ptr()], n, &AddRelu),
                    Some(b) => kernel::map::<V, 2>(p, [p, b.as_ptr()], n, &kernel::Add),
                    None => kernel::map::<V, 1>(p, [p], n, &Relu),
                }
            }
        }
    }
    if n == 0 || (bias.is_none() && !relu) {
        return;
    }
    assert!(rows.len().is_multiple_of(n) && bias.is_none_or(|b| b.len() == n));
    kernel::run_lanes(BiasAct { rows, n, bias, relu });
}

/// `out[i] = if y[i] > 0 { go[i] } else { 0.0 }` ([`Pass::ReluMask`]).
pub(crate) fn relu_mask_bwd(out: &mut [f32], go: &[f32], y: &[f32]) {
    elementwise(out, Pass::ReluMask { go, y });
}

/// A pooled copy of `src` (a gradient that passes through unchanged).
fn pooled_copy(src: &[f32], device: tgl_device::Device) -> Vec<f32> {
    let mut g = pool::take_uninit(src.len(), device);
    g.copy_from_slice(src);
    g
}

impl Tensor {
    /// Fused `relu(self + bias)`.
    ///
    /// `bias` is either the same shape as `self` or a rank-1 tensor
    /// broadcast across the last dimension (the `Linear → ReLU` pattern;
    /// its gradient sums over rows). Numerically identical to
    /// `self.add(bias).relu()`, including the gradient's behavior at
    /// exactly zero, but allocates one tensor instead of two and skips
    /// the intermediate sum in the autograd graph.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible or devices differ.
    pub fn add_relu(&self, bias: &Tensor) -> Tensor {
        let device = same_device(self, bias);
        let n = self.numel();
        let d = bias.numel();
        let same = self.dims() == bias.dims();
        assert!(
            same || (bias.rank() == 1 && d == *self.dims().last().unwrap_or(&0)),
            "add_relu bias {} does not broadcast over {}",
            bias.shape(),
            self.shape()
        );

        let _prof = tgl_obs::profile::op("add_relu")
            .flops(2 * n as u64)
            .io(4 * (n + d) as u64, 8 * n as u64)
            .shape(&[self.dims(), bias.dims()])
            .backward_cost(2 * n as u64, 8 * n as u64, 4 * (n + d) as u64);
        let mut y = pool::take_uninit(n, device);
        {
            let a = self.inner.storage.read();
            let b = bias.inner.storage.read();
            if same {
                elementwise(&mut y, Pass::AddRelu(&a, &b));
            } else {
                // Broadcast stays scalar: the `i % d` gather has no
                // contiguous lanes to load.
                for (i, o) in y.iter_mut().enumerate() {
                    let sum = a[i] + b[i % d];
                    *o = if sum > 0.0 { sum } else { 0.0 };
                }
            }
        }

        // The mask (y > 0) is recoverable from the output alone, so
        // backward only captures a pooled copy of y.
        let y_copy = {
            let mut c = pool::take_uninit(n, device);
            c.copy_from_slice(&y);
            PooledBuf::new(c, device)
        };
        let (need_a, need_b) = (self.requires_grad_flag(), bias.requires_grad_flag());
        Tensor::make_result(
            y,
            self.shape().clone(),
            device,
            &[self.clone(), bias.clone()],
            move |go| {
                let n = y_copy.len();
                // The masked gradient, one buffer per full-shape
                // operand that needs it.
                let masked = || {
                    let mut g = pool::take_uninit(n, device);
                    relu_mask_bwd(&mut g, go, &y_copy);
                    g
                };
                let ga = need_a.then(masked);
                let gb = need_b.then(|| {
                    if same {
                        // The same masked gradient: copy it if `ga` has it.
                        return ga.as_deref().map_or_else(masked, |g| pooled_copy(g, device));
                    }
                    // Column-wise row sum: each column is one output
                    // element, summed over rows in ascending order.
                    let mut gb = pool::take_zeroed(d, device);
                    for (go, y) in go.chunks_exact(d.max(1)).zip(y_copy.chunks_exact(d.max(1))) {
                        for ((acc, &g), &y) in gb.iter_mut().zip(go).zip(y) {
                            if y > 0.0 {
                                *acc += g;
                            }
                        }
                    }
                    gb
                });
                vec![ga, gb]
            },
        )
    }

    /// Fused `self + scale * a * b` (all same shape) — the GRU gate
    /// combination `h' = n + z ⊙ (h − n)` in one kernel.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or device mismatch.
    pub fn addcmul(&self, a: &Tensor, b: &Tensor, scale: f32) -> Tensor {
        let device = same_device(self, a);
        same_device(a, b);
        assert!(
            self.dims() == a.dims() && a.dims() == b.dims(),
            "addcmul requires matching shapes: {} vs {} vs {}",
            self.shape(),
            a.shape(),
            b.shape()
        );
        let n = self.numel();
        let _prof = tgl_obs::profile::op("addcmul")
            .flops(3 * n as u64)
            .io(12 * n as u64, 4 * n as u64)
            .shape(&[self.dims(), a.dims(), b.dims()])
            .backward_cost(4 * n as u64, 12 * n as u64, 12 * n as u64);
        let mut y = pool::take_uninit(n, device);
        {
            let base = self.inner.storage.read();
            let ad = a.inner.storage.read();
            let bd = b.inner.storage.read();
            elementwise(&mut y, Pass::Addcmul { base: &base, a: &ad, b: &bd, s: scale });
        }
        let (a_c, b_c) = (a.clone(), b.clone());
        let needs = [self, a, b].map(Tensor::requires_grad_flag);
        Tensor::make_result(
            y,
            self.shape().clone(),
            device,
            &[self.clone(), a.clone(), b.clone()],
            move |go| {
                // d/da = go * scale * b and d/db = go * scale * a.
                let scaled_by = |other: &Tensor| {
                    let od = other.inner.storage.read();
                    let mut g = pool::take_uninit(go.len(), device);
                    for ((g, &v), &o) in g.iter_mut().zip(go).zip(od.iter()) {
                        *g = v * scale * o;
                    }
                    g
                };
                vec![
                    needs[0].then(|| pooled_copy(go, device)),
                    needs[1].then(|| scaled_by(&b_c)),
                    needs[2].then(|| scaled_by(&a_c)),
                ]
            },
        )
    }
}

/// The learnable time encoding `out[i, j] = cos(deltas[i] · freq[j] +
/// phase[j])` for `deltas` of `n` elements and `freq`, `phase` of
/// `dim`, giving `[n, dim]`.
///
/// One kernel and one backward node (`dfreq[j] = Σ_i g[i,j] ·
/// deltas[i]`, `dphase[j] = Σ_i g[i,j]` with `g = -dout · sin(..)`,
/// rows ascending per column) instead of the broadcast `mul`, `add`,
/// `cos` chain. The argument is one multiply then one add, `cos` is
/// [`kernel::sincos`] as in [`Tensor::cos`], and
/// a forward that builds a node takes the `sin` of the same arguments
/// from the same kernel pass and keeps it for backward, so values and
/// gradients carry the roundings of
/// `deltas.reshape([n, 1]).mul(freq).add(phase).cos()`. When every
/// delta has the same bits (`Φ(0)` for a block's destinations) the rows
/// are equal: one is computed and copied, and backward reads its sines
/// for every row. `deltas` takes no gradient. Forward splits its rows
/// across the pool above [`TIME_SEQ_ROWS`]; backward is one row-major
/// walk on the caller's thread (lanes are columns).
///
/// # Panics
///
/// Panics unless `freq` and `phase` are rank-1 of equal length and all
/// three tensors share a device.
pub fn time_encode(deltas: &Tensor, freq: &Tensor, phase: &Tensor) -> Tensor {
    let device = same_device(deltas, freq);
    same_device(freq, phase);
    let (n, dim) = (deltas.numel(), freq.numel());
    assert!(
        freq.rank() == 1 && freq.dims() == phase.dims(),
        "time_encode frequency {} and phase {} must be equal rank-1 shapes",
        freq.shape(),
        phase.shape()
    );
    let (need_f, need_p) = (freq.requires_grad_flag(), phase.requires_grad_flag());
    let track = grad_enabled() && (need_f || need_p);
    let cells = (n * dim) as u64;
    let _prof = tgl_obs::profile::op("time_encode")
        .flops(10 * cells)
        .io(4 * (n + 2 * dim) as u64, 4 * cells * (1 + track as u64))
        .shape(&[&[n], &[dim]])
        .backward_cost(
            (2 + need_f as u64 * 2 + need_p as u64) * cells,
            4 * (2 * cells + n as u64),
            4 * ((need_f as usize + need_p as usize) * dim) as u64,
        );
    let dt = deltas.inner.storage.read();
    // The rows that are computed: all of them, or the first when the
    // rest repeat its delta.
    let distinct = if dt.iter().all(|t| t.to_bits() == dt[0].to_bits()) { n.min(1) } else { n };
    let mut y = pool::take_uninit(n * dim, device);
    let mut sin = track.then(|| pool::take_uninit(distinct * dim, device));
    {
        let w = freq.inner.storage.read();
        let b = phase.inner.storage.read();
        let outs = (Rows::width(&mut y, dim), sin.as_deref_mut().map(|s| Rows::width(s, dim)));
        parallel_rows(distinct, Chunks::Auto(TIME_SEQ_ROWS), outs, |rows, (out, sin)| {
            kernel::run_lanes(Phases { out, sin, dt: &dt[rows], w: &w, b: &b });
        });
    }
    if distinct < n && dim > 0 {
        let (first, rest) = y.split_at_mut(dim);
        rest.chunks_exact_mut(dim).for_each(|row| row.copy_from_slice(first));
    }
    drop(dt);
    let sin = sin.map(|s| PooledBuf::new(s, device));
    let dt_t = deltas.clone();
    let inputs = [deltas.clone(), freq.clone(), phase.clone()];
    Tensor::make_result(y, [n, dim], device, &inputs, move |go| {
        let sin = sin.as_ref().expect("time_encode saves its sines whenever it builds a node");
        let dt = dt_t.inner.storage.read();
        let mut gf = need_f.then(|| pool::take_uninit(dim, device));
        let mut gp = need_p.then(|| pool::take_uninit(dim, device));
        kernel::run_lanes(TimeGrads { go, sin, dt: &dt, dim, gf: gf.as_deref_mut(), gp: gp.as_deref_mut() });
        vec![None, gf, gp]
    })
}

/// [`time_encode`] runs its forward inline below this many distinct
/// rows (16 Ki elements at 16 columns). Its `sincos` costs about 3
/// cycles per element: run inline at every size, TGAT evaluation's
/// `time_nbrs` phase took 12.1-12.2 ms at 2 threads against 7.8-8.9 ms
/// split (DESIGN.md "One entry point, four sites").
const TIME_SEQ_ROWS: usize = 128;

/// [`time_encode`]'s forward over a chunk of rows: each row's arguments
/// `t · w + b` (a `mul`, then an `add`) a vector of columns at a time,
/// then [`Lanes::sincos`] of them, a block of rows at a time so the
/// arguments are still in L1 when the second pass reads them.
struct Phases<'a> {
    out: &'a mut [f32],
    sin: Option<&'a mut [f32]>,
    dt: &'a [f32],
    w: &'a [f32],
    b: &'a [f32],
}

impl LaneKernel for Phases<'_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        /// Rows per block: 4 KiB of arguments at 16 columns.
        const BLOCK: usize = 64;
        let Phases { out, mut sin, dt, w, b } = self;
        let dim = w.len();
        assert!(b.len() == dim && out.len() == dt.len() * dim && sin.as_ref().is_none_or(|s| s.len() == out.len()));
        for (k, (block, ts)) in out.chunks_mut(BLOCK * dim.max(1)).zip(dt.chunks(BLOCK)).enumerate() {
            for (o_row, &t) in block.chunks_exact_mut(dim.max(1)).zip(ts) {
                let t = V::splat(t);
                for c in (0..dim).step_by(V::LANES) {
                    // SAFETY: columns `c..c + len` lie inside `w`, `b`
                    // and the row.
                    let len = V::LANES.min(dim - c);
                    let y = t.mul(V::load_part(w.as_ptr().add(c), len)).add(V::load_part(b.as_ptr().add(c), len));
                    y.store_part(o_row.as_mut_ptr().add(c), len);
                }
            }
            let s = sin.as_deref_mut().map(|s| &mut s[k * BLOCK * dim..][..block.len()]);
            V::sincos(block, Trig::Cos, s);
        }
    }
}

/// The column sums of [`time_encode`]'s backward: with
/// `p = dout[i,j] · sin[i,j]` (one rounding), `dphase[j] = Σ_i -p` and
/// `dfreq[j] = Σ_i -p · t_i`, each from zero over ascending rows, as
/// `acc - p` and `acc - p · t` (the roundings of adding `-p` and
/// `(-p) · t`). `sin` holds a row per delta or one row for all of them.
struct TimeGrads<'a> {
    go: &'a [f32],
    sin: &'a [f32],
    dt: &'a [f32],
    dim: usize,
    gf: Option<&'a mut [f32]>,
    gp: Option<&'a mut [f32]>,
}

impl LaneKernel for TimeGrads<'_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        /// Vectors of columns one walk over the rows keeps in registers.
        const GROUP: usize = 4;
        let TimeGrads { go, sin, dt, dim, mut gf, mut gp } = self;
        assert!(go.len() == dt.len() * dim && (sin.len() == go.len() || sin.len() == dim));
        assert!(gf.as_ref().is_none_or(|g| g.len() == dim) && gp.as_ref().is_none_or(|g| g.len() == dim));
        let shared_row = sin.len() < go.len();
        let mut c0 = 0;
        while c0 < dim {
            let real = (dim - c0).div_ceil(V::LANES).min(GROUP);
            let lens: [usize; GROUP] = std::array::from_fn(|v| (dim - c0).saturating_sub(v * V::LANES).min(V::LANES));
            let (mut acc_f, mut acc_p) = ([V::splat(0.0); GROUP], [V::splat(0.0); GROUP]);
            for (i, &t) in dt.iter().enumerate() {
                let go_row = go.as_ptr().add(i * dim + c0);
                let sin_row = sin.as_ptr().add(if shared_row { c0 } else { i * dim + c0 });
                let t = V::splat(t);
                for (v, ((f, p_sum), &len)) in acc_f.iter_mut().zip(&mut acc_p).zip(&lens).take(real).enumerate() {
                    // SAFETY: the columns lie inside both rows.
                    let c = v * V::LANES;
                    let p = V::load_part(go_row.add(c), len).mul(V::load_part(sin_row.add(c), len));
                    *p_sum = p_sum.sub(p);
                    *f = f.sub(p.mul(t));
                }
            }
            for (v, ((f, p_sum), &len)) in acc_f.iter().zip(&acc_p).zip(&lens).take(real).enumerate() {
                if let Some(gf) = gf.as_deref_mut() {
                    f.store_part(gf.as_mut_ptr().add(c0 + v * V::LANES), len);
                }
                if let Some(gp) = gp.as_deref_mut() {
                    p_sum.store_part(gp.as_mut_ptr().add(c0 + v * V::LANES), len);
                }
            }
            c0 += GROUP * V::LANES;
        }
    }
}

/// The logistic function as [`Tensor::sigmoid`] rounds it.
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The GRU gate combination over the two affine maps
/// `gi = x·W_ihᵀ + b_ih` and `gh = h·W_hhᵀ + b_hh` (both `[N, 3H]`,
/// gates stacked `r | z | n`) and the state `h: [N, H]`:
///
/// `r = σ(gi_r + gh_r)`, `z = σ(gi_z + gh_z)`,
/// `n = tanh(gi_n + r ⊙ gh_n)`, `h' = n + z ⊙ (h − n)`.
///
/// One kernel reading the gates in place and one backward node
/// producing `dgi`, `dgh` and `dh`, instead of six strided gathers and
/// nine elementwise nodes whose backward zero-fills six `[3N, H]`
/// buffers. Every value is rounded as the chain
/// `add, sigmoid, add, sigmoid, mul, add, tanh, sub, addcmul` rounds it
/// (each product and sum on its own), and so is
/// every gradient: a gate's slice of `dgi` is what the chain's scatter
/// into a zeroed buffer leaves there. Forward saves `r`, `z`, `n` for
/// backward only when a node is built. Both passes run on the caller's
/// thread.
///
/// # Panics
///
/// Panics unless `gi` and `gh` are `[N, 3H]` for `h: [N, H]` and all
/// three share a device.
pub fn gru_gates(gi: &Tensor, gh: &Tensor, h: &Tensor) -> Tensor {
    let device = same_device(gi, gh);
    same_device(gh, h);
    assert_eq!(h.rank(), 2, "gru_gates state must be [N, H], got {}", h.shape());
    let (n, hid) = (h.dim(0), h.dim(1));
    assert!(
        gi.dims() == [n, 3 * hid] && gh.dims() == [n, 3 * hid],
        "gru_gates needs [N, 3H] gates for state {}: {} and {}",
        h.shape(),
        gi.shape(),
        gh.shape()
    );
    let needs = [gi, gh, h].map(Tensor::requires_grad_flag);
    let track = grad_enabled() && needs.contains(&true);
    let cells = (n * hid) as u64;
    let grad_cells = (3 * (needs[0] as u64 + needs[1] as u64) + needs[2] as u64) * cells;
    let _prof = tgl_obs::profile::op("gru_gates")
        .flops(38 * cells)
        .io(28 * cells, 4 * cells * (1 + 3 * track as u64))
        .shape(&[gi.dims(), gh.dims(), h.dims()])
        .backward_cost(15 * cells, 24 * cells, 4 * grad_cells);
    let mut y = pool::take_uninit(n * hid, device);
    let mut gates = track.then(|| pool::take_uninit(3 * n * hid, device));
    {
        let gi = gi.inner.storage.read();
        let gh = gh.inner.storage.read();
        let hd = h.inner.storage.read();
        for i in 0..n {
            let (gi, gh) = (&gi[3 * i * hid..][..3 * hid], &gh[3 * i * hid..][..3 * hid]);
            let (h, out) = (&hd[i * hid..][..hid], &mut y[i * hid..][..hid]);
            for j in 0..hid {
                let r = sigmoid(gi[j] + gh[j]);
                let z = sigmoid(gi[hid + j] + gh[hid + j]);
                let c = (gi[2 * hid + j] + r * gh[2 * hid + j]).tanh();
                out[j] = c + z * (h[j] - c);
                if let Some(s) = gates.as_deref_mut() {
                    let s = &mut s[3 * i * hid..][..3 * hid];
                    (s[j], s[hid + j], s[2 * hid + j]) = (r, z, c);
                }
            }
        }
    }
    let gates = gates.map(|g| PooledBuf::new(g, device));
    let (gh_t, h_t) = (gh.clone(), h.clone());
    let inputs = [gi.clone(), gh.clone(), h.clone()];
    Tensor::make_result(y, [n, hid], device, &inputs, move |go| {
        let gates = gates.as_ref().expect("gru_gates saves its gates whenever it builds a node");
        let gh = gh_t.inner.storage.read();
        let hd = h_t.inner.storage.read();
        let mut dgi = needs[0].then(|| pool::take_uninit(3 * n * hid, device));
        let mut dgh = needs[1].then(|| pool::take_uninit(3 * n * hid, device));
        let mut dh = needs[2].then(|| pool::take_uninit(n * hid, device));
        for i in 0..n {
            let saved = &gates[3 * i * hid..][..3 * hid];
            let (h, gh_n) = (&hd[i * hid..][..hid], &gh[(3 * i + 2) * hid..][..hid]);
            let go = &go[i * hid..][..hid];
            for j in 0..hid {
                let (r, z, c) = (saved[j], saved[hid + j], saved[2 * hid + j]);
                let d_h = go[j] * z;
                let d_z = go[j] * (h[j] - c);
                let d_n = (go[j] - d_h) * (1.0 - c * c);
                let d_ar = d_n * gh_n[j] * r * (1.0 - r);
                let d_az = d_z * z * (1.0 - z);
                let at = 3 * i * hid + j;
                if let Some(g) = dgi.as_deref_mut() {
                    (g[at], g[at + hid], g[at + 2 * hid]) = (d_ar, d_az, d_n);
                }
                if let Some(g) = dgh.as_deref_mut() {
                    (g[at], g[at + hid], g[at + 2 * hid]) = (d_ar, d_az, d_n * r);
                }
                if let Some(g) = dh.as_deref_mut() {
                    g[i * hid + j] = d_h;
                }
            }
        }
        vec![dgi, dgh, dh]
    })
}

#[cfg(test)]
mod tests {
    use crate::testing::{assert_close, check_gradient};
    use crate::Tensor;

    #[test]
    fn add_relu_matches_unfused_same_shape() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 0.5, -0.1], [2, 2]);
        let b = Tensor::from_vec(vec![-0.5, 3.0, -1.0, 0.1], [2, 2]);
        assert_eq!(a.add_relu(&b).to_vec(), a.add(&b).relu().to_vec());
    }

    #[test]
    fn add_relu_matches_unfused_row_broadcast() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 0.5, -0.1, 2.0, -3.0], [2, 3]);
        let b = Tensor::from_vec(vec![-0.5, 3.0, 0.0], [3]);
        assert_eq!(a.add_relu(&b).to_vec(), a.add(&b).relu().to_vec());
    }

    #[test]
    fn add_relu_grads_match_unfused() {
        let mk = || {
            (
                Tensor::from_vec(vec![1.0, -2.0, 0.5, -0.1, 2.0, -3.0], [2, 3])
                    .requires_grad(true),
                Tensor::from_vec(vec![-0.5, 3.0, 0.1], [3]).requires_grad(true),
            )
        };
        let (a1, b1) = mk();
        a1.add_relu(&b1).sum_all().backward();
        let (a2, b2) = mk();
        a2.add(&b2).relu().sum_all().backward();
        assert_eq!(a1.grad().unwrap(), a2.grad().unwrap());
        assert_eq!(b1.grad().unwrap(), b2.grad().unwrap());
    }

    #[test]
    fn add_relu_gradcheck() {
        // Inputs chosen away from the ReLU kink (finite differences
        // would straddle it).
        let a = Tensor::from_vec(vec![0.8, -1.5, 0.6, -0.9], [2, 2]).requires_grad(true);
        let b = Tensor::from_vec(vec![0.3, 0.4], [2]);
        check_gradient(&a, |t| t.add_relu(&b).sum_all(), 1e-2);
        let a2 = Tensor::from_vec(vec![0.8, -1.5, 0.6, -0.9], [2, 2]);
        let b2 = Tensor::from_vec(vec![0.3, 0.4], [2]).requires_grad(true);
        check_gradient(&b2, |t| a2.add_relu(t).sum_all(), 1e-2);
    }

    #[test]
    fn addcmul_matches_unfused() {
        let base = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        let a = Tensor::from_vec(vec![0.5, -1.0, 2.0], [3]);
        let b = Tensor::from_vec(vec![4.0, 3.0, -2.0], [3]);
        assert_close(
            &base.addcmul(&a, &b, 2.0).to_vec(),
            &base.add(&a.mul(&b).mul_scalar(2.0)).to_vec(),
            0.0,
        );
    }

    #[test]
    fn addcmul_gradcheck_all_inputs() {
        let vals = vec![0.5f32, -1.0, 2.0, 0.3];
        let others = (
            Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.5], [4]),
            Tensor::from_vec(vec![0.4, -0.8, 1.1, 2.0], [4]),
        );
        let base = Tensor::from_vec(vals.clone(), [4]).requires_grad(true);
        check_gradient(&base, |t| t.addcmul(&others.0, &others.1, 1.5).sum_all(), 1e-2);
        let a = Tensor::from_vec(vals.clone(), [4]).requires_grad(true);
        check_gradient(&a, |t| others.0.addcmul(t, &others.1, 1.5).sum_all(), 1e-2);
        let b = Tensor::from_vec(vals, [4]).requires_grad(true);
        check_gradient(&b, |t| others.0.addcmul(&others.1, t, 1.5).sum_all(), 1e-2);
    }

    #[test]
    fn gru_style_fusion_matches_convex_combination() {
        // h' = n + z*(h - n) == (1-z)*n + z*h
        let n = Tensor::from_vec(vec![0.1, -0.5, 0.9], [3]);
        let z = Tensor::from_vec(vec![0.2, 0.7, 0.5], [3]);
        let h = Tensor::from_vec(vec![1.0, -1.0, 0.0], [3]);
        let fused = n.addcmul(&z, &h.sub(&n), 1.0);
        let unfused = z.neg().add_scalar(1.0).mul(&n).add(&z.mul(&h));
        assert_close(&fused.to_vec(), &unfused.to_vec(), 1e-6);
    }

    #[test]
    fn time_encode_values_and_gradients() {
        use crate::ops::time_encode;
        let dt = Tensor::from_vec(vec![0.0, 2.0], [2]);
        let w = Tensor::from_vec(vec![1.0, 0.5], [2]).requires_grad(true);
        let b = Tensor::from_vec(vec![0.0, 0.25], [2]).requires_grad(true);
        let y = time_encode(&dt, &w, &b);
        assert_eq!(y.dims(), &[2, 2]);
        // The in-tree kernel is faithfully rounded: within one ulp of
        // libm's correctly rounded value, and exact at cos 0.
        let want = [1.0, 0.25f32.cos(), 2.0f32.cos(), 1.25f32.cos()];
        for (got, want) in y.to_vec().iter().zip(want) {
            assert!(got.to_bits().abs_diff(want.to_bits()) <= 1, "{got} vs libm {want}");
        }
        assert_eq!(y.to_vec()[0], 1.0);
        y.sum_all().backward();
        // d/dω_j = Σ_i -sin(arg_ij)·Δt_i ; d/dφ_j = Σ_i -sin(arg_ij)
        assert_close(&w.grad().unwrap(), &[-2.0 * 2.0f32.sin(), -2.0 * 1.25f32.sin()], 1e-6);
        assert_close(
            &b.grad().unwrap(),
            &[-2.0f32.sin(), -(0.25f32.sin() + 1.25f32.sin())],
            1e-6,
        );
        assert_eq!(time_encode(&Tensor::zeros([0]), &w, &b).dims(), &[0, 2]);
    }

    #[test]
    fn gru_gates_values_and_optional_gradients() {
        use crate::ops::gru_gates;
        let gi = Tensor::from_vec(vec![0.2, -0.4, 1.0, 0.3, -0.7, 0.1], [1, 6]).requires_grad(true);
        let gh = Tensor::from_vec(vec![-0.1, 0.5, 0.2, -0.3, 0.6, 0.9], [1, 6]).requires_grad(true);
        let h = Tensor::from_vec(vec![0.5, -0.25], [1, 2]);
        let y = gru_gates(&gi, &gh, &h);
        let sig = |x: f32| 1.0 / (1.0 + (-x).exp());
        let want: Vec<f32> = (0..2)
            .map(|j| {
                let (a, b, hv) = (gi.to_vec(), gh.to_vec(), h.to_vec()[j]);
                let (r, z) = (sig(a[j] + b[j]), sig(a[2 + j] + b[2 + j]));
                let n = (a[4 + j] + r * b[4 + j]).tanh();
                n + z * (hv - n)
            })
            .collect();
        assert_eq!(y.to_vec(), want);
        // `h` is off the graph: it takes no gradient, the gates do.
        y.sum_all().backward();
        assert!(gi.grad().is_some() && gh.grad().is_some() && h.grad().is_none());
        check_gradient(&gi, |t| gru_gates(t, &gh, &h).sum_all(), 1e-2);
        check_gradient(&gh, |t| gru_gates(&gi, t, &h).sum_all(), 1e-2);
        let h = h.requires_grad(true);
        check_gradient(&h, |t| gru_gates(&gi, &gh, t).sum_all(), 1e-2);
        // Inference builds no node (and so saves no gates).
        let _g = crate::no_grad();
        assert!(!gru_gates(&gi, &gh, &h).requires_grad_flag());
    }

    #[test]
    #[should_panic(expected = "gru_gates needs [N, 3H] gates")]
    fn gru_gates_bad_gate_width_panics() {
        crate::ops::gru_gates(&Tensor::zeros([2, 4]), &Tensor::zeros([2, 6]), &Tensor::zeros([2, 2]));
    }

    #[test]
    #[should_panic(expected = "does not broadcast")]
    fn add_relu_bad_bias_panics() {
        Tensor::zeros([2, 3]).add_relu(&Tensor::zeros([4]));
    }
}
