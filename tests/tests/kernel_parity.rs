//! Scalar-vs-SIMD kernel contract suite.
//!
//! The tensor crate has one floating-point contract
//! (`tgl_tensor::kernel`): SIMD runs only lane-wise operations whose
//! per-element IEEE roundings match the scalar reference, so every
//! result is bitwise identical to a scalar-only build and to the plain
//! loops that define it, at every thread count. These tests pin that
//! contract against the public tensor API.

use tgl_integration::serial;
use tgl_runtime::rng::{Rng, SeedableRng, StdRng};
use tgl_runtime::set_threads;
use tgl_tensor::kernel::{self, Simd, Trig};
use tgl_tensor::ops::{
    cat, edge_attention, gru_gates, linear_cat, segment_mean, segment_softmax, segment_sum, time_encode, AdamStep,
    Part,
};
use tgl_tensor::Tensor;

/// Restores the default kernel state (the host's own SIMD level, one
/// thread) when a test scope unwinds.
struct RestoreKernel;
impl Drop for RestoreKernel {
    fn drop(&mut self) {
        kernel::set_simd(Simd::Avx512);
        set_threads(1);
    }
}

fn rand2(rng: &mut StdRng, dims: [usize; 2]) -> Tensor {
    Tensor::rand_uniform(dims, -1.0, 1.0, rng)
}

/// GEMM shapes crossing every tile boundary of every SIMD level (4
/// rows; one vector and a whole tile row of 4 / 8, 8 / 16 and 16 / 32
/// floats; KC=128) plus the attention-shaped skinny cases from the
/// bench sweep.
const GEMM_SIZES: [(usize, usize, usize); 13] = [
    (3, 5, 7),
    (5, 257, 9),
    (65, 300, 33),
    (400, 16, 10), // attention scores: (batch*heads) x dim x fanout
    (400, 10, 16), // attention output
    (7, 513, 31),
    (4, 127, 1), // the predictor's single output column
    (3, 128, 15),
    (5, 129, 17),
    (8, 31, 32),
    (9, 16, 48), // a whole AVX-512F tile row and one vector more
    (6, 40, 63),
    (12, 33, 65),
];

/// One deterministic pass over the ops under contract; returns every
/// produced value so callers can compare across kernel configurations.
fn op_suite() -> Vec<f32> {
    let mut out = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x51D);

    // Dense GEMM, forward and backward (nt/tn kernels).
    for (m, k, n) in GEMM_SIZES {
        let a = rand2(&mut rng, [m, k]).requires_grad(true);
        let b = rand2(&mut rng, [k, n]).requires_grad(true);
        let c = a.matmul(&b);
        c.sum_all().backward();
        out.extend(c.to_vec());
        out.extend(a.grad().unwrap());
        out.extend(b.grad().unwrap());
    }

    // Segment kernels at d=16 (two full lanes).
    let n = 300;
    let x = rand2(&mut rng, [n, 16]).requires_grad(true);
    let seg: Vec<usize> = (0..n).map(|i| (i * 7 % 41) % 23).collect();
    let ss = segment_sum(&x, &seg, 23);
    let sm = segment_mean(&x, &seg, 23);
    let sx = segment_softmax(&x, &seg, 23);
    sx.mul(&x).sum_all().add(&ss.sum_all()).add(&sm.sum_all()).backward();
    out.extend(ss.to_vec());
    out.extend(sm.to_vec());
    out.extend(sx.to_vec());
    out.extend(x.grad().unwrap());

    // Fused elementwise ops.
    let a = rand2(&mut rng, [19, 33]).requires_grad(true);
    let b = rand2(&mut rng, [19, 33]);
    let y = a.add_relu(&b).addcmul(&b, &b, -0.21);
    y.sum_all().backward();
    out.extend(y.to_vec());
    out.extend(a.grad().unwrap());

    // The fused Adam step.
    let p = rand2(&mut rng, [11, 31]);
    let g: Vec<f32> = (0..11 * 31).map(|i| ((i * 37 % 100) as f32 - 50.0) / 50.0).collect();
    let m = Tensor::zeros([11, 31]);
    let v = Tensor::zeros([11, 31]);
    for t in 1..=7i32 {
        let s = AdamStep {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            bc1: 1.0 - 0.9f32.powi(t),
            bc2: 1.0 - 0.999f32.powi(t),
        };
        p.adam_step_(&g, &m, &v, s);
    }
    out.extend(p.to_vec());
    out.extend(m.to_vec());
    out.extend(v.to_vec());

    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn exact_mode_simd_is_bitwise_identical_to_scalar() {
    let _g = serial();
    let _restore = RestoreKernel;
    set_threads(1);
    kernel::set_simd(Simd::Scalar);
    let scalar = op_suite();
    for level in kernel::simd_levels() {
        kernel::set_simd(level);
        assert_eq!(
            bits(&scalar),
            bits(&op_suite()),
            "SIMD must be bitwise identical at {} and at the scalar level",
            kernel::simd_label()
        );
    }
}

/// What the naive loops make of `C = A·B` and its backward from `dC`:
/// `(C, dA, dB)`, every element accumulated in ascending reduction
/// index from zero, one fused multiply-add at a time.
fn naive_gemm_triple(a: &[f32], b: &[f32], dc: &[f32], (m, k, n): (usize, usize, usize)) -> [Vec<f32>; 3] {
    let (mut c, mut da, mut db) = (vec![0.0f32; m * n], vec![0.0f32; m * k], vec![0.0f32; k * n]);
    for i in 0..m {
        for p in 0..k {
            for j in 0..n {
                c[i * n + j] = a[i * k + p].mul_add(b[p * n + j], c[i * n + j]);
                da[i * k + p] = dc[i * n + j].mul_add(b[p * n + j], da[i * k + p]);
            }
        }
    }
    for p in 0..k {
        for i in 0..m {
            for j in 0..n {
                db[p * n + j] = a[i * k + p].mul_add(dc[i * n + j], db[p * n + j]);
            }
        }
    }
    [c, da, db]
}

/// `C = A·B` forward, then backward from the upstream gradient `dC`:
/// returns `(C, dA, dB)` — the `nn`, `nt` and `tn` kernels in turn.
fn gemm_triple(a: &Tensor, b: &Tensor, dc: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (a, b) = (a.requires_grad(true), b.requires_grad(true));
    let c = a.matmul(&b);
    c.backward_with(dc.to_vec());
    (c.to_vec(), a.grad().unwrap(), b.grad().unwrap())
}

#[test]
fn transposed_gemms_match_naive_reduction_order_in_exact_mode() {
    let _g = serial();
    let _restore = RestoreKernel;
    set_threads(1);
    let mut rng = StdRng::seed_from_u64(0x7A1);
    // Includes reductions crossing KC=128 for both products (dA reduces
    // over n, dB over m) and shapes with k and n below one vector.
    for (m, k, n) in [(3, 5, 7), (5, 257, 9), (9, 5, 257), (300, 7, 33), (65, 300, 33)] {
        let (a, b) = (rand2(&mut rng, [m, k]), rand2(&mut rng, [k, n]));
        let dc = rand2(&mut rng, [m, n]).to_vec();
        let (_, da, db) = gemm_triple(&a, &b, &dc);
        // dA[i,p] = sum_j dC[i,j]·B[p,j] and dB[p,j] = sum_i A[i,p]·dC[i,j],
        // each accumulated in ascending reduction index.
        let [_, want_da, want_db] = naive_gemm_triple(&a.to_vec(), &b.to_vec(), &dc, (m, k, n));
        assert_eq!(bits(&da), bits(&want_da), "dA = dC·Bt at {m}x{k}x{n}");
        assert_eq!(bits(&db), bits(&want_db), "dB = At·dC at {m}x{k}x{n}");
    }
}

#[test]
fn mc_panel_gemm_thread_invariant_in_both_modes() {
    let _g = serial();
    let _restore = RestoreKernel;
    // Enough work (past the 4 Mi multiply-adds below which a product
    // runs inline) for several row panels in every product, with a
    // reduction crossing a KC boundary in each (k for C, n for dA, m
    // for dB) and one shape whose k and n sit below one vector. All
    // three kernels must be bitwise invariant between 1 and 4 threads.
    for (m, k, n) in [(1300, 257, 33), (1300, 33, 257), (300_000, 3, 5)] {
        let run = |threads: usize| {
            set_threads(threads);
            let mut rng = StdRng::seed_from_u64(0x6CA);
            let (a, b) = (rand2(&mut rng, [m, k]), rand2(&mut rng, [k, n]));
            let dc = rand2(&mut rng, [m, n]).to_vec();
            let (c, da, db) = gemm_triple(&a, &b, &dc);
            (bits(&c), bits(&da), bits(&db))
        };
        assert_eq!(run(1), run(4), "{m}x{k}x{n}: GEMM differs between 1 and 4 threads");
    }
}

/// The affine layer over parts of `widths` columns by naive loops:
/// the output (bias added to the finished sum, then ReLU), and from the
/// upstream gradient `go` every part's gradient, the weight's and the
/// bias's, each sum ascending from zero (a product's sum by fused
/// multiply-adds).
fn naive_linear_cat(parts: &[Vec<f32>], widths: &[usize], w: &[f32], bias: &[f32], m: usize, relu: bool, go: &[f32]) -> Vec<Vec<f32>> {
    let (k, n) = (widths.iter().sum::<usize>(), bias.len());
    // Row `i` of the concatenation.
    let row = |i: usize| -> Vec<f32> {
        parts.iter().zip(widths).flat_map(|(x, &kp)| x[i * kp..(i + 1) * kp].to_vec()).collect()
    };
    let (mut y, mut dy) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
    for i in 0..m {
        let x = row(i);
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = x[p].mul_add(w[j * k + p], acc);
            }
            let out = acc + bias[j];
            y[i * n + j] = if relu { out.max(0.0) } else { out };
            dy[i * n + j] = if relu && out <= 0.0 { 0.0 } else { go[i * n + j] };
        }
    }
    let (mut dx, mut dw, mut dbias) = (vec![0.0f32; m * k], vec![0.0f32; n * k], vec![0.0f32; n]);
    for i in 0..m {
        let x = row(i);
        for j in 0..n {
            for p in 0..k {
                dx[i * k + p] = dy[i * n + j].mul_add(w[j * k + p], dx[i * k + p]);
                dw[j * k + p] = dy[i * n + j].mul_add(x[p], dw[j * k + p]);
            }
            dbias[j] += dy[i * n + j];
        }
    }
    let mut all = vec![y];
    let mut col0 = 0;
    for &kp in widths {
        all.push((0..m).flat_map(|i| dx[i * k + col0..i * k + col0 + kp].to_vec()).collect());
        col0 += kp;
    }
    all.extend([dw, dbias]);
    all
}

#[test]
fn gemm_and_linear_cat_hold_their_bits_at_every_simd_level() {
    let _g = serial();
    let _restore = RestoreKernel;
    let mut rng = StdRng::seed_from_u64(0x1E7E1);
    // The tile-edge shapes, and one product large enough to split into
    // row panels at 4 threads.
    let gemms: Vec<_> = GEMM_SIZES
        .into_iter()
        .chain([(1100, 129, 33)])
        .map(|(m, k, n)| {
            let (a, b) = (rand2(&mut rng, [m, k]), rand2(&mut rng, [k, n]));
            let dc = rand2(&mut rng, [m, n]).to_vec();
            let want = naive_gemm_triple(&a.to_vec(), &b.to_vec(), &dc, (m, k, n));
            (a, b, dc, want)
        })
        .collect();
    // Parts cut inside a register tile, on a vector, past a KC block;
    // an output one column wide, one vector wide, one over a tile row.
    let layers: Vec<_> = [
        (9usize, vec![6usize], 3usize, false),
        (70, vec![3, 5], 5, true),
        (300, vec![32, 32, 16], 32, true),
        (41, vec![130, 100], 17, false),
        (37, vec![15, 1, 17], 1, false),
        (5, vec![4, 0, 3], 16, true),
        (23, vec![33, 31], 33, true),
    ]
    .into_iter()
    .map(|(m, widths, n, relu)| {
        let case = linear_cat_case(m, &widths, n, relu, None, &mut rng);
        let values: Vec<Vec<f32>> = case.inputs.iter().map(Tensor::to_vec).collect();
        let p = widths.len();
        let go: Vec<f32> = (0..m * n).map(upstream).collect();
        let want = naive_linear_cat(&values[..p], &widths, &values[p], &values[p + 1], m, relu, &go);
        (case, want)
    })
    .collect();

    for level in kernel::simd_levels() {
        kernel::set_simd(level);
        for threads in [1, 4] {
            set_threads(threads);
            for (a, b, dc, want) in &gemms {
                let (c, da, db) = gemm_triple(a, b, dc);
                let at = format!("{}x{} at {level:?}, {threads} threads", a.shape(), b.shape());
                assert_eq!(bits(&c), bits(&want[0]), "C = A·B, {at}");
                assert_eq!(bits(&da), bits(&want[1]), "dA = dC·Bt, {at}");
                assert_eq!(bits(&db), bits(&want[2]), "dB = At·dC, {at}");
            }
            for (case, want) in &layers {
                // `==` on values, as for the chains: a zeroed accumulator
                // turns a `-0.0` gradient into `+0.0`.
                let got = eval(&case.fused, &case.inputs);
                assert_eq!(&got, want, "{} at {level:?}, {threads} threads", case.name);
            }
        }
    }
}

/// Pool buffer requests made while `f` runs.
fn pool_requests(f: impl FnOnce()) -> u64 {
    let before = tglite::obs::metrics::get("tensor.pool.request");
    f();
    tglite::obs::metrics::get("tensor.pool.request") - before
}

#[test]
fn backward_requests_no_buffer_for_inputs_off_the_graph() {
    let _g = serial();
    let _restore = RestoreKernel;
    set_threads(1);
    let mut rng = StdRng::seed_from_u64(0xB0FF);
    let (a0, b0) = (rand2(&mut rng, [40, 24]), rand2(&mut rng, [24, 16]));
    let dc = rand2(&mut rng, [40, 16]).to_vec();
    // matmul: backward with gradients wanted for (a, b), a only, b only.
    let run = |ga: bool, gb: bool| {
        let (a, b) = (a0.requires_grad(ga), b0.requires_grad(gb));
        let c = a.matmul(&b);
        let requests = pool_requests(|| c.backward_with(dc.clone()));
        (requests, a.grad(), b.grad())
    };
    let (both, da, db) = run(true, true);
    let (a_only, da_alone, none_b) = run(true, false);
    let (b_only, none_a, db_alone) = run(false, true);
    assert!(none_a.is_none() && none_b.is_none());
    // Each side's product pays for its own buffers and nothing else.
    assert!(a_only < both && b_only < both, "{a_only} / {b_only} of {both} requests");
    assert_eq!(a_only + b_only, both);
    assert_eq!(bits(&da.unwrap()), bits(&da_alone.unwrap()));
    assert_eq!(bits(&db.unwrap()), bits(&db_alone.unwrap()));

    // cat: a tracked activation beside a raw feature tensor.
    let (x0, feat) = (rand2(&mut rng, [30, 8]), rand2(&mut rng, [30, 20]));
    let dcat = rand2(&mut rng, [30, 28]).to_vec();
    let run = |feat_grad: bool| {
        let (x, f) = (x0.requires_grad(true), feat.requires_grad(feat_grad));
        let y = tgl_tensor::ops::cat(&[x.clone(), f], 1);
        (pool_requests(|| y.backward_with(dcat.clone())), x.grad().unwrap())
    };
    let (with_feat, dx_with) = run(true);
    let (without, dx_without) = run(false);
    assert_eq!((with_feat, without), (2, 1), "one gradient buffer per tracked cat input");
    assert_eq!(bits(&dx_with), bits(&dx_without));
}

#[test]
fn fused_elementwise_thread_invariant_across_chunk_boundaries() {
    let _g = serial();
    let _restore = RestoreKernel;
    // The fused elementwise kernels run one pass on the caller's
    // thread, so no thread count may move a bit. No length is a lane
    // multiple: the partial last vector must round like a whole one.
    for n in [123 * 211, 2 * 16_384 + 7, 5 * 16_384 + 13] {
        let run = |threads: usize| {
            set_threads(threads);
            let mut rng = StdRng::seed_from_u64(0xF0A6);
            let a = rand2(&mut rng, [n, 1]).requires_grad(true);
            let b = rand2(&mut rng, [n, 1]);
            let y = a.add_relu(&b).addcmul(&b, &b, -0.417);
            y.sum_all().backward();
            (bits(&y.to_vec()), bits(&a.grad().unwrap()))
        };
        assert_eq!(run(1), run(4), "fused elementwise ops over {n} elements vary with the thread count");
    }
}

// ---------------------------------------------------------------------
// The in-tree trigonometric kernel
// ---------------------------------------------------------------------

/// `n` seeded arguments: magnitudes log-uniform over `2^lo..2^hi`,
/// either sign, a full random mantissa.
fn trig_args(n: usize, lo: i32, hi: i32, rng: &mut StdRng) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let sign = if rng.gen_bool(0.5) { -1.0f32 } else { 1.0 };
            sign * rng.gen_range(1.0f32..2.0) * 2f32.powi(rng.gen_range(lo..hi))
        })
        .collect()
}

/// Distance in units in the last place between two finite `f32`s.
fn ulps(a: f32, b: f32) -> u32 {
    let key = |v: f32| if v < 0.0 { -((v.to_bits() & 0x7fff_ffff) as i64) } else { v.to_bits() as i64 };
    (key(a) - key(b)).unsigned_abs() as u32
}

#[test]
fn sincos_simd_is_the_scalar_reference_bit_for_bit() {
    let _g = serial();
    let _restore = RestoreKernel;
    let mut rng = StdRng::seed_from_u64(0x51C05);
    // Every binade an `f32` has, then the range Δt·ω covers, densely.
    let mut args = trig_args(500_000, -149, 128, &mut rng);
    args.extend(trig_args(500_000, -10, 31, &mut rng));
    args.extend([0.0, -0.0, f32::MIN_POSITIVE, 1e-45, -1e-45, f32::MAX, f32::MIN]);
    args.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
    for f in [Trig::Cos, Trig::Sin] {
        let want: Vec<f32> = args.iter().map(|&x| kernel::sincos_scalar(x, f)).collect();
        // Whole buffer, then row widths that leave every lane tail of
        // the 4- and 8-lane bodies.
        for width in [args.len(), 1, 5, 9, 16, 23] {
            for simd in kernel::simd_levels() {
                kernel::set_simd(simd);
                // Alone, and as the second output of the other function.
                let (mut got, mut second) = (args.clone(), args.clone());
                got.chunks_mut(width).for_each(|row| kernel::sincos(row, f, None));
                let mut first = args.clone();
                for (row, out) in first.chunks_mut(width).zip(second.chunks_mut(width)) {
                    kernel::sincos(row, f.other(), Some(out));
                }
                for (((&x, g), s), w) in args.iter().zip(&got).zip(&second).zip(&want) {
                    let same = |v: &f32| v.to_bits() == w.to_bits() || (v.is_nan() && w.is_nan());
                    assert!(
                        same(g) && same(s),
                        "{f:?}({x:e}) at {simd:?} width={width}: {g:e} / {s:e} vs scalar {w:e}"
                    );
                }
            }
        }
        for (&x, w) in args.iter().zip(&want) {
            assert_eq!(w.is_nan(), !x.is_finite(), "{f:?}({x:e}) = {w:e}");
            assert!(w.is_nan() || (-1.0..=1.0).contains(w), "{f:?}({x:e}) = {w:e} out of range");
        }
    }
}

#[test]
fn sincos_tracks_the_f64_functions() {
    let mut rng = StdRng::seed_from_u64(0xACC);
    let oracle = |x: f32, f: Trig| match f {
        Trig::Cos => f64::from(x).cos(),
        Trig::Sin => f64::from(x).sin(),
    };
    for f in [Trig::Cos, Trig::Sin] {
        // Where the three-part reduction is exact: within 2 ulp of the
        // correctly rounded value (measured: 1).
        let mut worst = 0;
        for x in trig_args(400_000, -30, 22, &mut rng) {
            let (got, want) = (kernel::sincos_scalar(x, f), oracle(x, f) as f32);
            worst = worst.max(ulps(got, want));
            assert!(ulps(got, want) <= 2, "{f:?}({x:e}) = {got:e}, f64 says {want:e}");
        }
        assert!(worst >= 1, "a faithfully rounded kernel is off by one somewhere");
        // Up to the largest Δt·ω a dataset produces (1.2e9 on WikiTalk)
        // the phase survives to 1e-6.
        for x in trig_args(400_000, 22, 31, &mut rng) {
            let (got, want) = (kernel::sincos_scalar(x, f), oracle(x, f));
            assert!((f64::from(got) - want).abs() <= 1e-6, "{f:?}({x:e}) = {got:e}, f64 says {want:e}");
        }
    }
    assert_eq!(kernel::sincos_scalar(0.0, Trig::Cos), 1.0);
    assert_eq!(kernel::sincos_scalar(0.0, Trig::Sin), 0.0);
}

/// `n` seeded arguments of `exp`, uniform over `lo..hi`.
fn exp_args(n: usize, lo: f32, hi: f32, rng: &mut StdRng) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

#[test]
fn exp_simd_is_the_scalar_reference_bit_for_bit() {
    let _g = serial();
    let _restore = RestoreKernel;
    let mut rng = StdRng::seed_from_u64(0xE7B);
    // The softmax's domain (`x - max <= 0`) into underflow, then every
    // binade an `f32` has, either sign.
    let mut args = exp_args(600_000, -110.0, 0.0, &mut rng);
    args.extend(trig_args(400_000, -149, 128, &mut rng));
    args.extend([0.0, -0.0, f32::MIN_POSITIVE, 1e-45, -1e-45, f32::MAX, f32::MIN]);
    args.extend([88.72, 88.73, -87.34, -103.97, -103.98, -150.0, -151.0, 100.0, 101.0]);
    args.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
    let want: Vec<f32> = args.iter().map(|&x| kernel::exp_scalar(x)).collect();
    // Whole buffer at the SIMD levels (the scalar level's lanes are the
    // reference itself), then rows of the last few thousand (specials
    // included) at widths that leave every lane tail of the 8- and
    // 16-lane bodies, at every level.
    let tail = args.len() - 4000;
    for width in [args.len(), 5, 13, 23] {
        let from = if width == args.len() { 0 } else { tail };
        for simd in kernel::simd_levels().filter(|&s| width != args.len() || s > Simd::Scalar) {
            kernel::set_simd(simd);
            let mut got = args[from..].to_vec();
            got.chunks_mut(width).for_each(kernel::exp);
            if bits(&got) != bits(&want[from..]) {
                for ((&x, g), w) in args[from..].iter().zip(&got).zip(&want[from..]) {
                    let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
                    assert!(same, "exp({x:e}) at {simd:?} width={width}: {g:e} vs scalar {w:e}");
                }
            }
        }
    }
}

#[test]
fn exp_tracks_the_f64_function() {
    let mut rng = StdRng::seed_from_u64(0xE70);
    // Within 1 ulp of the correctly rounded value wherever the result
    // is finite, subnormal results included, and off by one somewhere.
    let mut worst = 0;
    let mut args = exp_args(500_000, -104.0, 0.0, &mut rng);
    args.extend(exp_args(500_000, -104.0, 88.7, &mut rng));
    for x in args {
        let (got, want) = (kernel::exp_scalar(x), f64::from(x).exp() as f32);
        worst = worst.max(ulps(got, want));
        assert!(ulps(got, want) <= 1, "exp({x:e}) = {got:e}, f64 says {want:e}");
    }
    assert_eq!(worst, 1, "a faithfully rounded kernel is off by one somewhere");
    assert_eq!(kernel::exp_scalar(0.0), 1.0);
    assert_eq!(kernel::exp_scalar(-0.0), 1.0);
    for (x, want) in [(-104.0, 0.0), (-150.0, 0.0), (f32::NEG_INFINITY, 0.0), (89.0, f32::INFINITY)] {
        assert_eq!(kernel::exp_scalar(x).to_bits(), f32::to_bits(want), "exp({x:e})");
    }
    assert_eq!(kernel::exp_scalar(f32::INFINITY), f32::INFINITY);
    assert!(kernel::exp_scalar(f32::NAN).is_nan());
}

// ---------------------------------------------------------------------
// Fused forward-path kernels against the op chains they replaced
// ---------------------------------------------------------------------

type Op = Box<dyn Fn(&[Tensor]) -> Tensor>;

/// A fused kernel, the op chain it replaced (kept here only, as the
/// reference), and input values for both.
struct Fusion {
    name: String,
    inputs: Vec<Tensor>,
    fused: Op,
    chain: Op,
}

/// Element `i` of the fixed upstream gradient [`eval`] backpropagates.
fn upstream(i: usize) -> f32 {
    ((i * 37 + 11) % 101) as f32 / 50.0 - 1.0
}

/// Output and every input's gradient (empty where an input takes
/// none) of `f` over fresh leaves of `inputs`, from a fixed upstream
/// gradient.
fn eval(f: &Op, inputs: &[Tensor]) -> Vec<Vec<f32>> {
    let leaves: Vec<Tensor> = inputs.iter().map(|t| t.requires_grad(true)).collect();
    let y = f(&leaves);
    y.backward_with((0..y.numel()).map(upstream).collect());
    let mut all = vec![y.to_vec()];
    all.extend(leaves.iter().map(|t| t.grad().unwrap_or_default()));
    all
}

fn linear_case(m: usize, k: usize, n: usize, bias: bool, relu: bool, rng: &mut StdRng) -> Fusion {
    let mut inputs = vec![rand2(rng, [m, k]), rand2(rng, [n, k])];
    if bias {
        inputs.push(Tensor::rand_uniform([n], -1.0, 1.0, rng));
    }
    Fusion {
        name: format!("linear {m}x{k}x{n} bias={bias} relu={relu}"),
        inputs,
        fused: Box::new(move |t| t[0].linear(&t[1], t.get(2), relu)),
        chain: Box::new(move |t| {
            let y = t[0].matmul(&t[1].transpose());
            match (t.get(2), relu) {
                (Some(b), true) => y.add_relu(b),
                (Some(b), false) => y.add(b),
                (None, true) => y.relu(),
                (None, false) => y,
            }
        }),
    }
}

/// The affine layer over parts of `widths` columns against `cat` +
/// `linear` on the concatenation; part `raw` (if any) is off the graph,
/// as a block's edge features are.
fn linear_cat_case(m: usize, widths: &[usize], n: usize, relu: bool, raw: Option<usize>, rng: &mut StdRng) -> Fusion {
    let mut inputs: Vec<Tensor> = widths.iter().map(|&k| rand2(rng, [m, k])).collect();
    inputs.push(rand2(rng, [n, widths.iter().sum()]));
    inputs.push(Tensor::rand_uniform([n], -1.0, 1.0, rng));
    let p = widths.len();
    let parts = move |t: &[Tensor]| -> Vec<Tensor> {
        (0..p).map(|i| if raw == Some(i) { t[i].detach() } else { t[i].clone() }).collect()
    };
    Fusion {
        name: format!("linear_cat {m}x{widths:?}x{n} relu={relu} raw={raw:?}"),
        inputs,
        fused: Box::new(move |t| linear_cat(&parts(t).iter().collect::<Vec<_>>(), &t[p], Some(&t[p + 1]), relu)),
        chain: Box::new(move |t| cat(&parts(t), 1).linear(&t[p], Some(&t[p + 1]), relu)),
    }
}

/// The affine layer over parts of `widths` columns, where each part in
/// `indexed` is read through [`Part::Rows`] from a table of `table_rows`
/// rows, against `index_select` of those rows followed by `linear_cat`
/// over whole parts. The rows repeat and are unsorted; part `raw` (if
/// any) is off the graph, as a block's edge features are, and every
/// other indexed table takes a gradient.
fn indexed_linear_case(
    m: usize,
    widths: &[usize],
    (indexed, table_rows): (&[usize], usize),
    n: usize,
    relu: bool,
    raw: Option<usize>,
    rng: &mut StdRng,
) -> Fusion {
    let p = widths.len();
    let rows: Vec<usize> = (0..m).map(|i| (i * 7 + i / 3) % table_rows).collect();
    // Part i's row index, if it is read through one.
    let index: Vec<Option<Vec<usize>>> = (0..p).map(|i| indexed.contains(&i).then(|| rows.clone())).collect();
    let mut inputs: Vec<Tensor> =
        widths.iter().zip(&index).map(|(&k, rows)| rand2(rng, [if rows.is_some() { table_rows } else { m }, k])).collect();
    inputs.push(rand2(rng, [n, widths.iter().sum()]));
    inputs.push(Tensor::rand_uniform([n], -1.0, 1.0, rng));
    let leaves = move |t: &[Tensor]| -> Vec<Tensor> {
        (0..p).map(|i| if raw == Some(i) { t[i].detach() } else { t[i].clone() }).collect()
    };
    let index2 = index.clone();
    Fusion {
        name: format!("linear_cat {m}x{widths:?}x{n} rows of {indexed:?} in {table_rows} relu={relu} raw={raw:?}"),
        inputs,
        fused: Box::new(move |t| {
            let xs = leaves(t);
            let parts: Vec<Part<'_>> = xs
                .iter()
                .zip(&index)
                .map(|(x, rows)| rows.as_deref().map_or(Part::Whole(x), |rows| Part::Rows(x, rows)))
                .collect();
            linear_cat(&parts, &t[p], Some(&t[p + 1]), relu)
        }),
        chain: Box::new(move |t| {
            let xs: Vec<Tensor> =
                leaves(t).into_iter().zip(&index2).map(|(x, rows)| rows.as_ref().map_or(x.clone(), |r| x.index_select(r))).collect();
            linear_cat(&xs.iter().collect::<Vec<_>>(), &t[p], Some(&t[p + 1]), relu)
        }),
    }
}

#[test]
fn linear_cat_reads_indexed_parts_as_their_gather() {
    let _g = serial();
    let _restore = RestoreKernel;
    let mut rng = StdRng::seed_from_u64(0x1DE7);
    // Parts of 1, 16, 32 and 33 columns; `m` not a multiple of the
    // tile's 4 rows; a forward reduction (the widths) and a `dW`
    // reduction (the rows) that cross `KC` = 128; the last case carries
    // more than 4 Mi multiply-adds, so 4 threads split every product.
    let cases = [
        indexed_linear_case(7, &[1, 16], (&[0], 5), 3, false, None, &mut rng),
        indexed_linear_case(9, &[16, 32], (&[0, 1], 4), 17, true, Some(1), &mut rng),
        indexed_linear_case(301, &[33, 1, 32, 16, 33, 32], (&[0, 3], 97), 33, true, None, &mut rng),
        indexed_linear_case(1300, &[32, 33, 16, 33, 32], (&[1, 3], 400), 33, false, Some(1), &mut rng),
    ];
    for level in kernel::simd_levels() {
        kernel::set_simd(level);
        for threads in [1, 4] {
            set_threads(threads);
            for case in &cases {
                let (fused, chain) = (eval(&case.fused, &case.inputs), eval(&case.chain, &case.inputs));
                for (i, (f, c)) in fused.iter().zip(&chain).enumerate() {
                    assert_eq!(bits(f), bits(c), "{} at {level:?}, {threads} threads: output/grad {i}", case.name);
                }
            }
        }
    }
}

/// Deltas `0..=6` times a power of ten up to `10^max_decade`.
fn time_encode_case(n: usize, dim: usize, max_decade: i32, rng: &mut StdRng) -> Fusion {
    let deltas: Vec<f32> =
        (0..n).map(|i| (i % 7) as f32 * 10f32.powi((i as i32 % 5 - 4 + max_decade).min(max_decade))).collect();
    Fusion {
        name: format!("time_encode n={n} dim={dim}"),
        inputs: vec![
            Tensor::from_vec(deltas, [n]),
            Tensor::rand_uniform([dim], 0.0, 1.0, rng),
            Tensor::rand_uniform([dim], -1.0, 1.0, rng),
        ],
        fused: Box::new(|t| time_encode(&t[0].detach(), &t[1], &t[2])),
        chain: Box::new(move |t| t[0].detach().reshape([n, 1]).mul(&t[1]).add(&t[2]).cos()),
    }
}

/// The GRU gate combination over `gi`, `gh: [n, 3·hid]` and `h: [n,
/// hid]` against the chain `GruCell::forward` ran after its two
/// `linear`s: six strided gathers, then nine elementwise nodes.
fn gru_gates_case(n: usize, hid: usize, rng: &mut StdRng) -> Fusion {
    let split = move |g: &Tensor, k: usize| {
        let rows: Vec<usize> = (0..n).map(|r| r * 3 + k).collect();
        g.reshape([n * 3, hid]).index_select(&rows).reshape([n, hid])
    };
    Fusion {
        name: format!("gru_gates N={n} H={hid}"),
        inputs: vec![rand2(rng, [n, 3 * hid]), rand2(rng, [n, 3 * hid]), rand2(rng, [n, hid])],
        fused: Box::new(|t| gru_gates(&t[0], &t[1], &t[2])),
        chain: Box::new(move |t| {
            let (gi, gh, h) = (&t[0], &t[1], &t[2]);
            let r = split(gi, 0).add(&split(gh, 0)).sigmoid();
            let z = split(gi, 1).add(&split(gh, 1)).sigmoid();
            let c = split(gi, 2).add(&r.mul(&split(gh, 2))).tanh();
            c.addcmul(&z, &h.sub(&c), 1.0)
        }),
    }
}

/// Every fused kernel at shapes that cross its edges: `k` straddling
/// the GEMM's `KC = 128` panels, `n` below one vector, a mostly-zero
/// input, one to three input parts whose boundaries fall inside a
/// register tile, on a vector and past `KC`, and GRU states of no rows,
/// one row, and enough rows to split across threads.
fn fusions() -> Vec<Fusion> {
    let mut rng = StdRng::seed_from_u64(0xF05E);
    let mut all = Vec::new();
    for (bias, relu) in [(true, false), (true, true), (false, false), (false, true)] {
        for (m, k, n) in [(70, 257, 5), (300, 80, 32), (9, 3, 1)] {
            all.push(linear_case(m, k, n, bias, relu, &mut rng));
        }
    }
    let mut sparse = linear_case(64, 40, 12, true, true, &mut rng);
    sparse.inputs[0] = sparse.inputs[0].relu().mul(&sparse.inputs[0].add_scalar(-0.5).relu());
    sparse.name.push_str(" mostly-zero x");
    all.push(sparse);
    for relu in [false, true] {
        all.push(linear_cat_case(9, &[6], 3, relu, None, &mut rng));
        all.push(linear_cat_case(70, &[3, 5], 5, relu, None, &mut rng));
        all.push(linear_cat_case(300, &[32, 32, 16], 32, relu, Some(1), &mut rng));
        all.push(linear_cat_case(41, &[200, 100], 12, relu, Some(0), &mut rng));
    }
    all.push(linear_cat_case(5, &[4, 0, 3], 2, false, None, &mut rng));
    all.push(linear_cat_case(0, &[4, 3], 2, true, None, &mut rng));
    // Deltas span the decades the frequency ladder does.
    all.push(time_encode_case(500, 16, 3, &mut rng));
    all.push(time_encode_case(33, 5, 3, &mut rng));
    // More columns than one backward strip carries.
    all.push(time_encode_case(40, 70, 3, &mut rng));
    // Φ(0): every delta the same, one row computed and copied.
    let mut zero = time_encode_case(300, 16, 3, &mut rng);
    zero.inputs[0] = Tensor::zeros([300]);
    zero.name.push_str(" all deltas 0");
    all.push(zero);
    for (n, hid) in [(0, 8), (1, 5), (700, 32)] {
        all.push(gru_gates_case(n, hid, &mut rng));
    }
    all
}

#[test]
fn fused_kernels_match_their_chains_bitwise_in_exact_mode() {
    let _g = serial();
    let _restore = RestoreKernel;
    for threads in [1, 4] {
        set_threads(threads);
        for case in fusions() {
            let (fused, chain) = (eval(&case.fused, &case.inputs), eval(&case.chain, &case.inputs));
            for (i, (f, c)) in fused.iter().zip(&chain).enumerate() {
                // `==` on values: the chains' zeroed accumulators turn a
                // `-0.0` gradient into `+0.0`, which no result can tell.
                assert_eq!(f, c, "{} at {threads} threads: output/grad {i} differs", case.name);
            }
        }
    }
}

#[test]
fn fused_kernels_are_thread_count_invariant_in_both_modes() {
    let _g = serial();
    let _restore = RestoreKernel;
    for case in fusions() {
        set_threads(1);
        let one: Vec<Vec<u32>> = eval(&case.fused, &case.inputs).iter().map(|v| bits(v)).collect();
        set_threads(4);
        let four: Vec<Vec<u32>> = eval(&case.fused, &case.inputs).iter().map(|v| bits(v)).collect();
        assert_eq!(one, four, "{}: 1 vs 4 threads", case.name);
    }
}

#[test]
fn fused_kernels_pass_finite_difference_gradcheck() {
    let _g = serial();
    let _restore = RestoreKernel;
    set_threads(1);
    let mut rng = StdRng::seed_from_u64(0x6D);
    // Small shapes (central differences cost two forwards per element)
    // and no ReLU: a finite difference straddling its kink says nothing.
    let cases = vec![
        linear_case(5, 7, 3, true, false, &mut rng),
        // Arguments of a few radians: a step of 1e-2 in a frequency
        // must not skip periods.
        time_encode_case(6, 3, -1, &mut rng),
        gru_gates_case(3, 2, &mut rng),
    ];
    for case in cases {
        let analytic = eval(&case.fused, &case.inputs);
        // The loss `eval` differentiates: the output dotted with its
        // fixed upstream gradient.
        let loss = |inputs: &[Tensor]| -> f32 {
            let y = (case.fused)(inputs).to_vec();
            y.iter().enumerate().map(|(i, v)| v * upstream(i)).sum()
        };
        for (slot, grad) in analytic[1..].iter().enumerate() {
            let base = case.inputs[slot].to_vec();
            for (i, &g) in grad.iter().enumerate() {
                let at = |delta: f32| {
                    let mut vals = base.clone();
                    vals[i] += delta;
                    let mut inputs = case.inputs.clone();
                    inputs[slot] = Tensor::from_vec(vals, case.inputs[slot].dims().to_vec());
                    loss(&inputs)
                };
                let eps = 1e-2f32;
                let numeric = (at(eps) - at(-eps)) / (2.0 * eps);
                let denom = numeric.abs().max(g.abs()).max(0.1);
                assert!(
                    (numeric - g).abs() / denom <= 3e-2,
                    "{}: input {slot}[{i}] analytic {g} vs numeric {numeric}",
                    case.name
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The attention kernels against the scalar loops that define them
// ---------------------------------------------------------------------

/// Segment ids in runs of 1, 15, 16, 17 and 33 rows (either side of a
/// vector of 8 and of 16 lanes, and a row alone), an empty segment after
/// every five, `cycles` times over; nondecreasing as a block's
/// destination index is, or the same ids shuffled. Returns the ids and
/// the segment count.
fn attention_ids(cycles: usize, shuffled: bool, rng: &mut StdRng) -> (Vec<usize>, usize) {
    let (mut ids, mut s) = (Vec::new(), 0);
    for _ in 0..cycles {
        for run in [1, 15, 16, 17, 33] {
            ids.extend(std::iter::repeat_n(s, run));
            s += 1;
        }
        s += 1;
    }
    if shuffled {
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
    }
    (ids, s)
}

/// `segment_softmax` over the `h` columns of `x` by the scalar loop that
/// defines it, and its backward from `go`: `[y, dx]`. Per segment and
/// column: the max over its rows, `exp` (the in-tree
/// `kernel::exp_scalar`) of every row's difference to it, their sum from
/// zero over ascending rows, one division of each by it; then
/// `dx = (go - Σ go·y) · y`, the sum from zero over ascending rows, each
/// product rounded first.
fn naive_softmax(x: &[f32], seg: &[usize], s: usize, h: usize, go: &[f32]) -> [Vec<f32>; 2] {
    let e = seg.len();
    let (mut y, mut dx) = (vec![0.0f32; e * h], vec![0.0f32; e * h]);
    for si in 0..s {
        let rows: Vec<usize> = (0..e).filter(|&i| seg[i] == si).collect();
        for j in 0..h {
            let mut mx = f32::NEG_INFINITY;
            for &i in &rows {
                mx = mx.max(x[i * h + j]);
            }
            let mut sum = 0.0f32;
            for &i in &rows {
                y[i * h + j] = kernel::exp_scalar(x[i * h + j] - mx);
                sum += y[i * h + j];
            }
            let mut dot = 0.0f32;
            for &i in &rows {
                y[i * h + j] /= sum;
                dot += go[i * h + j] * y[i * h + j];
            }
            for &i in &rows {
                dx[i * h + j] = (go[i * h + j] - dot) * y[i * h + j];
            }
        }
    }
    [y, dx]
}

/// The attention of every segment's row of `q` over its edges' keys `k`
/// and values `v` (`[e, h·d]` each) by plain loops, and its backward from
/// `go` (`[s, h·d]`): `[out, dq, dk, dv]`. Per edge and head the logit
/// `(Σ_j q[seg(e), j] · k[e, j]) / √d`, [`naive_softmax`] of the
/// logits, then `out[s] = Σ_e a[e] · v[e]`; every sum from zero in
/// ascending order (`j` within a dot, rows within a segment), each
/// product rounded first.
fn naive_attention(q: &[f32], k: &[f32], v: &[f32], seg: &[usize], s: usize, (h, d): (usize, usize), go: &[f32]) -> [Vec<f32>; 4] {
    let (e, hd, scale) = (seg.len(), h * d, 1.0 / (d as f32).sqrt());
    let head = |c: usize| c / d;
    let dot = |x: &[f32], y: &[f32]| {
        let mut acc = 0.0f32;
        for (&p, &q) in x.iter().zip(y) {
            acc += p * q;
        }
        acc
    };
    let (mut logits, mut da) = (vec![0.0f32; e * h], vec![0.0f32; e * h]);
    for i in 0..e {
        for hh in 0..h {
            let (cols, qs, gs) = (hh * d..(hh + 1) * d, seg[i] * hd + hh * d, seg[i] * hd + hh * d);
            logits[i * h + hh] = dot(&q[qs..qs + d], &k[i * hd..][cols.clone()]) * scale;
            da[i * h + hh] = dot(&go[gs..gs + d], &v[i * hd..][cols]);
        }
    }
    let [a, dlogits] = naive_softmax(&logits, seg, s, h, &da);
    let (mut out, mut dq) = (vec![0.0f32; s * hd], vec![0.0f32; s * hd]);
    let (mut dk, mut dv) = (vec![0.0f32; e * hd], vec![0.0f32; e * hd]);
    for si in 0..s {
        for i in (0..e).filter(|&i| seg[i] == si) {
            for c in 0..hd {
                out[si * hd + c] += a[i * h + head(c)] * v[i * hd + c];
                dq[si * hd + c] += (dlogits[i * h + head(c)] * scale) * k[i * hd + c];
            }
        }
    }
    for i in 0..e {
        for c in 0..hd {
            dv[i * hd + c] = go[seg[i] * hd + c] * a[i * h + head(c)];
            dk[i * hd + c] = (dlogits[i * h + head(c)] * scale) * q[seg[i] * hd + c];
        }
    }
    [out, dq, dk, dv]
}

#[test]
fn attention_kernels_are_their_scalar_loops_at_every_simd_level() {
    let _g = serial();
    let _restore = RestoreKernel;
    let mut rng = StdRng::seed_from_u64(0xA7E);
    // Every head count at three cycles of runs; one layer long enough
    // (past the 8 192 rows below which every pass runs inline) to split
    // across 4 threads.
    let mut shapes: Vec<(usize, usize)> = [1, 2, 3, 4, 7, 16, 24].map(|h| (h, 3)).to_vec();
    shapes.push((2, 101));
    for (h, cycles) in shapes {
        for shuffled in [false, true] {
            let (seg, s) = attention_ids(cycles, shuffled, &mut rng);
            let x = rand2(&mut rng, [seg.len(), h]);
            let go: Vec<f32> = (0..x.numel()).map(upstream).collect();
            let want = naive_softmax(&x.to_vec(), &seg, s, h, &go);
            let softmax: Op = {
                let seg = seg.clone();
                Box::new(move |t| segment_softmax(&t[0], &seg, s))
            };
            for level in kernel::simd_levels() {
                kernel::set_simd(level);
                for threads in [1, 4] {
                    set_threads(threads);
                    let got = eval(&softmax, std::slice::from_ref(&x));
                    for ((name, got), want) in ["softmax", "dx"].iter().zip(&got).zip(&want) {
                        assert_eq!(
                            bits(got),
                            bits(want),
                            "{name}: H={h} E={} shuffled={shuffled} at {level:?}, {threads} threads",
                            seg.len()
                        );
                    }
                }
            }
        }
    }
}

/// `edge_attention` by loops that share no code with the library: the
/// keys and values of every edge by [`naive_linear_cat`] over the parts
/// (the indexed part's table rows copied out per edge), [`naive_attention`]
/// over them, and back through both from the upstream gradient
/// [`upstream`]: `[out, dq, dw_k, dw_v, db_v, dh_src, dtable, dphi]`, each
/// part's gradient the sum of its key and value shares, the table's added
/// into its rows in ascending edge order. The key bias is zero: the op
/// takes none, and any would cancel in the softmax.
fn naive_edge_attention(values: &[Vec<f32>], rows: &[usize], widths: [usize; 3], seg: &[usize], s: usize, (h, d): (usize, usize)) -> Vec<Vec<f32>> {
    let [q, wk, wv, bv, z0, table, z2] = [0, 1, 2, 3, 4, 5, 6].map(|i| &values[i][..]);
    let (e, hd, w1) = (seg.len(), h * d, widths[1]);
    let z1: Vec<f32> = rows.iter().flat_map(|&r| table[r * w1..(r + 1) * w1].to_vec()).collect();
    let parts = [z0.to_vec(), z1, z2.to_vec()];
    let (no_bias, no_grad) = (vec![0.0f32; hd], vec![0.0f32; e * hd]);
    let k = naive_linear_cat(&parts, &widths, wk, &no_bias, e, false, &no_grad).swap_remove(0);
    let v = naive_linear_cat(&parts, &widths, wv, bv, e, false, &no_grad).swap_remove(0);
    let go: Vec<f32> = (0..s * hd).map(upstream).collect();
    let [out, dq, dk, dv] = naive_attention(q, &k, &v, seg, s, (h, d), &go);
    // `[y, dz0, dz1, dz2, dw, db]` of each map.
    let key = naive_linear_cat(&parts, &widths, wk, &no_bias, e, false, &dk);
    let value = naive_linear_cat(&parts, &widths, wv, bv, e, false, &dv);
    let dz: Vec<Vec<f32>> = (1..=3).map(|p| key[p].iter().zip(&value[p]).map(|(a, b)| a + b).collect()).collect();
    let mut dtable = vec![0.0f32; table.len()];
    for (i, &r) in rows.iter().enumerate() {
        for c in 0..w1 {
            dtable[r * w1 + c] += dz[1][i * w1 + c];
        }
    }
    vec![out, dq, key[4].clone(), value[4].clone(), value[5].clone(), dz[0].clone(), dtable, dz[2].clone()]
}

/// The inputs of one `edge_attention` over `attention_ids(cycles, ..)`:
/// the segment ids and count, the indexed part's rows, and the op's
/// inputs `[q, w_k, w_v, b_v, z0, table, z2]`.
fn edge_attention_case(
    (h, d, widths, cycles): (usize, usize, [usize; 3], usize),
    shuffled: bool,
    rng: &mut StdRng,
) -> (Vec<usize>, usize, Vec<usize>, Vec<Tensor>) {
    let (seg, s) = attention_ids(cycles, shuffled, rng);
    let (e, hd, k) = (seg.len(), h * d, widths.iter().sum::<usize>());
    let table_rows = e / 3 + 1;
    let rows: Vec<usize> = (0..e).map(|_| rng.gen_range(0..table_rows)).collect();
    let inputs = vec![
        rand2(rng, [s, hd]),
        rand2(rng, [hd, k]),
        rand2(rng, [hd, k]),
        Tensor::rand_uniform([hd], -1.0, 1.0, rng),
        rand2(rng, [e, widths[0]]),
        rand2(rng, [table_rows, widths[1]]),
        rand2(rng, [e, widths[2]]),
    ];
    (seg, s, rows, inputs)
}

/// `edge_attention` over `z = [z0, rows of table, z2]`.
fn edge_attention_op(seg: &[usize], rows: &[usize], h: usize, d: usize) -> Op {
    let (seg, rows) = (seg.to_vec(), rows.to_vec());
    Box::new(move |t| {
        let z = [Part::Whole(&t[4]), Part::Rows(&t[5], &rows), Part::Whole(&t[6])];
        edge_attention(&t[0], &t[1], [&t[2], &t[3]], &z, &seg, h, 1.0 / (d as f32).sqrt())
    })
}

const EDGE_ATTENTION_NAMES: [&str; 8] = ["out", "dq", "dw_k", "dw_v", "db_v", "dh_src", "dtable", "dphi"];

/// `edge_attention`'s output and every gradient against
/// [`naive_edge_attention`] within 1e-5 of each tensor's largest
/// magnitude: head counts 1-4 (3 packs into no vector of rows), part
/// widths that are and are not multiples of 16, sorted and shuffled ids
/// with empty segments.
#[test]
fn edge_attention_matches_its_loop_oracle() {
    let _g = serial();
    let _restore = RestoreKernel;
    set_threads(1);
    let mut rng = StdRng::seed_from_u64(0x0AC1E);
    for case in [(1, 5, [3, 2, 4], 2), (2, 16, [32, 32, 16], 3), (3, 4, [7, 16, 9], 2), (4, 8, [17, 1, 30], 2)] {
        let (h, d, widths, _) = case;
        for shuffled in [false, true] {
            let (seg, s, rows, inputs) = edge_attention_case(case, shuffled, &mut rng);
            let got = eval(&edge_attention_op(&seg, &rows, h, d), &inputs);
            let values: Vec<Vec<f32>> = inputs.iter().map(Tensor::to_vec).collect();
            let want = naive_edge_attention(&values, &rows, widths, &seg, s, (h, d));
            for ((name, got), want) in EDGE_ATTENTION_NAMES.iter().zip(&got).zip(&want) {
                assert_eq!(got.len(), want.len(), "{name}");
                let tol = 1e-5 * (1.0 + want.iter().fold(0.0f32, |m, x| m.max(x.abs())));
                for (i, (a, b)) in got.iter().zip(want).enumerate() {
                    assert!(
                        (a - b).abs() <= tol,
                        "{name}[{i}]: {a} vs {b}: H={h} D={d} parts {widths:?} E={} shuffled={shuffled}",
                        seg.len()
                    );
                }
            }
        }
    }
}

/// `edge_attention` has no scalar loop to match (its dot products take
/// 16 partial sums); its contract is one set of bits whatever runs it.
/// Output and every gradient (query, both maps, two whole parts and an
/// indexed table) at every SIMD level and at 1 and 4 threads against
/// the scalar level on one thread: head counts 1-4 (3 packs into no
/// vector of rows), part widths that are and are not multiples of 16,
/// sorted and shuffled ids with empty segments, and one TGAT-wide layer
/// long enough to split across threads.
#[test]
fn edge_attention_holds_its_bits_at_every_simd_level_and_thread_count() {
    let _g = serial();
    let _restore = RestoreKernel;
    let mut rng = StdRng::seed_from_u64(0xED6E);
    let cases: [(usize, usize, [usize; 3], usize); 5] =
        [(1, 5, [3, 2, 4], 2), (2, 16, [32, 32, 16], 3), (3, 4, [7, 16, 9], 2), (4, 8, [17, 1, 30], 2), (2, 16, [32, 32, 16], 101)];
    for case in cases {
        let (h, d, widths, _) = case;
        for shuffled in [false, true] {
            let (seg, _, rows, inputs) = edge_attention_case(case, shuffled, &mut rng);
            let (e, attend) = (seg.len(), edge_attention_op(&seg, &rows, h, d));
            kernel::set_simd(Simd::Scalar);
            set_threads(1);
            let want = eval(&attend, &inputs);
            assert!(want.iter().all(|v| v.iter().all(|x| x.is_finite())));
            for level in kernel::simd_levels() {
                kernel::set_simd(level);
                for threads in [1, 4] {
                    set_threads(threads);
                    let got = eval(&attend, &inputs);
                    for ((name, got), want) in EDGE_ATTENTION_NAMES.iter().zip(&got).zip(&want) {
                        assert_eq!(
                            bits(got),
                            bits(want),
                            "{name}: H={h} D={d} parts {widths:?} E={e} shuffled={shuffled} at {level:?}, {threads} threads"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The elementwise and row kernels against their scalar loops
// ---------------------------------------------------------------------

/// `max(x, 0)` as the kernels select it: `x` if `x > 0`, else `+0.0`.
fn relu_select(x: f32) -> f32 {
    if x > 0.0 { x } else { 0.0 }
}

/// Output and input gradients of `f` over fresh leaves of `inputs`,
/// from the upstream gradient `go`.
fn run_with(f: impl Fn(&[Tensor]) -> Tensor, inputs: &[Tensor], go: &[f32]) -> Vec<Vec<f32>> {
    let leaves: Vec<Tensor> = inputs.iter().map(|t| t.requires_grad(true)).collect();
    let y = f(&leaves);
    y.backward_with(go.to_vec());
    let mut all = vec![y.to_vec()];
    all.extend(leaves.iter().map(|t| t.grad().unwrap_or_default()));
    all
}

/// Every kernel written on `Lanes` outside the GEMM and the attention
/// operators, through the op that runs it, against the plain scalar
/// loop that defines it: `add_relu` and its mask, `addcmul`, the
/// `Linear` epilogue and its bias gradient, the row scatter of
/// `index_select`'s backward, `segment_sum` / `segment_mean`,
/// `segment_softmax` and its backward and the Adam step. At
/// every level, every width from none to a vector and a half of 16
/// lanes (so every partial vector of every level), bit for bit.
#[test]
fn lane_kernels_are_their_scalar_loops_at_every_length_and_level() {
    let _g = serial();
    let _restore = RestoreKernel;
    set_threads(1);
    let mut rng = StdRng::seed_from_u64(0x1A7E5);
    for len in 0..=33usize {
        let vec = |rng: &mut StdRng, n: usize| rand2(rng, [n, 1]).to_vec();
        let (a, b, c, go) = (vec(&mut rng, len), vec(&mut rng, len), vec(&mut rng, len), vec(&mut rng, len));
        let t = |v: &[f32], dims: [usize; 2]| Tensor::from_vec(v.to_vec(), dims);
        let (s, m) = (0.731f32, 3usize);
        // Elementwise: output and the first input's gradient.
        let relu: Vec<f32> = a.iter().zip(&b).map(|(x, y)| relu_select(x + y)).collect();
        let mask = |y: &[f32], go: &[f32]| -> Vec<f32> {
            y.iter().zip(go).map(|(&y, &g)| if y > 0.0 { g } else { 0.0 }).collect()
        };
        let addcmul: Vec<f32> = (0..len).map(|i| c[i] + s * a[i] * b[i]).collect();
        // The `Linear` epilogue over `m` rows `len` wide, on the product
        // the GEMM leaves, and the bias gradient summed over rows.
        let (x, w, bias) = (rand2(&mut rng, [m, 5]), rand2(&mut rng, [len, 5]), vec(&mut rng, len));
        let dy = vec(&mut rng, m * len);
        let plain = x.linear(&w, None, false).to_vec();
        // Table rows 0..5 gathered as [0, 3, 0, 4, 3, 3]: repeats add up.
        let (idx, table) = ([0usize, 3, 0, 4, 3, 3], rand2(&mut rng, [5, len]));
        let up = vec(&mut rng, idx.len() * len);
        let mut scatter = vec![0.0f32; 5 * len];
        for (k, &r) in idx.iter().enumerate() {
            for j in 0..len {
                scatter[r * len + j] += up[k * len + j];
            }
        }
        // Seven rows over three segments, unsorted ids; a count of 3 makes
        // `x / 3` differ from `x * (1 / 3)`.
        let (ids, values) = ([2usize, 0, 2, 1, 0, 2, 0], rand2(&mut rng, [7, len]));
        let vals = values.to_vec();
        let (mut sum, mut mean, counts) = (vec![0.0f32; 3 * len], vec![0.0f32; 3 * len], [3.0f32, 1.0, 3.0]);
        for (i, &sg) in ids.iter().enumerate() {
            for j in 0..len {
                sum[sg * len + j] += vals[i * len + j];
                mean[sg * len + j] += vals[i * len + j] / counts[sg];
            }
        }
        let soft_up = vec(&mut rng, 7 * len);
        // Adam from moments of the previous steps.
        let (p0, m0, v0, g) = (vec(&mut rng, len), vec(&mut rng, len), vec(&mut rng, len), vec(&mut rng, len));
        let v0: Vec<f32> = v0.iter().map(|v| v * v).collect();
        let step = AdamStep { lr: 1e-2, beta1: 0.9, beta2: 0.999, eps: 1e-8, bc1: 0.271, bc2: 0.003 };
        let (mut want_p, mut want_m, mut want_v) = (p0.clone(), m0.clone(), v0.clone());
        for i in 0..len {
            want_m[i] = step.beta1 * want_m[i] + (1.0 - step.beta1) * g[i];
            want_v[i] = step.beta2 * want_v[i] + (1.0 - step.beta2) * g[i] * g[i];
            want_p[i] -= step.lr * (want_m[i] / step.bc1) / ((want_v[i] / step.bc2).sqrt() + step.eps);
        }

        for level in kernel::simd_levels() {
            kernel::set_simd(level);
            let at = format!("len {len} at {level:?}");
            let got = run_with(|t| t[0].add_relu(&t[1]), &[t(&a, [len, 1]), t(&b, [len, 1])], &go);
            assert_eq!(bits(&got[0]), bits(&relu), "add_relu, {at}");
            assert_eq!(bits(&got[1]), bits(&mask(&relu, &go)), "add_relu mask, {at}");
            let got = run_with(|t| t[0].addcmul(&t[1], &t[2], s), &[t(&c, [len, 1]), t(&a, [len, 1]), t(&b, [len, 1])], &go);
            assert_eq!(bits(&got[0]), bits(&addcmul), "addcmul, {at}");

            for (with_bias, relu) in [(true, true), (true, false), (false, true)] {
                let bias_t = t(&bias, [len, 1]).reshape([len]);
                let got = run_with(
                    |t| t[0].linear(&t[1], with_bias.then_some(&t[2]), relu),
                    &[x.clone(), w.clone(), bias_t],
                    &dy,
                );
                let y: Vec<f32> = plain
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        let v = if with_bias { v + bias[i % len.max(1)] } else { v };
                        if relu { relu_select(v) } else { v }
                    })
                    .collect();
                assert_eq!(bits(&got[0]), bits(&y), "linear bias={with_bias} relu={relu}, {at}");
                let dy_masked = if relu { mask(&y, &dy) } else { dy.clone() };
                let mut db = vec![0.0f32; len];
                for row in dy_masked.chunks_exact(len.max(1)) {
                    for (d, &g) in db.iter_mut().zip(row) {
                        *d += g;
                    }
                }
                if with_bias {
                    assert_eq!(bits(&got[3]), bits(&db), "linear bias gradient relu={relu}, {at}");
                }
            }

            let got = run_with(|t| t[0].index_select(&idx), std::slice::from_ref(&table), &up);
            assert_eq!(bits(&got[1]), bits(&scatter), "index_select backward, {at}");
            assert_eq!(bits(&segment_sum(&values, &ids, 3).to_vec()), bits(&sum), "segment_sum, {at}");
            assert_eq!(bits(&segment_mean(&values, &ids, 3).to_vec()), bits(&mean), "segment_mean, {at}");
            let got = run_with(|t| segment_softmax(&t[0], &ids, 3), std::slice::from_ref(&values), &soft_up);
            let y = &got[0];
            let (mut want_y, mut dx) = (vec![0.0f32; 7 * len], vec![0.0f32; 7 * len]);
            for sg in 0..3 {
                let rows: Vec<usize> = (0..7).filter(|&i| ids[i] == sg).collect();
                for j in 0..len {
                    let mx = rows.iter().fold(f32::NEG_INFINITY, |m, &i| m.max(vals[i * len + j]));
                    let mut sum = 0.0f32;
                    for &i in &rows {
                        want_y[i * len + j] = kernel::exp_scalar(vals[i * len + j] - mx);
                        sum += want_y[i * len + j];
                    }
                    rows.iter().for_each(|&i| want_y[i * len + j] /= sum);
                }
                for j in 0..len {
                    let mut dot = 0.0f32;
                    for &i in &rows {
                        dot += soft_up[i * len + j] * y[i * len + j];
                    }
                    for &i in &rows {
                        dx[i * len + j] = (soft_up[i * len + j] - dot) * y[i * len + j];
                    }
                }
            }
            assert_eq!(bits(y), bits(&want_y), "segment_softmax, {at}");
            assert_eq!(bits(&got[1]), bits(&dx), "segment_softmax backward, {at}");

            let (p, mm, vv) = (t(&p0, [len, 1]), t(&m0, [len, 1]), t(&v0, [len, 1]));
            p.adam_step_(&g, &mm, &vv, step);
            for (name, got, want) in [("p", &p, &want_p), ("m", &mm, &want_m), ("v", &vv, &want_v)] {
                assert_eq!(bits(&got.to_vec()), bits(want), "adam {name}, {at}");
            }
        }
    }
}

/// `add_relu` and its mask on the values a lane select can get wrong:
/// NaN, both zeros and both infinities, in the inputs and in the
/// upstream gradient, at every level and in every lane position.
#[test]
fn relu_kernels_select_nan_zeros_and_infinities_as_the_scalar_loop() {
    let _g = serial();
    let _restore = RestoreKernel;
    set_threads(1);
    let (nan, inf) = (f32::NAN, f32::INFINITY);
    let special = [nan, -0.0, 0.0, inf, -inf, 1.5, -1.5];
    // Every pair of specials, then again at shifted lanes, ending in a
    // partial vector.
    let n = 101;
    let a: Vec<f32> = (0..n).map(|i| special[i / 7 % 7]).collect();
    let b: Vec<f32> = (0..n).map(|i| special[(i + i / 49) % 7]).collect();
    let go: Vec<f32> = (0..n).map(|i| special[(i * 3 + 1) % special.len()]).collect();
    let want_y: Vec<f32> = a.iter().zip(&b).map(|(x, y)| relu_select(x + y)).collect();
    let want_g: Vec<f32> = want_y.iter().zip(&go).map(|(&y, &g)| if y > 0.0 { g } else { 0.0 }).collect();
    for level in kernel::simd_levels() {
        kernel::set_simd(level);
        let inputs = [Tensor::from_vec(a.clone(), [n, 1]), Tensor::from_vec(b.clone(), [n, 1])];
        let got = run_with(|t| t[0].add_relu(&t[1]), &inputs, &go);
        assert_eq!(bits(&got[0]), bits(&want_y), "add_relu at {level:?}");
        assert_eq!(bits(&got[1]), bits(&want_g), "add_relu mask at {level:?}");
        assert_eq!(bits(&got[2]), bits(&want_g), "add_relu bias mask at {level:?}");
    }
}
