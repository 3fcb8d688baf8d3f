//! Scalar-vs-SIMD kernel contract suite.
//!
//! The tensor crate carries two kernel modes (`tgl_tensor::kernel`):
//! `exact` restricts SIMD to lane-wise operations whose per-element
//! IEEE roundings match the scalar reference, so every result is
//! bitwise identical to a scalar-only build; `fast` adds FMA
//! contraction, horizontal vector reductions, and a polynomial exp,
//! trading bitwise parity for throughput within documented tolerances.
//! Both modes stay thread-count invariant. These tests pin each half
//! of that contract against the public tensor API.

use std::sync::{Mutex, MutexGuard};

use tgl_runtime::rng::{SeedableRng, StdRng};
use tgl_runtime::set_threads;
use tgl_tensor::kernel::{self, KernelMode};
use tgl_tensor::ops::{segment_mean, segment_softmax, segment_sum, AdamStep};
use tgl_tensor::Tensor;

/// Serializes tests: kernel mode, SIMD gate, and the thread pool are
/// process-global.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores the default kernel state (exact mode, SIMD auto-detected,
/// one thread) when a test scope unwinds.
struct RestoreKernel;
impl Drop for RestoreKernel {
    fn drop(&mut self) {
        kernel::set_mode(KernelMode::Exact);
        kernel::set_simd(true);
        set_threads(1);
    }
}

fn rand2(rng: &mut StdRng, dims: [usize; 2]) -> Tensor {
    Tensor::rand_uniform(dims, -1.0, 1.0, rng)
}

/// GEMM shapes crossing every tile boundary (MR=4 / NR=8 / KC=256)
/// plus the attention-shaped skinny cases from the bench sweep.
const GEMM_SIZES: [(usize, usize, usize); 6] = [
    (3, 5, 7),
    (5, 257, 9),
    (65, 300, 33),
    (400, 16, 10), // attention scores: (batch*heads) x dim x fanout
    (400, 10, 16), // attention output
    (7, 513, 31),
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

    // Batched GEMM.
    let a = Tensor::rand_uniform([4, 9, 17], -1.0, 1.0, &mut rng).requires_grad(true);
    let b = Tensor::rand_uniform([4, 17, 11], -1.0, 1.0, &mut rng).requires_grad(true);
    let c = a.bmm(&b);
    c.sum_all().backward();
    out.extend(c.to_vec());
    out.extend(a.grad().unwrap());

    // Softmax over rows long enough to hit the 8-lane paths plus a
    // ragged tail.
    let x = rand2(&mut rng, [37, 21]).requires_grad(true);
    let w = rand2(&mut rng, [37, 21]);
    let s = x.softmax_last();
    s.mul(&w).sum_all().backward();
    out.extend(s.to_vec());
    out.extend(x.grad().unwrap());

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
    let y = a.add_relu(&b).scale_add(0.37, &b).addcmul(&b, &b, -0.21);
    y.sum_all().backward();
    out.extend(y.to_vec());
    out.extend(a.grad().unwrap());

    // In-place hot-path ops, including the fused Adam step.
    let p = rand2(&mut rng, [11, 31]);
    let g: Vec<f32> = (0..11 * 31).map(|i| ((i * 37 % 100) as f32 - 50.0) / 50.0).collect();
    let m = Tensor::zeros([11, 31]);
    let v = Tensor::zeros([11, 31]);
    p.add_(&rand2(&mut rng, [11, 31]));
    p.mul_scalar_(0.97);
    p.add_scaled_(&g, -0.01);
    p.addcmul_(&g, &g, 0.005);
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

fn max_rel_err(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / x.abs().max(1.0))
        .fold(0.0, f32::max)
}

#[test]
fn exact_mode_simd_is_bitwise_identical_to_scalar() {
    let _g = serial();
    let _restore = RestoreKernel;
    kernel::set_mode(KernelMode::Exact);
    set_threads(1);
    kernel::set_simd(false);
    let scalar = op_suite();
    kernel::set_simd(true);
    let simd = op_suite();
    assert_eq!(
        bits(&scalar),
        bits(&simd),
        "exact mode must be bitwise identical with SIMD on ({}) and off",
        kernel::simd_label()
    );
}

#[test]
fn fast_mode_stays_within_documented_tolerance() {
    let _g = serial();
    let _restore = RestoreKernel;
    set_threads(1);
    kernel::set_mode(KernelMode::Exact);
    let exact = op_suite();
    kernel::set_mode(KernelMode::Fast);
    let fast = op_suite();
    // DESIGN.md "Kernel contract": fast-mode results differ from exact
    // only by FMA contraction / reassociated reductions / polynomial
    // exp — all O(k * eps) effects. 1e-4 relative (against a max(|x|,1)
    // denominator) bounds the whole suite with wide margin.
    let err = max_rel_err(&exact, &fast);
    assert!(err <= 1e-4, "fast-mode divergence {err} exceeds 1e-4");
}

#[test]
fn fast_mode_gradients_pass_finite_difference_check() {
    let _g = serial();
    let _restore = RestoreKernel;
    set_threads(1);
    kernel::set_mode(KernelMode::Fast);
    // Composite loss covering GEMM, softmax, and fused paths whose
    // fast kernels reassociate: analytic gradients must still track
    // central differences at the usual f32 gradcheck tolerance.
    let base: Vec<f32> = (0..6 * 5).map(|i| ((i * 13 % 17) as f32 - 8.0) / 8.0).collect();
    let w = Tensor::from_vec((0..5 * 9).map(|i| ((i * 7 % 23) as f32 - 11.0) / 11.0).collect(), [5, 9]);
    let loss_of = |vals: Vec<f32>| -> (Tensor, f32) {
        let x = Tensor::from_vec(vals, [6, 5]).requires_grad(true);
        let y = x.matmul(&w).softmax_last().sum_all();
        (x, y.item())
    };
    let (x, _) = loss_of(base.clone());
    let y = x.matmul(&w).softmax_last().sum_all();
    y.backward();
    let analytic = x.grad().unwrap();
    let eps = 1e-2f32;
    for i in 0..base.len() {
        let mut up = base.clone();
        up[i] += eps;
        let mut dn = base.clone();
        dn[i] -= eps;
        let numeric = (loss_of(up).1 - loss_of(dn).1) / (2.0 * eps);
        let denom = numeric.abs().max(analytic[i].abs()).max(1e-2);
        assert!(
            (numeric - analytic[i]).abs() / denom <= 3e-2,
            "grad[{i}] analytic {} vs numeric {numeric} under fast kernels",
            analytic[i]
        );
    }
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
    kernel::set_mode(KernelMode::Exact);
    set_threads(1);
    let mut rng = StdRng::seed_from_u64(0x7A1);
    // Includes reductions crossing KC=256 for both products (dA reduces
    // over n, dB over m) and shapes with k and n below NR=8.
    for (m, k, n) in [(3, 5, 7), (5, 257, 9), (9, 5, 257), (300, 7, 33), (65, 300, 33)] {
        let (a, b) = (rand2(&mut rng, [m, k]), rand2(&mut rng, [k, n]));
        let dc = rand2(&mut rng, [m, n]).to_vec();
        let (_, da, db) = gemm_triple(&a, &b, &dc);
        let (av, bv) = (a.to_vec(), b.to_vec());
        // dA[i,p] = sum_j dC[i,j]·B[p,j] and dB[p,j] = sum_i A[i,p]·dC[i,j],
        // each accumulated in ascending reduction index.
        let mut want_da = vec![0.0f32; m * k];
        let mut want_db = vec![0.0f32; k * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    want_da[i * k + p] += dc[i * n + j] * bv[p * n + j];
                }
            }
        }
        for p in 0..k {
            for i in 0..m {
                for j in 0..n {
                    want_db[p * n + j] += av[i * k + p] * dc[i * n + j];
                }
            }
        }
        assert_eq!(bits(&da), bits(&want_da), "dA = dC·Bt at {m}x{k}x{n}");
        assert_eq!(bits(&db), bits(&want_db), "dB = At·dC at {m}x{k}x{n}");
    }
}

#[test]
fn mc_panel_gemm_thread_invariant_in_both_modes() {
    let _g = serial();
    let _restore = RestoreKernel;
    // Enough rows for several row panels in every product, with a
    // reduction crossing a KC boundary in each (k for C, n for dA, m
    // for dB) and one shape whose k and n sit below NR. All three
    // kernels must be bitwise invariant between 1 and 4 threads in
    // *both* kernel modes — fast mode changes which arithmetic runs,
    // never the order it runs in.
    for mode in [KernelMode::Exact, KernelMode::Fast] {
        kernel::set_mode(mode);
        for (m, k, n) in [(300, 257, 33), (300, 33, 257), (9000, 3, 5)] {
            let run = |threads: usize| {
                set_threads(threads);
                let mut rng = StdRng::seed_from_u64(0x6CA);
                let (a, b) = (rand2(&mut rng, [m, k]), rand2(&mut rng, [k, n]));
                let dc = rand2(&mut rng, [m, n]).to_vec();
                let (c, da, db) = gemm_triple(&a, &b, &dc);
                (bits(&c), bits(&da), bits(&db))
            };
            assert_eq!(run(1), run(4), "{mode:?} {m}x{k}x{n}: GEMM differs between 1 and 4 threads");
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
fn fused_elementwise_thread_invariant_in_fast_mode() {
    let _g = serial();
    let _restore = RestoreKernel;
    // Regression guard: the fused scale_add/addcmul forwards vectorize
    // per parallel_for range, and range boundaries move with the
    // thread count. The FMA paths' scalar tails must round exactly
    // like the vector body (f32::mul_add), or elements near chunk
    // splits change value with the thread count. 123*211 elements is
    // past the elementwise parallel threshold and not a lane multiple.
    kernel::set_mode(KernelMode::Fast);
    let run = |threads: usize| {
        set_threads(threads);
        let mut rng = StdRng::seed_from_u64(0xF0A6);
        let a = rand2(&mut rng, [123, 211]).requires_grad(true);
        let b = rand2(&mut rng, [123, 211]);
        let y = a.scale_add(0.731, &b).addcmul(&b, &b, -0.417);
        y.sum_all().backward();
        (bits(&y.to_vec()), bits(&a.grad().unwrap()))
    };
    let one = run(1);
    let eight = run(8);
    assert_eq!(one, eight, "fused scale_add/addcmul vary with thread count in fast mode");
}

#[test]
fn mode_parsing_accepts_exact_and_fast_only() {
    assert_eq!(kernel::parse("exact"), Some(KernelMode::Exact));
    assert_eq!(kernel::parse("FAST"), Some(KernelMode::Fast));
    assert_eq!(kernel::parse(" Exact "), Some(KernelMode::Exact));
    assert_eq!(kernel::parse("quick"), None);
    assert_eq!(kernel::parse(""), None);
}
