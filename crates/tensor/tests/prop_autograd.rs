//! Property-based tests: autograd gradients match central-difference
//! numeric gradients on random inputs and shapes.
//!
//! Inputs are drawn from a seeded in-tree RNG and the properties are
//! checked over a fixed number of random cases per test, so runs are
//! deterministic and need no external property-testing framework.

use tgl_runtime::rng::{Rng, SeedableRng, StdRng};
use tgl_tensor::ops::{cat, segment_softmax};
use tgl_tensor::Tensor;

const CASES: usize = 24;

/// Random well-conditioned input of `len` values in `[lo, hi)` (bounded
/// away from op singularities).
fn random_input(rng: &mut StdRng, len: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Numerically estimates the gradient of scalar-valued `f` at `data`
/// and compares to autograd's.
fn gradcheck(data: Vec<f32>, dims: Vec<usize>, f: impl Fn(&Tensor) -> Tensor, tol: f32) {
    let x = Tensor::from_vec(data.clone(), dims.clone()).requires_grad(true);
    let out = f(&x);
    assert_eq!(out.numel(), 1);
    out.backward();
    let analytic = x.grad().expect("gradient");
    let eps = 1e-2f32;
    for i in 0..data.len() {
        let mut plus = data.clone();
        plus[i] += eps;
        let mut minus = data.clone();
        minus[i] -= eps;
        let fp = f(&Tensor::from_vec(plus, dims.clone())).item();
        let fm = f(&Tensor::from_vec(minus, dims.clone())).item();
        let numeric = (fp - fm) / (2.0 * eps);
        assert!(
            (analytic[i] - numeric).abs() <= tol + tol * numeric.abs(),
            "grad[{i}]: analytic {} vs numeric {numeric}",
            analytic[i]
        );
    }
}

#[test]
fn elementwise_chain_gradcheck() {
    let mut rng = StdRng::seed_from_u64(0xE1E);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..12);
        let data = random_input(&mut rng, n, -2.0, 2.0);
        gradcheck(data, vec![n], |x| x.mul_scalar(0.7).tanh().mul(x).sum_all(), 5e-2);
    }
}

#[test]
fn sigmoid_exp_gradcheck() {
    let mut rng = StdRng::seed_from_u64(0x516);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..12);
        let data = random_input(&mut rng, n, -2.0, 2.0);
        gradcheck(data, vec![n], |x| x.sigmoid().add_scalar(0.5).ln().sum_all(), 5e-2);
    }
}

#[test]
fn softmax_weighted_gradcheck() {
    let mut rng = StdRng::seed_from_u64(0x50F);
    for _ in 0..CASES {
        let n = rng.gen_range(4usize..12) & !1; // even
        let data = random_input(&mut rng, n, -2.0, 2.0);
        let w = Tensor::from_vec((0..n).map(|i| (i % 3) as f32 - 1.0).collect(), [n, 1]);
        // Two segments of n/2 rows: a softmax over each half.
        let seg: Vec<usize> = (0..n).map(|i| i / (n / 2)).collect();
        gradcheck(data, vec![n, 1], move |x| segment_softmax(x, &seg, 2).mul(&w).sum_all(), 5e-2);
    }
}

#[test]
fn matmul_gradcheck() {
    let mut rng = StdRng::seed_from_u64(0x3A7);
    for _ in 0..CASES {
        // [2,3] x fixed [3,2]
        let data = random_input(&mut rng, 6, -1.5, 1.5);
        let b = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.3, -0.7, 1.1], [3, 2]);
        gradcheck(data, vec![2, 3], move |x| x.matmul(&b).sum_all(), 5e-2);
    }
}

#[test]
fn cat_index_select_gradcheck() {
    let mut rng = StdRng::seed_from_u64(0xCA7);
    for _ in 0..CASES {
        let n = rng.gen_range(4usize..10);
        let data = random_input(&mut rng, n, -2.0, 2.0);
        gradcheck(
            data,
            vec![n],
            move |x| {
                let y = cat(&[x.clone(), x.mul_scalar(2.0)], 0);
                y.index_select(&[0, n, n - 1, 0]).sum_all()
            },
            5e-2,
        );
    }
}

#[test]
fn reduction_gradcheck() {
    let mut rng = StdRng::seed_from_u64(0x2ED);
    for _ in 0..CASES {
        let data = random_input(&mut rng, 6, -2.0, 2.0);
        gradcheck(data, vec![2, 3], |x| x.sum_dim(1).mul(&x.sum_dim(0).narrow_rows(0, 2)).sum_all(), 5e-2);
    }
}

/// Broadcasting in any direction keeps gradients consistent with
/// materialized broadcasting.
#[test]
fn broadcast_grad_matches_materialized() {
    let mut rng = StdRng::seed_from_u64(0xB20);
    for _ in 0..CASES {
        let col = random_input(&mut rng, 3, -2.0, 2.0);
        let row = random_input(&mut rng, 4, -2.0, 2.0);
        let a = Tensor::from_vec(col.clone(), [3, 1]).requires_grad(true);
        let b = Tensor::from_vec(row.clone(), [4]);
        a.mul(&b).sum_all().backward();
        let got = a.grad().unwrap();
        let row_sum: f32 = row.iter().sum();
        for g in &got {
            assert!((g - row_sum).abs() < 1e-4);
        }
    }
}

/// exp(ln(x)) == x and the composed gradient is 1, for positive x.
#[test]
fn ln_exp_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x14E);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..8);
        let data = random_input(&mut rng, n, 0.2, 3.0);
        let x = Tensor::from_vec(data.clone(), [n]).requires_grad(true);
        let y = x.ln().exp();
        for (a, b) in y.to_vec().iter().zip(&data) {
            assert!((a - b).abs() < 1e-4);
        }
        y.sum_all().backward();
        for g in x.grad().unwrap() {
            assert!((g - 1.0).abs() < 1e-3);
        }
    }
}
