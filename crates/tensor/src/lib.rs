//! A pure-Rust dense tensor library with reverse-mode automatic
//! differentiation, built as the deep-learning substrate for the TGLite
//! reproduction (substituting for PyTorch, which the paper pairs TGLite
//! with).
//!
//! Features:
//!
//! * dense, contiguous, row-major `f32` tensors of arbitrary rank,
//!   tagged with a simulated [`Device`] tier (see `tgl-device`);
//! * broadcasting elementwise ops, matrix multiplication, reductions,
//!   row indexing/gather/scatter, concatenation, softmax, and the
//!   *segmented* operators (segment sum/mean/max/softmax) that TGLite's
//!   edge-wise block operators are built on;
//! * tape-based reverse-mode autograd with a custom-operator extension
//!   API ([`Tensor::custom_op`]);
//! * neural-network modules ([`nn::Linear`], [`nn::GruCell`],
//!   [`nn::RnnCell`], [`nn::Mlp`]) and the [`optim::Adam`] optimizer;
//! * binary-cross-entropy-with-logits loss for temporal link prediction.
//!
//! # Examples
//!
//! ```
//! use tgl_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).requires_grad(true);
//! let b = Tensor::from_vec(vec![0.5, 0.5, 0.5, 0.5], [2, 2]);
//! let loss = a.matmul(&b).sum_all();
//! loss.backward();
//! assert_eq!(a.grad().unwrap(), vec![1.0, 1.0, 1.0, 1.0]);
//! ```

mod autograd;
mod init;
pub mod kernel;
mod loss;
pub mod nn;
pub mod ops;
pub mod optim;
pub mod pool;
mod serialize;
mod shape;
mod storage;
mod tensor;

pub use autograd::{no_grad, NoGradGuard};
pub use init::{kaiming_uniform, uniform, xavier_uniform, zeros_init};
pub use loss::{bce_with_logits, bce_with_logits_sum};
pub use serialize::{load_params, save_params};
pub use shape::Shape;
pub use tensor::{DeviceOom, Tensor};

pub use tgl_device::Device;

#[cfg(test)]
mod testing {
    //! Shared helpers for unit tests across modules.

    use crate::Tensor;

    /// Asserts two float slices are elementwise within `tol`.
    pub fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len(), "length mismatch: {} vs {}", a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol,
                "index {i}: {x} vs {y} (tol {tol})\nleft:  {a:?}\nright: {b:?}"
            );
        }
    }

    /// Numerically estimates d(f)/d(input) via central differences and
    /// compares against the autograd gradient.
    ///
    /// `f` must be a deterministic function producing a scalar tensor.
    pub fn check_gradient<F>(input: &Tensor, f: F, tol: f32)
    where
        F: Fn(&Tensor) -> Tensor,
    {
        let out = f(input);
        assert_eq!(out.numel(), 1, "check_gradient needs a scalar output");
        input.zero_grad();
        out.backward();
        let analytic = input.grad().expect("input should have a gradient");

        let eps = 1e-2f32;
        let base = input.to_vec();
        let mut numeric = vec![0.0f32; base.len()];
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus[i] += eps;
            let mut minus = base.clone();
            minus[i] -= eps;
            let fp = f(&Tensor::from_vec(plus, input.shape().dims().to_vec())).to_vec()[0];
            let fm = f(&Tensor::from_vec(minus, input.shape().dims().to_vec())).to_vec()[0];
            numeric[i] = (fp - fm) / (2.0 * eps);
        }
        assert_close(&analytic, &numeric, tol);
    }
}
