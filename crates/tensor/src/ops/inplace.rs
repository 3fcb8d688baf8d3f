//! In-place tensor mutation (no autograd tracking).
//!
//! [`Tensor::adam_step_`] overwrites its receivers' storage directly, so
//! the optimizer step performs zero tensor allocations. It records no
//! backward node; calling it on a tensor that carries a `grad_fn` is a
//! logic error (it would silently corrupt saved activations) and
//! panics.
//!
//! The kernel runs single-threaded: every call site operates on
//! parameter-sized buffers (well under [`crate::ops::ELEMWISE_SEQ`]),
//! where pool dispatch would cost more than the arithmetic. It is one
//! body over [`Lanes`], bitwise identical to the scalar loop at every
//! SIMD level (see `crate::kernel`).

use crate::kernel::{self, LaneKernel, Lanes};
use crate::Tensor;

/// Hyper-parameters for one fused Adam update (see
/// [`Tensor::adam_step_`]). The bias corrections `bc1`/`bc2` are
/// `1 - beta^t` for the current step `t`, precomputed by the caller so
/// the kernel stays a pure element-wise pass.
#[derive(Debug, Clone, Copy)]
pub struct AdamStep {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// `1 - beta1.powi(t)`.
    pub bc1: f32,
    /// `1 - beta2.powi(t)`.
    pub bc2: f32,
}

/// One fused Adam pass over all four buffers, per element:
/// `m = β₁·m + (1-β₁)·g` and `v = β₂·v + ((1-β₂)·g)·g` (products
/// first, then the sum), `p -= (lr · (m / bc1)) / (√(v / bc2) + ε)` —
/// every operation one lane-wise IEEE rounding, in the scalar order.
struct Adam<'a> {
    p: &'a mut [f32],
    m: &'a mut [f32],
    v: &'a mut [f32],
    g: &'a [f32],
    s: AdamStep,
}

impl LaneKernel for Adam<'_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        let Adam { p, m, v, g, s } = self;
        let n = g.len();
        assert!(p.len() == n && m.len() == n && v.len() == n);
        let [b1, b2, c1, c2, bc1, bc2, eps, lr] =
            [s.beta1, s.beta2, 1.0 - s.beta1, 1.0 - s.beta2, s.bc1, s.bc2, s.eps, s.lr].map(|c| V::splat(c));
        for at in (0..n).step_by(V::LANES) {
            let len = V::LANES.min(n - at);
            // SAFETY: lanes `at..at + len` lie inside all four buffers.
            let [pp, mp, vp] = [&mut *p, &mut *m, &mut *v].map(|b| b.as_mut_ptr().add(at));
            let gv = V::load_part(g.as_ptr().add(at), len);
            let m_new = b1.mul(V::load_part(mp, len)).add(c1.mul(gv));
            let v_new = b2.mul(V::load_part(vp, len)).add(c2.mul(gv).mul(gv));
            m_new.store_part(mp, len);
            v_new.store_part(vp, len);
            let step = lr.mul(m_new.div(bc1)).div(v_new.div(bc2).sqrt().add(eps));
            V::load_part(pp, len).sub(step).store_part(pp, len);
        }
    }
}

impl Tensor {
    fn assert_inplace_ok(&self, other_numel: usize, op: &str) {
        assert!(
            self.inner.grad_fn.is_none(),
            "{op} would corrupt the autograd graph (receiver has a grad_fn)"
        );
        assert_eq!(
            self.numel(),
            other_numel,
            "{op} operand length mismatch: {} vs {other_numel}",
            self.numel()
        );
    }

    /// One fused Adam update: advances the first/second moment tensors
    /// `m`/`v` from gradient `g` and applies the bias-corrected step to
    /// `self`, all in a single pass with no temporaries.
    ///
    /// Per element: `m = β₁m + (1-β₁)g`, `v = β₂v + (1-β₂)g²`,
    /// `self -= lr · (m/bc1) / (√(v/bc2) + ε)`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or if any receiver has a backward node.
    pub fn adam_step_(&self, g: &[f32], m: &Tensor, v: &Tensor, s: AdamStep) -> &Tensor {
        self.assert_inplace_ok(g.len(), "adam_step_");
        let n = self.numel() as u64;
        // ~11 flops/elem: two moment EMAs, two bias corrections, sqrt,
        // divide, and the parameter update.
        let _prof =
            tgl_obs::profile::op("adam_step_").flops(11 * n).io(16 * n, 12 * n).shape(&[self.dims()]);
        m.assert_inplace_ok(g.len(), "adam_step_ (m)");
        v.assert_inplace_ok(g.len(), "adam_step_ (v)");
        let mut md = m.inner.storage.write();
        let mut vd = v.inner.storage.write();
        let mut pd = self.inner.storage.write();
        kernel::run_lanes(Adam { p: &mut pd, m: &mut md, v: &mut vd, g, s });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::assert_close;

    #[test]
    fn adam_step_matches_unfused_update() {
        let (beta1, beta2, lr, eps) = (0.9f32, 0.999f32, 0.01f32, 1e-8f32);
        let g = [0.3f32, -0.7, 1.2];
        let p = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        let m = Tensor::from_vec(vec![0.1, 0.0, -0.2], [3]);
        let v = Tensor::from_vec(vec![0.01, 0.02, 0.0], [3]);

        // Reference: the classic three-pass formulation.
        let t = 3;
        let (bc1, bc2) = (1.0 - beta1.powi(t), 1.0 - beta2.powi(t));
        let mut want_p = p.to_vec();
        let mut want_m = m.to_vec();
        let mut want_v = v.to_vec();
        for i in 0..3 {
            want_m[i] = beta1 * want_m[i] + (1.0 - beta1) * g[i];
            want_v[i] = beta2 * want_v[i] + (1.0 - beta2) * g[i] * g[i];
            want_p[i] -= lr * (want_m[i] / bc1) / ((want_v[i] / bc2).sqrt() + eps);
        }

        p.adam_step_(&g, &m, &v, AdamStep { lr, beta1, beta2, eps, bc1, bc2 });
        assert_close(&p.to_vec(), &want_p, 0.0);
        assert_close(&m.to_vec(), &want_m, 0.0);
        assert_close(&v.to_vec(), &want_v, 0.0);
    }

    fn step() -> AdamStep {
        AdamStep { lr: 0.1, beta1: 0.9, beta2: 0.999, eps: 1e-8, bc1: 0.1, bc2: 0.001 }
    }

    #[test]
    #[should_panic(expected = "corrupt the autograd graph")]
    fn inplace_on_graph_tensor_panics() {
        let x = Tensor::ones([2]).requires_grad(true);
        let y = x.mul_scalar(2.0); // has a grad_fn
        y.adam_step_(&[1.0, 1.0], &Tensor::zeros([2]), &Tensor::zeros([2]), step());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn shape_mismatch_panics() {
        Tensor::ones([2]).adam_step_(&[1.0; 3], &Tensor::zeros([2]), &Tensor::zeros([2]), step());
    }
}
