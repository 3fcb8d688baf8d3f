//! In-place tensor mutation (no autograd tracking).
//!
//! These operators overwrite their receiver's storage directly, so the
//! hot training loop — optimizer steps, running statistics, gradient
//! post-processing — performs zero tensor allocations. None of them
//! record backward nodes; calling one on a tensor that carries a
//! `grad_fn` is a logic error (it would silently corrupt saved
//! activations) and panics.
//!
//! All kernels run single-threaded: every call site operates on
//! parameter-sized buffers (well under [`crate::ops::ELEMWISE_SEQ`]),
//! where pool dispatch would cost more than the arithmetic. On AVX2
//! hosts the loops dispatch to lane-wise SIMD that is bitwise identical
//! to the scalar code in exact kernel mode (see `crate::kernel`); fast
//! mode contracts the multiply-adds to FMA.

use crate::kernel;
use crate::Tensor;

use self::inplace_simd::adam_dispatch;

pub(crate) mod inplace_simd {
    //! The fused Adam kernel's SIMD body, kept out of the `impl` block.

    use super::AdamStep;

    /// One fused Adam pass over all four buffers.
    ///
    /// Exact-safe without FMA: every lane op (two EMAs as mul/mul/add,
    /// bias-correction divides, `sqrtps`, the update's mul/div/sub)
    /// performs the identical IEEE roundings in the same order as the
    /// scalar loop. Fast mode contracts the two EMAs.
    pub(crate) fn adam_dispatch(
        pd: &mut [f32],
        md: &mut [f32],
        vd: &mut [f32],
        g: &[f32],
        s: AdamStep,
        fma: bool,
    ) {
        #[cfg(target_arch = "x86_64")]
        if crate::kernel::simd() >= crate::kernel::Simd::Avx2 {
            // SAFETY: the level says the CPU supports AVX2+FMA.
            unsafe {
                if fma {
                    adam_avx2::<true>(pd, md, vd, g, s);
                } else {
                    adam_avx2::<false>(pd, md, vd, g, s);
                }
            }
            return;
        }
        let _ = fma;
        for i in 0..g.len() {
            let gi = g[i];
            md[i] = s.beta1 * md[i] + (1.0 - s.beta1) * gi;
            vd[i] = s.beta2 * vd[i] + (1.0 - s.beta2) * gi * gi;
            let m_hat = md[i] / s.bc1;
            let v_hat = vd[i] / s.bc2;
            pd[i] -= s.lr * m_hat / (v_hat.sqrt() + s.eps);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn adam_avx2<const FMA: bool>(
        pd: &mut [f32],
        md: &mut [f32],
        vd: &mut [f32],
        g: &[f32],
        s: AdamStep,
    ) {
        use std::arch::x86_64::*;
        let n = pd.len();
        let chunks = n / 8;
        let b1 = _mm256_set1_ps(s.beta1);
        let b2 = _mm256_set1_ps(s.beta2);
        let c1 = _mm256_set1_ps(1.0 - s.beta1);
        let c2 = _mm256_set1_ps(1.0 - s.beta2);
        let bc1 = _mm256_set1_ps(s.bc1);
        let bc2 = _mm256_set1_ps(s.bc2);
        let eps = _mm256_set1_ps(s.eps);
        let lr = _mm256_set1_ps(s.lr);
        for q in 0..chunks {
            let p = q * 8;
            let gv = _mm256_loadu_ps(g.as_ptr().add(p));
            let mv = _mm256_loadu_ps(md.as_ptr().add(p));
            let vv = _mm256_loadu_ps(vd.as_ptr().add(p));
            // m = β₁m + (1-β₁)g, scalar order: mul, mul, add.
            let m_new = if FMA {
                _mm256_fmadd_ps(b1, mv, _mm256_mul_ps(c1, gv))
            } else {
                _mm256_add_ps(_mm256_mul_ps(b1, mv), _mm256_mul_ps(c1, gv))
            };
            // v = β₂v + ((1-β₂)g)·g, left-associated like the scalar.
            let cg = _mm256_mul_ps(c2, gv);
            let v_new = if FMA {
                _mm256_fmadd_ps(b2, vv, _mm256_mul_ps(cg, gv))
            } else {
                _mm256_add_ps(_mm256_mul_ps(b2, vv), _mm256_mul_ps(cg, gv))
            };
            _mm256_storeu_ps(md.as_mut_ptr().add(p), m_new);
            _mm256_storeu_ps(vd.as_mut_ptr().add(p), v_new);
            let m_hat = _mm256_div_ps(m_new, bc1);
            let v_hat = _mm256_div_ps(v_new, bc2);
            let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), eps);
            let step = _mm256_div_ps(_mm256_mul_ps(lr, m_hat), denom);
            let pv = _mm256_sub_ps(_mm256_loadu_ps(pd.as_ptr().add(p)), step);
            _mm256_storeu_ps(pd.as_mut_ptr().add(p), pv);
        }
        for i in chunks * 8..n {
            let gi = *g.get_unchecked(i);
            md[i] = s.beta1 * md[i] + (1.0 - s.beta1) * gi;
            vd[i] = s.beta2 * vd[i] + (1.0 - s.beta2) * gi * gi;
            let m_hat = md[i] / s.bc1;
            let v_hat = vd[i] / s.bc2;
            pd[i] -= s.lr * m_hat / (v_hat.sqrt() + s.eps);
        }
    }
}

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

    /// `self += other`, element-wise, in place.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or if `self` has a backward node.
    pub fn add_(&self, other: &Tensor) -> &Tensor {
        self.assert_inplace_ok(other.numel(), "add_");
        let n = self.numel() as u64;
        let _prof = tgl_obs::profile::op("add_").flops(n).io(8 * n, 4 * n).shape(&[self.dims()]);
        if std::sync::Arc::ptr_eq(&self.inner.storage, &other.inner.storage) {
            let mut d = self.inner.storage.write();
            for v in d.iter_mut() {
                *v += *v;
            }
        } else {
            let o = other.inner.storage.read();
            let mut d = self.inner.storage.write();
            kernel::add_assign_dispatch(&mut d, &o);
        }
        self
    }

    /// `self *= s`, in place.
    ///
    /// # Panics
    ///
    /// Panics if `self` has a backward node.
    pub fn mul_scalar_(&self, s: f32) -> &Tensor {
        self.assert_inplace_ok(self.numel(), "mul_scalar_");
        let n = self.numel() as u64;
        let _prof =
            tgl_obs::profile::op("mul_scalar_").flops(n).io(4 * n, 4 * n).shape(&[self.dims()]);
        let mut d = self.inner.storage.write();
        kernel::scale_dispatch(&mut d, s);
        self
    }

    /// `self += s * other` (axpy), reading `other` from a raw slice so
    /// gradient buffers can feed it without wrapping.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or if `self` has a backward node.
    pub fn add_scaled_(&self, other: &[f32], s: f32) -> &Tensor {
        self.assert_inplace_ok(other.len(), "add_scaled_");
        let n = self.numel() as u64;
        let _prof =
            tgl_obs::profile::op("add_scaled_").flops(2 * n).io(8 * n, 4 * n).shape(&[self.dims()]);
        let mut d = self.inner.storage.write();
        kernel::axpy_dispatch(&mut d, other, s, kernel::fast());
        self
    }

    /// `self += s * a * b`, element-wise over raw slices.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or if `self` has a backward node.
    pub fn addcmul_(&self, a: &[f32], b: &[f32], s: f32) -> &Tensor {
        self.assert_inplace_ok(a.len(), "addcmul_");
        let n = self.numel() as u64;
        let _prof =
            tgl_obs::profile::op("addcmul_").flops(3 * n).io(12 * n, 4 * n).shape(&[self.dims()]);
        assert_eq!(a.len(), b.len(), "addcmul_ factor length mismatch");
        let mut d = self.inner.storage.write();
        kernel::addcmul_dispatch(&mut d, a, b, s, kernel::fast());
        self
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
        adam_dispatch(&mut pd, &mut md, &mut vd, g, s, kernel::fast());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::assert_close;

    #[test]
    fn add_in_place() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        let b = Tensor::from_vec(vec![0.5, -1.0, 2.0], [3]);
        a.add_(&b);
        assert_eq!(a.to_vec(), vec![1.5, 1.0, 5.0]);
        assert_eq!(b.to_vec(), vec![0.5, -1.0, 2.0]);
    }

    #[test]
    fn add_self_aliasing_doubles() {
        let a = Tensor::from_vec(vec![1.0, -2.0], [2]);
        let view = a.clone();
        a.add_(&view);
        assert_eq!(a.to_vec(), vec![2.0, -4.0]);
    }

    #[test]
    fn mul_scalar_in_place() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 4.0], [3]);
        a.mul_scalar_(0.5);
        assert_eq!(a.to_vec(), vec![0.5, -1.0, 2.0]);
    }

    #[test]
    fn add_scaled_matches_axpy() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        a.add_scaled_(&[10.0, -10.0], 0.1);
        assert_eq!(a.to_vec(), vec![2.0, 1.0]);
    }

    #[test]
    fn addcmul_matches_reference() {
        let a = Tensor::from_vec(vec![1.0, 1.0, 1.0], [3]);
        a.addcmul_(&[2.0, 3.0, 4.0], &[0.5, 0.5, 0.5], 2.0);
        assert_eq!(a.to_vec(), vec![3.0, 4.0, 5.0]);
    }

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

    #[test]
    #[should_panic(expected = "corrupt the autograd graph")]
    fn inplace_on_graph_tensor_panics() {
        let x = Tensor::ones([2]).requires_grad(true);
        let y = x.mul_scalar(2.0); // has a grad_fn
        y.mul_scalar_(3.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn shape_mismatch_panics() {
        Tensor::ones([2]).add_(&Tensor::ones([3]));
    }
}
