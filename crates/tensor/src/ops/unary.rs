//! Elementwise unary and scalar operators.

use tgl_runtime::{parallel_for, UnsafeSlice};

use crate::kernel::{self, Trig};
use crate::ops::ELEMWISE_SEQ;
use crate::pool::{self, PooledBuf};
use crate::Tensor;

/// Applies `fwd` elementwise; `bwd(x, y, go)` gives the input gradient
/// for one element given input `x`, output `y`, and output grad `go`.
/// Both passes chunk the element space across the pool; every element
/// is computed independently, so output is thread-count invariant.
///
/// Buffers come from the tensor pool: the output and gradient are
/// fully overwritten (so recycled memory needs no zeroing), backward
/// reads the input through the captured tensor handle instead of a
/// copy, and the saved output copy is a [`PooledBuf`] recycled when the
/// graph drops.
fn unary_elementwise(
    name: &'static str,
    flops_per_elem: u64,
    input: &Tensor,
    fwd: impl Fn(f32) -> f32 + Sync,
    bwd: impl Fn(f32, f32, f32) -> f32 + Send + Sync + 'static,
) -> Tensor {
    let device = input.device();
    let n = input.numel();
    let _prof = tgl_obs::profile::op(name)
        .flops(flops_per_elem * n as u64)
        // Forward reads x and writes both y and the saved copy.
        .io(4 * n as u64, 8 * n as u64)
        .shape(&[input.dims()])
        .backward_cost(2 * n as u64, 12 * n as u64, 4 * n as u64);
    let mut y = pool::take_uninit(n, device);
    {
        let x = input.inner.storage.read();
        let y_sl = UnsafeSlice::new(&mut y);
        let (x, fwd) = (&x, &fwd);
        parallel_for(n, ELEMWISE_SEQ, |r: std::ops::Range<usize>| {
            // SAFETY: chunks partition the element space.
            let out = unsafe { y_sl.slice_mut(r.start, r.len()) };
            for (o, &v) in out.iter_mut().zip(&x[r]) {
                *o = fwd(v);
            }
        });
    }
    let y_copy = {
        let mut c = pool::take_uninit(n, device);
        c.copy_from_slice(&y);
        PooledBuf::new(c, device)
    };
    let x_t = input.clone();
    Tensor::make_result(
        y,
        input.shape().clone(),
        input.device(),
        std::slice::from_ref(input),
        move |go| {
            let x = x_t.inner.storage.read();
            let mut g = pool::take_uninit(go.len(), device);
            {
                let g_sl = UnsafeSlice::new(&mut g);
                let (x, y_copy, bwd) = (&x, &y_copy, &bwd);
                parallel_for(go.len(), ELEMWISE_SEQ, |r: std::ops::Range<usize>| {
                    // SAFETY: chunks partition the element space.
                    let out = unsafe { g_sl.slice_mut(r.start, r.len()) };
                    for (k, i) in r.enumerate() {
                        out[k] = bwd(x[i], y_copy[i], go[i]);
                    }
                });
            }
            vec![Some(g)]
        },
    )
}

/// `cos` or `sin` of every element through the in-tree kernel, whole
/// chunks at a time. Backward evaluates the other function of the
/// input the same way: `d cos = -g · sin x`, `d sin = g · cos x`.
fn trig_elementwise(name: &'static str, input: &Tensor, f: Trig) -> Tensor {
    /// `out = f(x)`, chunked across the pool.
    fn apply(out: &mut [f32], x: &[f32], f: Trig) {
        let out_sl = UnsafeSlice::new(out);
        parallel_for(x.len(), ELEMWISE_SEQ, |r: std::ops::Range<usize>| {
            // SAFETY: chunks partition the element space.
            let out = unsafe { out_sl.slice_mut(r.start, r.len()) };
            out.copy_from_slice(&x[r]);
            kernel::sincos(out, f, None);
        });
    }
    let device = input.device();
    let n = input.numel();
    let _prof = tgl_obs::profile::op(name)
        .flops(8 * n as u64)
        .io(4 * n as u64, 4 * n as u64)
        .shape(&[input.dims()])
        .backward_cost(10 * n as u64, 8 * n as u64, 4 * n as u64);
    let mut y = pool::take_uninit(n, device);
    apply(&mut y, &input.inner.storage.read(), f);
    let x_t = input.clone();
    Tensor::make_result(
        y,
        input.shape().clone(),
        device,
        std::slice::from_ref(input),
        move |go| {
            let sign = if f == Trig::Cos { -1.0 } else { 1.0 };
            let mut g = pool::take_uninit(go.len(), device);
            apply(&mut g, &x_t.inner.storage.read(), f.other());
            for (g, &go) in g.iter_mut().zip(go) {
                *g *= sign * go;
            }
            vec![Some(g)]
        },
    )
}

impl Tensor {
    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        unary_elementwise("neg", 1, self, |x| -x, |_, _, g| -g)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        unary_elementwise("exp", 8, self, f32::exp, |_, y, g| g * y)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        unary_elementwise("ln", 8, self, f32::ln, |x, _, g| g / x)
    }

    /// Elementwise cosine (the kernel of the paper's time-encoder
    /// `Φ(Δt) = cos(ω·Δt + φ)`), by [`kernel::sincos`].
    pub fn cos(&self) -> Tensor {
        trig_elementwise("cos", self, Trig::Cos)
    }

    /// Elementwise sine, by [`kernel::sincos`].
    pub fn sin(&self) -> Tensor {
        trig_elementwise("sin", self, Trig::Sin)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        unary_elementwise("sqrt", 4, self, f32::sqrt, |_, y, g| g * 0.5 / y)
    }

    /// Elementwise rectified linear unit.
    pub fn relu(&self) -> Tensor {
        unary_elementwise(
            "relu",
            1,
            self,
            |x| x.max(0.0),
            |x, _, g| if x > 0.0 { g } else { 0.0 },
        )
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        unary_elementwise(
            "sigmoid",
            10,
            self,
            |x| 1.0 / (1.0 + (-x).exp()),
            |_, y, g| g * y * (1.0 - y),
        )
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        unary_elementwise("tanh", 10, self, f32::tanh, |_, y, g| g * (1.0 - y * y))
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        unary_elementwise("add_scalar", 1, self, move |x| x + s, |_, _, g| g)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        unary_elementwise("mul_scalar", 1, self, move |x| x * s, move |_, _, g| g * s)
    }

    /// Clamps every element to at least `min` (gradient is zero where
    /// clamped).
    pub fn clamp_min(&self, min: f32) -> Tensor {
        unary_elementwise(
            "clamp_min",
            1,
            self,
            move |x| x.max(min),
            move |x, _, g| if x > min { g } else { 0.0 },
        )
    }

    /// Clamps every element into `[lo, hi]` (gradient is zero where
    /// clamped).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        assert!(lo <= hi, "clamp range is empty: [{lo}, {hi}]");
        unary_elementwise(
            "clamp",
            2,
            self,
            move |x| x.clamp(lo, hi),
            move |x, _, g| if x > lo && x < hi { g } else { 0.0 },
        )
    }

    /// Elementwise absolute value (gradient at 0 is 0).
    pub fn abs(&self) -> Tensor {
        unary_elementwise(
            "abs",
            1,
            self,
            f32::abs,
            |x, _, g| if x > 0.0 { g } else if x < 0.0 { -g } else { 0.0 },
        )
    }

    /// Raises every element to the power `p` (defined for the usual
    /// domains; gradient `p·x^{p-1}`).
    pub fn pow_scalar(&self, p: f32) -> Tensor {
        unary_elementwise(
            "pow_scalar",
            15,
            self,
            move |x| x.powf(p),
            move |x, _, g| g * p * x.powf(p - 1.0),
        )
    }

    /// Softplus `ln(1 + e^x)`, the smooth ReLU (numerically stable).
    pub fn softplus(&self) -> Tensor {
        unary_elementwise(
            "softplus",
            15,
            self,
            |x| x.max(0.0) + (-(x.abs())).exp().ln_1p(),
            |x, _, g| g / (1.0 + (-x).exp()),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::{assert_close, check_gradient};
    use crate::Tensor;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(v, [n]).requires_grad(true)
    }

    #[test]
    fn values() {
        assert_eq!(t(vec![1.0, -2.0]).neg().to_vec(), vec![-1.0, 2.0]);
        assert_close(&t(vec![0.0, 1.0]).exp().to_vec(), &[1.0, std::f32::consts::E], 1e-6);
        assert_close(&t(vec![1.0]).ln().to_vec(), &[0.0], 1e-6);
        assert_close(&t(vec![0.0]).cos().to_vec(), &[1.0], 1e-6);
        assert_close(&t(vec![0.0]).sin().to_vec(), &[0.0], 1e-6);
        assert_close(&t(vec![4.0]).sqrt().to_vec(), &[2.0], 1e-6);
        assert_eq!(t(vec![-1.0, 2.0]).relu().to_vec(), vec![0.0, 2.0]);
        assert_close(&t(vec![0.0]).sigmoid().to_vec(), &[0.5], 1e-6);
        assert_close(&t(vec![0.0]).tanh().to_vec(), &[0.0], 1e-6);
        assert_eq!(t(vec![1.0]).add_scalar(2.0).to_vec(), vec![3.0]);
        assert_eq!(t(vec![3.0]).mul_scalar(-2.0).to_vec(), vec![-6.0]);
        assert_eq!(t(vec![-5.0, 5.0]).clamp_min(0.0).to_vec(), vec![0.0, 5.0]);
    }

    #[test]
    fn gradchecks() {
        check_gradient(&t(vec![0.3, -0.7, 1.2]), |x| x.exp().sum_all(), 1e-1);
        check_gradient(&t(vec![0.5, 1.5, 2.5]), |x| x.ln().sum_all(), 1e-2);
        check_gradient(&t(vec![0.3, -0.7, 1.2]), |x| x.cos().sum_all(), 1e-2);
        check_gradient(&t(vec![0.3, -0.7, 1.2]), |x| x.sin().sum_all(), 1e-2);
        check_gradient(&t(vec![0.9, 2.5]), |x| x.sqrt().sum_all(), 1e-2);
        check_gradient(&t(vec![0.3, -0.7]), |x| x.sigmoid().sum_all(), 1e-2);
        check_gradient(&t(vec![0.3, -0.7]), |x| x.tanh().sum_all(), 1e-2);
        check_gradient(&t(vec![0.3, -0.7]), |x| x.mul_scalar(3.0).sum_all(), 1e-2);
        check_gradient(&t(vec![0.3, -0.7]), |x| x.neg().sum_all(), 1e-2);
    }

    #[test]
    fn extended_activation_values() {
        assert_eq!(t(vec![-3.0, 0.5, 9.0]).clamp(0.0, 1.0).to_vec(), vec![0.0, 0.5, 1.0]);
        assert_eq!(t(vec![-2.0, 3.0]).abs().to_vec(), vec![2.0, 3.0]);
        assert_close(&t(vec![2.0]).pow_scalar(3.0).to_vec(), &[8.0], 1e-5);
        assert_close(&t(vec![0.0]).softplus().to_vec(), &[std::f32::consts::LN_2], 1e-6);
    }

    #[test]
    fn extended_activation_gradchecks() {
        check_gradient(&t(vec![0.3, -0.7, 1.2]), |x| x.softplus().sum_all(), 1e-2);
        check_gradient(&t(vec![1.3, 0.7, 2.2]), |x| x.pow_scalar(1.7).sum_all(), 5e-2);
        check_gradient(&t(vec![0.6, -0.4]), |x| x.clamp(-0.5, 0.5).mul(x).sum_all(), 1e-2);
    }

    #[test]
    #[should_panic(expected = "clamp range is empty")]
    fn clamp_bad_range_panics() {
        t(vec![1.0]).clamp(2.0, 1.0);
    }

    #[test]
    fn relu_grad_zero_below_zero() {
        let x = t(vec![-1.0, 2.0]);
        x.relu().sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![0.0, 1.0]);
    }
}
