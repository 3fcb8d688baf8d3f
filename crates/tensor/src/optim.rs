//! The Adam optimizer.
//!
//! Steady-state steps perform **zero tensor allocations**: optimizer
//! state lives in plain tensors allocated once per parameter, gradients
//! are read in place through [`Tensor::with_grad`], and updates run as
//! one fused in-place kernel ([`Tensor::adam_step_`]).

use std::collections::HashMap;

use crate::ops::AdamStep;
use crate::Tensor;

/// Adam optimizer (Kingma & Ba), the paper models' default.
///
/// Moment state is a pair of tensors per parameter, allocated lazily on
/// the first step a gradient appears; every subsequent step is one
/// fused in-place pass over (param, grad, m, v).
#[derive(Debug)]
pub struct Adam {
    params: Vec<Tensor>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    state: HashMap<u64, (Tensor, Tensor)>,
}

impl Adam {
    /// Creates Adam with the standard betas (0.9, 0.999) and eps 1e-8.
    pub fn new(params: Vec<Tensor>, lr: f32) -> Adam {
        Adam {
            params,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            state: HashMap::new(),
        }
    }

    /// Applies one update step using accumulated gradients.
    pub fn step(&mut self) {
        self.t += 1;
        let step = AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
        };
        for p in &self.params {
            let (m, v) = self.state.entry(p.id()).or_insert_with(|| {
                (
                    Tensor::zeros_on(p.dims().to_vec(), p.device()),
                    Tensor::zeros_on(p.dims().to_vec(), p.device()),
                )
            });
            p.with_grad(|g| {
                if let Some(g) = g {
                    p.adam_step_(g, m, v, step);
                }
            });
        }
    }

    /// Clears gradients on all parameters.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    /// Minimizing (x - 3)^2 should converge to x = 3.
    fn quadratic_loss(x: &Tensor) -> Tensor {
        let d = x.add_scalar(-3.0);
        d.mul(&d).sum_all()
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let x = Tensor::from_vec(vec![-5.0, 10.0], [2]).requires_grad(true);
        let mut opt = Adam::new(vec![x.clone()], 0.3);
        for _ in 0..300 {
            opt.zero_grad();
            quadratic_loss(&x).backward();
            opt.step();
        }
        for v in x.to_vec() {
            assert!((v - 3.0).abs() < 1e-2, "got {v}");
        }
    }

    #[test]
    fn adam_fused_matches_reference_formulation() {
        // One step of the fused kernel against the textbook three-pass
        // update, from a cold state.
        let x = Tensor::from_vec(vec![1.0, -2.0, 0.5], [3]).requires_grad(true);
        x.mul(&x).sum_all().backward(); // g = 2x
        let g = x.grad().unwrap();
        let mut opt = Adam::new(vec![x.clone()], 0.1);
        opt.step();

        let (beta1, beta2, lr, eps) = (0.9f32, 0.999f32, 0.1f32, 1e-8f32);
        let (bc1, bc2) = (1.0 - beta1, 1.0 - beta2);
        let mut want = vec![1.0f32, -2.0, 0.5];
        for i in 0..3 {
            let m = (1.0 - beta1) * g[i];
            let v = (1.0 - beta2) * g[i] * g[i];
            want[i] -= lr * (m / bc1) / ((v / bc2).sqrt() + eps);
        }
        crate::testing::assert_close(&x.to_vec(), &want, 1e-6);
    }

    #[test]
    fn step_without_grad_is_noop() {
        let x = Tensor::from_vec(vec![1.0], [1]).requires_grad(true);
        let mut opt = Adam::new(vec![x.clone()], 0.1);
        opt.step();
        assert_eq!(x.to_vec(), vec![1.0]);
    }

    #[test]
    fn zero_grad_clears() {
        let x = Tensor::from_vec(vec![1.0], [1]).requires_grad(true);
        quadratic_loss(&x).backward();
        assert!(x.grad().is_some());
        let opt = Adam::new(vec![x.clone()], 0.1);
        opt.zero_grad();
        assert!(x.grad().is_none());
    }
}
