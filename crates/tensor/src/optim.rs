//! The Adam optimizer and gradient-norm clipping.
//!
//! Steady-state steps perform **zero tensor allocations**: optimizer
//! state lives in plain tensors allocated once per parameter, gradients
//! are read in place through [`Tensor::with_grad`], and updates run as
//! one fused in-place kernel ([`Tensor::adam_step_`]).

use std::collections::HashMap;

use crate::ops::AdamStep;
use crate::Tensor;

/// Rescales accumulated gradients so their global L2 norm is at most
/// `max_norm`; returns the norm before clipping. Standard stabilizer
/// for RNN/GRU-based temporal models (JODIE/TGN memory updaters).
pub fn clip_grad_norm(params: &[Tensor], max_norm: f32) -> f32 {
    let mut sq = 0.0f64;
    for p in params {
        p.with_grad(|g| {
            if let Some(g) = g {
                sq += g.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
            }
        });
    }
    let norm = (sq.sqrt()) as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            p.with_grad_mut(|g| {
                if let Some(g) = g {
                    for v in g.iter_mut() {
                        *v *= scale;
                    }
                }
            });
        }
    }
    norm
}

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

    /// Number of parameter tensors under management.
    pub fn num_params(&self) -> usize {
        self.params.len()
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
    fn clip_grad_norm_rescales() {
        let x = Tensor::from_vec(vec![3.0, 4.0], [2]).requires_grad(true);
        // grad = [3, 4] after d/dx of 0.5*x^2 summed
        x.mul(&x).mul_scalar(0.5).sum_all().backward();
        let before = clip_grad_norm(std::slice::from_ref(&x), 1.0);
        assert!((before - 5.0).abs() < 1e-4);
        let g = x.grad().unwrap();
        let norm: f32 = g.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4, "clipped norm {norm}");
    }

    #[test]
    fn clip_grad_norm_noop_when_small() {
        let x = Tensor::from_vec(vec![0.1], [1]).requires_grad(true);
        x.mul_scalar(1.0).sum_all().backward();
        let before = clip_grad_norm(std::slice::from_ref(&x), 10.0);
        assert!((before - 1.0).abs() < 1e-5);
        assert_eq!(x.grad().unwrap(), vec![1.0], "untouched below max");
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
