//! Vanilla RNN cell (JODIE's node-memory update function).

use tgl_runtime::rng::Rng;

use crate::init::{xavier_uniform, zeros_init};
use crate::nn::Module;
use crate::ops::linear_cat;
use crate::Tensor;

/// `h' = tanh(W_ih x + b_ih + W_hh h + b_hh)`.
#[derive(Debug, Clone)]
pub struct RnnCell {
    w_ih: Tensor,
    w_hh: Tensor,
    b_ih: Tensor,
    b_hh: Tensor,
    hidden: usize,
}

impl RnnCell {
    /// Creates a cell mapping `input_size` inputs to `hidden_size`
    /// state.
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut impl Rng) -> RnnCell {
        RnnCell {
            w_ih: xavier_uniform(hidden_size, input_size, rng),
            w_hh: xavier_uniform(hidden_size, hidden_size, rng),
            b_ih: zeros_init([hidden_size]),
            b_hh: zeros_init([hidden_size]),
            hidden: hidden_size,
        }
    }

    /// Computes the next hidden state from the column-wise
    /// concatenation of `x` (`[N, in_p]` each, `Σ in_p = in`; never
    /// built) and `h: [N, hidden]`.
    pub fn forward(&self, x: &[&Tensor], h: &Tensor) -> Tensor {
        assert_eq!(h.dim(1), self.hidden, "hidden state width mismatch");
        linear_cat(x, &self.w_ih, Some(&self.b_ih), false)
            .add(&h.linear(&self.w_hh, Some(&self.b_hh), false))
            .tanh()
    }

    /// Hidden state size.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// Returns a copy of this cell with parameters on `device`.
    pub fn to_device(&self, device: tgl_device::Device) -> RnnCell {
        RnnCell {
            w_ih: self.w_ih.to(device).requires_grad(true),
            w_hh: self.w_hh.to(device).requires_grad(true),
            b_ih: self.b_ih.to(device).requires_grad(true),
            b_hh: self.b_hh.to(device).requires_grad(true),
            hidden: self.hidden,
        }
    }
}

impl Module for RnnCell {
    fn parameters(&self) -> Vec<Tensor> {
        vec![
            self.w_ih.clone(),
            self.w_hh.clone(),
            self.b_ih.clone(),
            self.b_hh.clone(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgl_runtime::rng::StdRng;
    use tgl_runtime::rng::SeedableRng;

    #[test]
    fn output_bounded_by_tanh() {
        let mut rng = StdRng::seed_from_u64(0);
        let cell = RnnCell::new(3, 2, &mut rng);
        let x = Tensor::randn([4, 3], &mut rng).mul_scalar(10.0);
        let h = Tensor::zeros([4, 2]);
        let out = cell.forward(&[&x], &h);
        assert_eq!(out.dims(), &[4, 2]);
        assert!(out.to_vec().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn grads_flow() {
        let mut rng = StdRng::seed_from_u64(1);
        let cell = RnnCell::new(2, 2, &mut rng);
        let x = Tensor::randn([3, 2], &mut rng);
        let h = Tensor::randn([3, 2], &mut rng);
        cell.forward(&[&x], &h).sum_all().backward();
        assert_eq!(cell.parameters().len(), 4);
        for p in cell.parameters() {
            assert!(p.grad().is_some());
        }
    }
}
