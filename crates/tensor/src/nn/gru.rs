//! Gated recurrent unit cell (TGN's node-memory update function).

use tgl_runtime::rng::Rng;

use crate::init::{xavier_uniform, zeros_init};
use crate::nn::Module;
use crate::ops::{gru_gates, linear_cat};
use crate::Tensor;

/// A GRU cell: `h' = GRUCell(x, h)`.
///
/// Follows the standard formulation:
/// `r = σ(W_ir x + b_ir + W_hr h + b_hr)`,
/// `z = σ(W_iz x + b_iz + W_hz h + b_hz)`,
/// `n = tanh(W_in x + b_in + r ⊙ (W_hn h + b_hn))`,
/// `h' = (1 − z) ⊙ n + z ⊙ h`.
#[derive(Debug, Clone)]
pub struct GruCell {
    // Stacked [3*hidden, in] and [3*hidden, hidden] weights (r, z, n).
    w_ih: Tensor,
    w_hh: Tensor,
    b_ih: Tensor,
    b_hh: Tensor,
    hidden: usize,
}

impl GruCell {
    /// Creates a cell mapping `input_size` inputs to `hidden_size`
    /// state.
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut impl Rng) -> GruCell {
        GruCell {
            w_ih: xavier_uniform(3 * hidden_size, input_size, rng),
            w_hh: xavier_uniform(3 * hidden_size, hidden_size, rng),
            b_ih: zeros_init([3 * hidden_size]),
            b_hh: zeros_init([3 * hidden_size]),
            hidden: hidden_size,
        }
    }

    /// Computes the next hidden state for a batch: the input is the
    /// column-wise concatenation of `x` (`[N, in_p]` each, `Σ in_p =
    /// input`; the paper's TGN feeds `[mail ‖ Φ(Δt)]`), which is never
    /// built; `h: [N, hidden]` → `[N, hidden]`.
    pub fn forward(&self, x: &[&Tensor], h: &Tensor) -> Tensor {
        let gi = linear_cat(x, &self.w_ih, Some(&self.b_ih), false); // [N, 3H]
        assert_eq!(h.dims(), &[gi.dim(0), self.hidden], "hidden state shape mismatch");
        let gh = h.linear(&self.w_hh, Some(&self.b_hh), false); // [N, 3H]
        gru_gates(&gi, &gh, h)
    }

    /// Hidden state size.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// Returns a copy of this cell with parameters on `device`.
    pub fn to_device(&self, device: tgl_device::Device) -> GruCell {
        GruCell {
            w_ih: self.w_ih.to(device).requires_grad(true),
            w_hh: self.w_hh.to(device).requires_grad(true),
            b_ih: self.b_ih.to(device).requires_grad(true),
            b_hh: self.b_hh.to(device).requires_grad(true),
            hidden: self.hidden,
        }
    }
}

impl Module for GruCell {
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
    fn output_shape_and_range() {
        let mut rng = StdRng::seed_from_u64(0);
        let cell = GruCell::new(3, 4, &mut rng);
        let x = Tensor::randn([5, 3], &mut rng);
        let h = Tensor::zeros([5, 4]);
        let h2 = cell.forward(&[&x], &h);
        assert_eq!(h2.dims(), &[5, 4]);
        // GRU output is a convex combination of tanh(...) and h, so
        // bounded by (-1, 1) when h is zero.
        assert!(h2.to_vec().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn zero_input_zero_state_stays_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let cell = GruCell::new(2, 2, &mut rng);
        let h = cell.forward(&[&Tensor::zeros([1, 2])], &Tensor::zeros([1, 2]));
        assert!(h.to_vec().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn gradients_flow_to_all_params() {
        let mut rng = StdRng::seed_from_u64(2);
        let cell = GruCell::new(2, 3, &mut rng);
        let x = Tensor::randn([4, 2], &mut rng);
        let h = Tensor::randn([4, 3], &mut rng);
        cell.forward(&[&x], &h).sum_all().backward();
        for p in cell.parameters() {
            assert!(p.grad().is_some(), "missing grad");
        }
    }

    #[test]
    fn state_carries_information() {
        // Different initial states must give different outputs.
        let mut rng = StdRng::seed_from_u64(3);
        let cell = GruCell::new(2, 2, &mut rng);
        let x = Tensor::ones([1, 2]);
        let a = cell.forward(&[&x], &Tensor::zeros([1, 2])).to_vec();
        let b = cell.forward(&[&x], &Tensor::ones([1, 2])).to_vec();
        assert_ne!(a, b);
    }

    #[test]
    fn parts_match_their_concatenation() {
        let mut rng = StdRng::seed_from_u64(4);
        let cell = GruCell::new(4, 2, &mut rng);
        let leaf = |t: Tensor| t.requires_grad(true);
        let a = leaf(Tensor::randn([2, 3], &mut rng));
        let b = leaf(Tensor::randn([2, 1], &mut rng));
        let h = Tensor::zeros([2, 2]);
        let over_parts = cell.forward(&[&a, &b], &h);
        over_parts.sum_all().backward();
        let grads = |ts: &[&Tensor]| -> Vec<Vec<f32>> { ts.iter().map(|t| t.grad().unwrap()).collect() };
        let params = cell.parameters();
        let mut seen = grads(&[&a, &b]);
        seen.extend(grads(&params.iter().collect::<Vec<_>>()));
        params.iter().for_each(Tensor::zero_grad);
        let (a2, b2) = (leaf(a.detach()), leaf(b.detach()));
        let over_cat = cell.forward(&[&crate::ops::cat(&[a2.clone(), b2.clone()], 1)], &h);
        over_cat.sum_all().backward();
        assert_eq!(over_parts.to_vec(), over_cat.to_vec());
        let mut want = grads(&[&a2, &b2]);
        want.extend(grads(&params.iter().collect::<Vec<_>>()));
        assert_eq!(seen, want);
    }
}
