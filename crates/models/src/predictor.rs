//! Link-prediction head shared by all four models.

use tgl_runtime::rng::Rng;
use tgl_device::Device;
use tgl_tensor::nn::{Linear, Module};
use tgl_tensor::Tensor;

/// Scores a (source, destination) embedding pair with
/// `W_out · ReLU(W_s h_src + W_d h_dst)` — the edge predictor used by
/// TGL-style training scripts.
#[derive(Debug, Clone)]
pub struct EdgePredictor {
    src_fc: Linear,
    dst_fc: Linear,
    out_fc: Linear,
}

impl EdgePredictor {
    /// Creates a predictor over `emb_dim`-wide embeddings with a
    /// hidden width equal to `emb_dim`.
    pub fn new(emb_dim: usize, rng: &mut impl Rng) -> EdgePredictor {
        EdgePredictor {
            src_fc: Linear::new(emb_dim, emb_dim, rng),
            dst_fc: Linear::new(emb_dim, emb_dim, rng),
            out_fc: Linear::new(emb_dim, 1, rng),
        }
    }

    /// Moves parameters to `device`.
    pub fn to_device(&self, device: Device) -> EdgePredictor {
        EdgePredictor {
            src_fc: self.src_fc.to_device(device),
            dst_fc: self.dst_fc.to_device(device),
            out_fc: self.out_fc.to_device(device),
        }
    }

    /// Logits for each row pair: `[n, emb] × [n, emb] → [n]`.
    pub fn forward(&self, src: &Tensor, dst: &Tensor) -> Tensor {
        let _phase = tglite::prof::scope("predictor");
        let _scope = tgl_obs::insight::act_scope("predictor");
        self.logits(src, dst)
    }

    /// [`EdgePredictor::forward`] for a caller that has opened the
    /// `predictor` scopes itself.
    pub(crate) fn logits(&self, src: &Tensor, dst: &Tensor) -> Tensor {
        // Fused add+ReLU: one kernel, one output buffer, and no
        // intermediate sum captured by autograd.
        let h = self.src_fc.forward(src).add_relu(&self.dst_fc.forward(dst));
        tgl_tensor::nn::observe_relu_zeros(&h);
        let n = h.dim(0);
        self.out_fc.forward(&h).reshape([n])
    }

    /// Named parameter groups for per-layer introspection.
    pub fn param_groups(&self) -> Vec<(String, Vec<Tensor>)> {
        vec![
            ("predictor.src_fc".to_string(), self.src_fc.parameters()),
            ("predictor.dst_fc".to_string(), self.dst_fc.parameters()),
            ("predictor.out_fc".to_string(), self.out_fc.parameters()),
        ]
    }
}

impl Module for EdgePredictor {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.src_fc.parameters();
        p.extend(self.dst_fc.parameters());
        p.extend(self.out_fc.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgl_runtime::rng::StdRng;
    use tgl_runtime::rng::SeedableRng;

    #[test]
    fn output_is_flat_logits() {
        let mut rng = StdRng::seed_from_u64(0);
        let p = EdgePredictor::new(4, &mut rng);
        let src = Tensor::randn([5, 4], &mut rng);
        let dst = Tensor::randn([5, 4], &mut rng);
        let out = p.forward(&src, &dst);
        assert_eq!(out.dims(), &[5]);
    }

    #[test]
    fn params_receive_gradients() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = EdgePredictor::new(3, &mut rng);
        let src = Tensor::randn([2, 3], &mut rng);
        let dst = Tensor::randn([2, 3], &mut rng);
        p.forward(&src, &dst).sum_all().backward();
        assert_eq!(p.parameters().len(), 6);
        assert!(p.parameters().iter().any(|t| t.grad().is_some()));
    }

    #[test]
    fn asymmetric_in_src_dst() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = EdgePredictor::new(3, &mut rng);
        let a = Tensor::randn([1, 3], &mut rng);
        let b = Tensor::randn([1, 3], &mut rng);
        let ab = p.forward(&a, &b).to_vec();
        let ba = p.forward(&b, &a).to_vec();
        assert_ne!(ab, ba);
    }
}
