//! Small feed-forward networks (attention FFNs, edge predictors).

use tgl_runtime::rng::Rng;

use crate::nn::{Linear, Module};
use crate::Tensor;

/// A two-layer perceptron: `Linear → ReLU → Linear`.
#[derive(Debug, Clone)]
pub struct Mlp {
    fc1: Linear,
    fc2: Linear,
}

impl Mlp {
    /// Creates an MLP `in → hidden → out`.
    pub fn new(in_features: usize, hidden: usize, out_features: usize, rng: &mut impl Rng) -> Mlp {
        Mlp {
            fc1: Linear::new(in_features, hidden, rng),
            fc2: Linear::new(hidden, out_features, rng),
        }
    }

    /// Applies the network to `x: [N, in]` (hidden layer uses the fused
    /// add+ReLU kernel).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_parts(&[x])
    }

    /// Applies the network to the column-wise concatenation of `parts`
    /// without building it.
    pub fn forward_parts(&self, parts: &[&Tensor]) -> Tensor {
        self.fc2.forward(&self.fc1.forward_relu_parts(parts))
    }

    /// Returns a copy of this network with parameters on `device`.
    pub fn to_device(&self, device: tgl_device::Device) -> Mlp {
        Mlp {
            fc1: self.fc1.to_device(device),
            fc2: self.fc2.to_device(device),
        }
    }
}

impl Module for Mlp {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.fc1.parameters();
        p.extend(self.fc2.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgl_runtime::rng::StdRng;
    use tgl_runtime::rng::SeedableRng;

    #[test]
    fn shapes_and_param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(4, 8, 2, &mut rng);
        let y = mlp.forward(&Tensor::zeros([3, 4]));
        assert_eq!(y.dims(), &[3, 2]);
        assert_eq!(mlp.num_parameters(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn grads_flow_through_relu() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(2, 4, 1, &mut rng);
        let x = Tensor::ones([5, 2]);
        mlp.forward(&x).sum_all().backward();
        assert!(mlp.parameters().iter().any(|p| p
            .grad()
            .map(|g| g.iter().any(|v| *v != 0.0))
            .unwrap_or(false)));
    }
}
