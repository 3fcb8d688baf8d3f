//! Fully-connected affine layer.

use tgl_runtime::rng::Rng;

use crate::init::{xavier_uniform, zeros_init};
use crate::nn::Module;
use crate::ops::linear_cat;
use crate::Tensor;

/// `y = x · Wᵀ + b` with `W: [out, in]`, `b: [out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weight and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Linear {
        Linear {
            weight: xavier_uniform(out_features, in_features, rng),
            bias: zeros_init([out_features]),
        }
    }

    /// Applies the layer to `x: [N, in]`, producing `[N, out]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank-2 with `in` columns.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_parts(&[x])
    }

    /// Applies the layer to the column-wise concatenation of `parts`
    /// (`N` rows of `in_p` each, `Σ in_p = in`; tensors or indexed rows
    /// of tables, see [`Part`](crate::ops::Part)) without building it.
    pub fn forward_parts<'a>(&self, parts: &[impl Into<crate::ops::Part<'a>> + Copy]) -> Tensor {
        linear_cat(parts, &self.weight, Some(&self.bias), false)
    }

    /// Applies the layer followed by ReLU (`relu(x·Wᵀ + b)`) to the
    /// column-wise concatenation of `parts` as one op, the activation
    /// folded into its epilogue.
    pub fn forward_relu_parts(&self, parts: &[&Tensor]) -> Tensor {
        linear_cat(parts, &self.weight, Some(&self.bias), true)
    }

    /// The weight tensor (`[out, in]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias tensor (`[out]`).
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Returns a copy of this layer with parameters on `device`
    /// (a one-time metered transfer; the new parameters are fresh
    /// trainable leaves).
    pub fn to_device(&self, device: tgl_device::Device) -> Linear {
        Linear {
            weight: self.weight.to(device).requires_grad(true),
            bias: self.bias.to(device).requires_grad(true),
        }
    }
}

impl Module for Linear {
    fn parameters(&self) -> Vec<Tensor> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgl_runtime::rng::StdRng;
    use tgl_runtime::rng::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(4, 3, &mut rng);
        let x = Tensor::zeros([5, 4]);
        let y = lin.forward(&x);
        assert_eq!(y.dims(), &[5, 3]);
        // zero input + zero bias = zero output
        assert_eq!(y.to_vec(), vec![0.0; 15]);
    }

    #[test]
    fn forward_known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(2, 1, &mut rng);
        lin.weight.copy_from_slice(&[2.0, 3.0]);
        let x = Tensor::from_vec(vec![1.0, 1.0, 0.5, 2.0], [2, 2]);
        let y = lin.forward(&x);
        assert_eq!(y.to_vec(), vec![5.0, 7.0]);
    }

    #[test]
    fn gradient_reaches_weight_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones([3, 2]);
        lin.forward(&x).sum_all().backward();
        for p in lin.parameters() {
            let g = p.grad().expect("param should have grad");
            assert!(g.iter().any(|v| *v != 0.0), "grad all zero for {p:?}");
        }
    }
}
