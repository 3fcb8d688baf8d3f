//! Neural-network building blocks.
//!
//! These mirror the PyTorch modules used by the paper's model
//! implementations: `nn.Linear`, `nn.GRUCell` (TGN's memory updater),
//! `nn.RNNCell` (JODIE's memory updater), and small feed-forward MLPs
//! (the FFN in temporal attention and the edge predictor).

mod gru;
mod linear;
mod mlp;
mod rnn;

pub use gru::GruCell;
pub use linear::Linear;
pub use mlp::Mlp;
pub use rnn::RnnCell;

use crate::Tensor;

/// A trainable component exposing its parameters to optimizers.
pub trait Module {
    /// All trainable parameter tensors (leaves with `requires_grad`).
    fn parameters(&self) -> Vec<Tensor>;

    /// Stable `(name, tensor)` pairs for every parameter, in the same
    /// order as [`parameters`](Module::parameters). The default names
    /// positionally (`param0`, `param1`, ...); structured modules
    /// override to thread real names (`weight`, `fc1.bias`) through so
    /// introspection can attribute stats to a specific layer.
    fn named_parameters(&self) -> Vec<(String, Tensor)> {
        self.parameters()
            .into_iter()
            .enumerate()
            .map(|(i, p)| (format!("param{i}"), p))
            .collect()
    }

    /// Total scalar parameter count.
    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(Tensor::numel).sum()
    }
}

/// Reports a post-ReLU activation's zero fraction to the insight layer
/// (no-op — one relaxed load — unless an insight bag is active on this
/// thread *and* an activation scope is open). Exact zeros are what ReLU
/// produces for clamped inputs, so `v == 0.0` is the dead-unit test.
pub fn observe_relu_zeros(t: &Tensor) {
    if !tgl_obs::insight::active() {
        return;
    }
    let zeros = t.with_data(|d| d.iter().filter(|&&v| v == 0.0).count());
    tgl_obs::insight::observe_activation(zeros as u64, t.numel() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgl_runtime::rng::StdRng;
    use tgl_runtime::rng::SeedableRng;

    #[test]
    fn num_parameters_counts_scalars() {
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(3, 2, &mut rng);
        assert_eq!(lin.num_parameters(), 3 * 2 + 2);
    }
}
