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

    /// Total scalar parameter count.
    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(Tensor::numel).sum()
    }
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
