//! Domain-specific neural modules provided by TGLite.

use tgl_runtime::rng::Rng;
use tgl_tensor::nn::Module;
use tgl_tensor::Tensor;

/// The learnable time encoder `Φ(Δt) = cos(ω·Δt + φ)` (paper Eq. 8).
///
/// Maps a batch of scalar time deltas to `dim`-dimensional vectors by
/// broadcasting the delta against learnable frequency (`ω`) and phase
/// (`φ`) vectors, in one kernel (`tgl_tensor::ops::time_encode`).
/// TGAT/TGN inject these vectors into message passing by
/// concatenation with node/edge features.
///
/// # Examples
///
/// ```
/// use tgl_runtime::rng::{SeedableRng, StdRng};
/// use tglite::nn::TimeEncode;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let enc = TimeEncode::new(8, &mut rng);
/// let v = enc.forward(&[0.0, 1.5, 100.0]);
/// assert_eq!(v.dims(), &[3, 8]);
/// // Δt = 0 encodes to cos(φ): bounded by 1.
/// assert!(v.to_vec().iter().all(|x| x.abs() <= 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct TimeEncode {
    weight: Tensor,
    bias: Tensor,
    dim: usize,
}

impl TimeEncode {
    /// Creates an encoder producing `dim`-wide time vectors.
    ///
    /// Frequencies follow the TGAT initialization: a geometric ladder
    /// `1 / 10^(k·9/dim)` spanning ~9 decades, which covers both short
    /// and long time scales; phases start at zero. Both are trainable.
    pub fn new(dim: usize, _rng: &mut impl Rng) -> TimeEncode {
        assert!(dim > 0, "time encoding dim must be positive");
        let freqs: Vec<f32> = (0..dim)
            .map(|k| 1.0f32 / 10f32.powf(k as f32 * 9.0 / dim as f32))
            .collect();
        TimeEncode {
            weight: Tensor::from_vec(freqs, [dim]).requires_grad(true),
            bias: Tensor::zeros([dim]).requires_grad(true),
            dim,
        }
    }

    /// Output dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns a copy of this encoder with parameters on `device`.
    pub fn to_device(&self, device: tgl_device::Device) -> TimeEncode {
        TimeEncode {
            weight: self.weight.to(device).requires_grad(true),
            bias: self.bias.to(device).requires_grad(true),
            dim: self.dim,
        }
    }

    /// Encodes a host slice of deltas into `[n, dim]` time vectors
    /// (differentiable in `ω` and `φ`), moving it to the encoder's
    /// device first.
    pub fn forward(&self, deltas: &[f32]) -> Tensor {
        let mut dt = tgl_tensor::pool::take_uninit(deltas.len(), tgl_device::Device::Host);
        dt.copy_from_slice(deltas);
        self.encode(&Tensor::from_vec(dt, [deltas.len()]).to(self.weight.device()))
    }

    /// Encodes deltas already on the encoder's device (any shape of
    /// `n` elements) into `[n, dim]` time vectors.
    pub fn encode(&self, deltas: &Tensor) -> Tensor {
        tgl_tensor::ops::time_encode(deltas, &self.weight, &self.bias)
    }

    /// `n` rows of `Φ(0)`, differentiable like [`TimeEncode::forward`]
    /// over `n` zeros (same kernel, same bits) but with the constant
    /// input built on the encoder's device instead of shipped to it.
    pub fn encode_zeros(&self, n: usize) -> Tensor {
        self.encode(&Tensor::zeros_on([n], self.weight.device()))
    }
}

impl Module for TimeEncode {
    fn parameters(&self) -> Vec<Tensor> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgl_runtime::rng::StdRng;
    use tgl_runtime::rng::SeedableRng;
    use tgl_tensor::nn::Module;

    fn enc(dim: usize) -> TimeEncode {
        let mut rng = StdRng::seed_from_u64(0);
        TimeEncode::new(dim, &mut rng)
    }

    #[test]
    fn zero_delta_gives_cos_phase() {
        let e = enc(4);
        // phase starts at zero => cos(0) = 1 everywhere
        assert_eq!(e.forward(&[0.0]).to_vec(), vec![1.0; 4]);
    }

    #[test]
    fn output_shape() {
        let e = enc(6);
        assert_eq!(e.forward(&[1.0, 2.0, 3.0]).dims(), &[3, 6]);
        assert_eq!(e.dim(), 6);
    }

    #[test]
    fn deterministic_per_delta() {
        let e = enc(8);
        let a = e.forward(&[5.0]).to_vec();
        let b = e.forward(&[5.0]).to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_deltas_distinct_codes() {
        let e = enc(8);
        let v = e.forward(&[1.0, 1000.0]);
        let rows = v.to_vec();
        assert_ne!(rows[..8], rows[8..]);
    }

    #[test]
    fn parameters_are_trainable() {
        let e = enc(4);
        let params = e.parameters();
        assert_eq!(params.len(), 2);
        e.forward(&[2.0]).sum_all().backward();
        assert!(params[0].grad().is_some(), "weight grad missing");
        assert!(params[1].grad().is_some(), "bias grad missing");
    }

    #[test]
    fn frequency_ladder_is_decreasing() {
        let e = enc(8);
        let w = e.parameters()[0].to_vec();
        assert!(w.windows(2).all(|p| p[0] > p[1]));
        assert!((w[0] - 1.0).abs() < 1e-6);
    }
}
