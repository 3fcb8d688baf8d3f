//! Shape-changing operators: reshape (zero-copy) and transpose.

use std::sync::Arc;

use crate::ops::transpose_into;
use crate::pool;
use crate::shape::Shape;
use crate::Tensor;

impl Tensor {
    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// Zero-copy in both directions: the result shares storage, and the
    /// backward sweep hands the gradient buffer through unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape from {} to {shape} changes element count",
            self.shape()
        );
        let _prof = tgl_obs::profile::op("reshape").shape(&[self.dims()]);
        let storage = Arc::clone(&self.inner.storage);
        Tensor::tracked(storage, shape, std::slice::from_ref(self), || None)
    }

    /// Inserts a size-1 dimension at `dim`.
    pub fn unsqueeze(&self, dim: usize) -> Tensor {
        let mut dims = self.dims().to_vec();
        assert!(dim <= dims.len(), "unsqueeze dim {dim} out of range");
        dims.insert(dim, 1);
        self.reshape(dims)
    }

    /// Removes a size-1 dimension at `dim`.
    ///
    /// # Panics
    ///
    /// Panics if that dimension is not size 1.
    pub fn squeeze(&self, dim: usize) -> Tensor {
        assert_eq!(self.dim(dim), 1, "squeeze dim {dim} is not size 1");
        let mut dims = self.dims().to_vec();
        dims.remove(dim);
        self.reshape(dims)
    }

    /// Transposes a rank-2 tensor (materializing).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose requires rank-2, got {}", self.shape());
        let (m, n) = (self.dim(0), self.dim(1));
        // Pure data movement: 0 FLOPs, one read + one write per element.
        let _prof = tgl_obs::profile::op("transpose")
            .io(4 * (m * n) as u64, 4 * (m * n) as u64)
            .shape(&[self.dims()])
            .backward_cost(0, 4 * (m * n) as u64, 4 * (m * n) as u64);
        let device = self.device();
        // Every element is written, so recycled pool memory needs no
        // zero pass (forward and backward alike).
        let mut out = pool::take_uninit(m * n, device);
        transpose_into(&self.inner.storage.read(), m, n, &mut out);
        Tensor::make_result(out, [n, m], device, std::slice::from_ref(self), move |go| {
            let mut g = pool::take_uninit(m * n, device);
            transpose_into(go, n, m, &mut g);
            vec![Some(g)]
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::check_gradient;
    use crate::Tensor;

    #[test]
    fn reshape_shares_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let r = t.reshape([4]);
        assert_eq!(r.dims(), &[4]);
        t.copy_from_slice(&[9.0, 9.0, 9.0, 9.0]);
        assert_eq!(r.to_vec(), vec![9.0; 4], "reshape should share storage");
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_bad_count_panics() {
        Tensor::zeros([2, 2]).reshape([3]);
    }

    #[test]
    fn unsqueeze_squeeze_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let u = t.unsqueeze(1);
        assert_eq!(u.dims(), &[2, 1]);
        assert_eq!(u.squeeze(1).dims(), &[2]);
        let u0 = t.unsqueeze(0);
        assert_eq!(u0.dims(), &[1, 2]);
    }

    #[test]
    fn transpose_values() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.to_vec(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_gradcheck() {
        let t = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, 0.7, -0.3], [2, 3]).requires_grad(true);
        check_gradient(&t, |x| x.transpose().mul_scalar(2.0).sum_all(), 1e-2);
    }

    #[test]
    fn reshape_gradient_passthrough() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).requires_grad(true);
        t.reshape([4]).mul_scalar(3.0).sum_all().backward();
        assert_eq!(t.grad().unwrap(), vec![3.0; 4]);
    }

    #[test]
    fn reshape_under_autograd_shares_storage() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).requires_grad(true);
        let r = t.reshape([4]);
        assert!(r.requires_grad_flag());
        t.copy_from_slice(&[9.0, 8.0, 7.0, 6.0]);
        assert_eq!(r.to_vec(), vec![9.0, 8.0, 7.0, 6.0], "tracked reshape should share storage");
    }

    #[test]
    fn unsqueeze_squeeze_detour_leaves_gradients_bitwise_unchanged() {
        let vals: Vec<f32> = (0..12).map(|i| (i as f32 * 0.37).sin()).collect();
        let w: Vec<f32> = (0..12).map(|i| (i as f32 * 0.91).cos()).collect();
        let seed: Vec<f32> = (0..12).map(|i| 0.1 + i as f32 / 7.0).collect();
        let direct = Tensor::from_vec(vals.clone(), [3, 4]).requires_grad(true);
        direct.mul(&Tensor::from_vec(w.clone(), [3, 4])).backward_with(seed.clone());
        // The same product taken through unsqueeze -> op -> squeeze, with
        // the input used twice so the identity nodes also accumulate.
        let detour = Tensor::from_vec(vals, [3, 4]).requires_grad(true);
        let y = detour.unsqueeze(1).mul(&Tensor::from_vec(w, [3, 1, 4])).squeeze(1);
        y.add(&detour.reshape([12]).reshape([3, 4]).mul_scalar(0.0)).backward_with(seed);
        let bits = |g: Vec<f32>| g.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(detour.grad().unwrap()), bits(direct.grad().unwrap()));
    }
}
