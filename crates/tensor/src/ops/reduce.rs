//! Reduction operators (sums, full or per-dimension).

use tgl_runtime::{parallel_rows, Chunks, Rows};

use crate::ops::rows_threshold;
use crate::pool;
use crate::shape::Shape;
use crate::Tensor;

/// Fixed-chunk size for whole-buffer sums. The chunk size is a function
/// of nothing but this constant, and partials combine in chunk order,
/// so rounding is identical for every thread count (within 1e-5 of a
/// straight sequential sum).
const SUM_CHUNK: usize = 8192;

/// Sums a slice with fixed-size ordered chunks across the pool.
fn sum_slice(data: &[f32]) -> f32 {
    if data.len() <= SUM_CHUNK {
        return data.iter().sum();
    }
    // One partial per `SUM_CHUNK` elements, one pool chunk each.
    let n_chunks = data.len().div_ceil(SUM_CHUNK);
    let mut partials = vec![0.0f32; n_chunks];
    parallel_rows(n_chunks, Chunks::Fixed(1), Rows::width(&mut partials, 1), |cs, p| {
        for (p, data) in p.iter_mut().zip(data.chunks(SUM_CHUNK).skip(cs.start)) {
            *p = data.iter().sum();
        }
    });
    partials.iter().sum()
}

impl Tensor {
    /// Sums all elements into a scalar tensor.
    pub fn sum_all(&self) -> Tensor {
        let _prof = tgl_obs::profile::op("sum_all")
            .flops(self.numel() as u64)
            .io(4 * self.numel() as u64, 4)
            .shape(&[self.dims()])
            .backward_cost(0, 4, 4 * self.numel() as u64);
        let total: f32 = sum_slice(&self.inner.storage.read());
        let n = self.numel();
        let device = self.device();
        Tensor::make_result(
            vec![total],
            Shape::scalar(),
            self.device(),
            std::slice::from_ref(self),
            move |go| {
                let mut g = pool::take_uninit(n, device);
                g.fill(go[0]);
                vec![Some(g)]
            },
        )
    }

    /// Sums along dimension `dim`, removing it from the shape.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn sum_dim(&self, dim: usize) -> Tensor {
        assert!(dim < self.rank(), "reduce dim {dim} out of range for {}", self.shape());
        let _prof = tgl_obs::profile::op("sum_dim")
            .flops(self.numel() as u64)
            .io(4 * self.numel() as u64, 4 * (self.numel() / self.dim(dim).max(1)) as u64)
            .shape(&[self.dims()])
            .backward_cost(
                0,
                4 * (self.numel() / self.dim(dim).max(1)) as u64,
                4 * self.numel() as u64,
            );
        let dims = self.dims();
        let outer: usize = dims[..dim].iter().product();
        let mid = dims[dim];
        let inner: usize = dims[dim + 1..].iter().product();
        let device = self.device();
        let data = self.inner.storage.read();
        let out_shape = self.shape().without_dim(dim);
        let mut out = pool::take_uninit(outer * inner, device);
        out.fill(0.0);
        // Parallel over `outer`: each outer index owns its own output
        // rows, and the m-then-i accumulation order per element matches
        // the sequential loops exactly.
        {
            let data = &data;
            let chunks = Chunks::Auto(rows_threshold(mid * inner));
            parallel_rows(outer, chunks, Rows::width(&mut out, inner), |os, out| {
                for (k, o) in os.enumerate() {
                    for m in 0..mid {
                        for i in 0..inner {
                            out[k * inner + i] += data[(o * mid + m) * inner + i];
                        }
                    }
                }
            });
        }
        drop(data);
        let n = self.numel();
        Tensor::make_result(out, out_shape, self.device(), std::slice::from_ref(self), move |go| {
            // Every input slot is written.
            let mut g = pool::take_uninit(n, device);
            let chunks = Chunks::Auto(rows_threshold(mid * inner));
            parallel_rows(outer, chunks, Rows::width(&mut g, mid * inner), |os, g| {
                for (k, o) in os.enumerate() {
                    for m in 0..mid {
                        for i in 0..inner {
                            g[(k * mid + m) * inner + i] = go[o * inner + i];
                        }
                    }
                }
            });
            vec![Some(g)]
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::{assert_close, check_gradient};
    use crate::Tensor;

    #[test]
    fn sum_all_scalar() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        assert_eq!(t.sum_all().item(), 6.0);
        assert_eq!(t.sum_all().rank(), 0);
    }

    #[test]
    fn sum_dim_rows_and_cols() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        assert_eq!(t.sum_dim(0).to_vec(), vec![5.0, 7.0, 9.0]);
        assert_eq!(t.sum_dim(0).dims(), &[3]);
        assert_eq!(t.sum_dim(1).to_vec(), vec![6.0, 15.0]);
        assert_eq!(t.sum_dim(1).dims(), &[2]);
    }

    #[test]
    fn sum_dim_middle_of_rank3() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), [2, 3, 4]);
        let s = t.sum_dim(1);
        assert_eq!(s.dims(), &[2, 4]);
        // out[0,0] = t[0,0,0] + t[0,1,0] + t[0,2,0] = 0 + 4 + 8
        assert_eq!(s.to_vec()[0], 12.0);
    }

    #[test]
    fn sum_gradchecks() {
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, 0.7, -0.3], [2, 3]).requires_grad(true);
        check_gradient(&x, |t| t.sum_dim(0).mul_scalar(2.0).sum_all(), 1e-2);
        check_gradient(&x, |t| t.sum_dim(1).mul(&t.sum_dim(1)).sum_all(), 1e-2);
    }

    #[test]
    fn sum_all_grad_is_ones() {
        let x = Tensor::from_vec(vec![5.0, -2.0], [2]).requires_grad(true);
        x.sum_all().backward();
        assert_close(&x.grad().unwrap(), &[1.0, 1.0], 0.0);
    }
}
