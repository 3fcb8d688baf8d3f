//! Row indexing, gathering, scattering, slicing, and concatenation.

use tgl_device::Device;

use crate::kernel;
use crate::pool;
use crate::shape::Shape;
use crate::Tensor;

impl Tensor {
    /// Gathers rows (dimension 0) by index: `out[i] = self[idx[i]]`.
    ///
    /// The workhorse of feature lookup (node/edge feature gathering in
    /// TGLite blocks). Differentiable: the gradient scatter-adds back,
    /// so repeated indices accumulate.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or the tensor is rank-0.
    pub fn index_select(&self, idx: &[usize]) -> Tensor {
        assert!(self.rank() >= 1, "index_select needs rank >= 1");
        let rows = self.dim(0);
        let row_len: usize = self.dims()[1..].iter().product();
        let moved = 4 * (idx.len() * row_len) as u64;
        let _prof = tgl_obs::profile::op("index_select")
            .io(moved, moved)
            .shape(&[self.dims(), &[idx.len()]])
            .backward_cost((idx.len() * row_len) as u64, moved, 4 * self.numel() as u64);
        let device = self.device();
        let mut out = pool::take_uninit(idx.len() * row_len, device);
        {
            let data = self.inner.storage.read();
            for (k, &i) in idx.iter().enumerate() {
                assert!(i < rows, "index {i} out of bounds for {rows} rows");
                out[k * row_len..(k + 1) * row_len]
                    .copy_from_slice(&data[i * row_len..(i + 1) * row_len]);
            }
        }
        let mut out_dims = self.dims().to_vec();
        out_dims[0] = idx.len();
        let idx_owned = idx.to_vec();
        let n = self.numel();
        Tensor::make_result(out, out_dims, device, std::slice::from_ref(self), move |go| {
            vec![Some(scatter_add_rows(go, &idx_owned, row_len, n, device))]
        })
    }

    /// Copies rows `[start, start+len)` along dimension 0: one
    /// contiguous range each way (the gradient is zero outside it).
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the last row or the tensor is
    /// rank-0.
    pub fn narrow_rows(&self, start: usize, len: usize) -> Tensor {
        assert!(self.rank() >= 1, "narrow_rows needs rank >= 1");
        let rows = self.dim(0);
        assert!(start + len <= rows, "rows {start}..{} out of bounds for {rows} rows", start + len);
        let row_len: usize = self.dims()[1..].iter().product();
        let (lo, hi) = (start * row_len, (start + len) * row_len);
        let moved = 4 * (hi - lo) as u64;
        let _prof = tgl_obs::profile::op("narrow_rows")
            .io(moved, moved)
            .shape(&[self.dims(), &[len]])
            .backward_cost(0, moved, 4 * self.numel() as u64);
        let device = self.device();
        let mut out = pool::take_uninit(hi - lo, device);
        out.copy_from_slice(&self.inner.storage.read()[lo..hi]);
        let mut out_dims = self.dims().to_vec();
        out_dims[0] = len;
        let n = self.numel();
        Tensor::make_result(out, out_dims, device, std::slice::from_ref(self), move |go| {
            let mut g = pool::take_zeroed(n, device);
            g[lo..hi].copy_from_slice(go);
            vec![Some(g)]
        })
    }

    /// Returns a new tensor equal to `self` but with `rows[i]` replaced
    /// by `src[i]` (non-differentiable bulk row write used for cache
    /// population and memory updates outside the autograd graph).
    ///
    /// # Panics
    ///
    /// Panics on row index out of bounds or row-length mismatch.
    pub fn rows_written(&self, rows: &[usize], src: &Tensor) -> Tensor {
        let row_len: usize = self.dims()[1..].iter().product();
        let _prof = tgl_obs::profile::op("rows_written")
            .io(4 * (self.numel() + src.numel()) as u64, 4 * self.numel() as u64)
            .shape(&[self.dims(), src.dims()]);
        assert_eq!(
            src.numel(),
            rows.len() * row_len,
            "rows_written source size mismatch"
        );
        let mut data = self.to_vec();
        let s = src.inner.storage.read();
        for (k, &r) in rows.iter().enumerate() {
            assert!(r < self.dim(0), "row {r} out of bounds");
            data[r * row_len..(r + 1) * row_len]
                .copy_from_slice(&s[k * row_len..(k + 1) * row_len]);
        }
        drop(s);
        Tensor::from_vec_on(data, self.shape().clone(), self.device())
    }
}

/// The gradient of gathering rows `idx` of an `n`-element table of
/// `row_len`-wide rows: a zeroed table with row `k` of `go` added into
/// row `idx[k]`, whole rows with `k` ascending, so each element sums
/// its contributions in the order the gather read them. One entry into
/// the active SIMD level for all the rows.
pub(crate) fn scatter_add_rows(go: &[f32], idx: &[usize], row_len: usize, n: usize, device: Device) -> Vec<f32> {
    let mut g = pool::take_zeroed(n, device);
    kernel::add_rows(&mut g, go, row_len, |k| idx[k]);
    g
}

/// Concatenates tensors along dimension `dim`.
///
/// All inputs must share rank, every non-`dim` dimension, and device.
/// Differentiable: gradients are split back per input.
///
/// # Panics
///
/// Panics on empty input, mismatched shapes, or mixed devices.
///
/// # Examples
///
/// ```
/// use tgl_tensor::{ops::cat, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2]);
/// let b = Tensor::from_vec(vec![3.0, 4.0], [1, 2]);
/// assert_eq!(cat(&[a.clone(), b.clone()], 0).dims(), &[2, 2]);
/// assert_eq!(cat(&[a, b], 1).dims(), &[1, 4]);
/// ```
pub fn cat(tensors: &[Tensor], dim: usize) -> Tensor {
    assert!(!tensors.is_empty(), "cat of zero tensors");
    let first = &tensors[0];
    let rank = first.rank();
    assert!(dim < rank, "cat dim {dim} out of range for rank {rank}");
    for t in tensors {
        assert_eq!(t.rank(), rank, "cat rank mismatch");
        assert_eq!(t.device(), first.device(), "cat device mismatch");
        for d in 0..rank {
            if d != dim {
                assert_eq!(
                    t.dim(d),
                    first.dim(d),
                    "cat non-concat dim {d} mismatch: {} vs {}",
                    t.shape(),
                    first.shape()
                );
            }
        }
    }

    let outer: usize = first.dims()[..dim].iter().product();
    let inner: usize = first.dims()[dim + 1..].iter().product();
    let cat_sizes: Vec<usize> = tensors.iter().map(|t| t.dim(dim)).collect();
    let total_cat: usize = cat_sizes.iter().sum();

    // Only inputs on the autograd graph get their slice of the gradient
    // split back out (raw feature tensors concatenated in do not).
    let needs: Vec<bool> = tensors.iter().map(Tensor::requires_grad_flag).collect();
    let moved = 4 * (outer * total_cat * inner) as u64;
    let moved_back: u64 =
        tensors.iter().zip(&needs).map(|(t, &need)| if need { 4 * t.numel() as u64 } else { 0 }).sum();
    let _prof = tgl_obs::profile::op("cat")
        .io(moved, moved)
        .shape(&[first.dims(), &[tensors.len()]])
        .backward_cost(0, moved_back, moved_back);

    let mut out_dims = first.dims().to_vec();
    out_dims[dim] = total_cat;
    let out_shape = Shape::new(out_dims);
    let device = first.device();
    // The inputs tile the output exactly, so every element is written.
    let mut out = pool::take_uninit(out_shape.numel(), device);

    // Row by row, each input's contiguous (mid*inner) chunk in turn:
    // the output is written front to back exactly once.
    let data: Vec<_> = tensors.iter().map(|t| t.inner.storage.read()).collect();
    let mut dst = 0;
    for o in 0..outer {
        for (d, &sz) in data.iter().zip(&cat_sizes) {
            let chunk = sz * inner;
            out[dst..dst + chunk].copy_from_slice(&d[o * chunk..(o + 1) * chunk]);
            dst += chunk;
        }
    }
    drop(data);

    Tensor::make_result(out, out_shape, device, tensors, move |go| {
        let mut offset = 0;
        cat_sizes
            .iter()
            .zip(&needs)
            .map(|(&sz, &need)| {
                let start = offset * inner;
                offset += sz;
                need.then(|| {
                    let chunk = sz * inner;
                    let mut g = pool::take_uninit(outer * chunk, device);
                    for o in 0..outer {
                        let src = o * total_cat * inner + start;
                        g[o * chunk..(o + 1) * chunk].copy_from_slice(&go[src..src + chunk]);
                    }
                    g
                })
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::cat;
    use crate::testing::check_gradient;
    use crate::Tensor;

    #[test]
    fn index_select_rows() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 2]);
        let s = t.index_select(&[2, 0, 2]);
        assert_eq!(s.dims(), &[3, 2]);
        assert_eq!(s.to_vec(), vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn index_select_grad_accumulates_duplicates() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).requires_grad(true);
        let s = t.index_select(&[1, 1, 2]);
        s.sum_all().backward();
        assert_eq!(t.grad().unwrap(), vec![0.0, 2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_select_oob_panics() {
        Tensor::zeros([2, 2]).index_select(&[5]);
    }

    #[test]
    fn narrow_rows() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]);
        assert_eq!(t.narrow_rows(1, 2).to_vec(), vec![2.0, 3.0]);
    }

    #[test]
    fn rows_written_replaces() {
        let t = Tensor::zeros([3, 2]);
        let src = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let w = t.rows_written(&[2, 0], &src);
        assert_eq!(w.to_vec(), vec![3.0, 4.0, 0.0, 0.0, 1.0, 2.0]);
        // original untouched
        assert_eq!(t.to_vec(), vec![0.0; 6]);
    }

    #[test]
    fn cat_dim0() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], [2, 2]);
        let c = cat(&[a, b], 0);
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn cat_dim1() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![9.0, 8.0], [2, 1]);
        let c = cat(&[a, b], 1);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
    }

    #[test]
    fn cat_grad_splits() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2]).requires_grad(true);
        let b = Tensor::from_vec(vec![3.0, 4.0], [1, 2]).requires_grad(true);
        cat(&[a.clone(), b.clone()], 1)
            .mul(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 4]))
            .sum_all()
            .backward();
        assert_eq!(a.grad().unwrap(), vec![1.0, 2.0]);
        assert_eq!(b.grad().unwrap(), vec![3.0, 4.0]);
    }

    #[test]
    fn cat_gradcheck_dim1() {
        let a = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1], [2, 2]).requires_grad(true);
        let b = Tensor::from_vec(vec![1.0, -2.0], [2, 1]);
        check_gradient(
            &a,
            |t| cat(&[t.clone(), b.clone()], 1).mul_scalar(2.0).sum_all(),
            1e-2,
        );
    }

    #[test]
    #[should_panic(expected = "non-concat dim")]
    fn cat_shape_mismatch_panics() {
        cat(&[Tensor::zeros([1, 2]), Tensor::zeros([1, 3])], 0);
    }

    #[test]
    fn index_select_gradcheck() {
        let t = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, 0.7, -0.3], [3, 2]).requires_grad(true);
        check_gradient(
            &t,
            |x| x.index_select(&[0, 2, 2]).mul_scalar(1.5).sum_all(),
            1e-2,
        );
    }
}
