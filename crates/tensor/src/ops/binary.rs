//! Broadcasting elementwise binary operators.

use tgl_runtime::{parallel_rows, Chunks, Rows};

use crate::ops::{for_each_chunk, same_device, ELEMWISE_SEQ};
use crate::pool;
use crate::shape::Shape;
use crate::Tensor;

/// Invokes `f(ai, bi)` for every output element of broadcasting `a_dims`
/// against `b_dims`, in row-major output order, passing the flat input
/// indices. Shapes must already be broadcast-compatible. Dispatches on
/// rank with tight nested loops (the general fallback handles rank > 4).
pub(crate) fn broadcast_apply(
    a_dims: &[usize],
    b_dims: &[usize],
    mut f: impl FnMut(usize, usize),
) {
    let rank = a_dims.len().max(b_dims.len());
    // Pad to common rank and compute broadcast-aware strides (0 where
    // a dim is 1).
    let mut od = [1usize; 4];
    let mut sa = [0usize; 4];
    let mut sb = [0usize; 4];
    if rank > 4 {
        return broadcast_apply_general(a_dims, b_dims, f);
    }
    let off = 4 - rank;
    {
        let mut acc = 1usize;
        for i in (0..a_dims.len()).rev() {
            sa[off + (rank - a_dims.len()) + i] = if a_dims[i] == 1 { 0 } else { acc };
            acc *= a_dims[i];
        }
    }
    {
        let mut acc = 1usize;
        for i in (0..b_dims.len()).rev() {
            sb[off + (rank - b_dims.len()) + i] = if b_dims[i] == 1 { 0 } else { acc };
            acc *= b_dims[i];
        }
    }
    for i in 0..rank {
        let ad = a_dims.get(a_dims.len().wrapping_sub(rank - i)).copied().unwrap_or(1);
        let bd = b_dims.get(b_dims.len().wrapping_sub(rank - i)).copied().unwrap_or(1);
        // Broadcast semantics (not max): a 1 takes the other side's
        // extent, including zero-size dims.
        od[off + i] = if ad == 1 { bd } else { ad };
    }
    for i0 in 0..od[0] {
        let (a0, b0) = (i0 * sa[0], i0 * sb[0]);
        for i1 in 0..od[1] {
            let (a1, b1) = (a0 + i1 * sa[1], b0 + i1 * sb[1]);
            for i2 in 0..od[2] {
                let (a2, b2) = (a1 + i2 * sa[2], b1 + i2 * sb[2]);
                if sa[3] == 1 && sb[3] == 1 {
                    for i3 in 0..od[3] {
                        f(a2 + i3, b2 + i3);
                    }
                } else {
                    for i3 in 0..od[3] {
                        f(a2 + i3 * sa[3], b2 + i3 * sb[3]);
                    }
                }
            }
        }
    }
}

fn broadcast_apply_general(a_dims: &[usize], b_dims: &[usize], mut f: impl FnMut(usize, usize)) {
    let a = Shape::new(a_dims.to_vec());
    let b = Shape::new(b_dims.to_vec());
    let out = a.broadcast_with(&b).expect("compatible shapes");
    for (ai, bi) in crate::shape::broadcast_index_iter(&a, &b, &out) {
        f(ai, bi);
    }
}

/// Applies `fwd` elementwise with NumPy broadcasting; `bwd(a, b, go)`
/// returns `(d/da, d/db)` local gradients for one element. `name` and
/// `flops_per_elem` feed the op profiler.
fn binary_elementwise(
    name: &'static str,
    flops_per_elem: u64,
    a: &Tensor,
    b: &Tensor,
    fwd: impl Fn(f32, f32) -> f32 + Sync,
    bwd: impl Fn(f32, f32, f32) -> (f32, f32) + Send + Sync + 'static,
) -> Tensor {
    let device = same_device(a, b);
    let out_shape = a
        .shape()
        .broadcast_with(b.shape())
        .unwrap_or_else(|| panic!("shapes {} and {} do not broadcast", a.shape(), b.shape()));

    let n = out_shape.numel() as u64;
    let (an, bn) = (a.numel() as u64, b.numel() as u64);
    let _prof = tgl_obs::profile::op(name)
        .flops(flops_per_elem * n)
        .io(4 * (an + bn), 4 * n)
        .shape(&[a.dims(), b.dims()])
        // Backward produces one local gradient per input element from
        // the upstream grad and both operands.
        .backward_cost(2 * n, 4 * (an + bn + n), 4 * (an + bn));

    let a_data = a.inner.storage.read();
    let b_data = b.inner.storage.read();
    // Every output element is written below, so recycled pool memory
    // needs no zero pass.
    let mut out = pool::take_uninit(out_shape.numel(), device);
    if a.shape() == b.shape() {
        // Fast path: identical shapes — chunked across the pool.
        let (a_data, b_data, fwd) = (&a_data, &b_data, &fwd);
        for_each_chunk(&mut out, |r, o| {
            for (k, i) in r.enumerate() {
                o[k] = fwd(a_data[i], b_data[i]);
            }
        });
    } else {
        let mut oi = 0;
        broadcast_apply(a.dims(), b.dims(), |ai, bi| {
            out[oi] = fwd(a_data[ai], b_data[bi]);
            oi += 1;
        });
    }
    drop(a_data);
    drop(b_data);

    let (a_c, b_c) = (a.clone(), b.clone());
    let same = a.shape() == b.shape();
    let (a_dims, b_dims) = (a.dims().to_vec(), b.dims().to_vec());
    let (a_n, b_n) = (a.numel(), b.numel());
    let (need_a, need_b) = (a.requires_grad_flag(), b.requires_grad_flag());
    Tensor::make_result(out, out_shape, device, &[a.clone(), b.clone()], move |go| {
        let a_data = a_c.inner.storage.read();
        let b_data = b_c.inner.storage.read();
        // Only operands on the autograd graph get a buffer. Same-shape
        // gradients are fully overwritten; broadcast gradients
        // accumulate with `+=` and must start zeroed.
        let take = |need: bool, n: usize| {
            need.then(|| if same { pool::take_uninit(n, device) } else { pool::take_zeroed(n, device) })
        };
        let (mut ga, mut gb) = (take(need_a, a_n), take(need_b, b_n));
        // An absent gradient is an empty slice below: `get_mut` then
        // skips the store for the price of the bounds check an index
        // would pay anyway, so the loops stay branch-for-branch what
        // they were when both buffers always existed.
        if same {
            let (a_data, b_data, bwd) = (&a_data, &b_data, &bwd);
            let outs = (ga.as_deref_mut().map(|g| Rows::width(g, 1)), gb.as_deref_mut().map(|g| Rows::width(g, 1)));
            parallel_rows(a_n, Chunks::Auto(ELEMWISE_SEQ), outs, |r, (gar, gbr)| {
                let (gar, gbr) = (gar.unwrap_or_default(), gbr.unwrap_or_default());
                for (k, i) in r.enumerate() {
                    let (da, db) = bwd(a_data[i], b_data[i], go[i]);
                    if let Some(g) = gar.get_mut(k) {
                        *g = da;
                    }
                    if let Some(g) = gbr.get_mut(k) {
                        *g = db;
                    }
                }
            });
        } else {
            let ga_s: &mut [f32] = ga.as_deref_mut().unwrap_or_default();
            let gb_s: &mut [f32] = gb.as_deref_mut().unwrap_or_default();
            let mut oi = 0;
            broadcast_apply(&a_dims, &b_dims, |ai, bi| {
                let (da, db) = bwd(a_data[ai], b_data[bi], go[oi]);
                if let Some(g) = ga_s.get_mut(ai) {
                    *g += da;
                }
                if let Some(g) = gb_s.get_mut(bi) {
                    *g += db;
                }
                oi += 1;
            });
        }
        vec![ga, gb]
    })
}

impl Tensor {
    /// Elementwise addition with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if shapes do not broadcast or devices differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        binary_elementwise("add", 1, self, other, |x, y| x + y, |_, _, g| (g, g))
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        binary_elementwise("sub", 1, self, other, |x, y| x - y, |_, _, g| (g, -g))
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        binary_elementwise("mul", 1, self, other, |x, y| x * y, |x, y, g| (g * y, g * x))
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &Tensor) -> Tensor {
        binary_elementwise(
            "div",
            1,
            self,
            other,
            |x, y| x / y,
            |x, y, g| (g / y, -g * x / (y * y)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{assert_close, check_gradient};

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], [2]);
        assert_eq!(a.add(&b).to_vec(), vec![11.0, 22.0]);
    }

    #[test]
    fn add_broadcast_row() {
        // [2,3] + [3]
        let a = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0], [2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        assert_eq!(a.add(&b).to_vec(), vec![1.0, 2.0, 3.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn mul_broadcast_column() {
        // [2,1] * [3] -> [2,3]
        let a = Tensor::from_vec(vec![2.0, 3.0], [2, 1]);
        let b = Tensor::from_vec(vec![1.0, 10.0, 100.0], [3]);
        assert_eq!(
            a.mul(&b).to_vec(),
            vec![2.0, 20.0, 200.0, 3.0, 30.0, 300.0]
        );
    }

    #[test]
    fn broadcast_rank3_per_row_scalar() {
        // [2,2,2] * [2,2,1]
        let a = Tensor::from_vec((1..=8).map(|v| v as f32).collect(), [2, 2, 2]);
        let b = Tensor::from_vec(vec![1.0, 10.0, 100.0, 1000.0], [2, 2, 1]);
        assert_eq!(
            a.mul(&b).to_vec(),
            vec![1.0, 2.0, 30.0, 40.0, 500.0, 600.0, 7000.0, 8000.0]
        );
    }

    #[test]
    fn broadcast_rank4() {
        let a = Tensor::ones([2, 1, 2, 1]);
        let b = Tensor::from_vec(vec![1.0, 2.0], [1, 2, 1, 1]);
        let out = a.mul(&b);
        assert_eq!(out.dims(), &[2, 2, 2, 1]);
        assert_eq!(out.to_vec(), vec![1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn sub_div_values() {
        let a = Tensor::from_vec(vec![6.0, 9.0], [2]);
        let b = Tensor::from_vec(vec![2.0, 3.0], [2]);
        assert_eq!(a.sub(&b).to_vec(), vec![4.0, 6.0]);
        assert_eq!(a.div(&b).to_vec(), vec![3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "do not broadcast")]
    fn incompatible_shapes_panic() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4]);
        a.add(&b);
    }

    #[test]
    fn add_grad_reduces_over_broadcast_dims() {
        // b is broadcast over rows; its gradient sums the rows.
        let a = Tensor::zeros([2, 3]).requires_grad(true);
        let b = Tensor::zeros([3]).requires_grad(true);
        a.add(&b).sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![1.0; 6]);
        assert_eq!(b.grad().unwrap(), vec![2.0; 3]);
    }

    #[test]
    fn mul_gradcheck() {
        let x = Tensor::from_vec(vec![0.5, -1.5, 2.0, 0.25], [2, 2]).requires_grad(true);
        let c = Tensor::from_vec(vec![2.0, 3.0], [2]);
        check_gradient(&x, |t| t.mul(&c).sum_all(), 1e-2);
    }

    #[test]
    fn broadcast_grad_column_times_row() {
        let a = Tensor::from_vec(vec![2.0, 3.0], [2, 1]).requires_grad(true);
        let b = Tensor::from_vec(vec![1.0, 10.0], [2]).requires_grad(true);
        a.mul(&b).sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![11.0, 11.0]);
        assert_eq!(b.grad().unwrap(), vec![5.0, 5.0]);
    }

    #[test]
    fn div_gradcheck() {
        let x = Tensor::from_vec(vec![1.0, 2.0, -3.0], [3]).requires_grad(true);
        let c = Tensor::from_vec(vec![2.0, 4.0, 5.0], [3]);
        check_gradient(&x, |t| t.div(&c).sum_all(), 1e-2);
        let y = Tensor::from_vec(vec![2.0, 4.0, 5.0], [3]).requires_grad(true);
        let n = Tensor::from_vec(vec![1.0, 2.0, -3.0], [3]);
        check_gradient(&y, |t| n.div(t).sum_all(), 1e-2);
    }

    #[test]
    fn scalar_broadcast() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let s = Tensor::scalar(10.0);
        assert_close(&a.mul(&s).to_vec(), &[10.0, 20.0], 0.0);
    }

    #[test]
    fn zero_size_dims_broadcast_to_empty() {
        let a = Tensor::zeros([0, 1]);
        let b = Tensor::ones([16]);
        let out = a.mul(&b);
        assert_eq!(out.dims(), &[0, 16]);
        assert_eq!(out.numel(), 0);
    }

    #[test]
    fn fast_and_general_paths_agree() {
        // broadcast_apply (fast nested loops) vs the iterator fallback.
        use crate::shape::broadcast_index_iter;
        for (a_dims, b_dims) in [
            (vec![3usize, 1, 2], vec![4usize, 1]),
            (vec![2, 3], vec![3]),
            (vec![5], vec![1]),
            (vec![2, 2, 2], vec![2, 2, 1]),
        ] {
            let a = Shape::new(a_dims.clone());
            let b = Shape::new(b_dims.clone());
            let out = a.broadcast_with(&b).unwrap();
            let expected: Vec<(usize, usize)> = broadcast_index_iter(&a, &b, &out).collect();
            let mut got = Vec::new();
            broadcast_apply(&a_dims, &b_dims, |ai, bi| got.push((ai, bi)));
            assert_eq!(got, expected, "shapes {a_dims:?} vs {b_dims:?}");
        }
    }
}
