//! Matrix multiplication and the affine layer.
//!
//! The kernels live in [`crate::ops::gemm`]: cache-blocked,
//! output-row-partitioned, and bitwise invariant across thread counts.
//! Output and gradient buffers are drawn from the tensor pool
//! (`take_uninit`: the kernels overwrite their output), and backward
//! runs only the products whose operand needs a gradient.

use crate::kernel;
use crate::ops::fused::{bias_act_rows, relu_mask_bwd};
use crate::ops::gemm::{mm_nn, mm_nn_cols, mm_nt, mm_nt_then, mm_tn, Mat};
use crate::ops::index::PartGrad;
use crate::ops::{same_device, transpose_into};
use crate::pool::{self, PooledBuf};
use crate::Tensor;

impl Tensor {
    /// 2-D matrix product `self[m,k] @ other[k,n] -> [m,n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-2 with matching inner
    /// dimensions on the same device.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let device = same_device(self, other);
        assert_eq!(self.rank(), 2, "matmul lhs must be rank-2, got {}", self.shape());
        assert_eq!(other.rank(), 2, "matmul rhs must be rank-2, got {}", other.shape());
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (other.dim(0), other.dim(1));
        assert_eq!(k, k2, "matmul inner dims differ: {} vs {}", self.shape(), other.shape());

        // Backward runs one GEMM per operand that needs a gradient
        // (dA = dC·Bᵀ reads B, dB = Aᵀ·dC reads A, both read dC).
        let (need_a, need_b) = (self.requires_grad_flag(), other.requires_grad_flag());
        let (wa, wb) = (need_a as usize, need_b as usize);
        let _prof = tgl_obs::profile::op("matmul")
            .flops(2 * (m * k * n) as u64)
            .io(4 * (m * k + k * n) as u64, 4 * (m * n) as u64)
            .shape(&[&[m, k], &[k, n]])
            .backward_cost(
                2 * ((wa + wb) * m * k * n) as u64,
                4 * (m * n + wa * k * n + wb * m * k) as u64,
                4 * (wa * m * k + wb * k * n) as u64,
            );
        let mut c = pool::take_uninit(m * n, device);
        {
            let a = self.inner.storage.read();
            let b = other.inner.storage.read();
            mm_nn(&a, &b, &mut c, m, k, n);
        }

        let (a_t, b_t) = (self.clone(), other.clone());
        Tensor::make_result(c, [m, n], device, &[self.clone(), other.clone()], move |go| {
            // dA = dC · Bᵀ ; dB = Aᵀ · dC
            let ga = need_a.then(|| {
                let mut ga = pool::take_uninit(m * k, a_t.device());
                mm_nt(go, &b_t.inner.storage.read(), &mut ga, m, n, k);
                ga
            });
            let gb = need_b.then(|| {
                let mut gb = pool::take_uninit(k * n, b_t.device());
                mm_tn(&[Mat::whole(&a_t.inner.storage.read(), k)], go, n, &mut gb, m, n);
                gb
            });
            vec![ga, gb]
        })
    }

    /// The affine layer as one op: `self[m,k] · weight[n,k]ᵀ + bias[n]`,
    /// then ReLU when `relu` is set: [`linear_cat`] over one part.
    ///
    /// # Panics
    ///
    /// As [`linear_cat`].
    pub fn linear(&self, weight: &Tensor, bias: Option<&Tensor>, relu: bool) -> Tensor {
        linear_cat(&[self], weight, bias, relu)
    }
}

/// One column block of [`linear_cat`]'s input, `m` rows of `k_p`
/// columns.
#[derive(Debug, Clone, Copy)]
pub enum Part<'a> {
    /// A `[m, k_p]` tensor.
    Whole(&'a Tensor),
    /// Rows of a `[R, k_p]` table: row `r` of the part is row `rows[r]`
    /// of the table. The GEMM reads them where they lie; values and
    /// gradients are those of `table.index_select(rows)` as a whole
    /// part.
    Rows(&'a Tensor, &'a [usize]),
}

impl<'a> From<&'a Tensor> for Part<'a> {
    fn from(x: &'a Tensor) -> Part<'a> {
        Part::Whole(x)
    }
}

impl<'a> Part<'a> {
    /// The tensor the part reads.
    pub(crate) fn tensor(&self) -> &'a Tensor {
        match *self {
            Part::Whole(x) | Part::Rows(x, _) => x,
        }
    }

    /// The table rows the part names, if it is indexed.
    pub(crate) fn index(&self) -> Option<&'a [usize]> {
        match *self {
            Part::Whole(_) => None,
            Part::Rows(_, rows) => Some(rows),
        }
    }

    /// The part's row count `m`.
    pub(crate) fn len(&self) -> usize {
        self.index().map_or_else(|| self.tensor().dim(0), <[usize]>::len)
    }
}

/// Runs `f` on `xs` as the GEMM's left operand takes them: each part's
/// data and row length, and its row index where it has one.
pub(crate) fn with_parts<R>(xs: &[Tensor], index: &[Option<&[usize]>], f: impl FnOnce(&[Mat<'_>]) -> R) -> R {
    let data: Vec<_> = xs.iter().map(|x| x.inner.storage.read()).collect();
    let parts: Vec<Mat<'_>> = data
        .iter()
        .zip(xs)
        .zip(index)
        .map(|((d, x), rows)| match rows {
            None => Mat::whole(d, x.dim(1)),
            Some(rows) => Mat::rows(d, x.dim(1), rows),
        })
        .collect();
    f(&parts)
}

/// The affine layer over the column-wise concatenation of `parts`
/// (each `m` rows of `k_p` columns, `Σ k_p = k`; a `&Tensor` is a
/// [`Part::Whole`]), without building it: `[parts₀ ‖ parts₁ ‖ ..] ·
/// weight[n,k]ᵀ + bias[n]`, then ReLU when `relu` is set.
///
/// One GEMM straight on the `[out, in]` weight as stored, whose left
/// operand is the parts read side by side (a [`Part::Rows`] through its
/// index, in the table), with the bias and ReLU applied to each
/// finished row panel. One backward node: `dX_p = dY · W[:, part p]`
/// written into its own buffer (only for parts on the graph; an indexed
/// part's rows then scatter-add into its table's shape in ascending
/// row order, as `index_select`'s backward does, and a run of
/// consecutive table rows is written there in place, as `narrow_rows`'
/// backward does), `dW = dYᵀ·X` with
/// each part supplying its rows of one `[in, out]` scratch, `db` =
/// column sums of `dY` (rows ascending), where `dY` is first masked by
/// `y > 0` under ReLU. Every output and gradient element is computed
/// with the roundings, in the order, of
/// `cat(parts, 1).matmul(&weight.transpose()).add(bias)`
/// (`.add_relu(bias)`) with each indexed part gathered first: an
/// output element's products ascend through the concatenated reduction
/// index whichever part they come from.
///
/// # Panics
///
/// Panics unless every part's tensor and `weight` are rank-2, the parts
/// share their row count, an indexed part's rows lie in its table,
/// their widths add up to `weight.dim(1)`, `bias` (if any) is rank-1 of
/// `weight.dim(0)` elements, and all live on one device.
pub fn linear_cat<'a>(
    parts: &[impl Into<Part<'a>> + Copy],
    weight: &Tensor,
    bias: Option<&Tensor>,
    relu: bool,
) -> Tensor {
    let parts: Vec<Part<'a>> = parts.iter().map(|&part| part.into()).collect();
    linear_parts(&parts, weight, bias, relu)
}

/// [`linear_cat`] once its parts are [`Part`]s.
fn linear_parts(parts: &[Part<'_>], weight: &Tensor, bias: Option<&Tensor>, relu: bool) -> Tensor {
    let first = parts.first().expect("linear over zero parts").tensor();
    let device = same_device(first, weight);
    assert_eq!(weight.rank(), 2, "linear weight must be rank-2, got {}", weight.shape());
    let m = parts[0].len();
    for part in parts {
        let x = part.tensor();
        assert_eq!(x.rank(), 2, "linear input must be rank-2, got {}", x.shape());
        assert_eq!(part.len(), m, "linear parts differ in rows: {} vs {m}", part.len());
        same_device(x, weight);
    }
    let widths: Vec<usize> = parts.iter().map(|part| part.tensor().dim(1)).collect();
    let (k, n) = (widths.iter().sum::<usize>(), weight.dim(0));
    assert_eq!(
        k,
        weight.dim(1),
        "linear inner dims differ: parts of {widths:?} columns vs {}",
        weight.shape()
    );
    if let Some(b) = bias {
        assert_eq!(b.dims(), &[n], "linear bias must be [{n}], got {}", b.shape());
        same_device(first, b);
    }
    // Part p is columns `cols[p]..cols[p] + widths[p]` of the input.
    let cols: Vec<usize> =
        widths.iter().scan(0, |col, &kp| Some(std::mem::replace(col, *col + kp))).collect();

    let need_x: Vec<bool> = parts.iter().map(|part| part.tensor().requires_grad_flag()).collect();
    let need_w = weight.requires_grad_flag();
    let need_b = bias.is_some_and(Tensor::requires_grad_flag);
    // Input columns whose gradient backward computes.
    let kx: usize = widths.iter().zip(&need_x).map(|(&kp, &need)| kp * need as usize).sum();
    let (ww, wb) = (need_w as usize, need_b as usize);
    let epilogue_elems = (bias.is_some() as usize + relu as usize) * m * n;
    let dims: Vec<[usize; 2]> = widths.iter().map(|&kp| [m, kp]).collect();
    let mut shapes: Vec<&[usize]> = dims.iter().map(|d| &d[..]).collect();
    shapes.push(weight.dims());
    let _prof = tgl_obs::profile::op("linear")
        .flops((2 * m * k * n + epilogue_elems) as u64)
        .io(
            4 * (m * k + n * k + bias.map_or(0, Tensor::numel)) as u64,
            4 * (m * n * (1 + relu as usize)) as u64,
        )
        .shape(&shapes)
        .backward_cost(
            (2 * m * (kx + ww * k) * n + (wb + relu as usize) * m * n) as u64,
            4 * (m * n * (1 + relu as usize) + n * kx + ww * m * k) as u64,
            4 * (m * kx + ww * n * k + wb * n) as u64,
        );
    let xs: Vec<Tensor> = parts.iter().map(|part| part.tensor().clone()).collect();
    let index: Vec<Option<&[usize]>> = parts.iter().map(Part::index).collect();
    let mut y = pool::take_uninit(m * n, device);
    {
        let w = weight.inner.storage.read();
        let b = bias.map(|b| b.inner.storage.read());
        let b = b.as_deref().map(Vec::as_slice);
        let finish = |rows: &mut [f32]| bias_act_rows(rows, n, b, relu);
        with_parts(&xs, &index, |xs| mm_nt_then(xs, &w, &mut y, m, n, &finish));
    }

    // Only a backward node needs the ReLU mask (recoverable from the
    // output alone) and its own copy of the row indices.
    let tracked = crate::autograd::grad_enabled() && (need_x.contains(&true) || need_w || need_b);
    let y_copy = (relu && tracked).then(|| {
        let mut c = pool::take_uninit(m * n, device);
        c.copy_from_slice(&y);
        PooledBuf::new(c, device)
    });
    let index: Vec<Option<Vec<usize>>> =
        index.iter().map(|rows| rows.filter(|_| tracked).map(<[usize]>::to_vec)).collect();
    let w_t = weight.clone();
    let mut inputs = xs.clone();
    inputs.push(weight.clone());
    inputs.extend(bias.cloned());
    let has_bias = bias.is_some();
    Tensor::make_result(y, [m, n], device, &inputs, move |go| {
        let masked = y_copy.as_ref().map(|y| {
            let mut g = pool::take_uninit(m * n, device);
            relu_mask_bwd(&mut g, go, y);
            PooledBuf::new(g, device)
        });
        let dy: &[f32] = masked.as_deref().unwrap_or(go);
        let mut grads: Vec<Option<Vec<f32>>> = (0..xs.len())
            .map(|p| {
                need_x[p].then(|| {
                    let mut gx = PartGrad::new(index[p].as_deref(), m, widths[p], xs[p].numel(), device);
                    let w = w_t.inner.storage.read();
                    mm_nn_cols(Mat::whole(dy, n), &w[cols[p]..], k, gx.rows(), m, widths[p]);
                    gx.finish()
                })
            })
            .collect();
        grads.push(need_w.then(|| {
            // dW = dYᵀ·X, computed as (Xᵀ·dY)ᵀ: the product with
            // the narrower packed operand (`n <= k` columns of dY
            // per worker instead of all of X), each part supplying its
            // rows of the small `[k, n]` result, then one transpose.
            // Same products, same row-ascending order per element.
            let mut gwt = pool::take_uninit(k * n, device);
            let index: Vec<Option<&[usize]>> = index.iter().map(Option::as_deref).collect();
            with_parts(&xs, &index, |xs| mm_tn(xs, dy, n, &mut gwt, m, n));
            let mut gw = pool::take_uninit(n * k, device);
            transpose_into(&gwt, k, n, &mut gw);
            pool::give(gwt, device);
            gw
        }));
        if has_bias {
            grads.push(need_b.then(|| {
                let mut gb = pool::take_zeroed(n, device);
                kernel::add_rows(&mut gb, dy, n, |_| 0);
                gb
            }));
        }
        grads
    })
}

#[cfg(test)]
mod tests {
    use crate::testing::{assert_close, check_gradient};
    use crate::Tensor;

    #[test]
    fn matmul_2x2() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        assert_eq!(a.matmul(&b).to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        // [1,3] x [3,2]
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]);
        let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], [3, 2]);
        assert_eq!(a.matmul(&b).to_vec(), vec![4.0, 5.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![2.0, -1.0, 0.5, 3.0], [2, 2]);
        let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
        assert_eq!(a.matmul(&i).to_vec(), a.to_vec());
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_dim_mismatch_panics() {
        Tensor::zeros([2, 3]).matmul(&Tensor::zeros([4, 2]));
    }

    #[test]
    fn matmul_gradcheck_lhs() {
        let a = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, 0.7, -0.3], [2, 3]).requires_grad(true);
        let b = Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.5, 0.0, 1.5], [3, 2]);
        check_gradient(&a, |t| t.matmul(&b).sum_all(), 1e-2);
    }

    #[test]
    fn matmul_gradcheck_rhs() {
        let a = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, 0.7, -0.3], [2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.5, 0.0, 1.5], [3, 2]).requires_grad(true);
        check_gradient(&b, |t| a.matmul(t).sum_all(), 1e-2);
    }

    #[test]
    fn matmul_gradcheck_straddles_kc_panel() {
        // k = 257 is one element past two of the blocked kernel's KC=128
        // panels, so the packed forward and the nt/tn backward kernels
        // all walk a partial trailing panel. The analytic gradients must
        // still match central differences there.
        let k = 257;
        let fill = |len: usize, salt: usize| -> Vec<f32> {
            (0..len).map(|i| ((i * 37 + salt) % 101) as f32 / 101.0 - 0.5).collect()
        };
        let a = Tensor::from_vec(fill(2 * k, 3), [2, k]).requires_grad(true);
        let b = Tensor::from_vec(fill(k * 2, 11), [k, 2]);
        check_gradient(&a, |t| t.matmul(&b).sum_all(), 1e-2);
        let a = Tensor::from_vec(fill(2 * k, 3), [2, k]);
        let b = Tensor::from_vec(fill(k * 2, 11), [k, 2]).requires_grad(true);
        check_gradient(&b, |t| a.matmul(t).sum_all(), 1e-2);
    }

    #[test]
    fn linear_known_values_bias_and_relu() {
        // x = [[1, 2], [-1, 0]], W = [[1, 1], [2, -1]] (two outputs), b = [0.5, -4]
        let x = Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.0], [2, 2]);
        let w = Tensor::from_vec(vec![1.0, 1.0, 2.0, -1.0], [2, 2]);
        let b = Tensor::from_vec(vec![0.5, -4.0], [2]);
        assert_eq!(x.linear(&w, None, false).to_vec(), vec![3.0, 0.0, -1.0, -2.0]);
        assert_eq!(x.linear(&w, Some(&b), false).to_vec(), vec![3.5, -4.0, -0.5, -6.0]);
        assert_eq!(x.linear(&w, Some(&b), true).to_vec(), vec![3.5, 0.0, 0.0, 0.0]);
        assert_eq!(Tensor::zeros([0, 2]).linear(&w, Some(&b), true).dims(), &[0, 2]);
    }

    #[test]
    fn linear_relu_masks_every_gradient() {
        let x = Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.0], [2, 2]).requires_grad(true);
        let w = Tensor::from_vec(vec![1.0, 1.0, 2.0, -1.0], [2, 2]).requires_grad(true);
        let b = Tensor::from_vec(vec![0.5, -4.0], [2]).requires_grad(true);
        // Only y[0,0] = 3.5 is positive: gradients see that one cell.
        x.linear(&w, Some(&b), true).sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![1.0, 1.0, 0.0, 0.0]);
        assert_eq!(w.grad().unwrap(), vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(b.grad().unwrap(), vec![1.0, 0.0]);
    }

    #[test]
    fn a_run_of_table_rows_takes_the_gradient_narrow_rows_gives() {
        use crate::ops::{linear_cat, Part};
        let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let table = Tensor::from_vec((0..15).map(|i| (i % 4) as f32 - 1.5).collect(), [5, 3]).requires_grad(true);
        let w = Tensor::from_vec(vec![0.5, -1.0, 0.0, 2.0, 0.25, -0.75], [2, 3]);
        let weights = Tensor::from_vec(vec![1.0, -2.0, 0.0, 3.0, -0.5, 1.5], [3, 2]);
        linear_cat(&[Part::Rows(&table, &[1, 2, 3])], &w, None, false).mul(&weights).sum_all().backward();
        let run = table.grad().expect("the table takes a gradient");
        table.zero_grad();
        table.narrow_rows(1, 3).linear(&w, None, false).mul(&weights).sum_all().backward();
        assert_eq!(bits(run), bits(table.grad().expect("the table takes a gradient")));
    }

    #[test]
    #[should_panic(expected = "linear bias must be")]
    fn linear_bias_shape_mismatch_panics() {
        Tensor::zeros([2, 3]).linear(&Tensor::zeros([4, 3]), Some(&Tensor::zeros([3])), false);
    }

    #[test]
    fn large_matmul_matches_naive() {
        // 700×120 @ 120×50 = 4.2M multiply-adds — large enough to cross
        // the sequential threshold and exercise the pool.
        let (m, k, n) = (700, 120, 50);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.01).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 53 % 97) as f32 - 48.0) * 0.01).collect();
        let got = Tensor::from_vec(a.clone(), [m, k])
            .matmul(&Tensor::from_vec(b.clone(), [k, n]))
            .to_vec();
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    want[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        assert_close(&got, &want, 1e-4);
    }
}
