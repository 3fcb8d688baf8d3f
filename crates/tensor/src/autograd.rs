//! Reverse-mode automatic differentiation.
//!
//! The graph is a DAG of [`Node`]s built append-only during the forward
//! pass: every op result that requires gradient carries a node holding
//! its input tensors and a backward closure. Because tensor ids increase
//! monotonically with creation, visiting pending tensors in decreasing
//! id order is a valid reverse-topological order, so backward is a
//! simple priority sweep with gradient accumulation.

use std::cell::Cell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::tensor::Tensor;

/// Maps an op's output gradient to one optional gradient per input.
pub(crate) type BackwardFn = Box<dyn Fn(&[f32]) -> Vec<Option<Vec<f32>>> + Send + Sync>;

/// A backward-graph node: the op's inputs plus a closure mapping the
/// output gradient to per-input gradients.
pub(crate) struct Node {
    pub(crate) inputs: Vec<Tensor>,
    /// `None` marks an identity node (the reshape family): one input
    /// with the output's element count, whose gradient *is* the output
    /// gradient — the sweep hands the owned buffer through uncopied.
    pub(crate) backward: Option<BackwardFn>,
    /// Forward op that created this node (`"op"` when the profiler was
    /// off at build time) plus the analytic cost of the backward pass,
    /// both captured from the profiler frame via
    /// [`tgl_obs::profile::node_info`].
    pub(crate) op: &'static str,
    pub(crate) bwd_flops: u64,
    pub(crate) bwd_read: u64,
    pub(crate) bwd_write: u64,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Node(inputs={})", self.inputs.len())
    }
}

thread_local! {
    static GRAD_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Whether ops created on this thread currently record backward nodes.
pub(crate) fn grad_enabled() -> bool {
    GRAD_ENABLED.with(|c| c.get())
}

/// RAII guard that disables gradient tracking on the current thread for
/// its lifetime. Obtained from [`no_grad`].
#[derive(Debug)]
pub struct NoGradGuard {
    prev: bool,
}

impl Drop for NoGradGuard {
    fn drop(&mut self) {
        GRAD_ENABLED.with(|c| c.set(self.prev));
    }
}

/// Disables gradient tracking until the returned guard is dropped.
///
/// Used for inference passes where building the backward graph would
/// waste time and memory.
///
/// # Examples
///
/// ```
/// use tgl_tensor::{no_grad, Tensor};
///
/// let x = Tensor::ones([2]).requires_grad(true);
/// let y = {
///     let _guard = no_grad();
///     x.mul(&x)
/// };
/// assert!(!y.requires_grad_flag());
/// ```
pub fn no_grad() -> NoGradGuard {
    let prev = GRAD_ENABLED.with(|c| c.replace(false));
    NoGradGuard { prev }
}

impl Tensor {
    /// Runs backpropagation from a scalar tensor, accumulating gradients
    /// into every reachable leaf with `requires_grad`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not a single element.
    pub fn backward(&self) {
        assert_eq!(
            self.numel(),
            1,
            "backward() requires a scalar; use backward_with for non-scalars"
        );
        self.backward_with(vec![1.0]);
    }

    /// Runs backpropagation seeding this tensor's gradient with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `seed.len() != numel()`.
    pub fn backward_with(&self, seed: Vec<f32>) {
        assert_eq!(seed.len(), self.numel(), "seed gradient length mismatch");
        // Pending gradients keyed by tensor id; BTreeMap lets us pop the
        // largest id, i.e. the most recently created tensor, which is a
        // valid reverse-topological order for an append-only DAG.
        let mut pending: BTreeMap<u64, (Tensor, Vec<f32>)> = BTreeMap::new();
        pending.insert(self.id(), (self.clone(), seed));

        while let Some((_, (tensor, grad))) = pending.pop_last() {
            let Some(node) = &tensor.inner.grad_fn else {
                if tensor.inner.requires_grad {
                    tensor.accumulate_grad_owned(grad);
                } else {
                    crate::pool::give(grad, tensor.device());
                }
                continue;
            };
            let prof =
                tgl_obs::profile::op_backward(node.op, node.bwd_flops, node.bwd_read, node.bwd_write);
            let Some(backward) = &node.backward else {
                add_pending(&mut pending, &node.inputs[0], grad);
                continue;
            };
            let input_grads = backward(&grad);
            drop(prof);
            assert_eq!(
                input_grads.len(),
                node.inputs.len(),
                "backward closure returned wrong number of gradients"
            );
            for (input, g) in node.inputs.iter().zip(input_grads) {
                if let Some(g) = g {
                    add_pending(&mut pending, input, g);
                }
            }
            // The output gradient this node consumed is dead now.
            crate::pool::give(grad, tensor.device());
        }
    }
}

/// Adds the owned gradient `g` to `input`'s pending gradient (recycling
/// `g` once summed in, or at once when `input` takes no gradient).
fn add_pending(pending: &mut BTreeMap<u64, (Tensor, Vec<f32>)>, input: &Tensor, g: Vec<f32>) {
    if !input.inner.requires_grad {
        return crate::pool::give(g, input.device());
    }
    assert_eq!(g.len(), input.numel(), "gradient shape mismatch for input {}", input.shape());
    match pending.entry(input.id()) {
        Entry::Occupied(mut e) => {
            for (a, b) in e.get_mut().1.iter_mut().zip(&g) {
                *a += b;
            }
            crate::pool::give(g, input.device());
        }
        Entry::Vacant(e) => {
            e.insert((input.clone(), g));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_grad_guard_restores() {
        assert!(grad_enabled());
        {
            let _g = no_grad();
            assert!(!grad_enabled());
            {
                let _g2 = no_grad();
                assert!(!grad_enabled());
            }
            assert!(!grad_enabled());
        }
        assert!(grad_enabled());
    }

    #[test]
    fn backward_through_shared_input_accumulates() {
        // y = x + x  =>  dy/dx = 2
        let x = Tensor::from_vec(vec![3.0], [1]).requires_grad(true);
        let y = x.add(&x);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![2.0]);
    }

    #[test]
    fn backward_diamond_graph() {
        // z = (x*x) + (x*2); dz/dx = 2x + 2 = 8 at x=3
        let x = Tensor::from_vec(vec![3.0], [1]).requires_grad(true);
        let a = x.mul(&x);
        let b = x.mul_scalar(2.0);
        let z = a.add(&b);
        z.sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![8.0]);
    }

    #[test]
    fn grad_accumulates_across_backward_calls() {
        let x = Tensor::from_vec(vec![1.0], [1]).requires_grad(true);
        let y = x.mul_scalar(3.0);
        y.sum_all().backward();
        let y2 = x.mul_scalar(3.0);
        y2.sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![6.0]);
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn no_grad_skips_graph() {
        let x = Tensor::from_vec(vec![1.0], [1]).requires_grad(true);
        let _g = no_grad();
        let y = x.mul_scalar(2.0);
        assert!(!y.requires_grad_flag());
    }

    #[test]
    #[should_panic(expected = "requires a scalar")]
    fn backward_non_scalar_panics() {
        Tensor::zeros([2]).requires_grad(true).backward();
    }
}
