//! Tensor operators.
//!
//! All operators are differentiable unless documented otherwise; each
//! builds a backward node when gradient tracking is active. Kernels run
//! on the CPU regardless of the tensor's device tag (the simulated
//! accelerator shares the host's compute; see `tgl-device`).

mod binary;
mod fused;
pub(crate) mod gemm;
mod index;
mod inplace;
mod matmul;
mod reduce;
pub mod segment;
mod shape_ops;
mod unary;

pub use fused::{gru_gates, time_encode};
pub use index::cat;
pub use inplace::AdamStep;
pub use matmul::{linear_cat, Part};
pub use segment::{edge_attention, segment_max, segment_mean, segment_softmax, segment_sum};

use crate::Tensor;
use tgl_device::Device;

/// Writes the transpose of row-major `src[rows, cols]` into
/// `dst[cols, rows]` (every element of `dst` is written).
pub(crate) fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert!(src.len() == rows * cols && dst.len() == rows * cols, "transpose size mismatch");
    for (i, row) in src.chunks_exact(cols.max(1)).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            dst[j * rows + i] = v;
        }
    }
}

/// Asserts that two op operands live on the same device and returns it.
pub(crate) fn same_device(a: &Tensor, b: &Tensor) -> Device {
    assert_eq!(
        a.device(),
        b.device(),
        "operands must be on the same device ({} vs {})",
        a.device(),
        b.device()
    );
    a.device()
}
