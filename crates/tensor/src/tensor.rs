//! The [`Tensor`] type: a reference-counted, device-tagged, dense,
//! row-major `f32` array participating in reverse-mode autograd.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tgl_runtime::sync::Mutex;
use tgl_runtime::rng::Rng;
use tgl_device::{Device, DeviceError, TransferKind};

use crate::autograd::{grad_enabled, BackwardFn, Node};
use crate::shape::Shape;
use crate::storage::Storage;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh tensor id (creation-ordered, used by autograd).
pub(crate) fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Panic payload raised when a simulated device allocation fails.
///
/// Mirrors a CUDA out-of-memory abort. Recoverable via
/// `std::panic::catch_unwind` + `payload.downcast_ref::<DeviceOom>()`,
/// which is how the large-scale benchmark reports the paper's Table 7
/// "OOM" entries.
#[derive(Debug, Clone)]
pub struct DeviceOom(pub DeviceError);

pub(crate) struct TensorInner {
    pub(crate) id: u64,
    pub(crate) storage: Arc<Storage>,
    pub(crate) shape: Shape,
    pub(crate) requires_grad: bool,
    pub(crate) grad: Mutex<Option<Vec<f32>>>,
    pub(crate) grad_fn: Option<Arc<Node>>,
}

/// A dense `f32` tensor.
///
/// Cloning is cheap (reference-counted); clones share storage and
/// gradient state. All tensors are contiguous and row-major.
#[derive(Clone)]
pub struct Tensor {
    pub(crate) inner: Arc<TensorInner>,
}

impl Tensor {
    // ---------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------

    /// Creates a host tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Tensor {
        Tensor::from_vec_on(data, shape, Device::Host)
    }

    /// Creates a tensor from raw data on the given device tier.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` mismatches the shape, or with a
    /// [`DeviceOom`] payload if the device is over capacity.
    pub fn from_vec_on(data: Vec<f32>, shape: impl Into<Shape>, device: Device) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor::leaf(Arc::new(Storage::new(data, device)), shape, false)
    }

    /// Creates a scalar (rank-0) host tensor.
    pub fn scalar(value: f32) -> Tensor {
        Tensor::from_vec(vec![value], Shape::scalar())
    }

    /// Creates a zero-filled host tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Tensor {
        Tensor::zeros_on(shape, Device::Host)
    }

    /// Creates a zero-filled tensor on `device`.
    pub fn zeros_on(shape: impl Into<Shape>, device: Device) -> Tensor {
        let shape = shape.into();
        Tensor::from_vec_on(crate::pool::take_zeroed(shape.numel(), device), shape, device)
    }

    /// Creates a one-filled host tensor.
    pub fn ones(shape: impl Into<Shape>) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// Creates a constant-filled host tensor.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Tensor {
        let shape = shape.into();
        let mut data = crate::pool::take_uninit(shape.numel(), Device::Host);
        data.fill(value);
        Tensor::from_vec(data, shape)
    }

    /// Creates a host tensor with elements drawn uniformly from
    /// `[lo, hi)` using the supplied RNG (callers control determinism).
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor::from_vec(data, shape)
    }

    /// Creates a host tensor with standard-normal elements
    /// (Box–Muller over the supplied RNG).
    pub fn randn(shape: impl Into<Shape>, rng: &mut impl Rng) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos());
            if data.len() < n {
                data.push(r * theta.sin());
            }
        }
        Tensor::from_vec(data, shape)
    }

    fn leaf(storage: Arc<Storage>, shape: Shape, requires_grad: bool) -> Tensor {
        Tensor {
            inner: Arc::new(TensorInner {
                id: next_id(),
                storage,
                shape,
                requires_grad,
                grad: Mutex::new(None),
                grad_fn: None,
            }),
        }
    }

    /// Builds an op result, attaching a backward node when gradient
    /// tracking is active and any input requires grad.
    ///
    /// The backward closure receives the output gradient and must return
    /// one optional gradient buffer per input (in order, with the
    /// input's own element count).
    pub(crate) fn make_result<F>(
        data: Vec<f32>,
        shape: impl Into<Shape>,
        device: Device,
        inputs: &[Tensor],
        backward: F,
    ) -> Tensor
    where
        F: Fn(&[f32]) -> Vec<Option<Vec<f32>>> + Send + Sync + 'static,
    {
        let shape = shape.into();
        assert_eq!(data.len(), shape.numel(), "op produced wrong element count");
        let storage = Arc::new(Storage::new(data, device));
        Tensor::tracked(storage, shape, inputs, || Some(Box::new(backward) as BackwardFn))
    }

    /// Wraps `storage` as an op result over `inputs`, attaching a node
    /// with `backward()` when gradient tracking is active and any input
    /// requires grad. A `None` closure makes an identity node: `storage`
    /// is then the single input's own (see [`Node::backward`]).
    pub(crate) fn tracked(
        storage: Arc<Storage>,
        shape: Shape,
        inputs: &[Tensor],
        backward: impl FnOnce() -> Option<BackwardFn>,
    ) -> Tensor {
        let track = grad_enabled() && inputs.iter().any(|t| t.inner.requires_grad);
        let grad_fn = track.then(|| {
            // The profiler's innermost frame (if any) names the op that
            // is building this node and carries its declared backward
            // cost; consuming it here keys the backward sweep's
            // `{op}.bwd` attribution.
            let (op, bwd_flops, bwd_read, bwd_write) = tgl_obs::profile::node_info();
            Arc::new(Node {
                inputs: inputs.to_vec(),
                backward: backward(),
                op,
                bwd_flops,
                bwd_read,
                bwd_write,
            })
        });
        Tensor {
            inner: Arc::new(TensorInner {
                id: next_id(),
                storage,
                shape,
                requires_grad: track,
                grad: Mutex::new(None),
                grad_fn,
            }),
        }
    }

    /// Defines a differentiable custom operator.
    ///
    /// `data`/`shape` give the forward result (placed on the first
    /// input's device, or host when `inputs` is empty). `backward` maps
    /// the output gradient to one optional gradient per input. This is
    /// the extension point the TGLite core crate uses to define
    /// block-structured operators (segmented softmax etc.) without
    /// forking the tensor library.
    ///
    /// # Examples
    ///
    /// ```
    /// use tgl_tensor::Tensor;
    ///
    /// // y = 2x as a custom op.
    /// let x = Tensor::from_vec(vec![1.0, 2.0], [2]).requires_grad(true);
    /// let data = x.to_vec().iter().map(|v| 2.0 * v).collect();
    /// let y = Tensor::custom_op(&[x.clone()], data, [2], |g| {
    ///     vec![Some(g.iter().map(|v| 2.0 * v).collect())]
    /// });
    /// y.sum_all().backward();
    /// assert_eq!(x.grad().unwrap(), vec![2.0, 2.0]);
    /// ```
    pub fn custom_op<F>(
        inputs: &[Tensor],
        data: Vec<f32>,
        shape: impl Into<Shape>,
        backward: F,
    ) -> Tensor
    where
        F: Fn(&[f32]) -> Vec<Option<Vec<f32>>> + Send + Sync + 'static,
    {
        let device = inputs.first().map_or(Device::Host, |t| t.device());
        Tensor::make_result(data, shape, device, inputs, backward)
    }

    // ---------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.inner.shape
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.inner.shape.dims()
    }

    /// Size of dimension `d`.
    pub fn dim(&self, d: usize) -> usize {
        self.inner.shape.dim(d)
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.inner.shape.rank()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.inner.shape.numel()
    }

    /// The memory tier this tensor's storage lives on.
    pub fn device(&self) -> Device {
        self.inner.storage.device()
    }

    /// Whether gradients flow to/through this tensor.
    pub fn requires_grad_flag(&self) -> bool {
        self.inner.requires_grad
    }

    /// A unique, monotonically increasing identifier (creation order).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Copies the tensor's data into a `Vec`.
    ///
    /// This is a raw read used for inspection and by CPU kernels; it is
    /// *not* a metered device transfer (use [`Tensor::to`] to cross
    /// tiers).
    pub fn to_vec(&self) -> Vec<f32> {
        self.inner.storage.read().clone()
    }

    /// Returns the single element of a one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if `numel() != 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires a one-element tensor");
        self.inner.storage.read()[0]
    }

    /// Runs `f` over an immutable view of the raw data without copying.
    pub fn with_data<R>(&self, f: impl FnOnce(&[f32]) -> R) -> R {
        f(&self.inner.storage.read())
    }

    /// Overwrites this tensor's data in place (no autograd tracking —
    /// intended for optimizer updates and state resets).
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != numel()`.
    pub fn copy_from_slice(&self, src: &[f32]) {
        let mut w = self.inner.storage.write();
        assert_eq!(src.len(), w.len(), "copy_from_slice length mismatch");
        w.copy_from_slice(src);
    }

    /// Mutates raw data in place via `f` (no autograd tracking).
    pub fn with_data_mut<R>(&self, f: impl FnOnce(&mut [f32]) -> R) -> R {
        f(&mut self.inner.storage.write())
    }

    // ---------------------------------------------------------------
    // Grad management
    // ---------------------------------------------------------------

    /// Returns a tensor sharing this storage with the requires-grad flag
    /// set. Intended for marking freshly created leaves as parameters.
    pub fn requires_grad(&self, flag: bool) -> Tensor {
        Tensor {
            inner: Arc::new(TensorInner {
                id: next_id(),
                storage: Arc::clone(&self.inner.storage),
                shape: self.inner.shape.clone(),
                requires_grad: flag,
                grad: Mutex::new(None),
                grad_fn: self.inner.grad_fn.clone(),
            }),
        }
    }

    /// Returns a leaf tensor sharing this storage, detached from the
    /// autograd graph.
    pub fn detach(&self) -> Tensor {
        Tensor::leaf(
            Arc::clone(&self.inner.storage),
            self.inner.shape.clone(),
            false,
        )
    }

    /// The accumulated gradient of a leaf tensor, if any (copied; the
    /// zero-copy [`Tensor::with_grad`] is preferred on hot paths).
    pub fn grad(&self) -> Option<Vec<f32>> {
        self.inner.grad.lock().clone()
    }

    /// Runs `f` over the accumulated gradient without copying it.
    pub fn with_grad<R>(&self, f: impl FnOnce(Option<&[f32]>) -> R) -> R {
        f(self.inner.grad.lock().as_deref())
    }

    /// Clears the accumulated gradient (the buffer is recycled).
    pub fn zero_grad(&self) {
        if let Some(g) = self.inner.grad.lock().take() {
            crate::pool::give(g, self.device());
        }
    }

    /// Adds `g` into the accumulated gradient, taking ownership: the
    /// buffer becomes the gradient directly (first accumulation) or is
    /// recycled after being added in.
    pub(crate) fn accumulate_grad_owned(&self, g: Vec<f32>) {
        let mut lock = self.inner.grad.lock();
        match lock.as_mut() {
            Some(acc) => {
                for (a, b) in acc.iter_mut().zip(&g) {
                    *a += b;
                }
                drop(lock);
                crate::pool::give(g, self.device());
            }
            None => *lock = Some(g),
        }
    }

    // ---------------------------------------------------------------
    // Device movement (the metered boundary)
    // ---------------------------------------------------------------

    /// Moves the tensor to `device` through the pageable (slow) path,
    /// metering the simulated transfer. Same-device moves are free
    /// handle clones. The result is detached from the autograd graph.
    pub fn to(&self, device: Device) -> Tensor {
        self.transfer_to(device, TransferKind::HostToAccelPageable)
    }

    /// [`to`](Self::to) from pinned host memory (the fast path used by
    /// TGLite's `preload()`): the same single copy, metered host→accelerator
    /// as [`TransferKind::HostToAccelPinned`], so only the cost model
    /// tells the two apart.
    pub fn to_pinned(&self, device: Device) -> Tensor {
        self.transfer_to(device, TransferKind::HostToAccelPinned)
    }

    /// The one copy across tiers; `h2d` is the kind a host→accelerator
    /// move is metered as.
    fn transfer_to(&self, device: Device, h2d: TransferKind) -> Tensor {
        if device == self.device() {
            return self.clone();
        }
        let bytes = (self.numel() * std::mem::size_of::<f32>()) as u64;
        let kind = match (self.device(), device) {
            (Device::Host, Device::Accel) => h2d,
            (Device::Accel, Device::Host) => TransferKind::AccelToHost,
            _ => unreachable!("same-device handled above"),
        };
        let op_name = match kind {
            TransferKind::HostToAccelPinned => "transfer.h2d_pinned",
            TransferKind::HostToAccelPageable => "transfer.h2d",
            TransferKind::AccelToHost => "transfer.d2h",
        };
        // Pure data movement: the copy reads and writes every byte once;
        // the metered device transfer itself lands on this frame via
        // `note_transfer` from tgl-device.
        let _prof = tgl_obs::profile::op(op_name)
            .stage(tgl_obs::Stage::Transfer)
            .io(bytes, bytes)
            .shape(&[self.dims()]);
        let mut data = crate::pool::take_uninit(self.numel(), device);
        data.copy_from_slice(&self.inner.storage.read());
        tgl_device::transfer(bytes, kind);
        Tensor::from_vec_on(data, self.inner.shape.clone(), device)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let data = self.inner.storage.read();
        let preview: Vec<f32> = data.iter().take(8).copied().collect();
        let ellipsis = if data.len() > 8 { ", ..." } else { "" };
        write!(
            f,
            "Tensor(shape={}, device={}, requires_grad={}, data={preview:?}{ellipsis})",
            self.inner.shape,
            self.device(),
            self.inner.requires_grad
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgl_runtime::rng::StdRng;
    use tgl_runtime::rng::SeedableRng;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        assert_eq!(t.to_vec(), vec![1.0, 2.0, 3.0]);
        assert_eq!(t.dims(), &[3]);
        assert_eq!(t.device(), Device::Host);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_shape_mismatch_panics() {
        Tensor::from_vec(vec![1.0, 2.0], [3]);
    }

    #[test]
    fn zeros_ones_full_scalar() {
        assert_eq!(Tensor::zeros([2, 2]).to_vec(), vec![0.0; 4]);
        assert_eq!(Tensor::ones([3]).to_vec(), vec![1.0; 3]);
        assert_eq!(Tensor::full([2], 7.5).to_vec(), vec![7.5, 7.5]);
        assert_eq!(Tensor::scalar(3.0).item(), 3.0);
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = Tensor::rand_uniform([10], -1.0, 1.0, &mut r1);
        let b = Tensor::rand_uniform([10], -1.0, 1.0, &mut r2);
        assert_eq!(a.to_vec(), b.to_vec());
        assert!(a.to_vec().iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn randn_mean_near_zero() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn([10_000], &mut rng);
        let mean: f32 = t.to_vec().iter().sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn clone_shares_storage() {
        let a = Tensor::from_vec(vec![1.0], [1]);
        let b = a.clone();
        a.copy_from_slice(&[9.0]);
        assert_eq!(b.to_vec(), vec![9.0]);
    }

    #[test]
    fn item_panics_on_non_scalar() {
        let t = Tensor::zeros([2]);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.item())).is_err());
    }

    #[test]
    fn detach_shares_data_but_no_grad() {
        let a = Tensor::from_vec(vec![1.0], [1]).requires_grad(true);
        let d = a.detach();
        assert!(!d.requires_grad_flag());
        assert_eq!(d.to_vec(), vec![1.0]);
    }

    #[test]
    fn to_same_device_is_free() {
        let _serial = crate::kernel::test_serial();
        let before = tgl_device::stats().transfer_count;
        let a = Tensor::zeros([4]);
        let b = a.to(Device::Host);
        assert_eq!(tgl_device::stats().transfer_count, before);
        assert_eq!(b.to_vec(), a.to_vec());
    }

    #[test]
    fn to_accel_meters_transfer() {
        let _serial = crate::kernel::test_serial();
        let before = tgl_device::stats();
        let a = Tensor::zeros([16]);
        let b = a.to(Device::Accel);
        let after = tgl_device::stats();
        assert_eq!(b.device(), Device::Accel);
        assert!(after.h2d_bytes >= before.h2d_bytes + 64);
        assert!(after.transfer_count > before.transfer_count);
    }

    #[test]
    fn pinned_transfer_roundtrip() {
        // Both paths make one copy: equal bits and bytes, and only the
        // metered kind (and its modeled cost) differs.
        let _serial = crate::kernel::test_serial();
        let kinds = || {
            ["transfer.pinned_count", "transfer.pageable_count"].map(tgl_obs::metrics::get)
        };
        let bits = |t: &Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let a = Tensor::from_vec(vec![1.0, -0.0, f32::MIN_POSITIVE / 2.0], [3]);
        let crossed = |pinned: bool| {
            let (before, k0) = (tgl_device::stats(), kinds());
            let b = if pinned { a.to_pinned(Device::Accel) } else { a.to(Device::Accel) };
            let (after, k1) = (tgl_device::stats(), kinds());
            let sim_ns = after.simulated_transfer_ns - before.simulated_transfer_ns;
            (b, after.h2d_bytes - before.h2d_bytes, [k1[0] - k0[0], k1[1] - k0[1]], sim_ns)
        };
        let (pinned, pinned_bytes, pinned_kinds, _) = crossed(true);
        let (pageable, pageable_bytes, pageable_kinds, _) = crossed(false);
        assert_eq!(pinned.device(), Device::Accel);
        assert_eq!(bits(&pinned), bits(&a));
        assert_eq!(bits(&pinned), bits(&pageable));
        assert_eq!((pinned_bytes, pageable_bytes), (12, 12));
        assert_eq!((pinned_kinds, pageable_kinds), ([1, 0], [0, 1]));

        tgl_device::set_transfer_model(tgl_device::TransferModel::pcie_v100());
        let (_, _, _, pinned_ns) = crossed(true);
        let (_, _, _, pageable_ns) = crossed(false);
        tgl_device::set_transfer_model(tgl_device::TransferModel::disabled());
        assert!(pinned_ns < pageable_ns, "pinned {pinned_ns} ns, pageable {pageable_ns} ns");

        let c = pinned.to(Device::Host);
        assert_eq!(c.device(), Device::Host);
        assert_eq!(bits(&c), bits(&a));
    }

    #[test]
    fn oom_panic_is_catchable() {
        let _serial = crate::kernel::test_serial();
        tgl_device::set_capacity(Device::Accel, Some(16));
        let result = std::panic::catch_unwind(|| {
            let _t = Tensor::zeros_on([1024], Device::Accel);
        });
        tgl_device::set_capacity(Device::Accel, None);
        let payload = result.unwrap_err();
        assert!(payload.downcast_ref::<DeviceOom>().is_some());
    }

    #[test]
    fn debug_format_is_nonempty() {
        let t = Tensor::zeros([3]);
        let s = format!("{t:?}");
        assert!(s.contains("shape=[3]"));
        assert!(s.contains("host"));
    }

    #[test]
    fn tensor_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
