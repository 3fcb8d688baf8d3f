//! Device-tracked tensor storage.

use tgl_runtime::sync::RwLock;
use tgl_device::Device;

use crate::tensor::DeviceOom;

/// Reference-counted, device-tagged buffer of `f32`s.
///
/// Multiple tensors (e.g. a tensor and its reshaped views) may share one
/// storage. Allocation is registered with the `tgl-device` tracker on
/// creation and released on drop, so the simulated device-memory
/// accounting reflects live tensor data.
#[derive(Debug)]
pub(crate) struct Storage {
    data: RwLock<Vec<f32>>,
    device: Device,
    bytes: u64,
}

impl Storage {
    /// Creates storage on `device`, registering the allocation.
    ///
    /// # Panics
    ///
    /// Panics with a [`DeviceOom`] payload if the simulated device is
    /// over capacity (mirrors a CUDA OOM abort; catch with
    /// `std::panic::catch_unwind` and downcast to [`DeviceOom`]).
    pub fn new(data: Vec<f32>, device: Device) -> Self {
        let bytes = (data.len() * std::mem::size_of::<f32>()) as u64;
        // Zero-byte tensors (empty batches, rank-0 edge cases) hold no
        // device memory; registering them would only add noise to
        // `host_used_bytes` and the allocation counts.
        if bytes > 0 {
            if let Err(e) = tgl_device::alloc(device, bytes) {
                std::panic::panic_any(DeviceOom(e));
            }
        }
        Storage {
            data: RwLock::new(data),
            device,
            bytes,
        }
    }

    pub fn device(&self) -> Device {
        self.device
    }

    pub fn read(&self) -> tgl_runtime::sync::RwLockReadGuard<'_, Vec<f32>> {
        self.data.read()
    }

    pub fn write(&self) -> tgl_runtime::sync::RwLockWriteGuard<'_, Vec<f32>> {
        self.data.write()
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        // Release the device accounting *before* donating the buffer:
        // pool-held buffers are unaccounted, so `tgl_device::stats()`
        // reports exactly the bytes held by live tensors.
        if self.bytes > 0 {
            tgl_device::free(self.device, self.bytes);
        }
        crate::pool::give(std::mem::take(self.data.get_mut()), self.device);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_read_write() {
        let s = Storage::new(vec![1.0, 2.0], Device::Host);
        s.write()[0] = 5.0;
        assert_eq!(*s.read(), vec![5.0, 2.0]);
    }
}
