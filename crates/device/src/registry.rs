//! Per-tier allocation tracking with optional capacity enforcement.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use tgl_runtime::sync::Mutex;

use crate::Device;

/// Error returned when a simulated device allocation fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The accelerator tier would exceed its configured capacity.
    ///
    /// This mirrors a CUDA out-of-memory failure: the paper's Table 7
    /// reports TGL running out of GPU memory on the V100 for large
    /// datasets while TGLite completes.
    OutOfDeviceMemory {
        /// Bytes the failing request asked for.
        requested: u64,
        /// Bytes already in use on the tier.
        used: u64,
        /// The configured capacity of the tier.
        capacity: u64,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfDeviceMemory {
                requested,
                used,
                capacity,
            } => write!(
                f,
                "out of device memory: requested {requested} bytes with {used}/{capacity} in use"
            ),
        }
    }
}

impl Error for DeviceError {}

/// The byte counters of both tiers and the accelerator's cap. The
/// process has one, behind the free functions of this module; a test
/// makes its own, so that no other test's allocations or cap reach it.
struct Registry {
    accel_used: AtomicU64,
    accel_peak: AtomicU64,
    host_used: AtomicU64,
    accel_capacity: Mutex<Option<u64>>,
}

impl Registry {
    const fn new() -> Registry {
        Registry {
            accel_used: AtomicU64::new(0),
            accel_peak: AtomicU64::new(0),
            host_used: AtomicU64::new(0),
            accel_capacity: Mutex::new(None),
        }
    }

    fn alloc(&self, device: Device, bytes: u64) -> Result<(), DeviceError> {
        match device {
            Device::Host => {
                self.host_used.fetch_add(bytes, Ordering::Relaxed);
                Ok(())
            }
            Device::Accel => {
                let cap = *self.accel_capacity.lock();
                let prev = self.accel_used.fetch_add(bytes, Ordering::Relaxed);
                if let Some(capacity) = cap {
                    if prev + bytes > capacity {
                        self.accel_used.fetch_sub(bytes, Ordering::Relaxed);
                        return Err(DeviceError::OutOfDeviceMemory {
                            requested: bytes,
                            used: prev,
                            capacity,
                        });
                    }
                }
                self.accel_peak.fetch_max(prev + bytes, Ordering::Relaxed);
                Ok(())
            }
        }
    }

    fn free(&self, device: Device, bytes: u64) {
        let counter = match device {
            Device::Host => &self.host_used,
            Device::Accel => &self.accel_used,
        };
        // Saturating: a mismatched free is a bug in the caller, but
        // clamping keeps the counters sane instead of wrapping to
        // u64::MAX.
        counter
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            })
            .ok();
    }

    fn set_capacity(&self, device: Device, cap: Option<u64>) {
        if device == Device::Accel {
            *self.accel_capacity.lock() = cap;
        }
    }

    fn capacity(&self, device: Device) -> Option<u64> {
        match device {
            Device::Host => None,
            Device::Accel => *self.accel_capacity.lock(),
        }
    }

    fn usage(&self) -> (u64, u64, u64) {
        (
            self.accel_used.load(Ordering::Relaxed),
            self.accel_peak.load(Ordering::Relaxed),
            self.host_used.load(Ordering::Relaxed),
        )
    }

    fn reset_peak(&self) {
        self.accel_peak.store(self.accel_used.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// The process's registry.
static GLOBAL: Registry = Registry::new();

/// Records an allocation of `bytes` on `device`.
///
/// # Errors
///
/// Returns [`DeviceError::OutOfDeviceMemory`] if `device` is
/// [`Device::Accel`] and a capacity cap is set that the allocation would
/// exceed. Host allocations never fail.
pub fn alloc(device: Device, bytes: u64) -> Result<(), DeviceError> {
    GLOBAL.alloc(device, bytes)
}

/// Records a deallocation of `bytes` on `device`.
pub fn free(device: Device, bytes: u64) {
    GLOBAL.free(device, bytes);
}

/// Sets (or clears) the capacity cap of a tier in bytes.
///
/// Only the accelerator tier supports a cap; setting a cap on
/// [`Device::Host`] is ignored.
pub fn set_capacity(device: Device, cap: Option<u64>) {
    GLOBAL.set_capacity(device, cap);
}

/// Returns the current capacity cap of a tier, if any.
pub fn capacity(device: Device) -> Option<u64> {
    GLOBAL.capacity(device)
}

/// Returns `(accel_used, accel_peak, host_used)` in bytes.
pub(crate) fn usage() -> (u64, u64, u64) {
    GLOBAL.usage()
}

/// Resets the accelerator peak-usage watermark to current usage.
pub(crate) fn reset_peak() {
    GLOBAL.reset_peak();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let r = Registry::new();
        r.alloc(Device::Accel, 100).unwrap();
        assert_eq!(r.usage(), (100, 100, 0));
        r.free(Device::Accel, 100);
        assert_eq!(r.usage(), (0, 100, 0));
        r.reset_peak();
        assert_eq!(r.usage(), (0, 0, 0));
    }

    #[test]
    fn host_alloc_never_fails() {
        let r = Registry::new();
        r.set_capacity(Device::Host, Some(1));
        assert_eq!(r.capacity(Device::Host), None);
        r.alloc(Device::Host, u64::MAX / 4).unwrap();
        assert_eq!(r.usage(), (0, 0, u64::MAX / 4));
        r.free(Device::Host, u64::MAX / 4);
        assert_eq!(r.usage(), (0, 0, 0));
    }

    #[test]
    fn capacity_cap_enforced() {
        let r = Registry::new();
        r.set_capacity(Device::Accel, Some(1 << 20));
        r.alloc(Device::Accel, 1 << 19).unwrap();
        let err = r.alloc(Device::Accel, 1 << 30).unwrap_err();
        assert_eq!(err, DeviceError::OutOfDeviceMemory { requested: 1 << 30, used: 1 << 19, capacity: 1 << 20 });
        r.set_capacity(Device::Accel, None);
        // Once the cap is lifted the same request succeeds.
        r.alloc(Device::Accel, 1 << 30).unwrap();
        assert_eq!(r.usage().0, (1 << 30) + (1 << 19));
    }

    #[test]
    fn failed_alloc_does_not_leak_usage() {
        let r = Registry::new();
        r.set_capacity(Device::Accel, Some(1));
        assert!(r.alloc(Device::Accel, 1 << 40).is_err());
        assert_eq!(r.usage(), (0, 0, 0));
    }

    #[test]
    fn oom_error_display_mentions_bytes() {
        let e = DeviceError::OutOfDeviceMemory {
            requested: 10,
            used: 5,
            capacity: 12,
        };
        let msg = e.to_string();
        assert!(msg.contains("10"));
        assert!(msg.contains("5/12"));
    }

    #[test]
    fn mismatched_free_saturates() {
        let r = Registry::new();
        r.alloc(Device::Accel, 7).unwrap();
        r.free(Device::Accel, u64::MAX);
        assert_eq!(r.usage(), (0, 7, 0));
    }
}
