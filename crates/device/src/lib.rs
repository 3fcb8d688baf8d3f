//! Simulated two-tier memory system for the TGLite reproduction.
//!
//! The TGLite paper evaluates training/inference in two placements: all
//! tensor data resident in GPU device memory ("all-on-GPU") versus data
//! resident in CPU host memory and transferred per batch ("CPU-to-GPU").
//! This crate substitutes for a real accelerator by modeling:
//!
//! * two memory tiers ([`Device::Host`] and [`Device::Accel`]),
//! * a metered transfer engine with a calibrated cost model (bandwidth +
//!   per-transfer latency, with pinned memory getting a faster path),
//! * per-tier allocation tracking with an optional capacity cap, so that
//!   the paper's out-of-memory behaviour (Table 7) is reproducible.
//!
//! All *compute* still happens on the CPU; only data placement and
//! movement are simulated. Byte counts are real — every tensor crossing
//! the tier boundary is metered by the tensor crate.
//!
//! # Examples
//!
//! ```
//! use tgl_device::{Device, TransferKind, alloc, free, transfer, stats, reset_stats};
//!
//! reset_stats();
//! alloc(Device::Accel, 1024)?;
//! transfer(4096, TransferKind::HostToAccelPinned);
//! assert!(stats().accel_used_bytes >= 1024);
//! assert!(stats().h2d_bytes >= 4096);
//! free(Device::Accel, 1024);
//! # Ok::<(), tgl_device::DeviceError>(())
//! ```

#![forbid(unsafe_code)]

mod registry;
mod transfer;

pub use registry::{alloc, capacity, free, set_capacity, DeviceError};
pub use transfer::{set_transfer_model, transfer, TransferKind, TransferModel};

use std::fmt;

/// A memory tier in the simulated system.
///
/// `Host` stands in for CPU DRAM; `Accel` stands in for GPU device
/// memory. Tensors are tagged with the tier their storage lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Device {
    /// CPU host memory (always uncapped).
    #[default]
    Host,
    /// Simulated accelerator memory (optionally capacity-capped).
    Accel,
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Device::Host => write!(f, "host"),
            Device::Accel => write!(f, "accel"),
        }
    }
}

/// A point-in-time snapshot of allocation and transfer statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Bytes currently allocated on the accelerator tier.
    pub accel_used_bytes: u64,
    /// High-water mark of accelerator allocation since the last reset.
    pub accel_peak_bytes: u64,
    /// Bytes currently allocated on the host tier.
    pub host_used_bytes: u64,
    /// Total bytes moved host -> accelerator.
    pub h2d_bytes: u64,
    /// Total bytes moved accelerator -> host.
    pub d2h_bytes: u64,
    /// Number of individual transfer operations.
    pub transfer_count: u64,
    /// Simulated nanoseconds spent in transfers (also spent as wall time
    /// when the transfer model is enabled).
    pub simulated_transfer_ns: u64,
}

/// Returns a snapshot of the global allocation/transfer statistics.
pub fn stats() -> Stats {
    let (accel_used, accel_peak, host_used) = registry::usage();
    let t = transfer::counters();
    Stats {
        accel_used_bytes: accel_used,
        accel_peak_bytes: accel_peak,
        host_used_bytes: host_used,
        h2d_bytes: t.h2d_bytes,
        d2h_bytes: t.d2h_bytes,
        transfer_count: t.count,
        simulated_transfer_ns: t.simulated_ns,
    }
}

/// Resets transfer counters and the allocation peak watermark only —
/// capacity caps and the transfer model are left in place. Use between
/// measured runs.
pub fn reset_stats() {
    registry::reset_peak();
    transfer::reset_counters();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_display() {
        assert_eq!(Device::Host.to_string(), "host");
        assert_eq!(Device::Accel.to_string(), "accel");
    }

    #[test]
    fn device_default_is_host() {
        assert_eq!(Device::default(), Device::Host);
    }

    #[test]
    fn stats_snapshot_reflects_allocs() {
        let before = stats();
        alloc(Device::Accel, 512).unwrap();
        let after = stats();
        assert_eq!(after.accel_used_bytes, before.accel_used_bytes + 512);
        free(Device::Accel, 512);
    }
}
