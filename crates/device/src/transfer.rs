//! Metered host<->accelerator transfer engine with a calibrated cost model.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tgl_runtime::sync::RwLock;

/// Direction and pinning of a simulated transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Host to accelerator through pageable (unpinned) memory. The real
    /// hardware path stages through a pinned bounce buffer, so this is
    /// the slow path.
    HostToAccelPageable,
    /// Host to accelerator from pinned memory (DMA-friendly fast path,
    /// used by TGLite's `preload()` operator).
    HostToAccelPinned,
    /// Accelerator to host.
    AccelToHost,
}

impl TransferKind {
    fn is_h2d(self) -> bool {
        matches!(
            self,
            TransferKind::HostToAccelPageable | TransferKind::HostToAccelPinned
        )
    }
}

/// Cost model for tier-crossing transfers.
///
/// Bandwidths are in bytes per simulated second; `latency_ns` is charged
/// once per transfer (kernel-launch / DMA-setup cost). When `enabled` is
/// false, transfers are metered but cost no wall time — the "all-on-GPU"
/// configuration of the paper, where batch data never crosses the bus.
///
/// Defaults are calibrated to a PCIe 3.0 x16 link as seen by the paper's
/// V100 machine: ~6 GB/s pageable, ~12 GB/s pinned, ~10 us launch
/// latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferModel {
    /// Whether transfers cost (simulated) wall time.
    pub enabled: bool,
    /// Pageable host->device bandwidth, bytes/second.
    pub pageable_bw: f64,
    /// Pinned host->device bandwidth, bytes/second.
    pub pinned_bw: f64,
    /// Device->host bandwidth, bytes/second.
    pub d2h_bw: f64,
    /// Fixed per-transfer latency in nanoseconds.
    pub latency_ns: u64,
}

impl TransferModel {
    /// A model in which transfers are metered but free (all-on-GPU case).
    pub fn disabled() -> Self {
        TransferModel {
            enabled: false,
            ..TransferModel::pcie_v100()
        }
    }

    /// PCIe 3.0 x16 calibration (V100-class machine).
    pub fn pcie_v100() -> Self {
        TransferModel {
            enabled: true,
            pageable_bw: 6.0e9,
            pinned_bw: 12.0e9,
            d2h_bw: 6.0e9,
            latency_ns: 10_000,
        }
    }

    /// A PCIe model with bandwidths divided by `compute_slowdown`.
    ///
    /// The reproduction's CPU substrate computes roughly
    /// `compute_slowdown`× slower than the paper's GPUs, so scaling the
    /// link down by the same factor preserves the paper's
    /// transfer-time : compute-time ratio — the quantity the
    /// all-on-GPU vs CPU-to-GPU contrast (Figs. 5/6) actually measures.
    pub fn scaled(base: TransferModel, compute_slowdown: f64) -> Self {
        TransferModel {
            enabled: true,
            pageable_bw: base.pageable_bw / compute_slowdown,
            pinned_bw: base.pinned_bw / compute_slowdown,
            d2h_bw: base.d2h_bw / compute_slowdown,
            latency_ns: (base.latency_ns as f64 * compute_slowdown.cbrt()) as u64,
        }
    }

    /// The link the reproduction's runs cross: [`pcie_v100`](Self::pcie_v100)
    /// [`scaled`](Self::scaled) by the substrate's compute slowdown,
    /// taken as 400× (a fixed constant, not a measured calibration).
    pub fn sim_v100() -> Self {
        TransferModel::scaled(TransferModel::pcie_v100(), 400.0)
    }

    /// Simulated nanoseconds a transfer of `bytes` with `kind` costs.
    pub fn cost_ns(&self, bytes: u64, kind: TransferKind) -> u64 {
        if !self.enabled {
            return 0;
        }
        let bw = match kind {
            TransferKind::HostToAccelPageable => self.pageable_bw,
            TransferKind::HostToAccelPinned => self.pinned_bw,
            TransferKind::AccelToHost => self.d2h_bw,
        };
        self.latency_ns + (bytes as f64 / bw * 1e9) as u64
    }
}

impl Default for TransferModel {
    fn default() -> Self {
        TransferModel::disabled()
    }
}

static MODEL: RwLock<TransferModel> = RwLock::new(TransferModel {
    enabled: false,
    pageable_bw: 6.0e9,
    pinned_bw: 12.0e9,
    d2h_bw: 6.0e9,
    latency_ns: 10_000,
});

static H2D_BYTES: AtomicU64 = AtomicU64::new(0);
static D2H_BYTES: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static SIMULATED_NS: AtomicU64 = AtomicU64::new(0);

/// Installs a new global transfer cost model.
pub fn set_transfer_model(model: TransferModel) {
    *MODEL.write() = model;
}

/// Meters a transfer of `bytes` across the tier boundary and, if the
/// model is enabled, waits out its simulated nanoseconds. Returns the
/// simulated cost in nanoseconds.
pub fn transfer(bytes: u64, kind: TransferKind) -> u64 {
    let model = *MODEL.read();
    COUNT.fetch_add(1, Ordering::Relaxed);
    tgl_obs::counter!("transfer.count").incr();
    tgl_obs::profile::note_transfer(bytes);
    if kind.is_h2d() {
        H2D_BYTES.fetch_add(bytes, Ordering::Relaxed);
        tgl_obs::counter!("transfer.h2d_bytes").add(bytes);
    } else {
        D2H_BYTES.fetch_add(bytes, Ordering::Relaxed);
        tgl_obs::counter!("transfer.d2h_bytes").add(bytes);
    }
    match kind {
        TransferKind::HostToAccelPageable => {
            tgl_obs::counter!("transfer.pageable_count").incr()
        }
        TransferKind::HostToAccelPinned => tgl_obs::counter!("transfer.pinned_count").incr(),
        TransferKind::AccelToHost => tgl_obs::counter!("transfer.d2h_count").incr(),
    }
    let ns = model.cost_ns(bytes, kind);
    SIMULATED_NS.fetch_add(ns, Ordering::Relaxed);
    tgl_obs::counter!("transfer.sim_ns").add(ns);
    // Latency distribution of individual transfers: the wall time of
    // the modeled wait (about 0 when the model is disabled).
    let _lat = tgl_obs::timer("transfer");
    if ns > 0 {
        spin_wait(Duration::from_nanos(ns));
    }
    ns
}

/// Busy-waits for `dur` with sub-millisecond precision (thread::sleep is
/// too coarse for the 10us-scale latencies being modeled).
fn spin_wait(dur: Duration) {
    let start = Instant::now();
    while start.elapsed() < dur {
        std::hint::spin_loop();
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub count: u64,
    pub simulated_ns: u64,
}

pub(crate) fn counters() -> Counters {
    Counters {
        h2d_bytes: H2D_BYTES.load(Ordering::Relaxed),
        d2h_bytes: D2H_BYTES.load(Ordering::Relaxed),
        count: COUNT.load(Ordering::Relaxed),
        simulated_ns: SIMULATED_NS.load(Ordering::Relaxed),
    }
}

pub(crate) fn reset_counters() {
    H2D_BYTES.store(0, Ordering::Relaxed);
    D2H_BYTES.store(0, Ordering::Relaxed);
    COUNT.store(0, Ordering::Relaxed);
    SIMULATED_NS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_model_costs_nothing() {
        let m = TransferModel::disabled();
        assert_eq!(m.cost_ns(1 << 30, TransferKind::HostToAccelPageable), 0);
    }

    #[test]
    fn pinned_is_faster_than_pageable() {
        let m = TransferModel::pcie_v100();
        let pageable = m.cost_ns(1 << 20, TransferKind::HostToAccelPageable);
        let pinned = m.cost_ns(1 << 20, TransferKind::HostToAccelPinned);
        assert!(pinned < pageable, "pinned {pinned} !< pageable {pageable}");
    }

    #[test]
    fn latency_dominates_small_transfers() {
        let m = TransferModel::pcie_v100();
        let tiny = m.cost_ns(4, TransferKind::HostToAccelPinned);
        assert!(tiny >= m.latency_ns);
        assert!(tiny < m.latency_ns + 1_000);
    }

    #[test]
    fn cost_scales_with_bytes() {
        let m = TransferModel::pcie_v100();
        let one = m.cost_ns(1 << 20, TransferKind::AccelToHost);
        let two = m.cost_ns(2 << 20, TransferKind::AccelToHost);
        assert!(two > one);
    }

    #[test]
    fn transfer_meters_bytes_and_count() {
        let before = counters();
        transfer(123, TransferKind::HostToAccelPinned);
        transfer(77, TransferKind::AccelToHost);
        let after = counters();
        assert!(after.h2d_bytes >= before.h2d_bytes + 123);
        assert!(after.d2h_bytes >= before.d2h_bytes + 77);
        assert!(after.count >= before.count + 2);
    }
}
