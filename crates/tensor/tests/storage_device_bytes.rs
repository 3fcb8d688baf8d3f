//! A tensor's storage is registered with the device tracker while it
//! lives. The tracker is process-global, so this check owns its test
//! binary: no sibling test can allocate between the two readings, and
//! the assertions are exact.

use tgl_device::Device;
use tgl_tensor::Tensor;

#[test]
fn storage_tracks_device_bytes() {
    let before = tgl_device::stats().host_used_bytes;
    let t = Tensor::from_vec_on(vec![0.0; 256], [256], Device::Host);
    assert_eq!(t.numel(), 256);
    assert_eq!(tgl_device::stats().host_used_bytes, before + 1024);
    drop(t);
    assert_eq!(tgl_device::stats().host_used_bytes, before, "released on drop");
}
