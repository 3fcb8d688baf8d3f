//! Device-aware tensor buffer pool.
//!
//! Every tensor op used to materialize a fresh `Vec<f32>` through the
//! allocator; on the training hot path that makes malloc/free and
//! cold-cache writes the dominant cost (the op kernels themselves are
//! small). This module recycles those buffers instead: [`Storage`]
//! returns its buffer here on drop, and op kernels draw replacement
//! buffers with [`take_uninit`] / [`take_zeroed`]. After a warm-up
//! batch, an epoch performs O(parameters) real allocations rather than
//! O(ops × batches).
//!
//! [`Storage`]: crate::storage::Storage
//!
//! # Bucket policy
//!
//! Free buffers are kept per device tier in power-of-two size classes
//! keyed by *capacity*: a buffer with room for `cap` elements lives in
//! class `floor(log2(cap))`, so class `c` holds capacities in
//! `[2^c, 2^(c+1))`. A request for `len` scans its own class for the
//! first buffer with room for `len` elements, then falls back to class
//! `c + 1` (where every buffer is large enough). The buffer's length is
//! set to the request with `resize` — shrinking keeps the contents,
//! growing zero-fills the new tail, so recycling never exposes
//! uninitialized memory and needs no `unsafe`. Because a buffer is
//! filed under its capacity, not its last length, it returns to the
//! class it came from however short the request it served: a request
//! is never handed more than 4x what it asked for, and large buffers
//! cannot drift down into the small classes (where they would pin
//! their memory while the large requests they were made for miss).
//! Repeated same-shape requests (the training-loop pattern) hit
//! exactly-fitting buffers. A request larger than every buffer of its
//! class (and with the class above empty) grows the roomiest of them
//! in place instead of allocating a fresh one: a first epoch asks for
//! a little more each batch as the graph's history grows, and a fresh
//! buffer is paid for again in page faults on first touch, where a
//! grown one (`realloc`, which remaps a large allocation) faults only
//! its new tail. Each class holds a bounded number of buffers; a full
//! class keeps the roomiest ones it is given and frees the rest.
//!
//! # Zero-fill rules
//!
//! [`take_zeroed`] always returns an all-zero buffer (recycled buffers
//! are `fill(0.0)`-ed). [`take_uninit`] returns a buffer with stale but
//! *valid* `f32` contents; callers must overwrite every element before
//! any read. This is why recycling cannot change results: an op either
//! asked for zeros and got zeros, or promised to write every element it
//! reads. Debug builds hold ops to that promise: there `take_uninit`
//! fills every buffer it returns, fresh or recycled, with NaN, so an
//! element read before it is written turns a loss or gradient NaN.
//!
//! # Device accounting
//!
//! Buffers held by the pool are *not* registered with the `tgl-device`
//! tracker: `Storage` releases its accounting before donating the
//! buffer, and re-registers on reuse, so `tgl_device::stats()` still
//! reports exactly the bytes held by live tensors. [`held`] reports
//! what the pool holds; the trainer publishes it per epoch as the
//! `tensor.pool.held_bytes` gauge.
//!
//! # Metering
//!
//! | counter                     | meaning                              |
//! |-----------------------------|--------------------------------------|
//! | `tensor.pool.request`       | buffer requests                      |
//! | `tensor.pool.request_bytes` | bytes requested                      |
//! | `tensor.pool.hit`           | requests served from the free lists  |
//! | `tensor.pool.recycled_bytes`| bytes served from the free lists     |
//! | `tensor.pool.miss`          | requests that hit the allocator (a grown buffer included) |
//! | `tensor.pool.alloc_bytes`   | bytes from the allocator (a grown buffer's new tail) |

use std::sync::OnceLock;

use tgl_device::Device;
use tgl_runtime::sync::Mutex;

/// Free buffers per class per device: as many as hold [`CLASS_ELEMS`]
/// at the class's smallest capacity, so pool-held memory is bounded
/// per class whatever sizes a model asks for (32 buffers up to 512 KiB
/// each, 16 up to 1 MiB, 8 up to 2 MiB, 4 from 4 MiB on).
const CLASS_CAP_MAX: usize = 32;
const CLASS_CAP_MIN: usize = 4;
/// 2^22 elements = 16 MiB.
const CLASS_ELEMS: usize = 1 << 22;

/// One device tier's free lists, indexed by size class.
#[derive(Default)]
struct Shelf {
    classes: Vec<Vec<Vec<f32>>>,
}

impl Shelf {
    /// First-fit take: scan the request's own class for a buffer with
    /// room for `len` elements, then class `len_class + 1` where any
    /// buffer fits. The scan runs newest-first (`give` pushes at the
    /// back) so the steady-state pattern reuses the most recently freed
    /// — cache-hot — buffer, like an allocator's thread cache.
    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        let class = size_class(len);
        for c in [class, class + 1] {
            if let Some(bufs) = self.classes.get_mut(c) {
                if let Some(pos) = bufs.iter().rposition(|b| b.capacity() >= len) {
                    return Some(bufs.swap_remove(pos));
                }
            }
        }
        None
    }

    /// The roomiest buffer of `len`'s class, all of which are too small
    /// for it (after [`Shelf::take`] found nothing), to grow in place.
    fn take_to_grow(&mut self, len: usize) -> Option<Vec<f32>> {
        let bufs = self.classes.get_mut(size_class(len))?;
        let pos = (0..bufs.len()).max_by_key(|&i| bufs[i].capacity())?;
        Some(bufs.swap_remove(pos))
    }

    fn give(&mut self, buf: Vec<f32>) {
        let class = size_class(buf.capacity());
        if self.classes.len() <= class {
            self.classes.resize_with(class + 1, Vec::new);
        }
        let cap = (CLASS_ELEMS >> class).clamp(CLASS_CAP_MIN, CLASS_CAP_MAX);
        let bufs = &mut self.classes[class];
        if bufs.len() < cap {
            return bufs.push(buf);
        }
        // The class is full: keep the roomier buffer and let the
        // allocator reclaim the other. A class then converges on the
        // largest capacities it has seen, which serve every request in
        // it — dropping the newcomer instead re-allocates the largest
        // shape of an epoch every epoch.
        if let Some(smallest) = bufs.iter_mut().min_by_key(|b| b.capacity()) {
            if smallest.capacity() < buf.capacity() {
                *smallest = buf;
            }
        }
    }
}

fn size_class(len: usize) -> usize {
    (usize::BITS - 1).saturating_sub(len.leading_zeros()) as usize
}

fn shelf(device: Device) -> &'static Mutex<Shelf> {
    static SHELVES: OnceLock<[Mutex<Shelf>; 2]> = OnceLock::new();
    let shelves = SHELVES.get_or_init(|| [Mutex::new(Shelf::default()), Mutex::new(Shelf::default())]);
    match device {
        Device::Host => &shelves[0],
        Device::Accel => &shelves[1],
    }
}

/// Returns a buffer of exactly `len` elements with **unspecified**
/// (stale but valid) contents. The caller must write every element
/// before reading it — this is what keeps recycling bit-exact. Debug
/// builds return it all NaN, so a read of an unwritten element shows.
pub fn take_uninit(len: usize, device: Device) -> Vec<f32> {
    let mut buf = take(len, device, false);
    if cfg!(debug_assertions) {
        buf.fill(f32::NAN);
    }
    buf
}

/// Returns an all-zero buffer of exactly `len` elements.
pub fn take_zeroed(len: usize, device: Device) -> Vec<f32> {
    take(len, device, true)
}

fn take(len: usize, device: Device, zeroed: bool) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    let bytes = (len * std::mem::size_of::<f32>()) as u64;
    tgl_obs::counter!("tensor.pool.request").incr();
    tgl_obs::counter!("tensor.pool.request_bytes").add(bytes);
    let (found, grow) = {
        let mut shelf = shelf(device).lock();
        match shelf.take(len) {
            Some(buf) => (Some(buf), false),
            None => (shelf.take_to_grow(len), true),
        }
    };
    if let Some(mut buf) = found {
        if grow {
            let tail = len - buf.capacity();
            tgl_obs::counter!("tensor.pool.miss").incr();
            tgl_obs::counter!("tensor.pool.alloc_bytes").add((tail * std::mem::size_of::<f32>()) as u64);
            buf.reserve_exact(len - buf.len());
        } else {
            tgl_obs::counter!("tensor.pool.hit").incr();
            tgl_obs::counter!("tensor.pool.recycled_bytes").add(bytes);
        }
        tgl_obs::profile::note_pool(!grow);
        // Shrinking keeps the stale prefix, growing zero-fills the
        // new tail; only the prefix is left to clear.
        let stale = buf.len().min(len);
        buf.resize(len, 0.0);
        if zeroed {
            buf[..stale].fill(0.0);
        }
        return buf;
    }
    tgl_obs::counter!("tensor.pool.miss").incr();
    tgl_obs::counter!("tensor.pool.alloc_bytes").add(bytes);
    tgl_obs::profile::note_pool(false);
    // Fresh path is zero-filled either way: the zeroed allocator is as
    // cheap as an uninitialized one plus it satisfies `take_zeroed`.
    vec![0.0; len]
}

/// Donates a buffer to `device`'s free lists (dropped if the buffer is
/// empty or its size class is full).
pub fn give(buf: Vec<f32>, device: Device) {
    if buf.is_empty() {
        return;
    }
    shelf(device).lock().give(buf);
}

/// Frees every pooled buffer (used between measured bench configs and
/// by tests that need a cold pool).
pub fn clear() {
    for device in [Device::Host, Device::Accel] {
        shelf(device).lock().classes.clear();
    }
}

/// Number of buffers and total bytes currently held for `device`.
pub fn held(device: Device) -> (usize, u64) {
    let shelf = shelf(device).lock();
    let mut count = 0usize;
    let mut bytes = 0u64;
    for class in &shelf.classes {
        count += class.len();
        bytes += class
            .iter()
            .map(|b| (b.capacity() * std::mem::size_of::<f32>()) as u64)
            .sum::<u64>();
    }
    (count, bytes)
}

/// A pooled scratch buffer that returns itself to the pool on drop.
///
/// Backward closures capture forward-pass copies (e.g. a softmax
/// output) for the lifetime of the autograd graph; wrapping them in
/// `PooledBuf` recycles those copies when the graph is torn down at the
/// end of each batch.
pub(crate) struct PooledBuf {
    buf: Vec<f32>,
    device: Device,
}

impl PooledBuf {
    pub fn new(buf: Vec<f32>, device: Device) -> PooledBuf {
        PooledBuf { buf, device }
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.buf), self.device);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes pool tests: they mutate the one global pool. Other
    /// tensor-crate tests run concurrently and give/take *host* buffers
    /// through ordinary op calls, so every assertion below uses the
    /// accel shelf with odd sizes no op test allocates. A recycled
    /// buffer is recognized by its address, not its contents (debug
    /// builds poison those).
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn size_class_boundaries() {
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(2), 1);
        assert_eq!(size_class(3), 1);
        assert_eq!(size_class(4), 2);
        assert_eq!(size_class(1023), 9);
        assert_eq!(size_class(1024), 10);
    }

    #[test]
    fn same_size_request_hits() {
        let _g = serial();
        let donor = vec![7.0; 5077];
        let ptr = donor.as_ptr();
        give(donor, Device::Accel);
        let buf = take_uninit(5077, Device::Accel);
        assert_eq!(buf.len(), 5077);
        assert_eq!(buf.as_ptr(), ptr, "must be the recycled buffer");
    }

    #[test]
    fn smaller_request_scans_next_class() {
        let _g = serial();
        // 9001 is class 13; a request of 3333 (class 11) misses its own
        // class... give an exact-class buffer too to hit the own-class
        // path first.
        give(vec![1.0; 3400], Device::Accel);
        let own = take_zeroed(3333, Device::Accel);
        assert_eq!(own.len(), 3333);
        assert!(own.iter().all(|&v| v == 0.0), "take_zeroed must zero-fill");
        // Next-class fallback: only a class-12 buffer available.
        let donor = vec![2.0; 7000];
        let ptr = donor.as_ptr();
        give(donor, Device::Accel);
        let up = take_uninit(3600, Device::Accel);
        assert_eq!(up.len(), 3600);
        assert_eq!(up.as_ptr(), ptr, "served from the class above");
    }

    #[test]
    fn recycled_buffer_keeps_its_capacity_class() {
        let _g = serial();
        // A class-12 buffer serves a class-11 request and comes back:
        // it must still be there for the next class-12 request, not
        // filed away under the shorter length it was last used at.
        let donor = vec![3.0; 7001];
        let ptr = donor.as_ptr();
        give(donor, Device::Accel);
        let short = take_uninit(3601, Device::Accel);
        assert_eq!((short.len(), short.as_ptr()), (3601, ptr));
        give(short, Device::Accel);
        let long = take_uninit(6999, Device::Accel);
        assert_eq!((long.len(), long.as_ptr()), (6999, ptr), "the same buffer, back at nearly full length");
    }

    #[test]
    fn devices_do_not_mix() {
        let _g = serial();
        let donor = vec![7.5; 5077];
        let ptr = donor.as_ptr();
        give(donor, Device::Accel);
        // A host request must not drain the accel shelf.
        let host = take_uninit(5077, Device::Host);
        assert_ne!(host.as_ptr(), ptr);
        let accel = take_uninit(5077, Device::Accel);
        assert_eq!(accel.as_ptr(), ptr, "accel buffer stays on the accel shelf");
    }

    /// Debug builds poison every `take_uninit` buffer: a fresh one, a
    /// recycled one cut down to the request, and one regrown past its
    /// last length all come back NaN in every element.
    #[test]
    #[cfg(debug_assertions)]
    fn take_uninit_poisons_fresh_and_recycled_buffers() {
        let _g = serial();
        clear();
        let all_nan = |buf: &[f32]| buf.iter().all(|v| v.is_nan());
        let fresh = take_uninit(6007, Device::Accel);
        assert!(all_nan(&fresh), "a fresh buffer must come back all NaN");
        let donor = vec![1.5; 6007];
        let ptr = donor.as_ptr();
        give(donor, Device::Accel);
        let shrunk = take_uninit(5003, Device::Accel);
        assert_eq!(shrunk.as_ptr(), ptr);
        assert!(all_nan(&shrunk), "a recycled buffer must come back all NaN");
        // A buffer last used at 3000 of its 6007 elements.
        let partly_used = || {
            let mut buf = Vec::with_capacity(6007);
            buf.resize(3000, 2.5);
            let ptr = buf.as_ptr();
            give(buf, Device::Accel);
            ptr
        };
        let ptr = partly_used();
        let regrown = take_uninit(6007, Device::Accel);
        assert_eq!(regrown.as_ptr(), ptr);
        assert!(all_nan(&regrown), "a regrown buffer must come back all NaN");
        // `take_zeroed` clears the stale prefix and the regrown tail.
        let ptr = partly_used();
        let zeroed = take_zeroed(6007, Device::Accel);
        assert_eq!(zeroed.as_ptr(), ptr);
        assert!(zeroed.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn class_cap_bounds_held_buffers() {
        let _g = serial();
        let before = held(Device::Accel).0;
        for _ in 0..CLASS_CAP_MAX + 10 {
            give(vec![0.0; 777], Device::Accel);
        }
        assert!(held(Device::Accel).0 <= before + CLASS_CAP_MAX);
        // A class of 2-4 MiB buffers keeps 16 MiB worth, not 32 of them
        // (TGAT's `[E, 32]` activations sit there: held memory was 86 MB
        // in that class alone, for the same hit rate).
        let before = held(Device::Accel);
        for _ in 0..CLASS_CAP_MAX {
            give(vec![0.0; (1 << 19) + 5], Device::Accel);
        }
        let grown = held(Device::Accel);
        assert_eq!(grown.0 - before.0, 8);
        assert!(grown.1 - before.1 <= 4 * CLASS_ELEMS as u64 + 8 * 4 * 5);
        while shelf(Device::Accel).lock().take(1 << 19).is_some() {} // drain the class
    }

    #[test]
    fn full_class_keeps_the_roomiest_buffers() {
        let _g = serial();
        // Fill class 17 (131072..262143 elements; unused by op tests on
        // this shelf) with small-capacity buffers, then hand back one
        // near the top of the class, as the largest batch of an epoch
        // does: it must still be there for that batch's next visit.
        for _ in 0..CLASS_CAP_MAX {
            give(vec![1.0; 131_101], Device::Accel);
        }
        let donor = vec![2.0; 260_003];
        let ptr = donor.as_ptr();
        give(donor, Device::Accel);
        let big = take_uninit(260_003, Device::Accel);
        assert_eq!(big.as_ptr(), ptr, "a full class must not drop its roomiest buffer");
        // A buffer smaller than everything held is the one freed.
        give(big, Device::Accel);
        let held_before = held(Device::Accel);
        give(vec![3.0; 131_073], Device::Accel);
        assert_eq!(held(Device::Accel), held_before);
        while shelf(Device::Accel).lock().take(131_073).is_some() {} // drain the class
    }

    #[test]
    fn a_request_past_its_class_grows_the_roomiest_buffer() {
        let _g = serial();
        clear();
        // Class 12 (4096..8191) holds two buffers too small for 6500.
        give(vec![1.0; 5000], Device::Accel);
        give(vec![1.0; 6000], Device::Accel);
        let grown = take_zeroed(6500, Device::Accel);
        assert_eq!(grown.len(), 6500);
        assert!(grown.iter().all(|&v| v == 0.0), "take_zeroed must zero-fill a grown buffer");
        // The 6000 was grown; the 5000 is still there for a request it
        // fits.
        assert_eq!(held(Device::Accel).0, 1);
        assert_eq!(take_uninit(5000, Device::Accel).capacity(), 5000);
        // An empty class still allocates.
        assert_eq!(take_uninit(6500, Device::Accel).len(), 6500);
        assert_eq!(held(Device::Accel).0, 0);
    }

    #[test]
    fn zero_len_is_free() {
        let _g = serial();
        let before = held(Device::Accel);
        give(Vec::new(), Device::Accel);
        assert_eq!(held(Device::Accel), before);
        assert!(take_uninit(0, Device::Accel).is_empty());
    }

    #[test]
    fn pooled_buf_returns_on_drop() {
        let _g = serial();
        let donor = vec![6.25; 4444];
        let ptr = donor.as_ptr();
        drop(PooledBuf::new(donor, Device::Accel));
        let back = take_uninit(4444, Device::Accel);
        assert_eq!(back.as_ptr(), ptr, "PooledBuf must donate its buffer on drop");
    }
}
