//! The process CPU clock the harness and the benchmarks measure with.

/// Seconds of CPU time this process has consumed (user + system,
/// all threads), at the kernel's nanosecond resolution. Used instead
/// of wall time for the paper-reproduction measurements: shared-host
/// CPU steal makes wall clocks noisy by 2-4x across minutes, while CPU
/// time only counts cycles actually executed (including the transfer
/// model's simulated-PCIe spins). `/proc/self/stat` carries the same
/// quantity in 10 ms ticks, coarser than a JODIE epoch or a test pass.
/// Falls back to the wall clock on other targets.
pub fn process_cpu_seconds() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct timespec` where `time_t` and `long` are 64 bits.
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            // libc's, which std already links.
            fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut t = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `t` is a live, writable `timespec` of this target's
        // layout; the call writes nothing else.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) } == 0 {
            return t.sec as f64 + t.nsec as f64 * 1e-9;
        }
    }
    use std::time::SystemTime;
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}
