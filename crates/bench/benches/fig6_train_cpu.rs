//! Regenerates **Figure 6** — training time per epoch (seconds) with
//! feature data resident on CPU host memory (the CPU-to-GPU case),
//! from a host-resident grid run once and measured by this run.
//!
//! Expected shape (paper §5.2.2): TGL takes noticeably longer than its
//! all-on-GPU times (the paper reports ≈4×); TGLite's pinned-pool
//! `preload()` gives 1.29–1.62×; TGLite+opt reaches 1.41–3.43×.

use tgl_bench::{preamble, print_epoch_times, standard_grid};
use tgl_harness::Placement;

fn main() {
    preamble(
        "Figure 6: training time per epoch, CPU-to-GPU",
        "paper §5.2.2, Figure 6",
    );
    print_epoch_times(&standard_grid(Placement::HostResident));
    println!("\n(speedups vs TGL; host-resident features cross the scaled");
    println!(" PCIe cost model — pageable for TGL, pinned pool for TGLite)");
}
