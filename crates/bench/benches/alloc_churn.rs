//! Allocation-churn benchmark for the tensor buffer pool.
//!
//! Runs one tiny TGLite+opt training epoch twice — once with the pool
//! recycling buffers (the default) and once with recycling disabled
//! (`TGL_POOL=off` semantics) — and reports, via the pool's own
//! counters, how many backing buffers and bytes each configuration
//! had to allocate. With recycling off every request is a miss, so the
//! miss/alloc-bytes deltas are exactly the allocation churn of the
//! epoch. The headline claim this measures: with the pool on, an epoch
//! performs O(parameters) heap allocations instead of O(ops × batches).
//!
//! The two runs must also be *bitwise identical*: recycled buffers are
//! dirty, so any kernel that reads an element it did not write would
//! show up here as a loss divergence. The bench hard-fails on that.
//!
//! Results go to `BENCH_alloc.json` at the workspace root. CI runs this
//! as a smoke test (`scripts/ci.sh`); `ALLOC_BENCH_SCALE` shrinks or
//! grows the dataset (default 4 = Wikipedia/4; the epoch must be long
//! enough that steady-state recycling, not the O(parameters)
//! first-touch misses, dominates the counts).

use std::time::Instant;

use tgl_data::DatasetKind;
use tgl_harness::{run_experiment, ExperimentConfig, Framework, ModelKind, Placement};
use tgl_models::ModelConfig;
use tgl_obs::metrics;
use tgl_tensor::pool;

/// Pool counter deltas plus losses for one training epoch.
struct EpochRun {
    requests: u64,
    hits: u64,
    misses: u64,
    alloc_bytes: u64,
    recycled_bytes: u64,
    losses: Vec<f32>,
    wall_s: f64,
}

const POOL_COUNTERS: [&str; 5] = [
    "tensor.pool.request",
    "tensor.pool.hit",
    "tensor.pool.miss",
    "tensor.pool.alloc_bytes",
    "tensor.pool.recycled_bytes",
];

fn fixture() -> ExperimentConfig {
    let scale = tgl_bench::env_count("ALLOC_BENCH_SCALE", 4);
    let mut cfg = ExperimentConfig::paper_default(
        Framework::TgLiteOpt,
        ModelKind::Tgat,
        DatasetKind::Wiki,
        Placement::AllOnDevice,
    );
    cfg.dataset = cfg.dataset.scaled_down(scale);
    cfg.model_cfg = ModelConfig::tiny();
    cfg.train_cfg.epochs = 1;
    cfg.train_cfg.batch_size = 60;
    cfg
}

/// Runs the fixture epoch with recycling toggled and captures the pool
/// counter deltas over it.
fn run_epoch(cfg: &ExperimentConfig, pool_on: bool) -> EpochRun {
    // Start both configurations from the same state: empty free lists
    // (a pre-warmed pool would understate the on-path's first-touch
    // misses) and live counters.
    pool::set_enabled(pool_on);
    pool::clear();
    metrics::set_enabled(true);
    let before: Vec<u64> = POOL_COUNTERS.iter().map(|n| metrics::get(n)).collect();
    let t0 = Instant::now();
    let result = run_experiment(cfg);
    let wall_s = t0.elapsed().as_secs_f64();
    let delta: Vec<u64> = POOL_COUNTERS
        .iter()
        .zip(&before)
        .map(|(n, b)| metrics::get(n) - b)
        .collect();
    EpochRun {
        requests: delta[0],
        hits: delta[1],
        misses: delta[2],
        alloc_bytes: delta[3],
        recycled_bytes: delta[4],
        losses: result.epochs.iter().map(|e| e.loss).collect(),
        wall_s,
    }
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn run_json(r: &EpochRun) -> String {
    format!(
        "{{\"requests\": {}, \"hits\": {}, \"buffer_allocs\": {}, \"alloc_bytes\": {}, \
         \"recycled_bytes\": {}, \"wall_s\": {:.3}}}",
        r.requests, r.hits, r.misses, r.alloc_bytes, r.recycled_bytes, r.wall_s
    )
}

fn main() {
    println!("== tensor pool allocation churn (one TGAT epoch, Wiki/scale) ==");
    let cfg = fixture();

    // Off first, then on: the on-run's pool state is then self-built,
    // and neither run sees buffers donated by the other.
    let off = run_epoch(&cfg, false);
    let on = run_epoch(&cfg, true);
    pool::set_enabled(true);
    pool::clear();

    let bitwise = on.losses.len() == off.losses.len()
        && on
            .losses
            .iter()
            .zip(&off.losses)
            .all(|(a, b)| a.to_bits() == b.to_bits());

    let alloc_ratio = off.misses as f64 / (on.misses.max(1)) as f64;
    let bytes_ratio = off.alloc_bytes as f64 / (on.alloc_bytes.max(1)) as f64;

    println!(
        "  pool off: {:>9} buffer allocs, {:>9.1} MiB allocated, {:.2}s",
        off.misses,
        mib(off.alloc_bytes),
        off.wall_s
    );
    println!(
        "  pool on : {:>9} buffer allocs, {:>9.1} MiB allocated, {:.2}s \
         ({} hits, {:.1} MiB recycled)",
        on.misses,
        mib(on.alloc_bytes),
        on.wall_s,
        on.hits,
        mib(on.recycled_bytes)
    );
    println!("  allocation ratio (off/on): {alloc_ratio:.1}x   bytes ratio: {bytes_ratio:.1}x");
    println!("  losses bitwise identical : {bitwise}");

    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    s.push_str(&format!("  \"pool_off\": {},\n", run_json(&off)));
    s.push_str(&format!("  \"pool_on\": {},\n", run_json(&on)));
    s.push_str(&format!("  \"alloc_ratio\": {alloc_ratio:.2},\n"));
    s.push_str(&format!("  \"bytes_ratio\": {bytes_ratio:.2},\n"));
    s.push_str(&format!("  \"losses_bitwise_identical\": {bitwise}\n"));
    s.push_str("}\n");
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_alloc.json");
    match std::fs::write(&path, &s) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    // Recycling must be invisible to the numerics; anything else means
    // a kernel read an element of a dirty buffer it never wrote.
    assert!(
        bitwise,
        "pool-on and pool-off epochs diverged: {:?} vs {:?}",
        on.losses, off.losses
    );
    // The headline claim, enforced: recycling eliminates the vast
    // majority of buffer allocations and allocated bytes.
    assert!(
        alloc_ratio >= 10.0,
        "expected >=10x fewer buffer allocations with the pool on, got {alloc_ratio:.1}x"
    );
    assert!(
        bytes_ratio >= 5.0,
        "expected >=5x fewer allocated bytes with the pool on, got {bytes_ratio:.1}x"
    );
    println!("alloc churn guard passed");
}
