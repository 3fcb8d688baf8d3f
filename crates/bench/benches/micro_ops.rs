//! Std-only microbenchmarks for the operators underneath the paper's
//! results: temporal sampling, segmented kernels, the redundancy
//! operators, time precomputation, and tier transfers. These support
//! the Fig. 7 breakdown analysis at operator granularity.
//!
//! The second half sweeps the `tgl-runtime` pool over 1..=N threads for
//! the three hottest parallel kernels (dense matmul, segment softmax,
//! batch temporal sampling) and writes the measurements to
//! `BENCH_parallel.json` at the workspace root so the perf trajectory
//! is recorded per machine. Speedups are relative to the same kernel
//! forced onto one thread; on a single-core host the sweep still runs
//! (validating determinism and overhead) but cannot show wall-clock
//! gains, so the JSON also records `host_cpus`.

use std::sync::Arc;
use std::time::Instant;

use tgl_runtime::rng::{SeedableRng, StdRng};
use tgl_runtime::set_threads;

use tgl_data::{generate, DatasetKind, DatasetSpec};
use tgl_device::{Device, PinnedPool};
use tgl_sampler::{SamplingStrategy, TemporalSampler};
use tgl_tensor::ops::{
    cat, linear_cat, segment_dot, segment_softmax, segment_sum, segment_weighted_sum, time_encode,
};
use tgl_tensor::Tensor;
use tglite::nn::TimeEncode;
use tglite::{op, TBlock, TContext, TSampler};

/// Times `f`, adaptively picking an iteration count that fills roughly
/// `budget_s` seconds, and returns mean seconds per iteration.
fn time_it<R>(mut f: impl FnMut() -> R, budget_s: f64) -> f64 {
    // Warm-up + calibration run.
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((budget_s / once) as usize).clamp(1, 10_000);
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// Like [`time_it`] for a step that times itself (so set-up inside
/// `once` stays outside the measurement): mean of the seconds `once`
/// returns over roughly `budget_s` of them.
fn mean_of(mut once: impl FnMut() -> f64, budget_s: f64) -> f64 {
    let iters = ((budget_s / once().max(1e-9)) as usize).clamp(1, 10_000);
    (0..iters).map(|_| once()).sum::<f64>() / iters as f64
}

fn report<R>(name: &str, f: impl FnMut() -> R) {
    let s = time_it(f, 0.3);
    println!("  {name:<36} {:>12.1} us/iter", s * 1e6);
}

fn setup() -> (Arc<tglite::TGraph>, TContext) {
    let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(4);
    let (g, _) = generate(&spec);
    let ctx = TContext::new(Arc::clone(&g));
    (g, ctx)
}

fn bench_sampler() {
    let (g, _ctx) = setup();
    let csr = g.tcsr();
    let n = 512usize;
    let nodes: Vec<u32> = (0..n as u32).map(|i| i % g.num_nodes() as u32).collect();
    let times: Vec<f64> = vec![g.max_time(); n];
    let recent = TemporalSampler::new(10, SamplingStrategy::Recent);
    let uniform = TemporalSampler::new(10, SamplingStrategy::Uniform);
    // Sequential: the per-query cost, not the pool's.
    let before = tgl_runtime::current_threads();
    set_threads(1);
    report("sampler_recent_512x10", || recent.sample(&csr, &nodes, &times));
    report("sampler_uniform_512x10", || uniform.sample(&csr, &nodes, &times));
    set_threads(before);
}

fn bench_segment_ops() {
    let mut rng = StdRng::seed_from_u64(0);
    let n = 4096;
    let d = 32;
    let vals = Tensor::rand_uniform([n, d], -1.0, 1.0, &mut rng);
    let logits = Tensor::rand_uniform([n, 2], -1.0, 1.0, &mut rng);
    let seg: Vec<usize> = (0..n).map(|i| i / 10).collect();
    let nseg = n / 10 + 1;
    report("segment_sum_4096x32", || segment_sum(&vals, &seg, nseg));
    report("segment_softmax_4096x2", || segment_softmax(&logits, &seg, nseg));
}

fn bench_redundancy_ops() {
    let (_g, ctx) = setup();
    // Heavily duplicated destinations (the dedup win case).
    let nodes: Vec<u32> = (0..600u32).map(|i| i % 50).collect();
    let times: Vec<f64> = (0..600).map(|i| (i % 25) as f64 * 100.0 + 1000.0).collect();
    report("dedup_600_dsts", || {
        let blk = TBlock::new(&ctx, 0, nodes.clone(), times.clone());
        op::dedup(&blk);
        blk.num_dst()
    });
    // Cache with a warm table.
    let warm = TBlock::new(&ctx, 0, nodes.clone(), times.clone());
    op::cache(&ctx, &warm);
    let k = warm.num_dst();
    warm.run_hooks(Tensor::zeros([k, 32]));
    report("cache_600_dsts_warm", || {
        let blk = TBlock::new(&ctx, 0, nodes.clone(), times.clone());
        op::cache(&ctx, &blk);
        blk.num_dst()
    });
}

fn bench_time_encode() {
    let (_g, ctx) = setup();
    let mut rng = StdRng::seed_from_u64(1);
    let enc = TimeEncode::new(16, &mut rng);
    // Quantized deltas: few distinct values (the precompute win case).
    let deltas: Vec<f32> = (0..2048).map(|i| (i % 40) as f32 * 900.0).collect();
    report("time_encode_direct_2048", || enc.forward(&deltas));
    let tensor = |d: &[f32]| Tensor::from_vec(d.to_vec(), [d.len()]);
    report("time_encode_precomputed_2048", || op::precomputed_times(&ctx, &enc, &tensor(&deltas)));
    // What sampled-neighbor deltas look like on `tgat_infer` (where a
    // memo of Φ rows lost to recomputing them): 6 000 per call, ~98%
    // distinct within the call, ~57% of them seen in the call before.
    let calls: Vec<Vec<f32>> = (0..8usize)
        .map(|c| {
            (0..6000usize)
                .map(|i| {
                    let fresh = i % 100 >= 57;
                    let id = if fresh { c * 6000 + i } else { (c + 7) % 8 * 6000 + i + 57 };
                    (id % 47_000 - i % 50 / 49) as f32 * 3.5
                })
                .collect()
        })
        .collect();
    let mut turn = 0;
    report("time_encode_precomputed_6000_mixed", || {
        turn = (turn + 1) % calls.len();
        op::precomputed_times(&ctx, &enc, &tensor(&calls[turn]))
    });
    report("time_zeros_precomputed_600", || op::precomputed_zeros(&ctx, &enc, 600));
}

fn bench_transfers() {
    tgl_device::set_transfer_model(tgl_device::TransferModel::disabled());
    let t = Tensor::zeros([512, 64]);
    let pool = PinnedPool::new();
    report("transfer_pageable_128k", || t.to(Device::Accel));
    report("transfer_pinned_128k", || t.to_pinned(Device::Accel, &pool));
}

fn bench_sampling_block_path() {
    let (g, ctx) = setup();
    let sampler = TSampler::new(10, SamplingStrategy::Recent);
    let nodes: Vec<u32> = (0..256u32).map(|i| i % g.num_nodes() as u32).collect();
    let times = vec![g.max_time(); 256];
    report("block_sample_and_chain", || {
        let head = TBlock::new(&ctx, 0, nodes.clone(), times.clone());
        sampler.sample(&head);
        let tail = head.next_block();
        sampler.sample(&tail);
        tail.num_edges()
    });
}

fn bench_matmul() {
    let mut rng = StdRng::seed_from_u64(2);
    let a = Tensor::rand_uniform([256, 256], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform([256, 256], -1.0, 1.0, &mut rng);
    report("matmul_256", || a.matmul(&b));
}

/// One measured GEMM cell: entry point `op` (`nn` forward, `nt` / `tn`
/// the two backward products, `linear` / `linear.bwd` the fused layer
/// and its two-product backward) at forward shape `m x k x n`.
struct GemmCell {
    op: &'static str,
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    secs: f64,
    gflops: f64,
}

impl GemmCell {
    fn new(op: &'static str, (m, k, n): (usize, usize, usize), threads: usize, secs: f64) -> GemmCell {
        let products = if op == "linear.bwd" { 2.0 } else { 1.0 };
        let gflops = products * 2.0 * (m * k * n) as f64 / secs / 1e9;
        println!(
            "  gemm_{op}_{:<18} t={threads:<2} {:>12.1} us/iter  {gflops:>7.2} GFLOP/s",
            format!("{m}x{k}x{n}"),
            secs * 1e6
        );
        GemmCell { op, m, k, n, threads, secs, gflops }
    }

    /// The row, with the `"kernel": "exact"` identity field every row
    /// has carried since the series were split by kernel mode, so that
    /// `scripts/bench_trend` still matches it to the committed one.
    fn json(&self, extra: &str) -> String {
        format!(
            "{{\"op\": {:?}, \"m\": {}, \"k\": {}, \"n\": {}, \"kernel\": \"exact\", \"threads\": {}, \"secs\": {:.6e}, \"gflops\": {:.3}{extra}}}",
            self.op, self.m, self.k, self.n, self.threads, self.secs, self.gflops
        )
    }
}

/// The two matmul shapes that dominate a TGAT epoch's op profile; the
/// `nt` / `tn` rows are measured here.
const BWD_SHAPES: [(usize, usize, usize); 2] = [(512, 32, 32), (4608, 80, 32)];

/// Mean seconds of one backward sweep through `a.matmul(&b)` in which
/// only one operand needs a gradient, so exactly one transposed GEMM
/// runs: `nt` is `dA = dC·Bᵀ`, `tn` is `dB = Aᵀ·dC`. The forward and
/// the seed copy sit outside the timed region.
fn time_backward_gemm(op: &str, (m, k, n): (usize, usize, usize), budget_s: f64) -> f64 {
    let mut rng = StdRng::seed_from_u64(5);
    let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng).requires_grad(op == "nt");
    let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng).requires_grad(op == "tn");
    let seed = Tensor::rand_uniform([m, n], -1.0, 1.0, &mut rng).to_vec();
    let once = || {
        let y = a.matmul(&b);
        let go = seed.clone();
        let t0 = Instant::now();
        y.backward_with(go);
        let secs = t0.elapsed().as_secs_f64();
        a.zero_grad();
        b.zero_grad();
        secs
    };
    mean_of(once, budget_s)
}

/// Mean seconds of `x.linear(w, b, relu = false)` forward (`bwd` false)
/// or of the backward sweep through it with all three inputs on the
/// graph (`dX = dY·W`, `dW = dYᵀ·X`, `db`), at forward shape
/// `[m, k] x [n, k]`.
fn time_linear(bwd: bool, (m, k, n): (usize, usize, usize), budget_s: f64) -> f64 {
    let mut rng = StdRng::seed_from_u64(5);
    let x = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng).requires_grad(bwd);
    let w = Tensor::rand_uniform([n, k], -1.0, 1.0, &mut rng).requires_grad(bwd);
    let b = Tensor::rand_uniform([n], -1.0, 1.0, &mut rng).requires_grad(bwd);
    if !bwd {
        return time_it(|| x.linear(&w, Some(&b), false), budget_s);
    }
    let seed = Tensor::rand_uniform([m, n], -1.0, 1.0, &mut rng).to_vec();
    let once = || {
        let y = x.linear(&w, Some(&b), false);
        let go = seed.clone();
        let t0 = Instant::now();
        y.backward_with(go);
        let secs = t0.elapsed().as_secs_f64();
        [&x, &w, &b].into_iter().for_each(Tensor::zero_grad);
        secs
    };
    mean_of(once, budget_s)
}

/// Times the cache-blocked GEMM over a size series that spans the
/// L1/L2 tiling regimes plus attention-shaped skinny GEMMs
/// (m = batch*heads, k = dim-per-head, small n = neighbor fan-out),
/// then scales 512^3 over the pool's thread counts. Writes `BENCH_micro_gemm.json` at the workspace root.
/// GFLOP/s uses the usual 2·m·k·n flop count for C += A·B.
fn bench_gemm_series(counts: &[usize]) {
    const SIZES: [(usize, usize, usize); 9] = [
        (64, 64, 64),
        (128, 128, 128),
        (256, 256, 256),
        (512, 512, 512),
        (384, 768, 96),  // skinny output panel (embedding-sized)
        (96, 384, 768),  // wide output panel
        (400, 16, 10),   // attention scores: (batch*heads) x dim_per_head x fanout
        (400, 10, 16),   // attention output: (batch*heads) x fanout x dim_per_head
        (800, 32, 16),   // wider heads, deeper fan-in
    ];
    let mut cells = Vec::new();
    set_threads(1);
    let mut rng = StdRng::seed_from_u64(3);
    println!();
    println!("== single-thread GEMM series (blocked kernel) ==");
    for (m, k, n) in SIZES {
        let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
        let secs = time_it(|| a.matmul(&b), 0.4);
        cells.push(GemmCell::new("nn", (m, k, n), 1, secs));
    }

    // Thread scaling of the row-panel parallel GEMM at 512^3.
    let mut tcells = Vec::new();
    println!();
    println!("== GEMM thread scaling (512^3, one row panel per thread) ==");
    let mut rng = StdRng::seed_from_u64(3);
    let a = Tensor::rand_uniform([512, 512], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform([512, 512], -1.0, 1.0, &mut rng);
    for &t in counts {
        set_threads(t);
        let secs = time_it(|| a.matmul(&b), 0.4);
        tcells.push(GemmCell::new("nn", (512, 512, 512), t, secs));
    }

    // The transposed entry points autograd uses, beside `nn` at the
    // same shapes, at every swept thread count. Appended after the
    // older series so `scripts/bench_trend` keeps matching those by
    // position.
    println!();
    println!("== backward GEMMs (nt: dA = dC.Bt, tn: dB = At.dC) vs forward nn ==");
    for shape in BWD_SHAPES {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::rand_uniform([shape.0, shape.1], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([shape.1, shape.2], -1.0, 1.0, &mut rng);
        for &t in counts {
            set_threads(t);
            let nn = time_it(|| a.matmul(&b), 0.3);
            let series = if t == 1 { &mut cells } else { &mut tcells };
            series.push(GemmCell::new("nn", shape, t, nn));
            for op in ["nt", "tn"] {
                let secs = time_backward_gemm(op, shape, 0.3);
                series.push(GemmCell::new(op, shape, t, secs));
            }
        }
    }
    // The fused `Linear` op (GEMM on the stored weight + bias epilogue,
    // one backward node) at the same two shapes, after everything older.
    println!();
    println!("== fused linear (x.Wt + b) forward and backward ==");
    for shape in BWD_SHAPES {
        for &t in counts.iter().filter(|&&t| t <= 2) {
            set_threads(t);
            let series = if t == 1 { &mut cells } else { &mut tcells };
            for (op, bwd) in [("linear", false), ("linear.bwd", true)] {
                let secs = time_linear(bwd, shape, 0.3);
                series.push(GemmCell::new(op, shape, t, secs));
            }
        }
    }
    // Outputs narrower than a register tile (the predictor's single
    // column, a 16-wide time encoding): one vector of the tile, not a
    // padded whole one. One thread, after everything older.
    println!();
    println!("== narrow outputs (one vector of the register tile) ==");
    set_threads(1);
    let mut rng = StdRng::seed_from_u64(3);
    for (m, k, n) in [(4608, 80, 1), (4608, 32, 16)] {
        let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
        let secs = time_it(|| a.matmul(&b), 0.3);
        cells.push(GemmCell::new("nn", (m, k, n), 1, secs));
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    s.push_str(&format!("  \"simd\": {:?},\n", tgl_tensor::kernel::simd_label()));
    s.push_str("  \"threads\": 1,\n  \"results\": [\n");
    let rows: Vec<String> = cells.iter().map(|c| format!("    {}", c.json(""))).collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"multi_thread\": [\n");
    // Speedup against the one-thread cell of the same op and shape (the
    // 512^3 sweep carries its own; the backward shapes find theirs in
    // the single-thread series).
    let rows: Vec<String> = tcells
        .iter()
        .map(|c| {
            let base = tcells
                .iter()
                .chain(&cells)
                .find(|b| {
                    b.threads == 1 && (b.op, b.m, b.k, b.n) == (c.op, c.m, c.k, c.n)
                })
                .map_or(f64::NAN, |b| b.secs);
            format!("    {}", c.json(&format!(", \"speedup_vs_1t\": {:.3}", base / c.secs)))
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_micro_gemm.json");
    match std::fs::write(&path, &s) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// One measured cell of the thread sweep.
struct SweepCell {
    bench: String,
    threads: usize,
    secs: f64,
}

/// The attention segment kernels, forward and backward, at 1 and 2
/// threads: `segment_dot` and
/// `segment_weighted_sum` at one TGAT batch's shape (6 000 sampled edges
/// over 600 destinations, 2 heads of 16), then those two and
/// `segment_softmax` at TGAT's measured per-layer shapes on Wiki (4 430
/// edges over 600 destinations and 11 803 over 1 600, nondecreasing
/// ids as a block hands them over).
fn attention_kernel_sweep(counts: &[usize]) -> Vec<SweepCell> {
    let (h, d) = (2usize, 16usize);
    let mut rng = StdRng::seed_from_u64(11);
    let shapes = [(6000usize, 600usize, false), (4430, 600, true), (11803, 1600, true)];
    let mut cells = Vec::new();
    for (e, s, softmax) in shapes {
        let seg: Vec<usize> = (0..e).map(|i| i * s / e).collect();
        let q = Tensor::rand_uniform([s, h * d], -1.0, 1.0, &mut rng).requires_grad(true);
        let k = Tensor::rand_uniform([e, h * d], -1.0, 1.0, &mut rng).requires_grad(true);
        let a = Tensor::rand_uniform([e, h], 0.0, 1.0, &mut rng).requires_grad(true);
        let backward = |y: Tensor| {
            let go = vec![1.0; y.numel()];
            let t0 = Instant::now();
            y.backward_with(go);
            let secs = t0.elapsed().as_secs_f64();
            [&q, &k, &a].into_iter().for_each(Tensor::zero_grad);
            secs
        };
        for &t in counts.iter().filter(|&&t| t <= 2) {
            set_threads(t);
            let scale = 1.0 / (d as f32).sqrt();
            let mut timed = vec![
                ("segment_dot", time_it(|| segment_dot(&q, &k, &seg, h, scale), 0.3)),
                ("segment_dot_bwd", mean_of(|| backward(segment_dot(&q, &k, &seg, h, scale)), 0.3)),
                ("segment_weighted_sum", time_it(|| segment_weighted_sum(&k, &a, &seg, s), 0.3)),
                (
                    "segment_weighted_sum_bwd",
                    mean_of(|| backward(segment_weighted_sum(&k, &a, &seg, s)), 0.3),
                ),
            ];
            if softmax {
                timed.push(("segment_softmax", time_it(|| segment_softmax(&a, &seg, s), 0.3)));
                timed.push(("segment_softmax_bwd", mean_of(|| backward(segment_softmax(&a, &seg, s)), 0.3)));
            }
            cells.extend(timed.into_iter().map(|(kernel, secs)| SweepCell {
                // The `_exact` suffix keeps the committed rows' names.
                bench: format!("{kernel}_{e}x{h}x{d}_exact"),
                threads: t,
                secs,
            }));
        }
    }
    cells
}

/// TGN's memory cell (`in = 112`: mail 96 + time 16, `H = 32`) at one
/// batch's distinct nodes (512) and at a tail block's rows (4608),
/// forward and backward: the two `linear`s followed by the fused
/// `gru_gates` kernel (what `GruCell::forward` runs) against the gate
/// chain it replaced (six strided gathers, nine elementwise nodes),
/// at 1 and 2 threads.
fn gru_cell_sweep(counts: &[usize]) -> Vec<SweepCell> {
    let (input, hid) = (112usize, 32usize);
    let mut rng = StdRng::seed_from_u64(13);
    let mut param = |dims: &[usize]| {
        Tensor::rand_uniform(dims.to_vec(), -0.2, 0.2, &mut rng).requires_grad(true)
    };
    let (w_ih, w_hh) = (param(&[3 * hid, input]), param(&[3 * hid, hid]));
    let (b_ih, b_hh) = (param(&[3 * hid]), param(&[3 * hid]));
    let params = [&w_ih, &w_hh, &b_ih, &b_hh];
    let cell = |x: &Tensor, h: &Tensor, fused: bool| {
        let gi = x.linear(&w_ih, Some(&b_ih), false);
        let gh = h.linear(&w_hh, Some(&b_hh), false);
        if fused {
            return tgl_tensor::ops::gru_gates(&gi, &gh, h);
        }
        let n = x.dim(0);
        let split = |g: &Tensor, k: usize| {
            let rows: Vec<usize> = (0..n).map(|r| r * 3 + k).collect();
            g.reshape([n * 3, hid]).index_select(&rows).reshape([n, hid])
        };
        let r = split(&gi, 0).add(&split(&gh, 0)).sigmoid();
        let z = split(&gi, 1).add(&split(&gh, 1)).sigmoid();
        let c = split(&gi, 2).add(&r.mul(&split(&gh, 2))).tanh();
        c.addcmul(&z, &h.sub(&c), 1.0)
    };
    let backward = |y: Tensor| {
        let go = vec![1.0; y.numel()];
        let t0 = Instant::now();
        y.backward_with(go);
        let secs = t0.elapsed().as_secs_f64();
        params.into_iter().for_each(Tensor::zero_grad);
        secs
    };
    let mut cells = Vec::new();
    for n in [512usize, 4608] {
        let mut rng = StdRng::seed_from_u64(17);
        let x = Tensor::rand_uniform([n, input], -1.0, 1.0, &mut rng);
        let h = Tensor::rand_uniform([n, hid], -1.0, 1.0, &mut rng);
        for &t in counts.iter().filter(|&&t| t <= 2) {
            set_threads(t);
            let timed = [
                ("gru_cell", time_it(|| cell(&x, &h, true), 0.3)),
                ("gru_cell_bwd", mean_of(|| backward(cell(&x, &h, true)), 0.3)),
                ("gru_cell_chain", time_it(|| cell(&x, &h, false), 0.3)),
                ("gru_cell_chain_bwd", mean_of(|| backward(cell(&x, &h, false)), 0.3)),
            ];
            cells.extend(timed.map(|(kernel, secs)| SweepCell {
                // The `_exact` suffix keeps the committed rows' names.
                bench: format!("{kernel}_{n}x{input}x{hid}_exact"),
                threads: t,
                secs,
            }));
        }
    }
    cells
}

/// The two kernels of a TGAT step that are not GEMMs on one operand,
/// at one tail block's rows (4612 sampled edges), forward and training
/// step (forward + backward), at 1 and 2 threads:
///
/// * `time_encode_4612x16_trained`: Φ(Δt) with the arguments a training
///   epoch produces, not the fresh encoder's. Twenty Adam steps at lr
///   1e-3 move the small frequencies of the geometric ladder to |ω| of
///   2-6e-3, and Wiki's Δt reaches 1.07e6 (median 1.3e5), so every
///   column's argument is in the thousands of radians. The fresh-init
///   row `time_encode_direct_2048` keeps most columns under a radian
///   and understated libm's cost three times over (6.7 ns against 21
///   ns per element) while `cos` was libm's.
/// * `linear_4612x(32+32+16)x32`: `W_k [h_src ‖ e ‖ Φ]` through
///   `linear_cat` on the parts (`parts`) and through `cat` + `linear`
///   (`cat`), with the raw edge features off the graph as in the
///   model.
fn non_gemm_third_sweep(counts: &[usize]) -> Vec<SweepCell> {
    let e = 4612usize;
    let mut rng = StdRng::seed_from_u64(19);
    let mut uniform = |dims: &[usize], lo: f32, hi: f32| Tensor::rand_uniform(dims.to_vec(), lo, hi, &mut rng);
    let deltas = Tensor::from_vec(uniform(&[e], 0.0, 1.0).to_vec().iter().map(|u| 1.07e6 * u * u * u).collect(), [e]);
    let drift = uniform(&[16], -1.0, 1.0).to_vec();
    let freq: Vec<f32> = (0..16)
        .map(|j| 10f32.powf(-(j as f32) * 9.0 / 16.0) + drift[j].signum() * (2e-3 + 4e-3 * drift[j].abs()))
        .collect();
    let freq = Tensor::from_vec(freq, [16]).requires_grad(true);
    let phase = uniform(&[16], -0.02, 0.02).requires_grad(true);

    let (h_src, efeat, phi) = (uniform(&[e, 32], -1.0, 1.0), uniform(&[e, 32], -1.0, 1.0), uniform(&[e, 16], -1.0, 1.0));
    let (h_src, phi) = (h_src.requires_grad(true), phi.requires_grad(true));
    let w = uniform(&[32, 80], -0.2, 0.2).requires_grad(true);
    let b = uniform(&[32], -0.2, 0.2).requires_grad(true);
    let project = |parts: bool| {
        if parts {
            linear_cat(&[&h_src, &efeat, &phi], &w, Some(&b), false)
        } else {
            cat(&[h_src.clone(), efeat.clone(), phi.clone()], 1).linear(&w, Some(&b), false)
        }
    };
    let step = |y: Tensor| {
        y.backward_with(vec![1.0; y.numel()]);
        [&freq, &phase, &h_src, &phi, &w, &b].into_iter().for_each(Tensor::zero_grad);
    };
    let mut cells = Vec::new();
    for &t in counts.iter().filter(|&&t| t <= 2) {
        set_threads(t);
        let timed = [
            ("time_encode_4612x16_trained", time_it(|| time_encode(&deltas, &freq, &phase), 0.3)),
            ("time_encode_4612x16_trained_step", time_it(|| step(time_encode(&deltas, &freq, &phase)), 0.3)),
            ("linear_4612x(32+32+16)x32_parts", time_it(|| project(true), 0.3)),
            ("linear_4612x(32+32+16)x32_parts_step", time_it(|| step(project(true)), 0.3)),
            ("linear_4612x(32+32+16)x32_cat", time_it(|| project(false), 0.3)),
            ("linear_4612x(32+32+16)x32_cat_step", time_it(|| step(project(false)), 0.3)),
        ];
        cells.extend(timed.map(|(bench, secs)| SweepCell { bench: bench.into(), threads: t, secs }));
    }
    cells
}

/// Sweeps the three hottest parallel kernels over the given thread
/// counts and returns per-cell timings.
fn thread_sweep(counts: &[usize]) -> Vec<SweepCell> {
    let mut rng = StdRng::seed_from_u64(7);
    let a = Tensor::rand_uniform([512, 512], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform([512, 512], -1.0, 1.0, &mut rng);

    let n = 32 * 1024;
    let d = 16;
    let vals = Tensor::rand_uniform([n, d], -1.0, 1.0, &mut rng);
    let seg: Vec<usize> = (0..n).map(|i| i / 10).collect();
    let nseg = n / 10 + 1;

    let (g, _ctx) = setup();
    let csr = g.tcsr();
    let batch = 1024usize;
    let nodes: Vec<u32> = (0..batch as u32).map(|i| i % g.num_nodes() as u32).collect();
    let times: Vec<f64> = vec![g.max_time(); batch];

    let mut cells = Vec::new();
    for &t in counts {
        set_threads(t);
        let uniform = TemporalSampler::new(10, SamplingStrategy::Uniform);
        cells.push(SweepCell {
            bench: "matmul_512".into(),
            threads: t,
            secs: time_it(|| a.matmul(&b), 0.5),
        });
        cells.push(SweepCell {
            bench: "segment_softmax_32768x16".into(),
            threads: t,
            secs: time_it(|| segment_softmax(&vals, &seg, nseg), 0.5),
        });
        cells.push(SweepCell {
            bench: "sampling_uniform_1024x10".into(),
            threads: t,
            secs: time_it(|| uniform.sample(&csr, &nodes, &times), 0.5),
        });
    }
    cells
}

/// Renders the sweep as JSON (hand-rolled; the workspace is
/// dependency-free) and returns it as a string.
fn sweep_json(cells: &[SweepCell], counts: &[usize], host_cpus: usize) -> String {
    let base = |name: &str| {
        cells
            .iter()
            .find(|c| c.bench == name && c.threads == 1)
            .map_or(f64::NAN, |c| c.secs)
    };
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    s.push_str(&format!(
        "  \"threads_swept\": [{}],\n",
        counts.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", ")
    ));
    s.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let speedup = base(&c.bench) / c.secs;
        s.push_str(&format!(
            "    {{\"bench\": {:?}, \"threads\": {}, \"secs\": {:.6e}, \"speedup_vs_1t\": {:.3}}}{}\n",
            c.bench,
            c.threads,
            c.secs,
            speedup,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    println!("== operator microbenchmarks (std timer, mean of adaptive iters) ==");
    bench_sampler();
    bench_segment_ops();
    bench_redundancy_ops();
    bench_time_encode();
    bench_transfers();
    bench_sampling_block_path();
    bench_matmul();

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&c| c == 1 || c <= host_cpus.max(4))
        .collect();
    bench_gemm_series(&counts);
    println!();
    println!("== thread sweep ({host_cpus} host cpus) ==");
    // `scripts/bench_trend` matches rows by `bench` and `threads`, so a
    // sweep may add rows anywhere.
    let mut cells = thread_sweep(&counts);
    cells.extend(attention_kernel_sweep(&counts));
    cells.extend(gru_cell_sweep(&counts));
    cells.extend(non_gemm_third_sweep(&counts));
    for c in &cells {
        let base = cells
            .iter()
            .find(|x| x.bench == c.bench && x.threads == 1)
            .map_or(f64::NAN, |x| x.secs);
        println!(
            "  {:<28} t={:<2} {:>12.1} us/iter  (x{:.2} vs 1t)",
            c.bench,
            c.threads,
            c.secs * 1e6,
            base / c.secs
        );
    }
    set_threads(1);

    let json = sweep_json(&cells, &counts, host_cpus);
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_parallel.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}
