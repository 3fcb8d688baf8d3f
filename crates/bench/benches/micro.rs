//! The micro benches in one process and one record: `cargo bench
//! --bench micro` writes `BENCH_micro.json` at the repository root, and
//! `scripts/ab` compares its rows run for run against the parent's.
//!
//! Three sections run in order, each setting the pool width, span
//! switches and transfer model it needs when it starts:
//!
//! * **obs**: the observability layer's cost on one thread. An
//!   instrumented workload (batch temporal sampling + dedup, the
//!   hottest counter paths) with every span sink off, with every sink
//!   on, and with only the span log's tail on, plus the raw cost of
//!   each kind of site under each switch. The tail is on in every real
//!   run, so its cost over the all-off reference is **asserted** to fit
//!   2% + 5 µs (medians of interleaved rounds: single-core boxes jitter
//!   by a few percent on sub-microsecond timings).
//! * **kernels**: the cache-blocked GEMM over a size series, its
//!   backward products and the fused `Linear`, then the hottest
//!   parallel kernels swept over the pool's thread counts.
//! * **pipeline**: trainer epoch walls at pipeline depth 0 and
//!   [`DEPTH`] for four models, whose losses are **asserted** equal bit
//!   for bit. Wall clock, not CPU time: the pipeline wins by overlapping
//!   stages, which needs a second core (the host block says how many).
//!
//! Every timing is one row `{"name", "threads", "secs"}`, named by what
//! it measures; derived values (`gflops`, `overhead_pct`,
//! `speedup_vs_1t`, `speedup_vs_sequential`) are fields of their row.

use std::sync::Arc;
use std::time::Instant;

use tgl_bench::{field, text, time_it, Lap};
use tgl_data::{generate, DatasetKind, DatasetSpec, Json, Split};
use tgl_device::TransferModel;
use tgl_harness::runner::{prepare_context, Placement};
use tgl_harness::{TrainConfig, Trainer};
use tgl_models::{Apan, Jodie, ModelConfig, OptFlags, TemporalModel, Tgat, Tgn};
use tgl_runtime::rng::{SeedableRng, StdRng};
use tgl_runtime::set_threads;
use tgl_sampler::{SamplingStrategy, TemporalSampler};
use tgl_tensor::ops::{cat, linear_cat, segment_dot, segment_softmax, segment_weighted_sum, time_encode};
use tgl_tensor::Tensor;
use tglite::{obs, op, TBlock, TContext, TSampler};

/// The `schema` field of `BENCH_micro.json`.
const SCHEMA: &str = "tgl-bench-micro/v1";

/// One timing of the record.
struct Row {
    name: String,
    threads: usize,
    secs: f64,
    extra: Vec<(String, Json)>,
}

impl Row {
    /// Adds a derived value.
    fn with(&mut self, key: &str, v: f64) {
        self.extra.push(field(key, v));
    }
}

/// The record's rows in measurement order, each printed as it lands.
#[derive(Default)]
struct Rows(Vec<Row>);

impl Rows {
    fn push(&mut self, name: impl Into<String>, threads: usize, secs: f64) -> &mut Row {
        let name = name.into();
        println!("  {name:<44} t={threads:<2} {:>12.3} us", secs * 1e6);
        self.0.push(Row { name, threads, secs, extra: Vec::new() });
        self.0.last_mut().expect("just pushed")
    }
}

fn setup() -> (Arc<tglite::TGraph>, TContext) {
    let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(4);
    let (g, _) = generate(&spec);
    let ctx = TContext::new(Arc::clone(&g));
    (g, ctx)
}

// ---------------------------------------------------------------------
// obs
// ---------------------------------------------------------------------

/// Rounds of each interleaved comparison.
const ROUNDS: usize = 7;

/// Median seconds per call of `workload` under `set(false)` and under
/// `set(true)`, over [`ROUNDS`] rounds that time one then the other, so
/// slow drift (thermal, host load) hits both alike.
fn interleaved<R>(mut set: impl FnMut(bool), mut workload: impl FnMut() -> R) -> (f64, f64) {
    let mut rounds: [Vec<f64>; 2] = Default::default();
    for _ in 0..ROUNDS {
        for (on, times) in [false, true].into_iter().zip(&mut rounds) {
            set(on);
            times.push(time_it(|_| workload(), 0.15));
        }
    }
    let [off, on] = rounds.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[ROUNDS / 2]
    });
    (off, on)
}

fn obs_section(rows: &mut Rows) {
    println!("== observability overhead ==");
    // One pool thread: on a multi-core host whether a parked helper is
    // warm swings the sampler's parallel regions by 2x between rounds.
    defaults(1);
    let (g, ctx) = setup();
    let csr = g.tcsr();
    let n = 512usize;
    let nodes: Vec<u32> = (0..n as u32).map(|i| i % g.num_nodes() as u32).collect();
    let times: Vec<f64> = vec![g.max_time(); n];
    let sampler = TemporalSampler::new(10, SamplingStrategy::Recent);
    let blk_sampler = TSampler::new(10, SamplingStrategy::Recent);

    // Every kind of site the telemetry layer plants in the training
    // loop: sampler and dedup counters, a region, a phase, an op, a
    // timer, a value histogram and a gauge store per iter.
    let workload = || {
        let _r = tgl_obs::region("obs-overhead-step");
        let _s = tgl_obs::span("obs-overhead-workload");
        let _lat = tgl_obs::timer("bench.workload");
        tgl_obs::histogram!("bench.workload_len").record(n as u64);
        // A per-op site, the kind every tensor kernel carries:
        // disabled it must be one relaxed load.
        let _op = tgl_obs::profile::op("bench.workload_op").flops(64).io(256, 256);
        let sample = sampler.sample(&csr, &nodes, &times);
        let blk = TBlock::new(&ctx, 0, nodes.clone(), times.clone());
        op::dedup(&blk);
        blk_sampler.sample(&blk);
        tgl_obs::gauge!("bench.block_len").set(sample.len() as f64);
        sample.len()
    };

    // Every span switch off, then all of them on; an on-round drains
    // the full log so it cannot grow across rounds.
    let all = |on: bool| {
        obs::log::take();
        obs::phase::take();
        obs::collect(on);
        obs::log::full(on);
        obs::log::tail(on);
    };
    let (off, on) = interleaved(all, workload);
    all(false);
    rows.push("obs_workload_disabled", 1, off);
    let overhead = (on / off - 1.0) * 100.0;
    rows.push("obs_workload_enabled", 1, on).with("overhead_pct", overhead);
    if overhead > 25.0 {
        println!("  note: enabled-observability overhead is {overhead:.1}%: investigate before relying on it");
    }

    // With everything else off, tail-on rounds against all-off rounds.
    let (base, tail_on) = interleaved(obs::log::tail, workload);
    obs::log::tail(false);
    rows.push("obs_workload_tail_on", 1, tail_on).with("overhead_pct", (tail_on / base - 1.0) * 100.0);
    assert!(
        tail_on <= base * 1.02 + 5e-6,
        "the always-on span tail exceeds the 2% budget: {:.1}us > {:.1}us \
         (2% + 5us over the {:.1}us all-off baseline)",
        tail_on * 1e6,
        (base * 1.02 + 5e-6) * 1e6,
        base * 1e6
    );
    println!("  OK: always-on span tail within 2% budget");

    // Raw per-site cost of every kind of site: a histogram record is a
    // handful of relaxed RMWs, a gauge set one relaxed store. Ops and
    // timers are live only while collecting (the tail alone leaves them
    // one relaxed load); phases and regions are live whenever any sink
    // is, so tail-only is the cost every scope pays by default.
    const SITES: usize = 1_000_000;
    let hist = || (0..SITES).for_each(|i| tgl_obs::histogram!("bench.micro_ns").record(i as u64 & 0xFFFF));
    let gauge = || (0..SITES).for_each(|i| tgl_obs::gauge!("bench.micro_level").set(i as f64));
    let prof_op = || {
        for i in 0..SITES {
            let _g = tgl_obs::profile::op("bench.micro_op").flops(i as u64 & 0xFF).io(256, 256);
        }
    };
    let span = || (0..SITES).for_each(|_| drop(obs::span("bench.micro_span")));
    let region = || (0..SITES).for_each(|_| drop(obs::region("bench.micro_region")));
    let mut site = |name: &str, f: &dyn Fn()| {
        rows.push(format!("obs_site_{name}"), 1, time_it(|_| f(), 0.5) / SITES as f64);
    };
    site("hist_record", &hist);
    site("gauge_set", &gauge);
    site("profile_op_disabled", &prof_op);
    site("span_all_off", &span);
    site("region_all_off", &region);
    obs::log::tail(true);
    site("span_tail_on", &span);
    site("region_tail_on", &region);
    site("profile_op_tail_only", &prof_op);
    obs::log::tail(false);
    obs::collect(true);
    site("profile_op_enabled", &prof_op);
    site("span_collecting", &span);
    obs::collect(false);
    obs::profile::take();
    // The tail is on by default; leave the process the way a real one
    // runs.
    obs::log::tail(true);
}

// ---------------------------------------------------------------------
// kernels
// ---------------------------------------------------------------------

/// Records one GEMM cell: entry point `op` (`nn` forward, `nt` / `tn`
/// the two backward products, `linear` / `linear.bwd` the fused layer
/// and its two-product backward) at forward shape `m x k x n`, with
/// GFLOP/s at the usual 2·m·k·n flops per product.
fn gemm_row(rows: &mut Rows, op: &str, (m, k, n): (usize, usize, usize), threads: usize, secs: f64) {
    let products = if op == "linear.bwd" { 2.0 } else { 1.0 };
    let gflops = products * 2.0 * (m * k * n) as f64 / secs / 1e9;
    rows.push(format!("gemm_{op}_{m}x{k}x{n}"), threads, secs).with("gflops", gflops);
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
    let once = |lap: &mut Lap| {
        a.zero_grad();
        b.zero_grad();
        let y = a.matmul(&b);
        let go = seed.clone();
        lap.start();
        y.backward_with(go);
        y
    };
    time_it(once, budget_s)
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
        return time_it(|_| x.linear(&w, Some(&b), false), budget_s);
    }
    let seed = Tensor::rand_uniform([m, n], -1.0, 1.0, &mut rng).to_vec();
    let once = |lap: &mut Lap| {
        [&x, &w, &b].into_iter().for_each(Tensor::zero_grad);
        let y = x.linear(&w, Some(&b), false);
        let go = seed.clone();
        lap.start();
        y.backward_with(go);
        y
    };
    time_it(once, budget_s)
}

/// The cache-blocked GEMM over a size series that spans the L1/L2
/// tiling regimes plus attention-shaped skinny GEMMs (m = batch*heads,
/// k = dim-per-head, small n = neighbor fan-out), 512^3 over the pool's
/// thread counts (`gemm_nn_512x512x512_scaling`), the backward products
/// and the fused `Linear` at [`BWD_SHAPES`], and outputs narrower than
/// a register tile.
fn gemm_series(rows: &mut Rows, counts: &[usize]) {
    const SIZES: [(usize, usize, usize); 9] = [
        (64, 64, 64),
        (128, 128, 128),
        (256, 256, 256),
        (512, 512, 512),
        (384, 768, 96), // skinny output panel (embedding-sized)
        (96, 384, 768), // wide output panel
        (400, 16, 10),  // attention scores: (batch*heads) x dim_per_head x fanout
        (400, 10, 16),  // attention output: (batch*heads) x fanout x dim_per_head
        (800, 32, 16),  // wider heads, deeper fan-in
    ];
    set_threads(1);
    let mut rng = StdRng::seed_from_u64(3);
    for (m, k, n) in SIZES {
        let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
        gemm_row(rows, "nn", (m, k, n), 1, time_it(|_| a.matmul(&b), 0.4));
    }

    // Thread scaling of the row-panel parallel GEMM at 512^3.
    let mut rng = StdRng::seed_from_u64(3);
    let a = Tensor::rand_uniform([512, 512], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform([512, 512], -1.0, 1.0, &mut rng);
    for &t in counts {
        set_threads(t);
        let secs = time_it(|_| a.matmul(&b), 0.4);
        rows.push("gemm_nn_512x512x512_scaling", t, secs).with("gflops", 2.0 * 512f64.powi(3) / secs / 1e9);
    }

    // The transposed entry points autograd uses, beside `nn` at the
    // same shapes, at every swept thread count.
    for shape in BWD_SHAPES {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::rand_uniform([shape.0, shape.1], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([shape.1, shape.2], -1.0, 1.0, &mut rng);
        for &t in counts {
            set_threads(t);
            gemm_row(rows, "nn", shape, t, time_it(|_| a.matmul(&b), 0.3));
            for op in ["nt", "tn"] {
                gemm_row(rows, op, shape, t, time_backward_gemm(op, shape, 0.3));
            }
        }
    }
    // The fused `Linear` op (GEMM on the stored weight + bias epilogue,
    // one backward node) at the same two shapes.
    for shape in BWD_SHAPES {
        for &t in counts.iter().filter(|&&t| t <= 2) {
            set_threads(t);
            for (op, bwd) in [("linear", false), ("linear.bwd", true)] {
                gemm_row(rows, op, shape, t, time_linear(bwd, shape, 0.3));
            }
        }
    }
    // Outputs narrower than a register tile (the predictor's single
    // column, a 16-wide time encoding): one vector of the tile, not a
    // padded whole one.
    set_threads(1);
    let mut rng = StdRng::seed_from_u64(3);
    for (m, k, n) in [(4608, 80, 1), (4608, 32, 16)] {
        let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
        gemm_row(rows, "nn", (m, k, n), 1, time_it(|_| a.matmul(&b), 0.3));
    }
}

/// The three hottest parallel kernels over the given thread counts.
fn thread_sweep(rows: &mut Rows, counts: &[usize]) {
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

    for &t in counts {
        set_threads(t);
        let uniform = TemporalSampler::new(10, SamplingStrategy::Uniform);
        rows.push("matmul_512", t, time_it(|_| a.matmul(&b), 0.5));
        rows.push("segment_softmax_32768x16", t, time_it(|_| segment_softmax(&vals, &seg, nseg), 0.5));
        rows.push("sampling_uniform_1024x10", t, time_it(|_| uniform.sample(&csr, &nodes, &times), 0.5));
    }
}

/// The attention segment kernels, forward and backward, at 1 and 2
/// threads: `segment_dot` and `segment_weighted_sum` at one TGAT
/// batch's shape (6 000 sampled edges over 600 destinations, 2 heads of
/// 16), then those two and `segment_softmax` at TGAT's measured
/// per-layer shapes on Wiki (4 430 edges over 600 destinations and
/// 11 803 over 1 600, nondecreasing ids as a block hands them over).
fn attention_kernel_sweep(rows: &mut Rows, counts: &[usize]) {
    let (h, d) = (2usize, 16usize);
    let mut rng = StdRng::seed_from_u64(11);
    let shapes = [(6000usize, 600usize, false), (4430, 600, true), (11803, 1600, true)];
    for (e, s, softmax) in shapes {
        let seg: Vec<usize> = (0..e).map(|i| i * s / e).collect();
        let q = Tensor::rand_uniform([s, h * d], -1.0, 1.0, &mut rng).requires_grad(true);
        let k = Tensor::rand_uniform([e, h * d], -1.0, 1.0, &mut rng).requires_grad(true);
        let a = Tensor::rand_uniform([e, h], 0.0, 1.0, &mut rng).requires_grad(true);
        let backward = |lap: &mut Lap, y: Tensor| {
            let go = vec![1.0; y.numel()];
            [&q, &k, &a].into_iter().for_each(Tensor::zero_grad);
            lap.start();
            y.backward_with(go);
            y
        };
        for &t in counts.iter().filter(|&&t| t <= 2) {
            set_threads(t);
            let scale = 1.0 / (d as f32).sqrt();
            let mut timed = vec![
                ("segment_dot", time_it(|_| segment_dot(&q, &k, &seg, h, scale), 0.3)),
                ("segment_dot_bwd", time_it(|lap| backward(lap, segment_dot(&q, &k, &seg, h, scale)), 0.3)),
                ("segment_weighted_sum", time_it(|_| segment_weighted_sum(&k, &a, &seg, s), 0.3)),
                (
                    "segment_weighted_sum_bwd",
                    time_it(|lap| backward(lap, segment_weighted_sum(&k, &a, &seg, s)), 0.3),
                ),
            ];
            if softmax {
                timed.push(("segment_softmax", time_it(|_| segment_softmax(&a, &seg, s), 0.3)));
                timed.push((
                    "segment_softmax_bwd",
                    time_it(|lap| backward(lap, segment_softmax(&a, &seg, s)), 0.3),
                ));
            }
            for (kernel, secs) in timed {
                rows.push(format!("{kernel}_{e}x{h}x{d}"), t, secs);
            }
        }
    }
}

/// TGN's memory cell (`in = 112`: mail 96 + time 16, `H = 32`) at one
/// batch's distinct nodes (512) and at a tail block's rows (4608),
/// forward and backward: the two `linear`s followed by the fused
/// `gru_gates` kernel (what `GruCell::forward` runs) against the gate
/// chain it replaced (six strided gathers, nine elementwise nodes),
/// at 1 and 2 threads.
fn gru_cell_sweep(rows: &mut Rows, counts: &[usize]) {
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
    let backward = |lap: &mut Lap, y: Tensor| {
        let go = vec![1.0; y.numel()];
        params.into_iter().for_each(Tensor::zero_grad);
        lap.start();
        y.backward_with(go);
        y
    };
    for n in [512usize, 4608] {
        let mut rng = StdRng::seed_from_u64(17);
        let x = Tensor::rand_uniform([n, input], -1.0, 1.0, &mut rng);
        let h = Tensor::rand_uniform([n, hid], -1.0, 1.0, &mut rng);
        for &t in counts.iter().filter(|&&t| t <= 2) {
            set_threads(t);
            let timed = [
                ("gru_cell", time_it(|_| cell(&x, &h, true), 0.3)),
                ("gru_cell_bwd", time_it(|lap| backward(lap, cell(&x, &h, true)), 0.3)),
                ("gru_cell_chain", time_it(|_| cell(&x, &h, false), 0.3)),
                ("gru_cell_chain_bwd", time_it(|lap| backward(lap, cell(&x, &h, false)), 0.3)),
            ];
            for (kernel, secs) in timed {
                rows.push(format!("{kernel}_{n}x{input}x{hid}"), t, secs);
            }
        }
    }
}

/// The two kernels of a TGAT step that are not GEMMs on one operand,
/// at one tail block's rows (4612 sampled edges), forward and training
/// step (forward + backward), at 1 and 2 threads:
///
/// * `time_encode_4612x16_trained`: Φ(Δt) with the arguments a training
///   epoch produces, not the fresh encoder's. Twenty Adam steps at lr
///   1e-3 move the small frequencies of the geometric ladder to |ω| of
///   2-6e-3, and Wiki's Δt reaches 1.07e6 (median 1.3e5), so every
///   column's argument is in the thousands of radians.
/// * `linear_4612x(32+32+16)x32`: `W_k [h_src ‖ e ‖ Φ]` through
///   `linear_cat` on the parts (`parts`) and through `cat` + `linear`
///   (`cat`), with the raw edge features off the graph as in the
///   model.
fn non_gemm_third_sweep(rows: &mut Rows, counts: &[usize]) {
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
    for &t in counts.iter().filter(|&&t| t <= 2) {
        set_threads(t);
        let timed = [
            ("time_encode_4612x16_trained", time_it(|_| time_encode(&deltas, &freq, &phase), 0.3)),
            ("time_encode_4612x16_trained_step", time_it(|_| step(time_encode(&deltas, &freq, &phase)), 0.3)),
            ("linear_4612x(32+32+16)x32_parts", time_it(|_| project(true), 0.3)),
            ("linear_4612x(32+32+16)x32_parts_step", time_it(|_| step(project(true)), 0.3)),
            ("linear_4612x(32+32+16)x32_cat", time_it(|_| project(false), 0.3)),
            ("linear_4612x(32+32+16)x32_cat_step", time_it(|_| step(project(false)), 0.3)),
        ];
        for (name, secs) in timed {
            rows.push(name, t, secs);
        }
    }
}

fn kernel_section(rows: &mut Rows, threads: usize) {
    // 1, 2, 4 and 8 threads, up to the host's cores but at least 4.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let counts: Vec<usize> = [1usize, 2, 4, 8].into_iter().filter(|&c| c <= cores.max(4)).collect();
    println!("\n== kernels ({cores} host cpus, threads {counts:?}) ==");
    defaults(threads);
    gemm_series(rows, &counts);
    thread_sweep(rows, &counts);
    attention_kernel_sweep(rows, &counts);
    gru_cell_sweep(rows, &counts);
    non_gemm_third_sweep(rows, &counts);
}

// ---------------------------------------------------------------------
// pipeline
// ---------------------------------------------------------------------

const EPOCHS: usize = 3;
const DEPTH: usize = 2;

/// Per-epoch `(wall_s, loss)`.
type Series = Vec<(f64, f32)>;

fn spec() -> DatasetSpec {
    DatasetSpec::of(DatasetKind::Wiki).scaled_down(2)
}

/// Trains `EPOCHS` epochs of `model` at the given pipeline depth.
fn train(model: &mut dyn TemporalModel, ctx: &TContext, depth: usize) -> Series {
    let spec = spec();
    let split = Split::standard(ctx.graph());
    let trainer = Trainer::new(
        TrainConfig {
            batch_size: 100,
            epochs: EPOCHS,
            lr: 1e-3,
            seed: 17,
        },
        spec.n_src as u32,
        spec.num_nodes() as u32,
    )
    .with_pipeline(depth);
    let mut opt = tglite::tensor::optim::Adam::new(model.parameters(), 1e-3);
    (0..EPOCHS)
        .map(|e| {
            let t0 = Instant::now();
            let s = trainer.train_epoch(model, ctx, &split, &mut opt, e);
            (t0.elapsed().as_secs_f64(), s.loss)
        })
        .collect()
}

fn run_tgat(depth: usize) -> Series {
    let (g, _) = generate(&spec());
    let ctx = TContext::new(Arc::clone(&g));
    let mut model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::all(), 42);
    train(&mut model, &ctx, depth)
}

/// Trains the model `build` makes with host-resident features behind
/// the scaled link.
fn run_host_resident(build: fn(&TContext) -> Box<dyn TemporalModel>, depth: usize) -> Series {
    let (ctx, _) = prepare_context(&spec(), Placement::HostResident, TransferModel::sim_v100());
    let series = train(build(&ctx).as_mut(), &ctx, depth);
    tgl_device::set_transfer_model(TransferModel::disabled());
    series
}

/// Four configurations, each trained at depth 0 and [`DEPTH`]:
///
/// * TGAT with everything on the compute tier: the sampler stage takes
///   dedup and neighbor sampling off the compute thread;
/// * TGN with host-resident features behind the scaled PCIe model (the
///   CLI's `--move` link): the sampler stage also takes the staging
///   transfers, while memory and mailbox reads stay on the compute
///   thread in batch order;
/// * APAN and JODIE, host-resident the same way: their chain is the
///   head block alone, so what moves to the sampler stage is the
///   negative draw and the head's node-feature staging.
///
/// Rows `pipeline_<model>_{sequential,pipelined}_{epoch<e>,total}`.
fn pipeline_section(rows: &mut Rows, threads: usize) {
    println!("\n== pipelined trainer: sequential vs depth-{DEPTH} epoch walls ==");
    defaults(threads);
    type Run = fn(usize) -> Series;
    let runs: [(&str, Run); 4] = [
        ("tgat", run_tgat),
        ("tgn_host_resident", |d| {
            run_host_resident(|c| Box::new(Tgn::new(c, ModelConfig::tiny(), OptFlags::all(), 42)), d)
        }),
        ("apan_host_resident", |d| {
            run_host_resident(|c| Box::new(Apan::new(c, ModelConfig::tiny(), OptFlags::all(), 42)), d)
        }),
        ("jodie_host_resident", |d| {
            run_host_resident(|c| Box::new(Jodie::new(c, ModelConfig::tiny(), OptFlags::all(), 42)), d)
        }),
    ];
    for (model, run) in runs {
        let sequential = run(0);
        let pipelined = run(DEPTH);
        for (e, ((sw, sl), (pw, pl))) in sequential.iter().zip(&pipelined).enumerate() {
            assert_eq!(
                sl.to_bits(),
                pl.to_bits(),
                "{model} epoch {e}: pipelined loss {pl} diverged from sequential {sl}"
            );
            rows.push(format!("pipeline_{model}_sequential_epoch{e}"), threads, *sw);
            rows.push(format!("pipeline_{model}_pipelined_epoch{e}"), threads, *pw);
        }
        let [seq, pipe] = [&sequential, &pipelined].map(|s| s.iter().map(|(w, _)| w).sum::<f64>());
        rows.push(format!("pipeline_{model}_sequential_total"), threads, seq);
        rows.push(format!("pipeline_{model}_pipelined_total"), threads, pipe).with("speedup_vs_sequential", seq / pipe);
    }
    println!("  OK: pipelined losses equal the sequential ones bit for bit");
}

/// A real run's global state: the pool at `threads`, the span log's
/// tail on and every other span sink off, no simulated link.
fn defaults(threads: usize) {
    set_threads(threads);
    obs::collect(false);
    obs::log::full(false);
    obs::log::tail(true);
    tgl_device::set_transfer_model(TransferModel::disabled());
}

fn main() {
    // Before any section sets the pool: the width a real run gets.
    let host = tgl_bench::host();
    let threads = tgl_runtime::current_threads();
    let mut rows = Rows::default();
    obs_section(&mut rows);
    kernel_section(&mut rows, threads);
    pipeline_section(&mut rows, threads);

    // A row at several widths carries its speedup over its 1-thread row.
    let speedups: Vec<Option<f64>> = rows
        .0
        .iter()
        .map(|r| {
            let base = rows.0.iter().find(|b| b.threads == 1 && b.name == r.name)?;
            (r.threads > 1).then(|| base.secs / r.secs)
        })
        .collect();
    let rows: Vec<Json> = rows
        .0
        .into_iter()
        .zip(speedups)
        .map(|(mut r, speedup)| {
            if let Some(s) = speedup {
                r.with("speedup_vs_1t", s);
            }
            let mut obj = vec![text("name", &r.name), field("threads", r.threads as f64), field("secs", r.secs)];
            obj.extend(r.extra);
            Json::Obj(obj)
        })
        .collect();
    let rec = Json::Obj(vec![
        text("schema", SCHEMA),
        ("host".to_string(), Json::Obj(host)),
        field("pipeline_depth", DEPTH as f64),
        ("bitwise_identical".to_string(), Json::Bool(true)),
        ("rows".to_string(), Json::Arr(rows)),
    ]);
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_micro.json");
    std::fs::write(&path, tgl_bench::render(&rec)).unwrap_or_else(|e| panic!("could not write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
}
