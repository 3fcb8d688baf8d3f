//! Thread-count invariance suite: every kernel must produce identical
//! results for `TGL_THREADS` = 1, 2, and 8 and across repeated runs
//! with a fixed seed. The runtime's determinism contract
//! (output-partitioned kernels at the four sites that fan out, one pass
//! on the caller's thread everywhere else, per-destination sampler
//! seeding) makes these comparisons exact — bitwise, not approximate —
//! so every assertion here uses `==` on `f32` bits.

use tgl_integration::{serial, tiny_wiki};
use tgl_runtime::rng::{SeedableRng, StdRng};
use tgl_runtime::set_threads;
use tgl_sampler::{NeighborSample, SamplingStrategy, TemporalSampler};
use tgl_tensor::ops::{segment_mean, segment_softmax, segment_sum};
use tgl_tensor::Tensor;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Runs `f` under each thread count and asserts all results are equal
/// (then restores a single-threaded pool).
fn assert_invariant<R: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> R) {
    let mut base: Option<(usize, R)> = None;
    for t in THREAD_COUNTS {
        set_threads(t);
        let r = f();
        match &base {
            None => base = Some((t, r)),
            Some((t0, r0)) => assert_eq!(
                r0, &r,
                "{what}: output differs between {t0} and {t} threads"
            ),
        }
    }
    set_threads(1);
}

fn rand_tensor(rng: &mut StdRng, dims: [usize; 2]) -> Tensor {
    Tensor::rand_uniform(dims, -1.0, 1.0, rng)
}

#[test]
fn matmul_forward_and_backward_invariant() {
    let _g = serial();
    assert_invariant("matmul fwd+bwd", || {
        let mut rng = StdRng::seed_from_u64(0xA11);
        let a = rand_tensor(&mut rng, [33, 47]).requires_grad(true);
        let b = rand_tensor(&mut rng, [47, 29]).requires_grad(true);
        let c = a.matmul(&b);
        c.sum_all().backward();
        (c.to_vec(), a.grad().unwrap(), b.grad().unwrap())
    });
}

#[test]
fn segment_kernels_invariant() {
    let _g = serial();
    // A small and a large size (33 000 rows of 8: 264 000 elements).
    for (n, segs) in [(300, 23), (33_000, 4_700)] {
        assert_invariant("segment sum/mean/softmax fwd+bwd", || {
            let mut rng = StdRng::seed_from_u64(0x5E6);
            let x = rand_tensor(&mut rng, [n, 8]).requires_grad(true);
            let seg: Vec<usize> = (0..n).map(|i| (i * 7 % 41 + i * 13) % segs).collect();
            let s = segment_sum(&x, &seg, segs);
            let m = segment_mean(&x, &seg, segs);
            let sm = segment_softmax(&x, &seg, segs);
            sm.mul(&x).sum_all().add(&s.sum_all()).add(&m.sum_all()).backward();
            (s.to_vec(), m.to_vec(), sm.to_vec(), x.grad().unwrap())
        });
    }
}

#[test]
fn elementwise_and_reductions_invariant() {
    let _g = serial();
    assert_invariant("elementwise + reductions", || {
        let mut rng = StdRng::seed_from_u64(0xE1E);
        let x = rand_tensor(&mut rng, [123, 211]).requires_grad(true);
        let y = rand_tensor(&mut rng, [123, 211]);
        let z = x.mul(&y).exp().add(&y).tanh();
        let rows = z.sum_dim(1);
        let loss = z.sum_dim(0).sum_all().add(&rows.mul(&rows).sum_all());
        loss.backward();
        (loss.item(), z.to_vec(), x.grad().unwrap())
    });
}

/// One batch of queries, sampled at the pool's current width.
fn sample_fixture(strategy: SamplingStrategy) -> NeighborSample {
    let (g, _) = tiny_wiki();
    let csr = g.tcsr();
    let n = 1024usize;
    let nodes: Vec<u32> = (0..n as u32).map(|i| i % g.num_nodes() as u32).collect();
    let times: Vec<f64> = (0..n).map(|i| g.max_time() * (i as f64 + 1.0) / n as f64).collect();
    TemporalSampler::new(10, strategy)
        .with_seed(99)
        .sample(&csr, &nodes, &times)
}

#[test]
fn sampler_invariant_across_thread_counts() {
    let _g = serial();
    for strategy in [SamplingStrategy::Recent, SamplingStrategy::Uniform] {
        let mut base: Option<NeighborSample> = None;
        for t in THREAD_COUNTS {
            set_threads(t);
            let s = sample_fixture(strategy);
            match &base {
                None => base = Some(s),
                Some(b) => {
                    assert_eq!(b.src_nodes, s.src_nodes, "{strategy:?}: nodes differ at {t} threads");
                    assert_eq!(b.src_times, s.src_times, "{strategy:?}: times differ at {t} threads");
                    assert_eq!(b.eids, s.eids, "{strategy:?}: eids differ at {t} threads");
                    assert_eq!(
                        b.dst_index, s.dst_index,
                        "{strategy:?}: dst_index differs at {t} threads"
                    );
                }
            }
        }
    }
    set_threads(1);
}

#[test]
fn sampler_repeatable_with_fixed_seed() {
    let _g = serial();
    set_threads(4);
    let a = sample_fixture(SamplingStrategy::Uniform);
    let b = sample_fixture(SamplingStrategy::Uniform);
    assert_eq!(a.src_nodes, b.src_nodes);
    assert_eq!(a.eids, b.eids);
    assert_eq!(a.src_times, b.src_times);
    set_threads(1);
}

/// Counter delta of every `cache.` / `dedup.` / `sampler.` counter
/// across one run of `f`. Pool counters are excluded by design: chunk
/// counts and per-worker busy time legitimately vary with the thread
/// count, while the subsystem counters meter *what* was computed and
/// must not depend on how the work was partitioned.
fn subsystem_counter_delta(f: impl FnOnce()) -> Vec<(&'static str, u64)> {
    let relevant = |name: &str| {
        name.starts_with("cache.") || name.starts_with("dedup.") || name.starts_with("sampler.")
    };
    let before: Vec<_> = tglite::obs::metrics::snapshot()
        .into_iter()
        .filter(|(n, _)| relevant(n))
        .collect();
    f();
    tglite::obs::metrics::snapshot()
        .into_iter()
        .filter(|(n, _)| relevant(n))
        .map(|(n, v)| {
            let base = before.iter().find(|(bn, _)| *bn == n).map_or(0, |(_, bv)| *bv);
            (n, v - base)
        })
        .collect()
}

#[test]
fn subsystem_counters_invariant_across_thread_counts() {
    let _g = serial();
    let (g, _) = tiny_wiki();
    let csr = g.tcsr();
    let ctx = tglite::TContext::new(std::sync::Arc::clone(&g));
    let n = 512usize;
    let nodes: Vec<u32> = (0..n as u32).map(|i| i % g.num_nodes() as u32).collect();
    let times: Vec<f64> = vec![g.max_time(); n];
    assert_invariant("cache/dedup/sampler counter deltas", || {
        let delta = subsystem_counter_delta(|| {
            TemporalSampler::new(10, SamplingStrategy::Uniform)
                .with_seed(99)
                .sample(&csr, &nodes, &times);
            let blk = tglite::TBlock::new(&ctx, 0, nodes.clone(), times.clone());
            tglite::op::dedup(&blk);
            tglite::TSampler::new(10, SamplingStrategy::Recent).sample(&blk);
        });
        // The workload must actually touch each metered subsystem, or
        // the invariance assertion would vacuously compare zeros.
        for prefix in ["dedup.", "sampler."] {
            assert!(
                delta.iter().any(|(n, v)| n.starts_with(prefix) && *v > 0),
                "workload never advanced a {prefix}* counter: {delta:?}"
            );
        }
        delta
    });
}

#[test]
fn training_counters_invariant_across_thread_counts() {
    let _g = serial();
    // A full (tiny) TGLite+opt training epoch: the embed cache only
    // runs inside a model, so this is the path that exercises the
    // `cache.*` counters. Training itself is bitwise thread-invariant,
    // and the counters meter its data flow, so the deltas must be too.
    let mut cfg = tgl_harness::ExperimentConfig::paper_default(
        tgl_harness::Framework::TgLiteOpt,
        tgl_harness::ModelKind::Tgat,
        tgl_data::DatasetKind::Wiki,
        tgl_harness::Placement::AllOnDevice,
    );
    cfg.dataset = cfg.dataset.scaled_down(20);
    cfg.model_cfg = tgl_models::ModelConfig::tiny();
    cfg.train_cfg.epochs = 1;
    cfg.train_cfg.batch_size = 60;
    assert_invariant("training counter deltas", || {
        let delta = subsystem_counter_delta(|| {
            tgl_harness::run_experiment(&cfg);
        });
        assert!(
            delta.iter().any(|(n, v)| n.starts_with("cache.") && *v > 0),
            "TGLite+opt epoch never advanced a cache.* counter: {delta:?}"
        );
        delta
    });
}

#[test]
fn blocked_gemm_invariant_at_tile_boundaries() {
    let _g = serial();
    // The blocked GEMM packs B into panels and tiles over MR=4 rows,
    // a tile row of 8 / 16 / 32 floats (scalar / AVX2 / AVX-512F) and
    // KC=128; sizes one off either side of those boundaries exercise
    // every partial-tile edge path. Forward and backward (which routes
    // through the nt/tn kernels) must stay bitwise thread-invariant at
    // all of them.
    const SIZES: [(usize, usize, usize); 8] = [
        (3, 127, 7),    // below every tile in all dims
        (4, 256, 8),    // exact MR / KC multiples, one scalar tile row
        (5, 257, 9),    // one past MR / KC / a scalar tile row
        (63, 511, 15),  // odd row count, straddling 4 KC panels
        (65, 513, 17),  // one element into a 5th KC panel
        (128, 256, 32), // one AVX-512F tile row
        (200, 129, 33), // ... and one column more
        (1100, 129, 40), // enough work (past 4 Mi multiply-adds) to fan
                         // out: the per-thread row panel split must
                         // stay invariant
    ];
    for (m, k, n) in SIZES {
        assert_invariant(&format!("blocked gemm {m}x{k}x{n}"), || {
            let mut rng = StdRng::seed_from_u64(0xB10C);
            let a = rand_tensor(&mut rng, [m, k]).requires_grad(true);
            let b = rand_tensor(&mut rng, [k, n]).requires_grad(true);
            let c = a.matmul(&b);
            c.sum_all().backward();
            (c.to_vec(), a.grad().unwrap(), b.grad().unwrap())
        });
    }
}

/// Bitwise checksum of every parameter of a trained model.
fn param_bits(params: &[Tensor]) -> Vec<u32> {
    params
        .iter()
        .flat_map(|p| p.to_vec().into_iter().map(f32::to_bits))
        .collect()
}

/// Trains a small MLP for a fixed number of Adam steps and returns the
/// final parameter bits plus per-step losses.
fn train_mlp_run() -> (Vec<u32>, Vec<u32>) {
    use tgl_tensor::nn::{Mlp, Module};
    use tgl_tensor::optim::Adam;
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let mlp = Mlp::new(6, 16, 1, &mut rng);
    let x = rand_tensor(&mut rng, [32, 6]);
    let y = rand_tensor(&mut rng, [32, 1]);
    let mut opt = Adam::new(mlp.parameters(), 1e-2);
    let mut losses = Vec::new();
    for _ in 0..25 {
        let d = mlp.forward(&x).sub(&y);
        let loss = d.mul(&d).sum_all();
        opt.zero_grad();
        loss.backward();
        opt.step();
        losses.push(loss.item().to_bits());
    }
    (param_bits(&mlp.parameters()), losses)
}

#[test]
fn pool_recycling_is_bitwise_invisible() {
    let _g = serial();
    set_threads(1);
    // Recycled buffers are dirty: `take_uninit` hands back whatever the
    // donor left behind (NaN in debug builds). The contract is that no
    // kernel ever reads an element it did not write, so training from a
    // cold pool must be bitwise identical to training from the pool the
    // first run left dirty, down to every parameter bit.
    tgl_tensor::pool::clear();
    let (params_cold, losses_cold) = train_mlp_run();
    let (params_dirty, losses_dirty) = train_mlp_run();
    assert_eq!(losses_cold, losses_dirty, "per-step losses diverged");
    assert_eq!(params_cold, params_dirty, "final parameter bits diverged");
}

/// One TGLite+opt TGAT epoch on Wiki divided by `scale`, at the tiny
/// model shape and batch 60.
fn tgat_epoch(scale: usize) -> tgl_harness::ExperimentConfig {
    let mut cfg = tgl_harness::ExperimentConfig::paper_default(
        tgl_harness::Framework::TgLiteOpt,
        tgl_harness::ModelKind::Tgat,
        tgl_data::DatasetKind::Wiki,
        tgl_harness::Placement::AllOnDevice,
    );
    cfg.dataset = cfg.dataset.scaled_down(scale);
    cfg.model_cfg = tgl_models::ModelConfig::tiny();
    cfg.train_cfg.epochs = 1;
    cfg.train_cfg.batch_size = 60;
    cfg
}

#[test]
fn pool_recycling_is_bitwise_invisible_to_full_epoch() {
    let _g = serial();
    set_threads(1);
    // Same contract at full-pipeline scale: one quickstart-sized epoch
    // (sampling, attention, memory, Adam) from a cold pool and from a
    // dirty one must report bitwise-identical losses and APs.
    let cfg = tgat_epoch(20);
    tgl_tensor::pool::clear();
    let cold = tgl_harness::run_experiment(&cfg);
    let dirty = tgl_harness::run_experiment(&cfg);
    let bits = |r: &tgl_harness::ExperimentResult| -> Vec<u32> { r.epochs.iter().map(|e| e.loss.to_bits()).collect() };
    assert_eq!(bits(&cold), bits(&dirty), "epoch losses diverged");
    assert_eq!(cold.test_ap.to_bits(), dirty.test_ap.to_bits(), "test AP diverged");
}

/// The pool's headline claim: an epoch performs O(parameters) heap
/// allocations, not O(ops x batches). Every allocation is a
/// `tensor.pool.miss`, so over one epoch from a cold pool recycling
/// must serve all but a tenth of the buffer requests and all but a
/// fifth of the requested bytes. The serial lock keeps every other
/// test of this binary off the counters.
#[test]
fn a_cold_pool_epoch_recycles_its_buffers() {
    let _g = serial();
    set_threads(1);
    let cfg = tgat_epoch(4);
    let counters = ["tensor.pool.request", "tensor.pool.miss", "tensor.pool.request_bytes", "tensor.pool.alloc_bytes"];
    tgl_tensor::pool::clear();
    let before = counters.map(tglite::obs::metrics::get);
    let _ = tgl_harness::run_experiment(&cfg);
    let after = counters.map(tglite::obs::metrics::get);
    let [requests, misses, request_bytes, alloc_bytes] = [0, 1, 2, 3].map(|i| after[i] - before[i]);
    assert!(requests >= 10 * misses, "{requests} buffer requests for {misses} allocations: under 10x");
    assert!(request_bytes >= 5 * alloc_bytes, "{request_bytes} bytes requested for {alloc_bytes} allocated: under 5x");
}

#[test]
fn histogram_counts_and_sums_invariant_across_thread_counts() {
    let _g = serial();
    // The latency histograms are recorded concurrently from pool
    // workers; their count/sum/max/bucket state must depend only on the
    // multiset of recorded values, never on how many threads recorded
    // them. Record a fixed multiset through `parallel_for` itself so
    // the samples genuinely arrive from different threads at t > 1.
    let h = tglite::obs::hist::histogram("determinism.test_ns");
    assert_invariant("histogram count/sum/max/buckets", || {
        h.reset();
        tgl_runtime::parallel_for(10_000, 1, |r| {
            for i in r {
                h.record((i as u64 % 97) * (i as u64 % 13 + 1));
            }
        });
        let s = h.snapshot();
        (s.count, s.sum, s.max, s.buckets.to_vec())
    });
}

#[test]
fn sum_all_matches_sequential_within_tolerance() {
    let _g = serial();
    // The chunked sum must stay within 1e-5 (relative) of a plain
    // sequential fold, and be exactly invariant across thread counts.
    let mut rng = StdRng::seed_from_u64(0x5F1);
    let x = Tensor::rand_uniform([100_000], -1.0, 1.0, &mut rng);
    let seq: f32 = x.to_vec().iter().sum();
    assert_invariant("sum_all", || x.sum_all().item());
    set_threads(8);
    let par = x.sum_all().item();
    set_threads(1);
    let denom = seq.abs().max(1.0);
    assert!(
        (par - seq).abs() / denom <= 1e-5,
        "chunked sum {par} vs sequential {seq}"
    );
}

/// Parallel regions the pool ran during `f`.
fn regions_of(f: impl FnOnce()) -> u64 {
    let before = tglite::obs::metrics::get("pool.regions");
    f();
    tglite::obs::metrics::get("pool.regions") - before
}

#[test]
fn only_the_four_kept_sites_fan_out() {
    let _g = serial();
    set_threads(2);
    let mut rng = StdRng::seed_from_u64(0xFA0);
    let mut rand = |dims: &[usize]| Tensor::rand_uniform(dims.to_vec(), -1.0, 1.0, &mut rng).requires_grad(true);
    let inline = |what: &str, f: &dyn Fn()| assert_eq!(regions_of(f), 0, "{what} ran a pool region at 2 threads");
    let fans_out = |what: &str, f: &dyn Fn()| assert!(regions_of(f) >= 1, "{what} ran inline at 2 threads");

    // Every other kernel is one pass on the caller's thread, at any
    // size.
    let (a, b) = (rand(&[1 << 20]), rand(&[1 << 20]));
    inline("a 1 Mi-element add and its backward", &|| a.add(&b).backward_with(vec![1.0; 1 << 20]));
    inline("sum_all", &|| drop(a.sum_all()));
    let wide = rand(&[1024, 1024]);
    inline("sum_dim", &|| wide.sum_dim(1).sum_dim(0).backward());
    let (rows, hid) = (4608, 100);
    let (gi, gh, h) = (rand(&[rows, 3 * hid]), rand(&[rows, 3 * hid]), rand(&[rows, hid]));
    inline("gru_gates", &|| tgl_tensor::ops::gru_gates(&gi, &gh, &h).sum_all().backward());
    let n = 32_768;
    let x = rand(&[n, 16]);
    let seg: Vec<usize> = (0..n).map(|i| i / 7).collect();
    let segs = n.div_ceil(7);
    inline("segment_sum", &|| segment_sum(&x, &seg, segs).sum_all().backward());
    inline("segment_mean", &|| segment_mean(&x, &seg, segs).sum_all().backward());
    inline("segment_softmax", &|| segment_softmax(&x, &seg, segs).sum_all().backward());

    // The four sites that split their work above their thresholds.
    let (p, q) = (rand(&[1024, 256]), rand(&[256, 64]));
    fans_out("the GEMM's row panels", &|| drop(p.matmul(&q)));
    let (s, per, heads, d, k) = (1024, 8, 2, 8, 16);
    let (qs, wk, wv, bv, z) = (rand(&[s, heads * d]), rand(&[heads * d, k]), rand(&[heads * d, k]), rand(&[heads * d]), rand(&[s * per, k]));
    let ids: Vec<usize> = (0..s * per).map(|e| e / per).collect();
    let attend = || tgl_tensor::ops::edge_attention(&qs, &wk, [&wv, &bv], &[(&z).into()], &ids, heads, 0.5);
    fans_out("edge_attention forward", &|| drop(attend()));
    let y = attend();
    fans_out("edge_attention backward", &|| y.sum_all().backward());
    let deltas = Tensor::from_vec((0..1024).map(|i| i as f32).collect(), [1024]);
    let (freq, phase) = (rand(&[16]), rand(&[16]));
    fans_out("time_encode forward", &|| drop(tgl_tensor::ops::time_encode(&deltas, &freq, &phase)));
    fans_out("the sampler", &|| drop(sample_fixture(SamplingStrategy::Uniform)));
    set_threads(1);
}
