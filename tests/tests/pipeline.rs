//! Acceptance suite for the pipelined dataflow trainer: a sampler
//! stage preparing batches (negatives and the block chain) ahead over
//! a bounded channel must be *observationally invisible* next to
//! depth 0, in training and in evaluation, for all four models —
//! bitwise-identical epoch losses and APs at every queue depth and
//! worker-pool width, identical deltas on the work counters the
//! sampler stage owns (sampling, dedup, preload, transfers), and
//! unchanged health semantics (a poisoned batch is skipped, not
//! crashed, and a flight dump still parses). A
//! compute stage that panics while the sampler stage waits on a full
//! queue fails the epoch instead of hanging it.
//!
//! The counters and the thread pool are process-global, so every test
//! holds the `serial()` lock and restores a single-threaded pool.

use tgl_data::{generate, DatasetKind, DatasetSpec, Json, Split};
use tgl_device::TransferModel;
use tgl_harness::runner::{prepare_context, Placement};
use tgl_harness::{HealthPolicy, TrainConfig, Trainer};
use tgl_integration::{serial, PanicsInForward};
use tgl_models::{Apan, Jodie, ModelConfig, OptFlags, TemporalModel, Tgat, Tgn};
use tgl_runtime::set_threads;
use tglite::obs::metrics;
use tglite::TContext;

/// The counters owned by the stages the pipeline moves off-thread.
/// `tensor.pool.*` is deliberately absent: pool hit/miss depends on
/// allocation interleaving across threads, not on the work performed.
const TRACKED: [&str; 8] = [
    "sampler.queries",
    "sampler.neighbors",
    "dedup.rows_in",
    "dedup.rows_saved",
    "preload.calls",
    "preload.tensors_moved",
    "transfer.count",
    "transfer.h2d_bytes",
];

/// Runs `f`, returning its result and the tracked counter deltas.
fn metered<T>(f: impl FnOnce() -> T) -> (T, Vec<u64>) {
    let counters = || TRACKED.map(metrics::get);
    let before = counters();
    let out = f();
    (out, before.iter().zip(counters()).map(|(b, a)| a - b).collect())
}

/// Per-epoch `(loss, val_ap)` bits plus tracked counter deltas.
type RunResult = (Vec<(u32, u64)>, Vec<u64>);

fn tiny_wiki() -> DatasetSpec {
    DatasetSpec::of(DatasetKind::Wiki).scaled_down(20)
}

fn trainer(spec: &DatasetSpec, depth: usize) -> Trainer {
    Trainer::new(
        TrainConfig {
            batch_size: 60,
            epochs: 2,
            lr: 1e-3,
            seed: 9,
        },
        spec.n_src as u32,
        spec.num_nodes() as u32,
    )
    .with_pipeline(depth)
}

/// Trains 2 epochs of `model` at the given pipeline depth, returning
/// per-epoch `(loss, val_ap)` bits and the tracked counter deltas.
fn train(
    model: &mut dyn TemporalModel,
    ctx: &TContext,
    spec: &DatasetSpec,
    depth: usize,
) -> RunResult {
    let split = Split::standard(ctx.graph());
    let trainer = trainer(spec, depth);
    let mut opt = tglite::tensor::optim::Adam::new(model.parameters(), 1e-3);
    metered(|| {
        (0..2)
            .map(|e| {
                let s = trainer.train_epoch(model, ctx, &split, &mut opt, e);
                (s.loss.to_bits(), s.val_ap.to_bits())
            })
            .collect()
    })
}

/// `Trainer::evaluate` alone, over every edge, on the untrained
/// `model`: `(0, AP)` bits and the tracked counter deltas.
fn evaluate(
    model: &mut dyn TemporalModel,
    ctx: &TContext,
    spec: &DatasetSpec,
    depth: usize,
) -> RunResult {
    model.reset_state(ctx);
    metered(|| {
        let (ap, _) = trainer(spec, depth).evaluate(model, ctx, 0..ctx.graph().num_edges());
        vec![(0, ap.to_bits())]
    })
}

type Build = fn(&TContext) -> Box<dyn TemporalModel>;
type Drive = fn(&mut dyn TemporalModel, &TContext, &DatasetSpec, usize) -> RunResult;

const TGAT: Build = |ctx| Box::new(Tgat::new(ctx, ModelConfig::tiny(), OptFlags::all(), 5));
const TGN: Build = |ctx| Box::new(Tgn::new(ctx, ModelConfig::tiny(), OptFlags::all(), 5));
const APAN: Build = |ctx| Box::new(Apan::new(ctx, ModelConfig::tiny(), OptFlags::all(), 5));
const JODIE: Build = |ctx| Box::new(Jodie::new(ctx, ModelConfig::tiny(), OptFlags::all(), 5));

/// `drive`s a fresh model with everything on the host tier.
fn run(build: Build, drive: Drive, depth: usize) -> RunResult {
    let spec = tiny_wiki();
    let (g, _) = generate(&spec);
    let ctx = TContext::new(g);
    drive(build(&ctx).as_mut(), &ctx, &spec, depth)
}

/// `drive`s a fresh model computing on the accelerator tier with
/// host-resident features behind an enabled link model. Also returns
/// the run's accelerator-tier high-water mark.
fn run_host_resident(build: Build, drive: Drive, depth: usize) -> (RunResult, u64) {
    let spec = tiny_wiki();
    let (ctx, _) = prepare_context(&spec, Placement::HostResident, TransferModel::pcie_v100());
    tgl_device::reset_stats();
    let result = drive(build(&ctx).as_mut(), &ctx, &spec, depth);
    tgl_device::set_transfer_model(TransferModel::disabled());
    (result, tgl_device::stats().accel_peak_bytes)
}

/// The contract: `run` at queue depths 1, 2 and 4 and pool widths 1 and
/// 4 reproduces depth 0's losses and APs *bitwise* and fires each stage
/// counter exactly as often — the work moved threads, not semantics —
/// and depth 0 itself is invariant across pool widths (the runtime's
/// determinism contract). Returns the depth-0 result.
fn assert_depth_invisible(what: &str, run: impl Fn(usize) -> RunResult) -> RunResult {
    let mut baseline: Option<RunResult> = None;
    for threads in [1usize, 4] {
        set_threads(threads);
        let sequential = run(0);
        let b = baseline.get_or_insert_with(|| sequential.clone());
        assert_eq!(b, &sequential, "{what}: depth 0 not invariant across thread counts");
        for depth in [1usize, 2, 4] {
            let piped = run(depth);
            assert_eq!(
                sequential.0, piped.0,
                "{what}: losses/APs diverged at depth {depth}, {threads} threads"
            );
            assert_eq!(
                sequential.1, piped.1,
                "{what}: counter deltas {TRACKED:?} diverged at depth {depth}, {threads} threads"
            );
        }
    }
    set_threads(1);
    baseline.expect("ran")
}

/// The tentpole contract on TGAT (all operators on, everything on the
/// host tier).
#[test]
fn pipelined_matches_sequential_bitwise_across_depths_and_threads() {
    let _g = serial();
    let sequential = assert_depth_invisible("TGAT", |depth| run(TGAT, train, depth));
    assert!(
        sequential.1[0] > 0 && sequential.1[2] > 0,
        "reference run exercised no sampling/dedup work: {:?}",
        sequential.1
    );
}

/// The same contract for the two models whose chain is the head block
/// alone, with features crossing the link: the sampler stage stages
/// the head's distinct node rows; APAN's mail-delivery sample and all
/// memory and mailbox traffic stay on the compute thread.
#[test]
fn apan_and_jodie_host_resident_match_sequential() {
    let _g = serial();
    for (what, build) in [("APAN", APAN), ("JODIE", JODIE)] {
        let sequential =
            assert_depth_invisible(what, |depth| run_host_resident(build, train, depth).0);
        assert!(
            sequential.1[4..].iter().all(|&d| d > 0),
            "{what} staged nothing over the link: {TRACKED:?} = {:?}",
            sequential.1
        );
    }
}

/// `Trainer::evaluate` alone runs the same batch loop: a model that
/// publishes its spec in inference mode has its chains built on the
/// sampler stage (TGN, APAN, JODIE; TGAT without `cache`), TGAT with
/// `cache` on keeps building inline, and neither shows in the AP bits
/// or the counters.
#[test]
fn evaluate_alone_matches_depth_zero() {
    let _g = serial();
    const TGAT_UNCACHED: Build =
        |ctx| Box::new(Tgat::new(ctx, ModelConfig::tiny(), OptFlags::preload_only(), 5));
    for (what, build) in [("TGAT", TGAT), ("TGAT without cache", TGAT_UNCACHED)] {
        let sequential = assert_depth_invisible(what, |depth| run(build, evaluate, depth));
        assert!(sequential.1[0] > 0, "{what}: evaluation sampled nothing: {:?}", sequential.1);
    }
    for (what, build) in [("TGN", TGN), ("APAN", APAN), ("JODIE", JODIE)] {
        let sequential =
            assert_depth_invisible(what, |depth| run_host_resident(build, evaluate, depth).0);
        assert!(
            sequential.1[4..].iter().all(|&d| d > 0),
            "{what}: evaluation staged nothing over the link: {:?}",
            sequential.1
        );
    }
}

/// The same contract for a memory model whose features cross the link:
/// TGN's chain (dedup, sampling, distinct-row staging) is built on the
/// sampler stage while its memory and mailbox reads stay on the compute
/// thread. Queued chains hold staged tables and time deltas, not
/// expanded tensors, so a deep queue must not raise the
/// accelerator-tier peak.
#[test]
fn tgn_host_resident_matches_sequential_and_keeps_device_peak() {
    let _g = serial();
    // The accelerator-tier peak of every run, in run order: depths 0,
    // 1, 2, 4 at each pool width.
    let peaks = std::cell::RefCell::new(Vec::new());
    let sequential = assert_depth_invisible("TGN", |depth| {
        let (result, peak) = run_host_resident(TGN, train, depth);
        peaks.borrow_mut().push(peak);
        result
    });
    assert!(
        sequential.1[5..].iter().all(|&d| d > 0),
        "reference run staged nothing over the link: {TRACKED:?} = {:?}",
        sequential.1
    );
    for by_depth in peaks.borrow().chunks(4) {
        let (peak0, peak4) = (by_depth[0], by_depth[3]);
        // Measured: 881 376 B at depth 0 and 49 340 B more at depths
        // 1, 2 and 4 alike: the staged tables and time deltas of a
        // chain waiting in the queue while the step before it peaks.
        // Expanded per-block tensors in four queued chains would be
        // several times that. The allowance stays the absolute
        // 79 052 B it was when the depth-0 peak was 2.6 MB.
        assert!(
            peak4 <= peak0 + 79_052,
            "accel peak grew with the queue: {peak0} B at depth 0, {peak4} B at depth 4"
        );
        // Node state per distinct node: the step peaked at 2 101 328 B
        // when the GRU ran on every row of the tail block.
        assert!(peak0 < 2_101_328 / 2, "depth-0 accel peak is back to {peak0} B");
    }
}

/// Health semantics survive pipelining: with poisoned parameters every
/// prefetched batch produces a NaN loss, and the `warn` policy must
/// skip each one (recording `trainer.loss` events) while the epoch —
/// including the sampler-stage shutdown — completes cleanly, and the
/// span tail still renders as a parseable flight dump.
#[test]
fn pipelined_nan_batches_are_skipped_not_crashed() {
    let _g = serial();
    let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(20);
    let (g, _) = generate(&spec);
    let split = Split::standard(&g);
    let ctx = TContext::new(g.clone());
    let mut model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::all(), 7);
    for p in model.parameters() {
        p.with_data_mut(|d| d.fill(f32::NAN));
    }
    let trainer = Trainer::new(
        TrainConfig {
            batch_size: 60,
            epochs: 1,
            lr: 1e-3,
            seed: 3,
        },
        spec.n_src as u32,
        spec.num_nodes() as u32,
    )
    .with_health(HealthPolicy::Warn)
    .with_pipeline(2);
    let mut opt = tglite::tensor::optim::Adam::new(model.parameters(), 1e-3);
    let events0 = tglite::obs::health::events().len();
    let nonfinite0 = metrics::get("health.nonfinite_loss");
    let stats = trainer.train_epoch(&mut model, &ctx, &split, &mut opt, 0);
    assert!(stats.loss.is_nan() && stats.steps == 0, "an epoch of skipped batches has no mean loss: {stats:?}");
    let events = tglite::obs::health::events();
    assert!(
        events[events0..].iter().any(|e| e.source == "trainer.loss"),
        "pipelined NaN loss recorded no trainer.loss health event"
    );
    assert!(
        metrics::get("health.nonfinite_loss") > nonfinite0,
        "health.nonfinite_loss counter did not advance under pipelining"
    );
    let dump = tgl_harness::RunReport::flight("pipeline-test", Some(HealthPolicy::Warn)).to_json();
    let doc = Json::parse(&dump).expect("flight dump must stay parseable");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("tgl-run-report/v3"));
    let reason = doc.get("meta").and_then(|m| m.get("reason")).and_then(Json::as_str);
    assert_eq!(reason, Some("pipeline-test"), "flight dump's meta.reason");
    let recent = doc.get("recent").and_then(Json::as_arr).expect("flight dump has a recent section");
    assert!(
        recent.iter().any(|s| s.get("name").and_then(Json::as_str) == Some("step")),
        "the span tail holds no step region of the epoch that just ran"
    );
}

/// A pipelined run records its queue telemetry where a reader finds
/// it: the run report of a depth-2 epoch carries the three
/// `pipeline.queue.*` histograms, each with samples, and the
/// configured depth as a gauge.
#[test]
fn pipelined_run_reports_its_queue_telemetry() {
    let _g = serial();
    let spec = tiny_wiki();
    let (g, _) = generate(&spec);
    let ctx = TContext::new(g);
    let split = Split::standard(ctx.graph());
    let mut model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::all(), 5);
    let mut opt = tglite::tensor::optim::Adam::new(model.parameters(), 1e-3);
    tglite::obs::hist::histogram("pipeline.queue.occupancy").reset();
    let mut reporter = tgl_harness::RunReporter::start();
    let stats = trainer(&spec, 2).train_epoch(&mut model, &ctx, &split, &mut opt, 0);
    reporter.record_epoch(0, &stats);
    let report = reporter.finish(0.0, 0.0);
    for name in ["pipeline.queue.occupancy", "pipeline.queue.send_wait_ns", "pipeline.queue.recv_wait_ns"] {
        let hist = report.histograms.iter().find(|(n, _)| n == name);
        assert!(hist.is_some_and(|(_, h)| h.count > 0), "{name} missing or empty in the run report");
    }
    let occupancy = report.histograms.iter().find(|(n, _)| n == "pipeline.queue.occupancy");
    let max = occupancy.map_or(0, |(_, h)| h.max);
    assert!(max <= 2, "a depth-2 queue read as holding {max} batches");
    let depth = report.gauges.iter().find(|(n, _)| n == "pipeline.depth").map(|(_, v)| *v);
    assert_eq!(depth, Some(2.0), "pipeline.depth gauge");
}

/// A depth no range can fill trains exactly like depth 0: the queue is
/// sized to the batches in the range, so `usize::MAX` allocates no
/// more than the epoch needs.
#[test]
fn an_unbounded_depth_trains_to_the_bits_of_depth_zero() {
    let _g = serial();
    set_threads(1);
    assert_eq!(run(TGAT, train, 0).0, run(TGAT, train, usize::MAX).0);
}

/// A compute stage that panics while the sampler stage is blocked on a
/// full queue fails the epoch: dropping the receiver during the unwind
/// wakes the sampler, and the scope joins it. Run on a thread of its
/// own under a deadline, so a hang fails the test instead of stalling
/// the suite.
#[test]
fn a_panicking_forward_fails_the_epoch_instead_of_hanging_it() {
    let _g = serial();
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let spec = tiny_wiki();
        let (g, _) = generate(&spec);
        let ctx = TContext::new(g);
        let split = Split::standard(ctx.graph());
        let inner = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::all(), 5);
        // The pause gives the sampler stage time to fill the queue and
        // block on it before the panic.
        let mut model = PanicsInForward::new(inner, 2, std::time::Duration::from_millis(200));
        let mut opt = tglite::tensor::optim::Adam::new(model.parameters(), 1e-3);
        let trainer = trainer(&spec, 1);
        let epoch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            trainer.train_epoch(&mut model, &ctx, &split, &mut opt, 0)
        }));
        let _ = done.send(epoch.is_err());
    });
    let panicked = outcome
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("train_epoch hung after its forward panicked");
    assert!(panicked, "train_epoch returned although its forward panicked");
}
