//! Acceptance suite for the op view of the span aggregate
//! (`tgl_obs::profile`): analytic GEMM FLOP counts must match 2·M·N·K
//! exactly, the recorded call/FLOP/byte totals must be invariant to the
//! worker-pool width (dispatch happens on the caller thread; only
//! kernels fan out), a real training epoch's per-phase op self-times
//! must stay within the phase rows, and the run report's `profile`
//! section must parse and carry the expected rows.
//!
//! The aggregate, span stack, and thread pool are process-global, so
//! every test holds the `serial()` lock and restores defaults.

use tgl_data::{generate, DatasetKind, DatasetSpec, Json, Split};
use tgl_harness::{RunReporter, TrainConfig, Trainer};
use tgl_integration::serial;
use tgl_models::{Apan, ModelConfig, OptFlags, TemporalModel, Tgat, Tgn};
use tgl_runtime::set_threads;
use tglite::obs::profile::{self, Row};
use tglite::obs::{collect, phase, span, Kind};
use tglite::tensor::Tensor;

/// The op rows of a drained aggregate (timers such as `gemm` and
/// `pool.job` depend on the pool width; ops do not).
fn take_ops() -> Vec<Row> {
    profile::take().into_iter().filter(|r| r.kind == Kind::Op).collect()
}

#[test]
fn gemm_flop_counts_match_analytic_2mnk() {
    let _g = serial();
    collect(true);
    profile::take();
    let (m, k, n) = (8usize, 16usize, 12usize);
    let a = Tensor::ones([m, k]).requires_grad(true);
    let b = Tensor::ones([k, n]);
    let c = a.matmul(&b);
    c.sum_all().backward();
    let stats = take_ops();
    collect(false);

    let mm = stats
        .iter()
        .find(|s| s.name == "matmul")
        .expect("matmul row recorded");
    assert_eq!(mm.dur.count, 1);
    assert_eq!(mm.cost.flops, 2 * (m * k * n) as u64, "GEMM FLOPs must be 2MNK");
    assert_eq!(mm.cost.shape, "8x16,16x12");
    assert_eq!(
        mm.cost.bytes_read,
        4 * (m * k + k * n) as u64,
        "GEMM reads both operands once"
    );
    assert_eq!(mm.cost.bytes_written, 4 * (m * n) as u64);

    // Backward runs one GEMM per operand on the graph — here only `a`,
    // so dA = dC·Bᵀ alone; the declared cost flows through the autograd
    // node into a `.bwd` row.
    let bwd = stats
        .iter()
        .find(|s| s.name == "matmul.bwd")
        .expect("backward sweep must attribute matmul's declared cost");
    assert_eq!(bwd.dur.count, 1);
    assert_eq!(bwd.cost.flops, 2 * (m * k * n) as u64);

    // With both operands on the graph it is two GEMMs' worth.
    collect(true);
    a.matmul(&b.requires_grad(true)).sum_all().backward();
    let stats = take_ops();
    collect(false);
    let bwd = stats.iter().find(|s| s.name == "matmul.bwd").expect("matmul.bwd row");
    assert_eq!(bwd.cost.flops, 4 * (m * k * n) as u64);
}

#[test]
fn linear_frame_counts_its_gemms_and_epilogue() {
    let _g = serial();
    collect(true);
    profile::take();
    let (m, k, n) = (8usize, 16usize, 12usize);
    let x = Tensor::ones([m, k]).requires_grad(true);
    let w = Tensor::ones([n, k]).requires_grad(true);
    let b = Tensor::ones([n]).requires_grad(true);
    x.linear(&w, Some(&b), true).sum_all().backward();
    let stats = take_ops();
    collect(false);
    let row = |op: &str| stats.iter().find(|s| s.name == op).unwrap_or_else(|| panic!("no {op} row"));
    // Forward: one GEMM plus a bias add and a ReLU per output element.
    let fwd = row("linear");
    assert_eq!((fwd.dur.count, fwd.cost.shape), (1, "8x16,12x16"));
    assert_eq!(fwd.cost.flops, (2 * m * k * n + 2 * m * n) as u64);
    assert_eq!(fwd.cost.bytes_read, 4 * (m * k + n * k + n) as u64);
    // Backward: dX and dW GEMMs, the ReLU mask and the bias column sums.
    assert_eq!(row("linear.bwd").cost.flops, (4 * m * k * n + 2 * m * n) as u64);
    assert!(stats.iter().all(|s| !s.name.starts_with("matmul") && !s.name.starts_with("transpose")));
}

/// A deterministic mixed workload under two phase scopes.
fn invariance_workload() {
    let a = Tensor::ones([64, 32]);
    let b = Tensor::ones([32, 48]);
    for _ in 0..3 {
        let c = {
            let _s = span("prof-inv-mm");
            a.matmul(&b)
        };
        let _d = {
            let _s = span("prof-inv-ew");
            c.relu().add(&c).sum_all()
        };
    }
}

#[test]
fn call_and_flop_totals_are_thread_count_invariant() {
    let _g = serial();
    let before = tgl_runtime::current_threads();
    // Work attribution (not timing) must be identical at any width.
    let run_at = |threads: usize| -> Vec<(&'static str, &'static str, u64, u64, u64, u64)> {
        set_threads(threads);
        collect(true);
        profile::take();
        invariance_workload();
        let stats = take_ops();
        collect(false);
        let mut keys: Vec<_> = stats
            .iter()
            .map(|s| (s.name, s.phase, s.dur.count, s.cost.flops, s.cost.bytes_read, s.cost.bytes_written))
            .collect();
        keys.sort();
        keys
    };
    let single = run_at(1);
    let wide = run_at(4);
    set_threads(before);
    assert!(
        single.iter().any(|(op, phase, ..)| *op == "matmul" && *phase == "prof-inv-mm"),
        "workload must record a phase-scoped matmul: {single:?}"
    );
    assert_eq!(
        single, wide,
        "op/phase/calls/flops/bytes must not depend on pool width"
    );
}

#[test]
fn training_phase_op_self_times_stay_within_tracer_spans() {
    let _g = serial();
    collect(true);
    profile::take();
    let mut rep = RunReporter::start();

    let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(10);
    let (g, _) = generate(&spec);
    let ctx = tglite::TContext::new(g.clone());
    let mut model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::all(), 42);
    let mut opt = tglite::tensor::optim::Adam::new(model.parameters(), 1e-3);
    let split = Split::standard(&g);
    let trainer = Trainer::new(
        TrainConfig { batch_size: 100, epochs: 1, lr: 1e-3, seed: 0 },
        spec.n_src as u32,
        spec.num_nodes() as u32,
    );
    let stats = trainer.train_epoch(&mut model, &ctx, &split, &mut opt, 0);
    rep.record_epoch(0, &stats);
    let (test_ap, test_s) = trainer.evaluate(&mut model, &ctx, split.test.clone());
    let report = rep.finish(test_ap, test_s);
    collect(false);

    assert!(!report.profile.is_empty(), "profiled run recorded no ops");
    // Ops attribute to the paper's Fig. 7 phases, and heavy tensor
    // phases are actually covered by op self time.
    let phase_ops = |phase: &str| -> f64 {
        report
            .profile
            .iter()
            .filter(|s| s.kind == Kind::Op && s.phase == phase)
            .map(|s| s.self_ns as f64 / 1e9)
            .sum()
    };
    assert!(
        phase_ops("attention") > 0.0,
        "attention phase must contain op self time: {:?}",
        report.profile.iter().map(|s| s.phase).collect::<Vec<_>>()
    );
    assert!(phase_ops("backward") > 0.0, "backward sweep must attribute ops");

    // Self-time accounting never exceeds the phase rows: for every
    // phase, op self time <= phase time within 10% (plus a small
    // absolute tolerance for sub-millisecond phases).
    for (phase, span_s) in &report.phases_total_s {
        let ops_s = phase_ops(phase);
        assert!(
            ops_s <= span_s * 1.10 + 2e-3,
            "phase {phase:?}: op self time {ops_s:.4}s exceeds span {span_s:.4}s"
        );
    }
}

#[test]
fn training_epoch_profile_has_no_anonymous_rows() {
    let _g = serial();
    // Every autograd node is built inside a named op frame, so neither
    // the forward table nor the backward sweep may fall back to the
    // placeholder names (`op` / `op.bwd`) on a TGAT, TGN or APAN epoch.
    let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(10);
    let (g, _) = generate(&spec);
    let split = Split::standard(&g);
    let trainer = Trainer::new(
        TrainConfig { batch_size: 100, epochs: 1, lr: 1e-3, seed: 0 },
        spec.n_src as u32,
        spec.num_nodes() as u32,
    );
    let epoch_ops = |model: &mut dyn TemporalModel, ctx: &tglite::TContext| {
        let mut opt = tglite::tensor::optim::Adam::new(model.parameters(), 1e-3);
        collect(true);
        profile::take();
        trainer.train_epoch(model, ctx, &split, &mut opt, 0);
        let stats = take_ops();
        collect(false);
        stats
    };
    let ctx = tglite::TContext::new(g.clone());
    let tgat = epoch_ops(&mut Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::all(), 42), &ctx);
    let ctx = tglite::TContext::new(g.clone());
    let tgat_tgl = epoch_ops(&mut Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 42), &ctx);
    let ctx = tglite::TContext::new(g.clone());
    // The benchmark's dimensions and operators: shares of op time are
    // read below, and at `tiny()` widths every op costs its dispatch.
    let cfg = ModelConfig { emb_dim: 32, time_dim: 16, ..ModelConfig::default() };
    let tgn = epoch_ops(&mut Tgn::new(&ctx, cfg, OptFlags::all(), 42), &ctx);
    let ctx = tglite::TContext::new(g.clone());
    let apan = epoch_ops(&mut Apan::new(&ctx, cfg, OptFlags::all(), 42), &ctx);

    // Every model runs its ops inside a named phase: what no phase
    // holds (the loss) stays under 1% of op self time.
    for (model, rows) in [("tgat", &tgat), ("tgn", &tgn), ("apan", &apan)] {
        let op_ns: u64 = rows.iter().map(|r| r.self_ns).sum();
        let loose: Vec<_> = rows.iter().filter(|r| r.phase == profile::NO_PHASE).collect();
        let ns: u64 = loose.iter().map(|r| r.self_ns).sum();
        let names: Vec<_> = loose.iter().map(|r| (r.name, r.self_ns)).collect();
        assert!(100 * ns < op_ns, "{model}: (no-phase) rows hold {ns} of {op_ns} ns of op self time: {names:?}");
    }

    // TGN's GRU gates are one kernel under the `memory` phase with an
    // analytic cost each way; what is left of the chain it replaced
    // (libm gate ops, scatter-adds into zeroed buffers) is noise.
    let gates = tgn.iter().find(|r| r.name == "gru_gates").expect("tgn: no gru_gates frame");
    assert_eq!(gates.phase, "memory");
    assert!(gates.cost.flops > 0 && gates.cost.bytes_read > 0 && gates.cost.bytes_written > 0);
    let gates_bwd = tgn.iter().find(|r| r.name == "gru_gates.bwd").expect("tgn: no gru_gates.bwd");
    assert!(gates_bwd.cost.flops > 0 && gates_bwd.cost.bytes_written > 0, "undeclared backward cost");
    let op_ns: u64 = tgn.iter().map(|r| r.self_ns).sum();
    for gone in ["sigmoid", "tanh"] {
        let ns: u64 = tgn.iter().filter(|r| r.name == gone).map(|r| r.self_ns).sum();
        assert!(100 * ns <= op_ns, "tgn: {gone} holds {ns} of {op_ns} ns of op self time");
    }
    // The row gathers' backward adds each gathered row into a zeroed
    // table. While the gates were strided gathers, those tables held
    // 2.7x the bytes of the rows added into them (55 MB written for 20 MB
    // read in this epoch); the memory rows' expansion and dedup, what is
    // left, write 0.13x. Read from the declared cost, which the speed of
    // the other ops does not move.
    let (read, written) = tgn
        .iter()
        .filter(|r| r.name == "index_select.bwd")
        .fold((0, 0), |(r, w), row| (r + row.cost.bytes_read, w + row.cost.bytes_written));
    assert!(written <= read, "tgn: index_select.bwd writes {written} bytes for {read} read");

    // The layers read their inputs where they lie: the tail's node
    // features as rows of the staged table, every layer boundary as rows
    // of the layer's output. Neither is gathered or copied first. The
    // `tgl` framework (no `preload`) still stages every block's tensors
    // eagerly, one gather each, under `feature_load`.
    let row = |rows: &[Row], name: &str, phase: &str| rows.iter().any(|r| r.name == name && r.phase == phase);
    assert!(!row(&tgat, "index_select", "feature_load"), "tgat: the tail's features were gathered");
    assert!(!row(&tgat, "narrow_rows", "aggregate"), "tgat: a layer boundary was copied");
    assert!(!row(&tgn, "narrow_rows", "aggregate"), "tgn: a layer boundary was copied");
    assert!(row(&tgat_tgl, "index_select", "feature_load"), "tgl: no eager feature_load gather");

    let names = |rows: &[Row]| rows.iter().map(|r| r.name).collect::<Vec<_>>();
    for (model, rows) in [("tgat", &tgat), ("tgn", &tgn), ("apan", &apan)] {
        let ops = names(rows);
        assert!(ops.contains(&"linear.bwd"), "{model}: backward sweep not profiled: {ops:?}");
        for fused in ["edge_attention", "time_encode"] {
            assert!(ops.contains(&fused), "{model}: no {fused} frame: {ops:?}");
            assert!(ops.iter().any(|op| op.strip_suffix(".bwd") == Some(fused)), "{model}: {fused}.bwd");
        }
        // The attention is one op each way, with a declared cost each way.
        for name in ["edge_attention", "edge_attention.bwd"] {
            let row = rows.iter().find(|r| r.name == name).expect("checked above");
            assert!(row.cost.flops > 0 && row.cost.bytes_read > 0 && row.cost.bytes_written > 0, "{model}: {name} cost");
        }
        // APAN's mails reach its neighbours through `src_scatter`'s
        // mean; no attention runs on the `segment_*` ops.
        let scatter = |op: &&str| model == "apan" && *op == "segment_mean";
        assert!(!ops.iter().filter(|op| !scatter(op)).any(|op| op.starts_with("segment_")), "{model}: {ops:?}");
        assert!(ops.contains(&"bce.bwd") && ops.contains(&"reshape.bwd"), "{model}: {ops:?}");
        assert!(!ops.iter().any(|op| *op == "op" || *op == "op.bwd"), "{model}: {ops:?}");
    }
}

/// The machine surface of the profile is the run report's `profile`
/// section (what `--metrics-out` writes).
#[test]
fn profile_section_of_the_run_report_is_valid_json() {
    let _g = serial();
    let rep = RunReporter::start();
    {
        let _s = span("prof-json-phase");
        let a = Tensor::ones([16, 16]);
        let _ = a.matmul(&a);
    }
    let text = rep.finish(0.0, 0.0).to_json();
    collect(false);
    profile::take();

    let doc = Json::parse(&text).expect("run report must parse");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("tgl-run-report/v3"));
    let rows = doc.get("profile").and_then(Json::as_arr).expect("profile section");
    let find = |name: &str| {
        rows.iter().find(|o| o.get("name").and_then(Json::as_str) == Some(name)).unwrap_or_else(|| panic!("no {name} row"))
    };
    let mm = find("matmul");
    assert_eq!(mm.get("phase").and_then(Json::as_str), Some("prof-json-phase"), "keyed by enclosing phase");
    assert_eq!(mm.get("kind").and_then(Json::as_str), Some("op"));
    assert_eq!(mm.get("flops").and_then(Json::as_num), Some(2.0 * 16.0 * 16.0 * 16.0));
    for field in [
        "calls",
        "self_ns",
        "span_ns",
        "total_ns",
        "bytes_read",
        "bytes_written",
        "pool_hits",
        "pool_misses",
        "transfer_bytes",
    ] {
        assert!(mm.get(field).and_then(Json::as_num).is_some(), "missing {field}");
    }
    // The phase itself is a row of the same section, and of the
    // whole-run Fig. 7 table read from it.
    assert_eq!(find("prof-json-phase").get("kind").and_then(Json::as_str), Some("phase"));
    assert!(doc.get("phases_total_s").and_then(|p| p.get("prof-json-phase")).is_some());
}

/// Epoch boundaries read the aggregate without draining it: a row
/// recorded before `record_epoch` is still in the finished report.
#[test]
fn profile_rows_survive_epoch_boundaries() {
    let _g = serial();
    let mut rep = RunReporter::start();
    {
        let _s = span("prof-epoch-phase");
        let a = Tensor::ones([8, 8]);
        let _ = a.matmul(&a);
    }
    rep.record_epoch(0, &tgl_harness::EpochStats { loss: 0.5, steps: 10, skipped: 0, train_time_s: 0.1, val_ap: 0.5 });
    let report = rep.finish(0.0, 0.0);
    collect(false);
    profile::take();
    assert!(
        report.profile.iter().any(|r| r.name == "matmul" && r.phase == "prof-epoch-phase"),
        "the finished report must include the matmul row recorded in epoch 0"
    );
}

/// A phase recorded inside pool closures reaches the caller's report:
/// phases once landed in the recording worker's thread-local table and
/// vanished from the caller's.
#[test]
fn worker_thread_scopes_reach_caller_report() {
    let _g = serial();
    collect(true);
    phase::take();
    let before = tgl_runtime::current_threads();
    set_threads(2);
    tgl_runtime::parallel_for(4096, 1, |r| {
        let _s = span("prof-test-worker-phase");
        let mut acc = 0.0f64;
        for i in r {
            acc += (i as f64).sqrt();
        }
        std::hint::black_box(acc);
    });
    set_threads(before);
    let report = phase::take();
    collect(false);
    let worker = report
        .iter()
        .find(|(n, _)| *n == "prof-test-worker-phase")
        .expect("phase recorded inside a parallel region must appear in the report");
    assert!(worker.1 > std::time::Duration::ZERO);
}

/// `--profile`'s roofline is measured by this process at the pool's
/// width, whatever the working directory holds, and the probe's own
/// GEMMs stay out of the aggregate it is printed beside.
#[test]
fn roofline_peak_is_measured_here_and_leaves_no_rows() {
    let _g = serial();
    let before = tgl_runtime::current_threads();
    set_threads(2);
    collect(true);
    profile::take();
    let roof = tgl_harness::profrep::Roofline::detect();
    let rows = take_ops();
    let still_collecting = tglite::obs::collecting();
    collect(false);
    set_threads(before);
    assert!(still_collecting, "the probe must restore collection");
    assert!(rows.is_empty(), "probe calls landed in the profile: {:?}", rows.iter().map(|r| r.name).collect::<Vec<_>>());
    assert_eq!(roof.threads, 2);
    assert!(roof.peak_gflops > 0.1 && roof.peak_gflops < 100_000.0, "implausible peak {}", roof.peak_gflops);
    assert!(roof.bw_gbs > 0.0);
}
