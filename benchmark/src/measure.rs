//! What one child process measures: the untraced run (end-to-end
//! metrics, `Trainer` drives the loop) or the traced run (per-layer
//! metrics, the benchmark drives the loop and records a span around
//! every call into a layer), plus the direct probes of single layers.
//!
//! Everything here measures from outside: it times calls into public
//! functions and reads public counters at the same boundaries.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use tgl_data::{Json, NegativeSampler, Split};
use tgl_harness::metrics::average_precision;
use tgl_models::TemporalModel;
use tgl_runtime::rng::{SeedableRng, StdRng};
use tgl_sampler::{SamplingStrategy, TemporalSampler};
use tgl_tensor::{bce_with_logits, no_grad, ops::cat, Tensor};
use tglite::{TBatch, TContext};

use crate::host;
use crate::metrics::{self, Values, END_TO_END, EXACT_COUNTERS, GEMM_SHAPES, PER_LAYER};
use crate::stats::{self, Counts};
use crate::trace::{self, Tracer};
use crate::workload::{self, Mode, Session, Workload, BATCH, MODEL_CFG};

/// Set-ups per untraced run, whose median is `setup_s`: at least
/// `MIN`, then more while they have taken less than `BUDGET_S` in all,
/// up to `MAX` (a cheap set-up is the noisiest and the cheapest to
/// repeat). A smoke run sets up once.
const SETUP_REPS_MIN: usize = 5;
const SETUP_REPS_MAX: usize = 15;
const SETUP_BUDGET_S: f64 = 3.0;
/// Repetitions of each GEMM probe; the median is reported.
const GEMM_REPS: usize = 60;

/// What the parent asked this child to do.
pub struct Request {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Wall seconds the untraced timed region lasts at least.
    pub seconds: f64,
    pub trace: bool,
    /// Extra dataset shrink; above 1 is a smoke run.
    pub scale: usize,
}

impl Request {
    /// A smoke run shows that everything runs: one set-up, one timed
    /// unit, no AP floor (the floors hold at the real size).
    fn smoke(&self) -> bool {
        self.scale > 1
    }
}

/// One check of a run: name, passed, detail.
type Check = (&'static str, bool, String);

/// Loss and AP of one timed unit (an epoch or an inference pass), the
/// batches it attempted and lost, and its wall time.
struct UnitOut {
    loss: Option<f32>,
    ap: f64,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    /// `wall_s` cut at the start of each batch's `forward` (empty for
    /// the traced loop, whose spans say more).
    slots: Vec<f64>,
    /// Every counter's delta over the unit.
    counts: Counts,
}

fn batches_in(range: &std::ops::Range<usize>) -> u64 {
    range.len().div_ceil(BATCH) as u64
}

fn snapshot() -> Counts {
    stats::counts(&tgl_obs::metrics::snapshot())
}

fn get(c: &Counts, name: &str) -> u64 {
    c.get(name).copied().unwrap_or(0)
}

/// Drives one unit through `Trainer`, as a user's run does.
fn trainer_unit(s: &mut Session, mode: Mode, index: usize) -> UnitOut {
    let before = snapshot();
    s.model.forward_entries.clear();
    let start = Instant::now();
    let (loss, ap, train, eval) = match mode {
        Mode::Train => {
            let e = s
                .trainer
                .train_epoch(&mut s.model, &s.ctx, &s.split, &mut s.opt, index);
            (
                Some(e.loss),
                e.val_ap,
                batches_in(&s.split.train),
                batches_in(&s.split.val),
            )
        }
        Mode::Infer => {
            let all = s.timed_edges(mode);
            s.model.reset_state(&s.ctx);
            let (ap, _) = s.trainer.evaluate(&mut s.model, &s.ctx, all.clone());
            (None, ap, 0, batches_in(&all))
        }
    };
    let end = Instant::now();
    // Slot j runs from the j-th `forward` entry (the unit's start for
    // the first) to the next one (the unit's end for the last).
    let mut cuts = vec![start];
    cuts.extend(s.model.forward_entries.iter().skip(1));
    cuts.push(end);
    let slots = cuts
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    // A skipped training batch advances `health.nonfinite_loss` once;
    // non-finite scores void the whole evaluation pass.
    let counts = stats::delta(&before, &snapshot());
    let lost_eval = if get(&counts, "health.nonfinite_scores") > 0 {
        eval
    } else {
        0
    };
    UnitOut {
        loss,
        ap,
        attempted: train + eval,
        failed: get(&counts, "health.nonfinite_loss") + lost_eval,
        wall_s: (end - start).as_secs_f64(),
        slots,
        counts,
    }
}

fn hex32(v: f32) -> String {
    format!("{:08x}", v.to_bits())
}

fn hex64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// The result document a child prints: stamp, the checks every run
/// makes on its units' losses, APs and failed batches followed by
/// `run_checks`, the failure counts, metrics, and `extra` run-specific
/// members.
fn result(
    req: &Request,
    units: &[&UnitOut],
    run_checks: Vec<Check>,
    metrics: Json,
    extra: Vec<(String, Json)>,
) -> Json {
    let w = req.workload;
    let losses: Vec<f32> = units.iter().filter_map(|u| u.loss).collect();
    let aps: Vec<f64> = units.iter().map(|u| u.ap).collect();
    let failed: u64 = units.iter().map(|u| u.failed).sum();
    let attempted: u64 = units.iter().map(|u| u.attempted).sum();
    let mut checks: Vec<Check> = vec![
        (
            "losses_finite",
            losses.iter().all(|l| l.is_finite()),
            format!("{} losses", losses.len()),
        ),
        (
            "ap_in_unit_interval",
            aps.iter().all(|&a| a > 0.0 && a < 1.0),
            format!("{aps:?}"),
        ),
        (
            "no_failed_batches",
            failed == 0,
            format!("{failed} of {attempted} batches"),
        ),
    ];
    // The floors were set on the stock streams after two or more epochs.
    if w.mode == Mode::Train && req.seed == 0 && !req.smoke() && !req.trace {
        let last = aps[aps.len() - 1];
        checks.push((
            "ap_floor",
            last >= w.min_ap,
            format!("last val AP {last:.4} >= {}", w.min_ap),
        ));
    }
    checks.extend(run_checks);

    let mut stamp = host::stamp();
    stamp.extend([
        (
            "kernel".into(),
            Json::Str(tgl_tensor::kernel::mode().label().into()),
        ),
        ("threads".into(), Json::Num(w.threads as f64)),
        ("pipeline".into(), Json::Num(w.pipeline as f64)),
        ("seed".into(), Json::Num(req.seed as f64)),
        ("scale".into(), Json::Num(req.scale as f64)),
    ]);
    let correct = checks.iter().all(|c| c.1);
    let checks = checks
        .into_iter()
        .map(|(name, ok, detail)| {
            Json::obj(vec![
                ("name".into(), Json::Str(name.into())),
                ("ok".into(), Json::Bool(ok)),
                ("detail".into(), Json::Str(detail)),
            ])
        })
        .collect();
    let mut doc = vec![
        ("workload".into(), Json::Str(w.name.into())),
        ("trace".into(), Json::Bool(req.trace)),
        ("stamp".into(), Json::obj(stamp)),
        ("correct".into(), Json::Bool(correct)),
        ("checks".into(), Json::Arr(checks)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), metrics),
    ];
    doc.extend(extra);
    Json::obj(doc)
}

// ---------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ---------------------------------------------------------------------

/// Sets up several times, then lets `Trainer` run whole units for at
/// least `req.seconds` and reports the end-to-end metrics.
pub fn untraced(req: &Request) -> Json {
    let w = req.workload;
    let mut setups: Vec<f64> = Vec::new();
    let mut s = workload::setup(w, req.seed, req.scale);
    setups.push(s.times.total_s);
    while !req.smoke()
        && (setups.len() < SETUP_REPS_MIN
            || (setups.len() < SETUP_REPS_MAX && setups.iter().sum::<f64>() < SETUP_BUDGET_S))
    {
        drop(s); // one dataset and model alive at a time
        s = workload::setup(w, req.seed, req.scale);
        setups.push(s.times.total_s);
    }
    let edges = s.timed_edges(w.mode).len();
    let min_units = if req.smoke() { 1 } else { 2 };

    tgl_device::reset_stats();
    let mut units: Vec<UnitOut> = Vec::new();
    let (cpu_user0, cpu_sys0) = host::cpu_times();
    let region = Instant::now();
    while units.len() < min_units || region.elapsed().as_secs_f64() < req.seconds {
        units.push(trainer_unit(&mut s, w.mode, units.len()));
    }
    let region_s = region.elapsed().as_secs_f64();
    let (cpu_user1, cpu_sys1) = host::cpu_times();
    let cpu_s = (cpu_user1 - cpu_user0) + (cpu_sys1 - cpu_sys0);
    let accel_peak = tgl_device::stats().accel_peak_bytes;

    // Throughput and CPU cost at the host's uncontended speed: the
    // steady unit wall (see `stats::steady_total`), and the region's
    // CPU-per-wall ratio, which a slowed core leaves alone, times it.
    let walls: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
    let slots: Vec<&[f64]> = units.iter().map(|u| u.slots.as_slice()).collect();
    let steady_wall = stats::steady_total(&slots);
    let (wall_min, wall_max) = walls
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let mut values = Values::new();
    values.insert("setup_s", stats::median(&setups));
    values.insert("edges_per_s", edges as f64 / steady_wall);
    values.insert(
        "cpu_s_per_kedge",
        cpu_s / region_s * steady_wall / (edges as f64 / 1000.0),
    );
    values.insert("accel_peak_mb", mib(accel_peak));
    values.insert("peak_rss_mb", host::peak_rss_mb());

    let exact =
        |u: &UnitOut| -> Vec<u64> { EXACT_COUNTERS.iter().map(|n| get(&u.counts, n)).collect() };
    let mut checks = Vec::new();
    if w.mode == Mode::Infer {
        // The same data runs in every pass: AP and counts must repeat.
        let first = (units[0].ap.to_bits(), exact(&units[0]));
        let same = units.iter().all(|u| (u.ap.to_bits(), exact(u)) == first);
        checks.push((
            "infer_passes_repeat",
            same,
            format!("{} passes", units.len()),
        ));
    }

    let unit_docs = units
        .iter()
        .map(|u| {
            let mut doc = vec![("wall_s".into(), Json::Num(u.wall_s))];
            if let Some(l) = u.loss {
                doc.push(("loss_hex".into(), Json::Str(hex32(l))));
            }
            doc.push(("ap".into(), Json::Num(u.ap)));
            doc.push(("ap_hex".into(), Json::Str(hex64(u.ap))));
            let counts = EXACT_COUNTERS.iter().zip(exact(u));
            let counts = counts.map(|(n, v)| (n.to_string(), Json::Num(v as f64)));
            doc.push(("counts".into(), Json::obj(counts.collect())));
            Json::obj(doc)
        })
        .collect();
    let timed_kedges = (units.len() * edges) as f64 / 1000.0;
    let info = vec![
        ("timed_units".into(), Json::Num(units.len() as f64)),
        ("edges_per_unit".into(), Json::Num(edges as f64)),
        ("timed_region_s".into(), Json::Num(region_s)),
        ("slots_per_unit".into(), Json::Num(slots[0].len() as f64)),
        ("steady_unit_wall_s".into(), Json::Num(steady_wall)),
        (
            "edges_per_s_of_median_unit".into(),
            Json::Num(edges as f64 / stats::median(&walls)),
        ),
        (
            "edges_per_s_of_slowest_unit".into(),
            Json::Num(edges as f64 / wall_max),
        ),
        (
            "edges_per_s_of_fastest_unit".into(),
            Json::Num(edges as f64 / wall_min),
        ),
        (
            "cpu_s_per_kedge_raw".into(),
            Json::Num(cpu_s / timed_kedges),
        ),
        ("cpu_over_wall".into(), Json::Num(cpu_s / region_s)),
        (
            "failed_batch_frac".into(),
            Json::Num(stats::ratio(
                units.iter().map(|u| u.failed).sum(),
                units.iter().map(|u| u.attempted).sum(),
            )),
        ),
        (
            "setup_s_samples".into(),
            Json::Arr(setups.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ];
    let extra = vec![
        ("info".into(), Json::obj(info)),
        ("units".into(), Json::Arr(unit_docs)),
    ];
    let units: Vec<&UnitOut> = units.iter().collect();
    result(
        req,
        &units,
        checks,
        metrics::render(&END_TO_END, &values),
        extra,
    )
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------

/// BCE-with-logits over stacked positive/negative logits, as the
/// trainer computes it.
fn link_loss(pos: &Tensor, neg: &Tensor) -> Tensor {
    let (n_pos, n_neg) = (pos.dim(0), neg.dim(0));
    let logits = cat(&[pos.clone(), neg.clone()], 0);
    let mut targets = vec![1.0f32; n_pos];
    targets.extend(vec![0.0; n_neg]);
    bce_with_logits(
        &logits,
        &Tensor::from_vec_on(targets, [n_pos + n_neg], logits.device()),
    )
}

/// Times `f` as a span named `name`; link time the device layer
/// simulated inside it becomes the span's `transfer` child.
fn scope_with_transfers<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> R {
    let sim0 = tgl_device::stats().simulated_transfer_ns;
    let (id, out) = tr.scope(name, f);
    let sim_ns = tgl_device::stats().simulated_transfer_ns - sim0;
    if sim_ns > 0 {
        tr.child(id, "transfer", sim_ns);
    }
    out
}

fn traced_prepare(
    tr: &mut Tracer,
    ctx: &TContext,
    range: std::ops::Range<usize>,
    negs: &mut NegativeSampler,
) -> TBatch {
    tr.scope("batch.prepare", || {
        let mut batch = TBatch::new(ctx.graph().clone(), range);
        batch.set_negatives(negs.draw(batch.len()));
        batch
    })
    .1
}

/// One unit driven by the benchmark's own loop: the same public calls
/// in the same order as `Trainer::train_epoch` / `Trainer::evaluate`
/// (sequentially; a plan is built for models that publish a sampling
/// spec, which is bitwise equivalent), one root span per batch, and
/// the counter deltas of each batch read at the root's boundaries.
fn traced_unit(
    s: &mut Session,
    mode: Mode,
    tr: &mut Tracer,
    per_batch: &mut Vec<Counts>,
) -> UnitOut {
    let Session {
        ctx,
        split,
        model,
        opt,
        neg,
        train_seed,
        ..
    } = s;
    let model = model.inner.as_mut();
    let counts_before = snapshot();
    let start = Instant::now();
    let all = 0..ctx.graph().num_edges();
    let (train, eval) = match mode {
        Mode::Train => (split.train.clone(), split.val.clone()),
        Mode::Infer => (0..0, all),
    };
    model.reset_state(ctx);
    let mut failed = 0u64;
    let mut batch_index = 0usize;

    model.set_training(true);
    let spec = model.sampling_spec();
    // Epoch 0's negative stream, as `train_epoch(.., 0)` seeds it.
    let mut negs = NegativeSampler::new(neg.0, neg.1, *train_seed);
    let (mut total_loss, mut applied) = (0.0f64, 0usize);
    for range in Split::batches(&train, BATCH) {
        let before = snapshot();
        let root = tr.open_root("step", batch_index);
        let mut batch = traced_prepare(tr, ctx, range, &mut negs);
        if let Some(spec) = &spec {
            scope_with_transfers(tr, "plan", || {
                batch.set_plan(Arc::new(tglite::plan::build_plan(ctx, &batch, spec)));
            });
        }
        tr.scope("opt", || opt.zero_grad());
        let (pos, neg_scores) = scope_with_transfers(tr, "forward", || model.forward(ctx, &batch));
        let (_, (loss, loss_v)) = tr.scope("loss", || {
            let loss = link_loss(&pos, &neg_scores);
            let v = loss.item();
            (loss, v)
        });
        if loss_v.is_finite() {
            tr.scope("backward", || loss.backward());
            tr.scope("opt", || opt.step());
            total_loss += f64::from(loss_v);
            applied += 1;
        } else {
            failed += 1; // skipped, as the trainer's warn policy does
        }
        tr.scope("clear", || ctx.clear_caches());
        tr.close(root);
        per_batch.push(stats::delta(&before, &snapshot()));
        batch_index += 1;
    }

    model.set_training(false);
    let mut negs = NegativeSampler::new(neg.0, neg.1, *train_seed ^ 0xE7A1_5EED);
    let (mut all_pos, mut all_neg) = (
        Vec::with_capacity(eval.len()),
        Vec::with_capacity(eval.len()),
    );
    {
        let _no_grad = no_grad();
        for range in Split::batches(&eval, BATCH) {
            let before = snapshot();
            let root = tr.open_root("eval", batch_index);
            let batch = traced_prepare(tr, ctx, range, &mut negs);
            let (pos, neg_scores) =
                scope_with_transfers(tr, "forward", || model.forward(ctx, &batch));
            all_pos.extend(pos.to_vec());
            all_neg.extend(neg_scores.to_vec());
            tr.close(root);
            per_batch.push(stats::delta(&before, &snapshot()));
            batch_index += 1;
        }
    }
    model.set_training(true);
    let finite = all_pos.iter().chain(&all_neg).all(|v| v.is_finite());
    let ap = if finite {
        average_precision(&all_pos, &all_neg)
    } else {
        0.0
    };
    if !finite {
        failed += batches_in(&eval);
    }
    UnitOut {
        loss: (mode == Mode::Train).then(|| (total_loss / applied.max(1) as f64) as f32),
        ap,
        attempted: batch_index as u64,
        failed,
        wall_s: start.elapsed().as_secs_f64(),
        slots: Vec::new(),
        counts: stats::delta(&counts_before, &snapshot()),
    }
}

/// Runs reference units through `Trainer`, the traced unit through the
/// benchmark's loop on an identical fresh session, then the probes;
/// reports the per-layer metrics and the trace's checks.
pub fn traced(req: &Request) -> Json {
    let w = req.workload;

    // Reference session, `Trainer` driving. Its first unit is what the
    // traced unit must reproduce bit for bit; it also warms the process
    // (the buffer pool and the allocator outlive a session, and the
    // first unit a process runs is ~15% slow). Its second unit is what
    // the traced unit is timed against.
    let mut r = workload::setup(w, req.seed, req.scale);
    let edges = r.timed_edges(w.mode);
    let reference = trainer_unit(&mut r, w.mode, 0);
    let (user0, sys0) = host::cpu_times();
    let ref_wall = trainer_unit(&mut r, w.mode, 1).wall_s;
    let (user1, sys1) = host::cpu_times();
    let (ref_user, ref_sys) = (user1 - user0, sys1 - sys0);
    // The same unit on one pool thread: what the extra threads bought.
    let scaling_eff = if w.threads > 1 {
        tgl_runtime::set_threads(1);
        let one_wall = trainer_unit(&mut r, w.mode, 2).wall_s;
        tgl_runtime::set_threads(w.threads);
        one_wall / (w.threads as f64 * ref_wall)
    } else {
        1.0
    };
    drop(r);

    let mut s = workload::setup(w, req.seed, req.scale);
    tgl_device::reset_stats();
    let mut tr = Tracer::new();
    let mut per_batch = Vec::new();
    let out = traced_unit(&mut s, w.mode, &mut tr, &mut per_batch);
    let traced_wall = out.wall_s;
    let counts = &out.counts;
    let dev = tgl_device::stats();

    let spans = tr.spans();
    let main_root = if w.mode == Mode::Train {
        "step"
    } else {
        "eval"
    };
    let layer_s = trace::self_seconds_under(spans, main_root);
    let layer = |name: &str| layer_s.get(name).copied().unwrap_or(0.0);
    let root_ms = |name: &str| -> Vec<f64> {
        let roots = spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name);
        roots.map(|s| s.dur_ns() as f64 / 1e6).collect()
    };
    let steps = root_ms(main_root);
    let (tail, tail_kind) = stats::tail(&steps);
    let roots_s = trace::root_seconds(spans);
    let self_sum = trace::self_times(spans).iter().sum::<u64>() as f64 / 1e9;
    let untraced_frac = (traced_wall - roots_s) / traced_wall;
    let overhead_frac = (traced_wall - ref_wall) / ref_wall;

    let mut v = Values::new();
    v.insert("harness.step_ms_p50", stats::median(&steps));
    v.insert("harness.step_ms_p95", tail);
    v.insert("harness.eval_s", root_ms("eval").iter().sum::<f64>() / 1e3);
    v.insert("harness.untraced_frac", untraced_frac);
    v.insert("trace.overhead_frac", overhead_frac);
    v.insert("data.generate_s", s.times.generate_s);
    v.insert("data.batch_prepare_s", layer("batch.prepare"));
    v.insert("graph.tcsr_build_s", s.times.tcsr_s);
    v.insert(
        "graph.memory_rows_read",
        get(counts, "memory.rows_read") as f64,
    );
    v.insert(
        "graph.memory_rows_written",
        get(counts, "memory.rows_written") as f64,
    );
    v.insert(
        "graph.mailbox_mails_stored",
        get(counts, "mailbox.mails_stored") as f64,
    );
    v.insert("sampler.queries", get(counts, "sampler.queries") as f64);
    v.insert("sampler.neighbors", get(counts, "sampler.neighbors") as f64);
    v.insert("core.plan_s", layer("plan"));
    v.insert("core.clear_s", layer("clear"));
    v.insert(
        "core.dedup_saved_frac",
        stats::ratio(
            get(counts, "dedup.rows_saved"),
            get(counts, "dedup.rows_in"),
        ),
    );
    let (hits, misses) = (get(counts, "cache.hits"), get(counts, "cache.misses"));
    v.insert("core.cache_hit_frac", stats::ratio(hits, hits + misses));
    v.insert("device.h2d_mb", mib(dev.h2d_bytes));
    v.insert("device.transfers", dev.transfer_count as f64);
    v.insert(
        "device.sim_transfer_s",
        dev.simulated_transfer_ns as f64 / 1e9,
    );
    v.insert(
        "device.pinned_frac",
        stats::ratio(
            get(counts, "transfer.pinned_count"),
            get(counts, "transfer.count"),
        ),
    );
    v.insert("models.forward_s", layer("forward"));
    v.insert("models.loss_s", layer("loss"));
    v.insert("models.val_ap", out.ap);
    v.insert("models.final_loss", f64::from(out.loss.unwrap_or(0.0)));
    v.insert("tensor.backward_s", layer("backward"));
    v.insert("tensor.opt_s", layer("opt"));
    v.insert(
        "tensor.bwd_over_fwd",
        if layer("forward") > 0.0 {
            layer("backward") / layer("forward")
        } else {
            0.0
        },
    );
    v.insert(
        "tensor.pool_hit_frac",
        stats::ratio(
            get(counts, "tensor.pool.hit"),
            get(counts, "tensor.pool.request"),
        ),
    );
    v.insert(
        "tensor.pool_alloc_mb",
        mib(get(counts, "tensor.pool.alloc_bytes")),
    );
    v.insert("runtime.cpu_over_wall", (ref_user + ref_sys) / ref_wall);
    v.insert(
        "runtime.sys_cpu_frac",
        if ref_user + ref_sys > 0.0 {
            ref_sys / (ref_user + ref_sys)
        } else {
            0.0
        },
    );
    v.insert("runtime.pool_regions", get(counts, "pool.regions") as f64);
    v.insert("runtime.pool_chunks", get(counts, "pool.chunks") as f64);
    v.insert("runtime.scaling_eff", scaling_eff);

    // Checks on the trace itself, before the probes disturb anything.
    let mut checks: Vec<Check> = Vec::new();
    let same = out.loss.map(f32::to_bits) == reference.loss.map(f32::to_bits)
        && out.ap.to_bits() == reference.ap.to_bits();
    checks.push((
        "traced_loop_matches_trainer",
        same,
        format!(
            "loss {:?} vs {:?}, AP {} vs {}",
            out.loss.map(hex32),
            reference.loss.map(hex32),
            hex64(out.ap),
            hex64(reference.ap)
        ),
    ));
    let structure = trace::validate(spans);
    checks.push((
        "trace_one_root_per_batch",
        structure.is_ok(),
        format!("{structure:?}"),
    ));
    checks.push((
        "trace_self_times_sum_to_wall",
        (self_sum - traced_wall).abs() <= 0.02 * traced_wall,
        format!("self {self_sum:.4} s vs wall {traced_wall:.4} s"),
    ));
    checks.push((
        "trace_untraced_frac",
        untraced_frac < 0.05,
        format!("{untraced_frac:.5} < 0.05"),
    ));
    let overhang = spans
        .iter()
        .find(|s| s.name == "transfer" && s.parent.is_some_and(|p| s.dur_ns() > spans[p].dur_ns()));
    checks.push((
        "trace_transfer_within_span",
        overhang.is_none() && dev.simulated_transfer_ns as f64 / 1e9 <= traced_wall,
        format!(
            "{:.4} s simulated; overhanging span: {overhang:?}",
            dev.simulated_transfer_ns as f64 / 1e9
        ),
    ));
    let trace_doc = trace::to_json(w.name, spans, &per_batch).render();
    let path = std::path::Path::new("benchmark/out").join(format!("{}.trace.json", w.name));
    let written = std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(&path, &trace_doc))
        .map_err(|e| e.to_string())
        .and_then(|()| std::fs::read_to_string(&path).map_err(|e| e.to_string()))
        .and_then(|text| Json::parse(&text).map(|_| ()));
    checks.push((
        "trace_file_is_valid_json",
        written.is_ok(),
        format!("{}: {written:?}", path.display()),
    ));

    // Probes: one layer's public function, called directly on inputs
    // taken from the workload.
    v.insert(
        "sampler.sample_us_per_query",
        probe_sampler(&s, w.mode, edges),
    );
    drop(s);
    for (m, k, n) in GEMM_SHAPES {
        let (fwd, bwd, ratio) = probe_gemm(m, k, n);
        v.insert(
            static_name(&format!("tensor.mm_fwd_gflops.{m}x{k}x{n}")),
            fwd,
        );
        v.insert(
            static_name(&format!("tensor.mm_bwd_gflops.{m}x{k}x{n}")),
            bwd,
        );
        v.insert(
            static_name(&format!("tensor.mm_bwd_over_fwd.{m}x{k}x{n}")),
            ratio,
        );
    }
    v.insert("runtime.dispatch_us", probe_dispatch());
    v.insert("runtime.channel_ns_per_msg", probe_channel());

    let mut notes = vec![format!(
        "harness.step_ms_p95 is the {tail_kind} of {} batches",
        steps.len()
    )];
    if overhead_frac.abs() > 0.10 {
        notes.push(format!(
            "trace.overhead_frac {overhead_frac:+.3} is outside +-0.10: host noise or loop drift"
        ));
    }
    let info = vec![
        ("reference_wall_s".into(), Json::Num(ref_wall)),
        ("traced_wall_s".into(), Json::Num(traced_wall)),
        ("trace_file".into(), Json::Str(path.display().to_string())),
        ("spans".into(), Json::Num(spans.len() as f64)),
        (
            "notes".into(),
            Json::Arr(notes.into_iter().map(Json::Str).collect()),
        ),
    ];
    let extra = vec![("info".into(), Json::obj(info))];
    result(req, &[&out], checks, metrics::render(&PER_LAYER, &v), extra)
}

fn static_name(name: &str) -> &'static str {
    let def = PER_LAYER.iter().find(|d| d.name == name);
    def.unwrap_or_else(|| panic!("{name} is not in the catalogue"))
        .name
}

// ---------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------

/// `TemporalSampler::sample` replayed over the root destinations
/// (`[srcs | dsts | negatives]`) of every batch of the unit, with the
/// model's own sampler (memory models publish no spec; they build the
/// same sampler from the same config and seed). Microseconds per
/// destination, median of three replays.
fn probe_sampler(s: &Session, mode: Mode, edges: std::ops::Range<usize>) -> f64 {
    let sampler = s.model.inner.sampling_spec().map_or_else(
        || {
            TemporalSampler::new(MODEL_CFG.n_neighbors, SamplingStrategy::Recent)
                .with_seed(s.param_seed)
        },
        |spec| spec.sampler,
    );
    let g = s.ctx.graph();
    let csr = g.tcsr();
    let neg_seed = if mode == Mode::Train {
        s.train_seed
    } else {
        s.train_seed ^ 0xE7A1_5EED
    };
    let mut negs = NegativeSampler::new(s.neg.0, s.neg.1, neg_seed);
    let queries: Vec<(Vec<u32>, Vec<f64>)> = Split::batches(&edges, BATCH)
        .map(|r| {
            let mut nodes = g.src()[r.clone()].to_vec();
            nodes.extend_from_slice(&g.dst()[r.clone()]);
            nodes.extend(negs.draw(r.len()));
            let times = g.times()[r].repeat(3);
            (nodes, times)
        })
        .collect();
    let n_queries: usize = queries.iter().map(|q| q.0.len()).sum();
    let replays: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for (nodes, times) in &queries {
                black_box(sampler.sample(&csr, nodes, times));
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&replays) * 1e6 / n_queries as f64
}

/// Forward GFLOP/s (2MNK), backward GFLOP/s (4MNK over the time of
/// `.backward()` through `a.matmul(&b).sum_all()`), and the
/// backward/forward time ratio at one shape, at the pool's current
/// thread count.
fn probe_gemm(m: usize, k: usize, n: usize) -> (f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = Tensor::randn([m, k], &mut rng).requires_grad(true);
    let b = Tensor::randn([k, n], &mut rng).requires_grad(true);
    let (mut fwd, mut bwd) = (Vec::with_capacity(GEMM_REPS), Vec::with_capacity(GEMM_REPS));
    // The first few repetitions fill the buffer pool and are dropped.
    for rep in 0..GEMM_REPS + 3 {
        let t = Instant::now();
        let c = black_box(a.matmul(&b));
        let fwd_s = t.elapsed().as_secs_f64();
        let loss = c.sum_all();
        let t = Instant::now();
        loss.backward();
        let bwd_s = t.elapsed().as_secs_f64();
        a.zero_grad();
        b.zero_grad();
        if rep >= 3 {
            fwd.push(fwd_s);
            bwd.push(bwd_s);
        }
    }
    let (fwd_s, bwd_s) = (stats::median(&fwd), stats::median(&bwd));
    let mnk = (m * n * k) as f64;
    (
        2.0 * mnk / fwd_s / 1e9,
        4.0 * mnk / bwd_s / 1e9,
        bwd_s / fwd_s,
    )
}

/// Microseconds an empty `parallel_for(1024, 1, ..)` costs at the
/// pool's current thread count: the price of one fan-out.
fn probe_dispatch() -> f64 {
    let calls: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            tgl_runtime::parallel_for(1024, 1, |r| {
                black_box(r);
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&calls)
}

/// Nanoseconds per message of a ping-pong over two `bounded(2)`
/// channels between two threads.
fn probe_channel() -> f64 {
    const PINGS: u64 = 5_000;
    let (to_peer, peer_rx) = tgl_runtime::channel::bounded::<u64>(2);
    let (to_main, main_rx) = tgl_runtime::channel::bounded::<u64>(2);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(v) = peer_rx.recv() {
                if to_main.send(v).is_err() {
                    break;
                }
            }
        });
        let ping = |v: u64| {
            to_peer.send(v).expect("echo thread alive");
            main_rx.recv().expect("echo thread alive")
        };
        (0..500).for_each(|v| {
            ping(v);
        });
        let t = Instant::now();
        (0..PINGS).for_each(|v| {
            black_box(ping(v));
        });
        let ns = t.elapsed().as_nanos() as f64;
        drop(to_peer); // closes the channel; the echo thread drains and ends
        ns / (2 * PINGS) as f64
    })
}
