//! The four workloads and the set-up each run repeats: dataset, T-CSR,
//! placement, model, optimizer, trainer, and a short warm-up.
//!
//! Every setting the crates would otherwise read from a `TGL_*`
//! variable (kernel mode, thread count, pipeline depth, health policy)
//! is set here through the public API; the environment is scrubbed by
//! the parent before this code runs.

use std::time::Instant;

use tgl_data::{DatasetKind, DatasetSpec, Split};
use tgl_device::TransferModel;
use tgl_harness::runner::{build_model, prepare_context};
use tgl_harness::{Framework, HealthPolicy, ModelKind, Placement, TrainConfig, Trainer};
use tgl_models::{ModelConfig, TemporalModel};
use tgl_tensor::kernel::{self, KernelMode};
use tgl_tensor::optim::Adam;
use tgl_tensor::Tensor;
use tglite::{TBatch, TContext};

/// What a timed unit is: a training epoch (train split + validation
/// pass) or an inference pass over every edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Train,
    Infer,
}

/// One workload: a fixed dataset shape, model and execution setting.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: DatasetKind,
    /// `DatasetSpec::scaled_down` factor (1 = the stock shape).
    pub shrink: usize,
    pub model: ModelKind,
    pub placement: Placement,
    /// Compute-pool threads.
    pub threads: usize,
    /// Trainer pipeline depth; above 0 a sampler-stage thread runs
    /// beside the compute thread.
    pub pipeline: usize,
    pub mode: Mode,
    /// Floor for the last validation AP at the default seed and scale.
    pub min_ap: f64,
}

impl Workload {
    /// Threads this workload keeps busy at once.
    pub fn busy_threads(&self) -> usize {
        self.threads + usize::from(self.pipeline > 0)
    }
}

/// Shapes, models and thread counts are fixed by the issue that
/// defined the benchmark; BENCHMARK.json records why each exists.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tgat_train",
        dataset: DatasetKind::Wiki,
        shrink: 1,
        model: ModelKind::Tgat,
        placement: Placement::AllOnDevice,
        threads: 2,
        pipeline: 0,
        mode: Mode::Train,
        min_ap: 0.60,
    },
    Workload {
        name: "tgat_train_1t",
        dataset: DatasetKind::Wiki,
        shrink: 1,
        model: ModelKind::Tgat,
        placement: Placement::AllOnDevice,
        threads: 1,
        pipeline: 0,
        mode: Mode::Train,
        min_ap: 0.60,
    },
    Workload {
        name: "tgat_infer",
        dataset: DatasetKind::Reddit,
        shrink: 1,
        model: ModelKind::Tgat,
        placement: Placement::AllOnDevice,
        threads: 2,
        pipeline: 0,
        mode: Mode::Infer,
        min_ap: 0.0,
    },
    Workload {
        name: "tgn_move",
        dataset: DatasetKind::Wiki,
        shrink: 2,
        model: ModelKind::Tgn,
        placement: Placement::HostResident,
        threads: 1,
        pipeline: 2,
        mode: Mode::Train,
        min_ap: 0.65,
    },
];

pub const MODEL_CFG: ModelConfig = ModelConfig {
    emb_dim: 32,
    time_dim: 16,
    heads: 2,
    n_layers: 2,
    n_neighbors: 10,
    mailbox_slots: 10,
};
pub const BATCH: usize = 200;
pub const LR: f32 = 1e-3;
/// The repository's stock parameter and negative-sampling seeds; the
/// run's `--seed` is XORed into them and into the dataset seed, so
/// seed 0 reproduces the stock streams.
const PARAM_SEED: u64 = 42;
const TRAIN_SEED: u64 = 7;
/// The link slowdown `crates/bench` pairs with this CPU substrate.
const LINK_SLOWDOWN: f64 = 400.0;
/// Batches of the warm-up that ends set-up: enough for the worker
/// threads, the buffer pool's first buffers and every lazily built
/// table to exist, short enough to repeat set-up several times in every
/// run. It does not reach steady state (the first full epoch still
/// runs ~15% slow); the timed region's estimator discards that.
const WARMUP_BATCHES: usize = 4;

/// Wall seconds of the stages of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `prepare_context`: dataset generation plus feature placement.
    pub generate_s: f64,
    /// First `TemporalGraph::tcsr()`.
    pub tcsr_s: f64,
    pub total_s: f64,
}

/// The model under test behind a decorator that notes when each
/// `forward` call begins. `Trainer` calls `forward` once per batch, so
/// the notes cut a `Trainer`-driven unit into per-batch latencies from
/// outside, at the cost of one clock read per batch.
pub struct Clocked {
    pub inner: Box<dyn TemporalModel>,
    pub forward_entries: Vec<Instant>,
}

impl TemporalModel for Clocked {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn parameters(&self) -> Vec<Tensor> {
        self.inner.parameters()
    }
    fn param_groups(&self) -> Vec<(String, Vec<Tensor>)> {
        self.inner.param_groups()
    }
    fn set_training(&mut self, training: bool) {
        self.inner.set_training(training)
    }
    fn forward(&mut self, ctx: &TContext, batch: &TBatch) -> (Tensor, Tensor) {
        self.forward_entries.push(Instant::now());
        self.inner.forward(ctx, batch)
    }
    fn sampling_spec(&self) -> Option<tglite::plan::SamplingSpec> {
        self.inner.sampling_spec()
    }
    fn reset_state(&self, ctx: &TContext) {
        self.inner.reset_state(ctx)
    }
}

/// Everything a timed region needs, ready and warm.
pub struct Session {
    pub ctx: TContext,
    pub split: Split,
    pub model: Clocked,
    pub opt: Adam,
    pub trainer: Trainer,
    /// Negative-destination id range `[lo, hi)`.
    pub neg: (u32, u32),
    pub param_seed: u64,
    pub train_seed: u64,
    pub times: SetupTimes,
}

impl Session {
    /// The edge range one timed unit covers and counts.
    pub fn timed_edges(&self, mode: Mode) -> std::ops::Range<usize> {
        match mode {
            Mode::Train => self.split.train.clone(),
            Mode::Infer => 0..self.ctx.graph().num_edges(),
        }
    }
}

/// Builds a warm session for `w`. `scale` divides the dataset further
/// (smoke runs); 1 is the benchmark's real size.
pub fn setup(w: &Workload, seed: u64, scale: usize) -> Session {
    let start = Instant::now();
    kernel::set_mode(KernelMode::Exact);
    tgl_runtime::set_threads(w.threads);

    let mut spec = DatasetSpec::of(w.dataset);
    if w.shrink * scale > 1 {
        spec = spec.scaled_down(w.shrink * scale);
    }
    spec.seed ^= seed;
    let link = TransferModel::scaled(TransferModel::pcie_v100(), LINK_SLOWDOWN);
    let (ctx, split) = prepare_context(&spec, w.placement, link);
    let generate_s = start.elapsed().as_secs_f64();

    let t = Instant::now();
    let _ = ctx.graph().tcsr();
    let tcsr_s = t.elapsed().as_secs_f64();

    let param_seed = PARAM_SEED ^ seed;
    let train_seed = TRAIN_SEED ^ seed;
    let model = Clocked {
        inner: build_model(Framework::TgLiteOpt, w.model, &ctx, MODEL_CFG, param_seed),
        forward_entries: Vec::new(),
    };
    let opt = Adam::new(model.parameters(), LR);
    let neg = if spec.bipartite() {
        (spec.n_src as u32, spec.num_nodes() as u32)
    } else {
        (0, spec.num_nodes() as u32)
    };
    let cfg = TrainConfig {
        batch_size: BATCH,
        epochs: 0, // epochs are driven one at a time
        lr: LR,
        seed: train_seed,
    };
    let trainer = Trainer::new(cfg, neg.0, neg.1)
        .with_pipeline(w.pipeline)
        .with_health(HealthPolicy::Warn);

    let mut s = Session {
        ctx,
        split,
        model,
        opt,
        trainer,
        neg,
        param_seed,
        train_seed,
        times: SetupTimes::default(),
    };
    warm_up(&mut s, w.mode, WARMUP_BATCHES.div_ceil(scale));
    s.times = SetupTimes {
        generate_s,
        tcsr_s,
        total_s: start.elapsed().as_secs_f64(),
    };
    s
}

/// Runs the first `batches` batches of the workload through the same
/// `Trainer` calls the timed region uses.
fn warm_up(s: &mut Session, mode: Mode, batches: usize) {
    let edges = s.timed_edges(mode);
    let end = (edges.start + batches * BATCH).min(edges.end);
    match mode {
        Mode::Train => {
            let val_end = (end + BATCH).min(s.ctx.graph().num_edges());
            let warm = Split {
                train: edges.start..end,
                val: end..val_end,
                test: val_end..val_end,
            };
            s.trainer
                .train_epoch(&mut s.model, &s.ctx, &warm, &mut s.opt, 0);
        }
        Mode::Infer => {
            s.model.reset_state(&s.ctx);
            s.trainer.evaluate(&mut s.model, &s.ctx, edges.start..end);
        }
    }
}
