//! Experiment configuration and execution.
//!
//! One experiment = framework × model × dataset × data placement,
//! mirroring the grid of the paper's §5. [`run`] builds the dataset,
//! places data on the simulated memory tiers, trains, writes whatever
//! [`ObsOptions`] asks for, and returns the numbers each table/figure
//! reports; [`run_experiment`] is `run` with nothing asked for.

use std::path::{Path, PathBuf};

use tgl_data::{generate, DatasetKind, DatasetSpec, Split};
use tgl_device::{Device, TransferModel};
use tgl_models::{Apan, Jodie, ModelConfig, OptFlags, TemporalModel, Tgat, Tgn};
use tglite::{obs, TContext};

use crate::{
    profrep, Args, EpochStats, HealthPolicy, RunReporter, TrainConfig, Trainer,
};

/// Which framework setting runs (the paper's three bar groups). All
/// three run the same `tgl-models` code; they differ in
/// [`OptFlags`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Framework {
    /// No optimization operator, and every block's tensors staged
    /// eagerly over the pageable path as TGL's message-flow graphs are
    /// (paper: "TGL").
    Tgl,
    /// TGLite with only `preload()` (paper: "TGLite").
    TgLite,
    /// TGLite with all applicable optimization operators
    /// (paper: "TGLite+opt").
    TgLiteOpt,
}

impl Framework {
    /// Label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            Framework::Tgl => "TGL",
            Framework::TgLite => "TGLite",
            Framework::TgLiteOpt => "TGLite+opt",
        }
    }

    /// The three frameworks in presentation order.
    pub fn all() -> [Framework; 3] {
        [Framework::Tgl, Framework::TgLite, Framework::TgLiteOpt]
    }
}

/// Which TGNN model runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// JODIE (RNN memory, no sampling).
    Jodie,
    /// APAN (mailbox attention + propagation).
    Apan,
    /// TGAT (attention over sampled neighborhoods).
    Tgat,
    /// TGN (GRU memory + attention).
    Tgn,
}

impl ModelKind {
    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::Jodie => "JODIE",
            ModelKind::Apan => "APAN",
            ModelKind::Tgat => "TGAT",
            ModelKind::Tgn => "TGN",
        }
    }

    /// The four models in the paper's presentation order.
    pub fn all() -> [ModelKind; 4] {
        [ModelKind::Jodie, ModelKind::Apan, ModelKind::Tgat, ModelKind::Tgn]
    }
}

/// Where feature/memory/mailbox data lives during training (paper
/// §5.2: all-on-GPU vs CPU-to-GPU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Data resident on the accelerator tier; no per-batch transfers.
    AllOnDevice,
    /// Data resident on host; per-batch transfers through the PCIe
    /// cost model.
    HostResident,
}

impl Placement {
    /// Label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            Placement::AllOnDevice => "all-on-GPU",
            Placement::HostResident => "CPU-to-GPU",
        }
    }
}

/// A full experiment description.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Framework under test.
    pub framework: Framework,
    /// Model under test.
    pub model: ModelKind,
    /// Dataset shape.
    pub dataset: DatasetSpec,
    /// Data placement.
    pub placement: Placement,
    /// Model hyperparameters.
    pub model_cfg: ModelConfig,
    /// Training hyperparameters.
    pub train_cfg: TrainConfig,
    /// Parameter seed (shared across frameworks for fair accuracy
    /// comparison).
    pub seed: u64,
    /// Transfer cost model applied in the host-resident placement
    /// (all-on-device disables transfer costs).
    pub transfer: TransferModel,
}

impl ExperimentConfig {
    /// The paper's default setting for a (framework, model, dataset,
    /// placement) cell, with reproduction-scale hyperparameters.
    pub fn paper_default(
        framework: Framework,
        model: ModelKind,
        kind: DatasetKind,
        placement: Placement,
    ) -> ExperimentConfig {
        ExperimentConfig {
            framework,
            model,
            dataset: DatasetSpec::of(kind),
            placement,
            model_cfg: ModelConfig {
                emb_dim: 32,
                time_dim: 16,
                heads: 2,
                n_layers: 2,
                n_neighbors: 10,
                mailbox_slots: 10,
            },
            train_cfg: TrainConfig {
                batch_size: 200,
                epochs: 3,
                lr: 1e-3,
                seed: 7,
            },
            seed: 42,
            transfer: TransferModel::pcie_v100(),
        }
    }
}

/// The measured outputs of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Per-epoch stats.
    pub epochs: Vec<EpochStats>,
    /// Mean process CPU seconds (every thread's) per training epoch.
    pub train_s_per_epoch: f64,
    /// Best validation AP across epochs (the paper's Table 4 metric).
    pub best_val_ap: f64,
    /// Test-split inference AP (Table 5 metric).
    pub test_ap: f64,
    /// Test-split inference process CPU seconds (Table 5 metric).
    pub test_s: f64,
    /// Peak simulated device-memory bytes observed.
    pub peak_device_bytes: u64,
    /// Worker threads the compute pool ran with (run metadata; see
    /// `TGL_THREADS`).
    pub threads: usize,
}

/// Builds the model for a framework/kind pair on an existing context.
pub fn build_model(
    framework: Framework,
    kind: ModelKind,
    ctx: &TContext,
    cfg: ModelConfig,
    seed: u64,
) -> Box<dyn TemporalModel> {
    let opts = match framework {
        Framework::Tgl => OptFlags::none(),
        Framework::TgLite => OptFlags::preload_only(),
        Framework::TgLiteOpt => OptFlags::all(),
    };
    match kind {
        ModelKind::Jodie => Box::new(Jodie::new(ctx, cfg, opts, seed)),
        ModelKind::Apan => Box::new(Apan::new(ctx, cfg, opts, seed)),
        ModelKind::Tgat => Box::new(Tgat::new(ctx, cfg, opts, seed)),
        ModelKind::Tgn => Box::new(Tgn::new(ctx, cfg, opts, seed)),
    }
}

/// Prepares a context for an experiment: generates the dataset, places
/// features on the right tier, and installs the transfer cost model.
///
/// The compute device is always the accelerator tier; `placement`
/// decides where the *data* lives, exactly as in the paper's two
/// training cases.
pub fn prepare_context(
    spec: &DatasetSpec,
    placement: Placement,
    transfer: TransferModel,
) -> (TContext, Split) {
    let (g, _stats) = generate(spec);
    if placement == Placement::AllOnDevice {
        // One-time bulk load before timing starts.
        if let Some(f) = g.node_feats() {
            g.set_node_feats(f.to(Device::Accel));
        }
        if let Some(f) = g.edge_feats() {
            g.set_edge_feats(f.to(Device::Accel));
        }
    }
    tgl_device::set_transfer_model(match placement {
        Placement::AllOnDevice => TransferModel::disabled(),
        Placement::HostResident => transfer,
    });
    let split = Split::standard(&g);
    let ctx = TContext::with_device(g, Device::Accel);
    (ctx, split)
}

/// Runs an experiment under a simulated device-memory capacity cap,
/// reporting OOM as an error instead of aborting — how the paper's
/// Table 7 "OOM" entries are produced.
///
/// # Errors
///
/// Returns `Err` with a human-readable OOM description when the run
/// exceeds `capacity_bytes` on the accelerator tier; propagates any
/// other panic.
pub fn run_experiment_with_capacity(
    cfg: &ExperimentConfig,
    capacity_bytes: Option<u64>,
) -> Result<ExperimentResult, String> {
    tgl_device::set_capacity(Device::Accel, capacity_bytes);
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_experiment(cfg)));
    tgl_device::set_capacity(Device::Accel, None);
    tgl_device::set_transfer_model(TransferModel::disabled());
    match out {
        Ok(r) => Ok(r),
        Err(payload) => {
            if let Some(oom) = payload.downcast_ref::<tglite::tensor::DeviceOom>() {
                Err(format!("OOM ({})", oom.0))
            } else {
                std::panic::resume_unwind(payload)
            }
        }
    }
}

/// Runs one experiment end-to-end, silently and with no artifacts, and
/// returns its measurements.
pub fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    run(cfg, &ObsOptions::default()).expect("a run with no outputs has nothing to fail on")
}

/// What a run shows and writes besides its measurements: the one
/// options struct behind `tgl train|eval` and the quickstart example.
/// The default asks for nothing.
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Print progress lines and the requested tables to stdout.
    pub progress: bool,
    /// `--profile`: per-epoch Fig. 7 phase lines, then the op /
    /// roofline table, phase coverage and the per-stage table.
    pub profile: bool,
    /// `--profile-top`: rows in the op table.
    pub profile_top: usize,
    /// `--critpath`: critical-path table (turns the log's full mode on).
    pub critpath: bool,
    /// `--trace-out`: Chrome trace of every span.
    pub trace_out: Option<PathBuf>,
    /// `--metrics-out`: the `tgl-run-report/v3` document.
    pub metrics_out: Option<PathBuf>,
    /// `--ckpt` on `train`: final parameters.
    pub ckpt_save: Option<PathBuf>,
    /// `--ckpt` on `eval`: parameters to load before inference.
    pub ckpt_load: Option<PathBuf>,
    /// `--health` policy; `None` keeps the trainer's (`Warn`).
    pub health: Option<HealthPolicy>,
    /// `--pipeline` depth; `None` keeps the trainer's (0).
    pub pipeline: Option<usize>,
    /// `--threads`; `None` keeps `TGL_THREADS`.
    pub threads: Option<usize>,
}

/// A run that could not start or could not write an output: one line
/// naming the flag at fault and why.
#[derive(Debug)]
pub struct RunError(pub String);

impl RunError {
    fn new(flag: &str, detail: impl std::fmt::Display) -> RunError {
        RunError(format!("--{flag} {detail}"))
    }

    fn io<'a>(flag: &'a str, path: &'a Path) -> impl FnOnce(std::io::Error) -> RunError + 'a {
        move |e| RunError::new(flag, format!("{}: {e}", path.display()))
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RunError {}

impl ObsOptions {
    /// Reads every observability / artifact flag of `tgl train|eval`
    /// and the quickstart. `--ckpt` loads when `eval_only`, saves
    /// otherwise.
    ///
    /// # Errors
    ///
    /// A flag with an unusable value, named in the error.
    pub fn from_args(args: &Args, eval_only: bool) -> Result<ObsOptions, RunError> {
        let path = |key: &str| args.get(key).map(PathBuf::from);
        let (ckpt_save, ckpt_load) = if eval_only { (None, path("ckpt")) } else { (path("ckpt"), None) };
        // A set but unusable `TGL_THREADS` or `TGL_SIMD` is a usage
        // error, not a silent default, even where `--threads` overrides
        // the first.
        tgl_runtime::env_threads().map_err(RunError)?;
        tgl_tensor::kernel::env_scalar().map_err(RunError)?;
        Ok(ObsOptions {
            progress: true,
            profile: args.has_flag("profile"),
            profile_top: args.positive("profile-top").map_err(RunError)?.unwrap_or(15),
            critpath: args.has_flag("critpath"),
            trace_out: path("trace-out"),
            metrics_out: path("metrics-out"),
            ckpt_save,
            ckpt_load,
            health: parsed(args, "health", "warn/fail", HealthPolicy::parse)?,
            pipeline: parsed(args, "pipeline", "a queue depth", |v| v.parse().ok())?,
            threads: args.positive("threads").map_err(RunError)?,
        })
    }
}

/// An optional `--flag <value>` run through `parse`; a value it rejects
/// is an error naming the flag and what it accepts.
fn parsed<T>(
    args: &Args,
    flag: &str,
    accepts: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, RunError> {
    let bad = |v| RunError::new(flag, format!("unknown value {v:?} (try {accepts})"));
    args.get(flag).map(|v| parse(v).ok_or_else(|| bad(v))).transpose()
}

/// Fails unless `path`'s parent directory exists and accepts new files,
/// so a bad output path costs nothing instead of a whole run.
fn check_writable(flag: &'static str, path: &Path) -> Result<(), RunError> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let meta = std::fs::metadata(dir).map_err(RunError::io(flag, path))?;
    if !meta.is_dir() || meta.permissions().readonly() {
        return Err(RunError::new(flag, format!("{}: {} is not a writable directory", path.display(), dir.display())));
    }
    Ok(())
}

/// The one run path: places the data, builds the model and trainer,
/// trains and evaluates, and writes every artifact `opts` asks for.
/// `tgl train|eval`, the quickstart and [`run_experiment`] all end
/// here.
///
/// # Errors
///
/// An output that cannot be written (checked before training starts),
/// or a checkpoint that cannot be read — each naming its flag.
pub fn run(cfg: &ExperimentConfig, opts: &ObsOptions) -> Result<ExperimentResult, RunError> {
    macro_rules! say {
        ($($arg:tt)*) => { if opts.progress { println!($($arg)*); } };
    }
    let outputs = [
        ("ckpt", &opts.ckpt_save),
        ("metrics-out", &opts.metrics_out),
        ("trace-out", &opts.trace_out),
    ];
    for (flag, path) in outputs {
        if let Some(path) = path {
            check_writable(flag, path)?;
        }
    }
    if let Some(n) = opts.threads {
        tgl_runtime::set_threads(n);
    }
    let logging = opts.trace_out.is_some() || opts.critpath;
    if logging {
        obs::log::full(true);
    }

    let (ctx, split) = prepare_context(&cfg.dataset, cfg.placement, cfg.transfer);
    // Reset watermarks/counters only: capacity caps installed by the
    // caller (run_experiment_with_capacity) must survive.
    tgl_device::reset_stats();
    let mut model = build_model(cfg.framework, cfg.model, &ctx, cfg.model_cfg, cfg.seed);
    if let Some(path) = &opts.ckpt_load {
        model.load(path).map_err(RunError::io("ckpt", path))?;
        say!("loaded checkpoint {}", path.display());
    }
    let (neg_lo, neg_hi) = if cfg.dataset.bipartite() {
        (cfg.dataset.n_src as u32, cfg.dataset.num_nodes() as u32)
    } else {
        (0, cfg.dataset.num_nodes() as u32)
    };
    let mut trainer = Trainer::new(cfg.train_cfg, neg_lo, neg_hi);
    if let Some(policy) = opts.health {
        trainer = trainer.with_health(policy);
    }
    if let Some(depth) = opts.pipeline {
        trainer = trainer.with_pipeline(depth);
    }
    if trainer.pipeline_depth() > 0 {
        say!("pipeline: sampler stage prefetching up to {} batches", trainer.pipeline_depth());
    }

    let reporting = opts.profile || opts.critpath || opts.metrics_out.is_some();
    let mut reporter = reporting.then(|| {
        let mut rep = RunReporter::start().with_health(trainer.health_policy());
        rep.set_meta("model", cfg.model.label());
        rep.set_meta("dataset", cfg.dataset.kind.name());
        rep.set_meta("framework", cfg.framework.label());
        rep.set_meta("placement", cfg.placement.label());
        rep.set_meta_num("seed", cfg.seed as f64);
        rep.set_meta_num("batch", cfg.train_cfg.batch_size as f64);
        rep.set_meta_num("threads", tgl_runtime::current_threads() as f64);
        rep
    });
    let (epochs, best_val_ap, test_ap, test_s) =
        trainer.run_with(model.as_mut(), &ctx, &split, |e, s| {
            let skipped = match s.skipped {
                0 => String::new(),
                n => format!(" ({n} of {} batches skipped)", n + s.steps),
            };
            say!(
                "epoch {:>2}: loss {:.4}{skipped}  val AP {:5.2}%  ({:.2}s cpu)",
                e + 1,
                s.loss,
                s.val_ap * 100.0,
                s.train_time_s
            );
            if let Some(rep) = reporter.as_mut() {
                rep.record_epoch(e, s);
                if let (true, Some(epoch)) = (opts.profile, rep.epochs_so_far().last()) {
                    for (phase, secs) in &epoch.phases_s {
                        say!("    {phase:<14} {secs:8.3}s");
                    }
                }
            }
        });
    say!("test AP {:.2}% ({test_s:.2}s cpu)", test_ap * 100.0);
    if !epochs.is_empty() {
        say!("best val AP {:.2}%", best_val_ap * 100.0);
    }
    let peak = tgl_device::stats().accel_peak_bytes;
    tgl_device::set_transfer_model(TransferModel::disabled());

    if let Some(rep) = reporter {
        let report = rep.finish(test_ap, test_s);
        if let Some(path) = &opts.metrics_out {
            report.save(path).map_err(RunError::io("metrics-out", path))?;
            say!("run report written to {}", path.display());
        }
        if opts.profile {
            let roof = profrep::Roofline::detect();
            let rows = profrep::analyze(&report.profile, &roof);
            say!("{}", profrep::render_table(&rows, &roof, opts.profile_top).trim_end());
            let coverage = profrep::phase_coverage(&report.profile, &report.phases_total_s);
            say!("{}", profrep::render_coverage(&coverage).trim_end());
            say!("{}", profrep::render_stages(&report.profile, report.critpath.as_ref()).trim_end());
        }
        if let (true, Some(analysis)) = (opts.critpath, &report.critpath) {
            say!("{}", obs::critpath::render_table(analysis).trim_end());
        }
    }
    if logging {
        let spans = obs::log::take();
        obs::log::full(false);
        if let Some(path) = &opts.trace_out {
            std::fs::write(path, crate::report::chrome_trace(&spans)).map_err(RunError::io("trace-out", path))?;
            say!("chrome trace with {} spans written to {}", spans.len(), path.display());
        }
    }
    if let Some(path) = &opts.ckpt_save {
        model.save(path).map_err(RunError::io("ckpt", path))?;
        say!("checkpoint written to {}", path.display());
    }
    let train_s_per_epoch =
        epochs.iter().map(|e| e.train_time_s).sum::<f64>() / epochs.len().max(1) as f64;
    Ok(ExperimentResult {
        epochs,
        train_s_per_epoch,
        best_val_ap,
        test_ap,
        test_s,
        peak_device_bytes: peak,
        threads: tgl_runtime::current_threads(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(framework: Framework, model: ModelKind) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_default(
            framework,
            model,
            DatasetKind::Wiki,
            Placement::AllOnDevice,
        );
        cfg.dataset = cfg.dataset.scaled_down(20);
        cfg.model_cfg = ModelConfig::tiny();
        cfg.train_cfg.epochs = 1;
        cfg.train_cfg.batch_size = 60;
        cfg
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Framework::Tgl.label(), "TGL");
        assert_eq!(Framework::TgLiteOpt.label(), "TGLite+opt");
        assert_eq!(ModelKind::Tgat.label(), "TGAT");
        assert_eq!(Placement::HostResident.label(), "CPU-to-GPU");
        assert_eq!(Framework::all().len(), 3);
        assert_eq!(ModelKind::all().len(), 4);
    }

    #[test]
    fn tiny_experiment_runs_all_frameworks() {
        for fw in Framework::all() {
            let r = run_experiment(&tiny_cfg(fw, ModelKind::Tgat));
            assert_eq!(r.epochs.len(), 1);
            assert!(r.train_s_per_epoch > 0.0);
            assert!((0.0..=1.0).contains(&r.test_ap), "{fw:?}: {}", r.test_ap);
        }
    }

    #[test]
    fn tiny_experiment_runs_all_models() {
        for mk in ModelKind::all() {
            let r = run_experiment(&tiny_cfg(Framework::TgLite, mk));
            assert!(r.test_s >= 0.0 && r.test_s.is_finite(), "{mk:?}");
            assert!(r.peak_device_bytes > 0, "{mk:?} never touched the device");
        }
    }

    #[test]
    fn host_resident_meters_transfers() {
        let mut cfg = tiny_cfg(Framework::Tgl, ModelKind::Tgat);
        cfg.placement = Placement::HostResident;
        // Use a free transfer model so the test is fast: metering still
        // counts bytes.
        let before = tgl_device::stats().h2d_bytes;
        let _ = run_experiment(&cfg);
        let after = tgl_device::stats().h2d_bytes;
        assert!(after > before, "host-resident run must transfer");
    }
}
