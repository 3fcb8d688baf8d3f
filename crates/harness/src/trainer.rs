//! Epoch-based training and inference driver.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tgl_data::{NegativeSampler, Split};
use tgl_models::TemporalModel;
use tgl_runtime::process_cpu_seconds;
use tgl_tensor::optim::Adam;
use tgl_tensor::{bce_with_logits, no_grad, ops::cat, Tensor};
use tglite::plan::SamplingSpec;
use tglite::{TBatch, TContext};

use crate::health::{HealthMonitor, HealthPolicy};
use crate::metrics::average_precision;

/// Measures elapsed process CPU seconds across a region.
pub struct CpuTimer {
    start: f64,
}

impl CpuTimer {
    /// Starts a timer.
    pub fn start() -> CpuTimer {
        CpuTimer {
            start: process_cpu_seconds(),
        }
    }

    /// CPU seconds since start.
    pub fn elapsed_s(&self) -> f64 {
        process_cpu_seconds() - self.start
    }
}

/// Training hyperparameters (paper §5.1: batch 600, 10 epochs, Adam;
/// scaled for the synthetic datasets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Edges per batch.
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed for negative sampling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch_size: 200,
            epochs: 3,
            lr: 1e-3,
            seed: 0,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean training loss over the batches that applied a step; NaN
    /// when none did.
    pub loss: f32,
    /// Batches that applied an optimizer step.
    pub steps: usize,
    /// Batches the health policy skipped (non-finite loss).
    pub skipped: usize,
    /// Wall time of the epoch's training portion, in seconds.
    pub train_time_s: f64,
    /// AP on the validation split after the epoch.
    pub val_ap: f64,
}

/// Drives training and inference of any [`TemporalModel`].
pub struct Trainer {
    cfg: TrainConfig,
    neg_lo: u32,
    neg_hi: u32,
    /// Pipeline depth: 0 prepares each batch inline; `d >= 1` runs a
    /// sampler stage preparing up to `d` batches ahead of the compute
    /// stage over a bounded channel.
    pipeline: usize,
    /// Health monitor state, kept across epochs (loss trend). Behind a
    /// mutex only because `train_epoch` takes `&self`.
    health: std::sync::Mutex<HealthMonitor>,
}

impl Trainer {
    /// Creates a trainer drawing negatives from node ids
    /// `[neg_lo, neg_hi)`, with the `Warn` health policy
    /// ([`with_health`](Trainer::with_health) replaces it) and pipeline
    /// depth 0 ([`with_pipeline`](Trainer::with_pipeline) sets it).
    pub fn new(cfg: TrainConfig, neg_lo: u32, neg_hi: u32) -> Trainer {
        Trainer {
            cfg,
            neg_lo,
            neg_hi,
            pipeline: 0,
            health: std::sync::Mutex::new(HealthMonitor::new(HealthPolicy::Warn)),
        }
    }

    /// Replaces the health policy (e.g. `HealthPolicy::Fail` in CI).
    pub fn with_health(mut self, policy: HealthPolicy) -> Trainer {
        self.health = std::sync::Mutex::new(HealthMonitor::new(policy));
        self
    }

    /// Sets the pipeline depth: 0 = batches prepared inline (the
    /// bitwise reference), `d >= 1` = up to `d` batches prepared ahead.
    pub fn with_pipeline(mut self, depth: usize) -> Trainer {
        self.pipeline = depth;
        self
    }

    /// The configured pipeline depth.
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline
    }

    /// The active health policy.
    pub fn health_policy(&self) -> HealthPolicy {
        self.health.lock().unwrap_or_else(|e| e.into_inner()).policy()
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.cfg.batch_size
    }

    /// Runs `step` on every batch of `range`, in order: the one batch
    /// loop under [`train_epoch`](Trainer::train_epoch) and
    /// [`evaluate`](Trainer::evaluate).
    ///
    /// A batch is prepared in one place, the closure below: negatives
    /// drawn from `negs`, then, when there is a sampler stage and the
    /// model publishes a `spec`, its block chain
    /// ([`tglite::plan::build_plan`]). At depth 0 that runs
    /// inline and `forward` builds the chain. At depth `d >= 1` it runs
    /// on a sampler thread, up to `d` batches ahead over a bounded
    /// channel, while this thread runs `step`. Everything prepared is
    /// independent of parameters and node state, and all mutation
    /// stays in `step` on this thread in batch order, so results are
    /// bitwise identical at any depth and thread count.
    fn for_each_batch(
        &self,
        ctx: &TContext,
        range: &std::ops::Range<usize>,
        mut negs: NegativeSampler,
        spec: Option<SamplingSpec>,
        mut step: impl FnMut(TBatch),
    ) {
        // A queue deeper than the range has batches never fills, and
        // the channel allocates its slots up front.
        let depth = self.pipeline.min(range.len().div_ceil(self.cfg.batch_size.max(1)));
        // Without a sampler stage `forward` builds the chain itself.
        let spec = if depth > 0 { spec } else { None };
        let mut prepare = move |range| {
            let mut batch = TBatch::new(ctx.graph().clone(), range);
            batch.set_negatives(negs.draw(batch.len()));
            if let Some(spec) = &spec {
                batch.set_plan(Arc::new(tglite::plan::build_plan(ctx, &batch, spec)));
            }
            batch
        };
        let ranges = Split::batches(range, self.cfg.batch_size);
        if depth == 0 {
            ranges.for_each(|r| step(prepare(r)));
            return;
        }
        let (tx, rx) = tgl_runtime::bounded::<TBatch>(depth);
        // Batches the sampler stage has handed over so far: the compute
        // stage reads the queue's occupancy off it.
        let sent = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            // Moved into this closure so a compute-stage panic drops
            // the receiver during unwind, waking a sampler blocked on
            // the full queue before the scope joins it.
            let rx = rx;
            let parent_span = tgl_obs::current();
            let sent = &sent;
            scope.spawn(move || {
                // The sampler stage continues the caller's span on its
                // own thread.
                let _parent = tgl_obs::adopt(parent_span);
                for r in ranges {
                    let batch = {
                        let _prefetch = tgl_obs::region("prefetch").stage(tgl_obs::Stage::Sample);
                        prepare(r)
                    };
                    let _wait = tgl_obs::timer("pipeline.queue.send_wait");
                    if tx.send(batch).is_err() {
                        // The compute stage died (panic); stop
                        // preparing so its unwind can proceed.
                        break;
                    }
                    sent.fetch_add(1, Ordering::Release);
                }
            });
            let recv = || {
                let _wait = tgl_obs::timer("pipeline.queue.recv_wait");
                rx.recv()
            };
            // `Err` = closed and drained.
            let mut taken = 0usize;
            while let Ok(batch) = recv() {
                taken += 1;
                // Batches still queued behind this one. The sampler
                // counts a send after it lands, so this never reads
                // more than the queue holds.
                let queued = sent.load(Ordering::Acquire).saturating_sub(taken);
                tgl_obs::histogram!("pipeline.queue.occupancy").record(queued as u64);
                step(batch);
            }
        });
    }

    /// Runs one training epoch over `split.train`, then evaluates AP on
    /// `split.val`. Memory state is reset at the epoch start and flows
    /// chronologically train → val. See
    /// [`with_pipeline`](Trainer::with_pipeline) for where batches are
    /// prepared; losses do not depend on it.
    pub fn train_epoch<M: TemporalModel + ?Sized>(
        &self,
        model: &mut M,
        ctx: &TContext,
        split: &Split,
        opt: &mut Adam,
        epoch: usize,
    ) -> EpochStats {
        model.reset_state(ctx);
        model.set_training(true);
        let negs = NegativeSampler::new(
            self.neg_lo,
            self.neg_hi,
            self.cfg.seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9),
        );
        let params = model.parameters();
        let mut health = self.health.lock().unwrap_or_else(|e| e.into_inner());
        health.begin_epoch(&params);
        tgl_obs::gauge!("pipeline.depth").set(self.pipeline as f64);
        let start = CpuTimer::start();
        // Container regions (not phases): the epoch/step structure the
        // critical path and the `step` latency family read, without
        // perturbing the Fig-7 breakdown.
        let _epoch_region = tgl_obs::region("epoch");
        let mut total_loss = 0.0f64;
        let mut batches = 0usize;
        let mut seen = 0usize;
        self.for_each_batch(ctx, &split.train, negs, model.sampling_spec(), |batch| {
            let _step_region = tgl_obs::region("step");
            if let Some(loss) = Self::train_step(model, ctx, opt, &mut health, epoch, seen, &batch) {
                total_loss += loss;
                batches += 1;
            }
            seen += 1;
        });
        let train_time_s = start.elapsed_s();
        // A mean over no applied step is no number: an epoch the health
        // policy skipped whole must not read as a perfect loss of 0.
        let mean_loss = if batches == 0 { f64::NAN } else { total_loss / batches as f64 };
        health.end_epoch(epoch, &params, mean_loss);
        drop(health);
        let (val_ap, _) = self.evaluate(model, ctx, split.val.clone());
        EpochStats {
            loss: mean_loss as f32,
            steps: batches,
            skipped: seen - batches,
            train_time_s,
            val_ap,
        }
    }

    /// One compute-stage step: forward, loss, health check, backward,
    /// optimizer update, cache invalidation. All parameter and cache
    /// mutation happens here, on the calling (compute) thread, in
    /// batch order.
    ///
    /// Returns the loss when the step applied, or `None` when the
    /// health monitor skipped a poisoned batch.
    fn train_step<M: TemporalModel + ?Sized>(
        model: &mut M,
        ctx: &TContext,
        opt: &mut Adam,
        health: &mut HealthMonitor,
        epoch: usize,
        step_idx: usize,
        batch: &TBatch,
    ) -> Option<f64> {
        opt.zero_grad();
        let loss = {
            let _fwd = tgl_obs::region("forward").stage(tgl_obs::Stage::Forward);
            let (pos, neg) = model.forward(ctx, batch);
            link_loss(&pos, &neg)
        };
        let loss_v = loss.item();
        if !health.check_loss(epoch, step_idx, loss_v) {
            // Poisoned batch: backpropagating a non-finite loss would
            // corrupt the parameters. Skip it (the event is already
            // recorded) but still drop stale caches. Batches already
            // prepared stay valid — their chains never depend on the
            // parameters this skip protects.
            ctx.clear_caches();
            return None;
        }
        {
            let _b = tgl_obs::span("backward").stage(tgl_obs::Stage::Backward);
            loss.backward();
        }
        {
            let _o = tgl_obs::span("opt_step").stage(tgl_obs::Stage::Opt);
            opt.step();
        }
        // Parameter updates invalidate memoized embeddings.
        ctx.clear_caches();
        Some(loss_v as f64)
    }

    /// Runs inference over an edge range, returning `(AP, seconds)`.
    /// Memory-based models keep advancing their state (the standard
    /// chronological evaluation protocol). Batches come from the same
    /// loop as training's; a model whose inference chain depends on
    /// what earlier batches left behind (TGAT with `cache`) publishes
    /// no spec in this mode and builds its chains inline.
    pub fn evaluate<M: TemporalModel + ?Sized>(
        &self,
        model: &mut M,
        ctx: &TContext,
        range: std::ops::Range<usize>,
    ) -> (f64, f64) {
        model.set_training(false);
        let negs = NegativeSampler::new(self.neg_lo, self.neg_hi, self.cfg.seed ^ 0xE7A1_5EED);
        let start = CpuTimer::start();
        // One positive and one negative score per edge in the range.
        let mut all_pos: Vec<f32> = Vec::with_capacity(range.len());
        let mut all_neg: Vec<f32> = Vec::with_capacity(range.len());
        {
            let _eval_region = tgl_obs::region("eval");
            let _guard = no_grad();
            self.for_each_batch(ctx, &range, negs, model.sampling_spec(), |batch| {
                let _fwd = tgl_obs::region("forward").stage(tgl_obs::Stage::Forward);
                let (pos, neg) = model.forward(ctx, &batch);
                all_pos.extend(pos.to_vec());
                all_neg.extend(neg.to_vec());
            });
        }
        let secs = start.elapsed_s();
        model.set_training(true);
        if all_pos.is_empty() {
            return (0.0, secs);
        }
        // A poisoned model produces non-finite scores; an AP over those
        // is noise, so report 0 and leave a structured event behind.
        let mut health = self.health.lock().unwrap_or_else(|e| e.into_inner());
        let finite = health.check_scores(&all_pos) & health.check_scores(&all_neg);
        drop(health);
        if !finite {
            return (0.0, secs);
        }
        (average_precision(&all_pos, &all_neg), secs)
    }

    /// Full protocol: `epochs` training epochs (tracking the best
    /// validation AP), then test inference. Returns
    /// `(epoch_stats, best_val_ap, test_ap, test_seconds)`.
    pub fn run<M: TemporalModel + ?Sized>(
        &self,
        model: &mut M,
        ctx: &TContext,
        split: &Split,
    ) -> (Vec<EpochStats>, f64, f64, f64) {
        self.run_with(model, ctx, split, |_, _| {})
    }

    /// [`run`](Trainer::run), calling `on_epoch(index, stats)` after
    /// every training epoch (progress lines, run reporters).
    pub fn run_with<M: TemporalModel + ?Sized>(
        &self,
        model: &mut M,
        ctx: &TContext,
        split: &Split,
        mut on_epoch: impl FnMut(usize, &EpochStats),
    ) -> (Vec<EpochStats>, f64, f64, f64) {
        let mut opt = Adam::new(model.parameters(), self.cfg.lr);
        let mut stats = Vec::with_capacity(self.cfg.epochs);
        let mut best_val = 0.0f64;
        for e in 0..self.cfg.epochs {
            let s = self.train_epoch(model, ctx, split, &mut opt, e);
            best_val = best_val.max(s.val_ap);
            on_epoch(e, &s);
            stats.push(s);
        }
        let (test_ap, test_s) = self.evaluate(model, ctx, split.test.clone());
        (stats, best_val, test_ap, test_s)
    }
}

/// BCE-with-logits over stacked positive/negative logits.
fn link_loss(pos: &Tensor, neg: &Tensor) -> Tensor {
    let n_pos = pos.dim(0);
    let n_neg = neg.dim(0);
    let logits = cat(&[pos.clone(), neg.clone()], 0);
    let mut targets = vec![1.0f32; n_pos];
    targets.extend(vec![0.0; n_neg]);
    bce_with_logits(&logits, &Tensor::from_vec_on(targets, [n_pos + n_neg], logits.device()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgl_data::{generate, DatasetKind, DatasetSpec};
    use tgl_models::{ModelConfig, OptFlags, Tgat};

    fn tiny_setup() -> (TContext, Split, DatasetSpec) {
        let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(20);
        let (g, _) = generate(&spec);
        let split = Split::standard(&g);
        (TContext::new(Arc::clone(&g)), split, spec)
    }

    #[test]
    fn cpu_clock_resolves_a_millisecond_of_work() {
        let spin_1ms = || {
            let before = process_cpu_seconds();
            let spin = std::time::Instant::now();
            while spin.elapsed().as_secs_f64() < 1e-3 {
                std::hint::spin_loop();
            }
            process_cpu_seconds() - before
        };
        // A 10 ms tick reads 0 here nine times in ten and 10 ms
        // otherwise. Sibling tests burn CPU on the same process clock
        // and the host may take the core away mid-spin, so the upper
        // end is loose and three readings of five decide.
        let used: Vec<f64> = (0..5).map(|_| spin_1ms()).collect();
        let sane = used.iter().filter(|u| (0.5e-3..50e-3).contains(*u)).count();
        assert!(sane >= 3, "1 ms of spinning read as {used:?} s of CPU");
    }

    #[test]
    fn link_loss_matches_manual() {
        let pos = Tensor::from_vec(vec![2.0], [1]);
        let neg = Tensor::from_vec(vec![-2.0], [1]);
        let l = link_loss(&pos, &neg).item();
        // both confidently correct: small loss
        assert!(l < 0.2, "got {l}");
    }

    #[test]
    fn train_epoch_returns_finite_stats() {
        let (ctx, split, spec) = tiny_setup();
        let mut model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 0);
        let trainer = Trainer::new(
            TrainConfig {
                batch_size: 50,
                epochs: 1,
                lr: 1e-3,
                seed: 0,
            },
            spec.n_src as u32,
            spec.num_nodes() as u32,
        );
        let mut opt = Adam::new(model.parameters(), 1e-3);
        let stats = trainer.train_epoch(&mut model, &ctx, &split, &mut opt, 0);
        assert!(stats.loss.is_finite());
        assert!(stats.train_time_s > 0.0);
        assert!((0.0..=1.0).contains(&stats.val_ap));
    }

    #[test]
    fn an_epoch_that_applies_no_step_reports_nan_and_its_skips() {
        let (ctx, split, spec) = tiny_setup();
        let mut model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 5);
        let trainer = Trainer::new(
            TrainConfig { batch_size: 50, epochs: 1, lr: 1e-3, seed: 0 },
            spec.n_src as u32,
            spec.num_nodes() as u32,
        );
        let mut opt = Adam::new(model.parameters(), 1e-3);
        let healthy = trainer.train_epoch(&mut model, &ctx, &split, &mut opt, 0);
        assert!(healthy.loss.is_finite() && healthy.steps > 0 && healthy.skipped == 0, "{healthy:?}");
        // A poisoned output bias makes every logit, so every loss,
        // non-finite: the warn policy skips every batch, and the mean
        // over none is NaN.
        let bias = model.parameters().pop().expect("the predictor has parameters");
        bias.with_data_mut(|d| d.fill(f32::NAN));
        let poisoned = trainer.train_epoch(&mut model, &ctx, &split, &mut opt, 1);
        assert!(poisoned.loss.is_nan(), "{poisoned:?}");
        assert_eq!((poisoned.steps, poisoned.skipped), (0, healthy.steps));
    }

    #[test]
    fn pipelined_epoch_matches_sequential_bitwise() {
        let run = |depth: usize| -> Vec<(u32, u64)> {
            let (ctx, split, spec) = tiny_setup();
            let mut model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::all(), 3);
            let trainer = Trainer::new(
                TrainConfig {
                    batch_size: 50,
                    epochs: 2,
                    lr: 1e-3,
                    seed: 7,
                },
                spec.n_src as u32,
                spec.num_nodes() as u32,
            )
            .with_pipeline(depth);
            let mut opt = Adam::new(model.parameters(), 1e-3);
            (0..2)
                .map(|e| {
                    let s = trainer.train_epoch(&mut model, &ctx, &split, &mut opt, e);
                    (s.loss.to_bits(), s.val_ap.to_bits())
                })
                .collect()
        };
        let sequential = run(0);
        for depth in [1, 3] {
            assert_eq!(
                sequential,
                run(depth),
                "pipeline depth {depth} diverged from the sequential reference"
            );
        }
    }

    #[test]
    fn full_run_learns_above_random() {
        let (ctx, split, spec) = tiny_setup();
        let mut model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 1);
        let trainer = Trainer::new(
            TrainConfig {
                batch_size: 50,
                epochs: 3,
                lr: 2e-3,
                seed: 0,
            },
            spec.n_src as u32,
            spec.num_nodes() as u32,
        );
        let (stats, best_val, test_ap, test_s) = trainer.run(&mut model, &ctx, &split);
        assert_eq!(stats.len(), 3);
        assert!(test_s > 0.0);
        assert!(
            best_val > 0.55 || test_ap > 0.55,
            "model failed to beat random: val {best_val:.3}, test {test_ap:.3}"
        );
    }
}
