//! Shared fixtures for the cross-crate integration tests.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tgl_data::{generate, DatasetKind, DatasetSpec, NegativeSampler};
use tgl_models::{TemporalModel, Tgat};
use tgl_tensor::Tensor;
use tglite::{TBatch, TContext, TGraph};

pub mod mfg;

/// The one test lock of a test binary: held by every test that reads or
/// sets process-global state (the device tier's counters, cap and
/// transfer model, the span log and aggregate, the counter registry,
/// the worker pool's width, the SIMD level, `TGL_FLIGHT_DIR`). Each
/// test binary links its own copy of this crate, so the lock serializes
/// the tests of one binary only, which are the ones sharing a process.
pub fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A small Wiki-shaped dataset for fast end-to-end tests.
pub fn tiny_wiki() -> (Arc<TGraph>, DatasetSpec) {
    let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(10);
    let (g, _) = generate(&spec);
    (g, spec)
}

/// A host-device context over a graph.
pub fn ctx(g: &Arc<TGraph>) -> TContext {
    TContext::new(Arc::clone(g))
}

/// A batch over `range` with seeded negatives drawn from the spec's
/// destination universe.
pub fn batch(g: &Arc<TGraph>, spec: &DatasetSpec, range: std::ops::Range<usize>, seed: u64) -> TBatch {
    let mut b = TBatch::new(Arc::clone(g), range);
    let mut negs = NegativeSampler::for_spec(spec, seed);
    let n = b.len();
    b.set_negatives(negs.draw(n));
    b
}

/// Asserts two logit vectors agree within `tol`.
pub fn assert_logits_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol,
            "{what}: logit {i} differs: {x} vs {y}"
        );
    }
}

/// TGAT, except that its `forward` sleeps for `pause` and then panics
/// on call number `at`: a model bug in the middle of an epoch.
pub struct PanicsInForward {
    inner: Tgat,
    calls: usize,
    at: usize,
    pause: std::time::Duration,
}

impl PanicsInForward {
    /// Wraps `inner`, panicking on forward call `at` (1-based).
    pub fn new(inner: Tgat, at: usize, pause: std::time::Duration) -> PanicsInForward {
        PanicsInForward { inner, calls: 0, at, pause }
    }
}

impl TemporalModel for PanicsInForward {
    fn name(&self) -> &'static str {
        "panics-in-forward"
    }

    fn parameters(&self) -> Vec<Tensor> {
        self.inner.parameters()
    }

    fn set_training(&mut self, training: bool) {
        self.inner.set_training(training);
    }

    fn forward(&mut self, ctx: &TContext, batch: &TBatch) -> (Tensor, Tensor) {
        self.calls += 1;
        if self.calls == self.at {
            std::thread::sleep(self.pause);
            panic!("injected forward panic");
        }
        self.inner.forward(ctx, batch)
    }

    fn sampling_spec(&self) -> Option<tglite::plan::SamplingSpec> {
        self.inner.sampling_spec()
    }

    fn reset_state(&self, ctx: &TContext) {
        self.inner.reset_state(ctx);
    }
}
