//! Shared fixtures for the cross-crate integration tests.

use std::sync::Arc;

use tgl_data::{generate, DatasetKind, DatasetSpec, NegativeSampler};
use tglite::{TBatch, TContext, TGraph};

pub mod mfg;

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
