//! The paper-reproduction benchmarks.
//!
//! [`paper`] is the evaluation (§5, Appendix B) as one list of cells,
//! one record and a view per table and figure: `cargo bench --bench
//! paper` runs it and writes `BENCH_paper.json`. [`hooks`] holds the
//! two paths of the hooks ablation. The other target, `micro`, runs the
//! micro benches and writes `BENCH_micro.json`. Both records open with
//! the same [`host`] shape and are written by [`render`].
//!
//! Environment knobs:
//!
//! * `TGL_BENCH_SCALE` — integer divisor applied to every dataset's
//!   node/edge counts (default 2, sized so the paper target finishes in
//!   roughly an hour on a 2-core CPU box; use 1 for the largest runs
//!   or 8+ for a quick smoke run);
//! * `TGL_BENCH_EPOCHS` — override training epoch count (default 2,
//!   1 for the large sets of Tables 7 and 8).
//!
//! A knob set to anything but a positive integer panics naming it.
//!
//! [`time_it`] is the one timer of the micro benches; `scripts/ab`
//! takes the fastest of several runs of them per side.

#![forbid(unsafe_code)]

pub mod hooks;
pub mod paper;

use std::time::Instant;

use tgl_data::{DatasetKind, DatasetSpec, Json};
use tgl_device::TransferModel;
use tgl_harness::{ExperimentConfig, Framework, ModelKind, Placement};

/// A positive count from the environment variable `var`, or `default`
/// when it is unset.
///
/// # Panics
///
/// Panics naming `var` when it is set to anything else.
pub fn env_count(var: &str, default: usize) -> usize {
    tgl_runtime::env::positive(var).unwrap_or_else(|e| panic!("{e}")).unwrap_or(default)
}

/// Reads the dataset scale divisor from `TGL_BENCH_SCALE`.
pub fn bench_scale() -> usize {
    env_count("TGL_BENCH_SCALE", 2)
}

/// Reads the epoch override from `TGL_BENCH_EPOCHS`.
pub fn bench_epochs(default: usize) -> usize {
    env_count("TGL_BENCH_EPOCHS", default)
}

/// Builds the standard experiment config for one grid cell, applying
/// the bench-scale knobs.
pub fn cell(
    framework: Framework,
    model: ModelKind,
    kind: DatasetKind,
    placement: Placement,
) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(framework, model, kind, placement);
    cfg.dataset = DatasetSpec::of(kind).scaled_down(bench_scale());
    cfg.train_cfg.epochs = bench_epochs(2);
    cfg.transfer = TransferModel::sim_v100();
    cfg
}

/// A numeric member of a record object.
pub fn field(key: &str, v: impl Into<f64>) -> (String, Json) {
    (key.to_string(), Json::Num(v.into()))
}

/// A string member of a record object.
pub fn text(key: &str, v: &str) -> (String, Json) {
    (key.to_string(), Json::Str(v.to_string()))
}

/// The host shape every record carries: `cores`, `simd`, `kernel` and
/// the pool's `threads`, in that order.
pub fn host() -> Vec<(String, Json)> {
    vec![
        field("cores", std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        text("simd", tgl_tensor::kernel::simd_label()),
        text("kernel", tgl_tensor::kernel::mode().label()),
        field("threads", tgl_runtime::current_threads() as f64),
    ]
}

/// A record as text: one top-level field, and one item of a top-level
/// array, per line.
pub fn render(rec: &Json) -> String {
    let Json::Obj(fields) = rec else {
        return rec.render();
    };
    let line = |(k, v): &(String, Json)| {
        let v = match v {
            Json::Arr(items) => {
                format!("[\n    {}\n  ]", items.iter().map(Json::render).collect::<Vec<_>>().join(",\n    "))
            }
            v => v.render(),
        };
        format!("{}: {v}", Json::Str(k.clone()).render())
    };
    format!("{{\n  {}\n}}\n", fields.iter().map(line).collect::<Vec<_>>().join(",\n  "))
}

/// The start of one call's timed part: [`time_it`] starts it before
/// the call, and a call with set-up to leave out restarts it after.
pub struct Lap(Instant);

impl Lap {
    /// Times the call from here on.
    pub fn start(&mut self) {
        self.0 = Instant::now();
    }
}

/// Mean seconds per call of `f` over an adaptive number of calls: one
/// warm-up call sizes the count to fill about `budget_s` (1 to 10 000
/// calls). A call is timed from its [`Lap`]'s start to its return;
/// what it returns is dropped outside the timing.
pub fn time_it<R>(mut f: impl FnMut(&mut Lap) -> R, budget_s: f64) -> f64 {
    let mut once = || {
        let mut lap = Lap(Instant::now());
        let out = std::hint::black_box(f(&mut lap));
        let secs = lap.0.elapsed().as_secs_f64();
        drop(out);
        secs
    };
    let iters = ((budget_s / once().max(1e-9)) as usize).clamp(1, 10_000);
    (0..iters).map(|_| once()).sum::<f64>() / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_without_env() {
        if std::env::var("TGL_BENCH_SCALE").is_err() {
            assert_eq!(bench_scale(), 2);
        }
        if std::env::var("TGL_BENCH_EPOCHS").is_err() {
            assert_eq!(bench_epochs(3), 3);
        }
    }

    #[test]
    #[should_panic(expected = "TGL_BENCH_TEST_KNOB: expected a positive integer, got \"abc\"")]
    fn unusable_knob_panics_naming_it() {
        // A name no other test reads.
        std::env::set_var("TGL_BENCH_TEST_KNOB", "abc");
        env_count("TGL_BENCH_TEST_KNOB", 2);
    }

    #[test]
    fn time_it_leaves_out_what_precedes_the_lap() {
        let pause = std::time::Duration::from_millis(2);
        let whole = time_it(|_| std::thread::sleep(pause), 0.01);
        let lapped = time_it(
            |lap| {
                std::thread::sleep(pause);
                lap.start();
            },
            0.01,
        );
        assert!(whole >= pause.as_secs_f64(), "{whole}");
        assert!(lapped < pause.as_secs_f64() / 2.0, "{lapped}");
    }

    #[test]
    fn scaled_link_is_slower_than_real() {
        let real = TransferModel::pcie_v100();
        let sim = cell(Framework::Tgl, ModelKind::Tgat, DatasetKind::Wiki, Placement::HostResident).transfer;
        assert!(sim.pageable_bw < real.pageable_bw);
        assert!(sim.enabled);
    }

    #[test]
    fn cell_builds_config() {
        let c = cell(
            Framework::Tgl,
            ModelKind::Tgat,
            DatasetKind::Wiki,
            Placement::AllOnDevice,
        );
        assert_eq!(c.model, ModelKind::Tgat);
        assert!(c.dataset.n_edges > 0);
    }
}
