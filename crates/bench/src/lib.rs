//! Shared plumbing for the paper-reproduction benchmark targets.
//!
//! Every table and figure of the paper's evaluation (§5, Appendix B)
//! has a bench target (`cargo bench --bench <name>`) that prints the
//! same rows/series the paper reports. These helpers hold the common
//! configuration so all targets agree on scales and settings.
//!
//! Environment knobs:
//!
//! * `TGL_BENCH_SCALE` — integer divisor applied to every dataset's
//!   node/edge counts (default 2, sized so the full suite finishes in
//!   roughly an hour on a 2-core CPU box; use 1 for the largest runs
//!   or 8+ for a quick smoke run);
//! * `TGL_BENCH_EPOCHS` — override training epoch count (default 2).
//!
//! A knob set to anything but a positive integer panics naming it.
//!
//! [`time_it`] is the one timer of the micro benches (`micro_ops`,
//! `obs_overhead`); `scripts/ab` takes the fastest of several runs of
//! them per side.

#![forbid(unsafe_code)]

use std::time::Instant;

use tgl_data::{DatasetKind, DatasetSpec};
use tgl_device::TransferModel;
use tgl_harness::table::{bar, secs, speedup, TextTable};
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

/// One row of the standard evaluation grid.
#[derive(Debug, Clone)]
pub struct GridRow {
    /// Framework under test.
    pub framework: Framework,
    /// Model under test.
    pub model: ModelKind,
    /// Dataset shape.
    pub dataset: DatasetKind,
    /// Mean training seconds per epoch.
    pub train_s: f64,
    /// Test-split inference seconds.
    pub test_s: f64,
    /// Best validation AP.
    pub val_ap: f64,
    /// Test AP.
    pub test_ap: f64,
}

/// Runs the full standard grid — 4 models × 4 standard datasets × 3
/// frameworks — for one placement, measuring every cell in this run.
///
/// Figure 5 / Table 4 / Table 5 are views of one all-on-device grid
/// and print from one target; Figure 6 runs the host-resident one.
/// The JODIE `TGLite+opt` cell reuses the `TGLite` measurement (the
/// paper applies no further operators to JODIE).
pub fn standard_grid(placement: Placement) -> Vec<GridRow> {
    let mut rows = Vec::new();
    for kind in DatasetKind::standard() {
        for model in ModelKind::all() {
            let mut lite_row: Option<GridRow> = None;
            for fw in Framework::all() {
                if fw == Framework::TgLiteOpt && model == ModelKind::Jodie {
                    let mut r = lite_row.clone().expect("TGLite ran before TGLite+opt");
                    r.framework = Framework::TgLiteOpt;
                    rows.push(r);
                    continue;
                }
                let cfg = cell(fw, model, kind, placement);
                let r = tgl_harness::run_experiment(&cfg);
                let row = GridRow {
                    framework: fw,
                    model,
                    dataset: kind,
                    train_s: r.train_s_per_epoch,
                    test_s: r.test_s,
                    val_ap: r.best_val_ap,
                    test_ap: r.test_ap,
                };
                eprintln!(
                    "  [{}] {}/{}: train {:.2}s/epoch test {:.2}s val-AP {:.3}",
                    fw.label(),
                    kind.name(),
                    model.label(),
                    row.train_s,
                    row.test_s,
                    row.val_ap
                );
                if fw == Framework::TgLite {
                    lite_row = Some(row.clone());
                }
                rows.push(row);
            }
        }
    }
    rows
}

/// Fetches one grid row.
///
/// # Panics
///
/// Panics if the combination is missing (grid covers the standard
/// datasets only).
pub fn grid_lookup(
    rows: &[GridRow],
    fw: Framework,
    model: ModelKind,
    dataset: DatasetKind,
) -> &GridRow {
    rows.iter()
        .find(|r| r.framework == fw && r.model == model && r.dataset == dataset)
        .expect("grid cell missing")
}

/// Prints Figure 5's or Figure 6's view of a grid: per dataset, each
/// model's seconds per training epoch under the three frameworks, with
/// speedups against TGL and bars.
pub fn print_epoch_times(grid: &[GridRow]) {
    for kind in DatasetKind::standard() {
        println!("\n--- {} ---", kind.name());
        let mut t = TextTable::new(&["Model", "TGL", "TGLite", "TGLite+opt", "bars (s/epoch)"]);
        for model in ModelKind::all() {
            let tgl = grid_lookup(grid, Framework::Tgl, model, kind).train_s;
            let lite = grid_lookup(grid, Framework::TgLite, model, kind).train_s;
            let opt = grid_lookup(grid, Framework::TgLiteOpt, model, kind).train_s;
            let max = tgl.max(lite).max(opt);
            t.row(&[
                model.label().to_string(),
                secs(tgl),
                format!("{} {}", secs(lite), speedup(tgl, lite)),
                if model == ModelKind::Jodie {
                    "- (same as TGLite)".to_string()
                } else {
                    format!("{} {}", secs(opt), speedup(tgl, opt))
                },
                format!(
                    "TGL {:<12} lite {:<12} +opt {:<12}",
                    bar(tgl, max, 12),
                    bar(lite, max, 12),
                    bar(opt, max, 12)
                ),
            ]);
        }
        println!("{}", t.render());
    }
}

/// Prints the standard bench preamble.
pub fn preamble(what: &str, paper_ref: &str) {
    println!("==============================================================");
    println!("{what}");
    println!("reproduces: {paper_ref}");
    println!(
        "scale divisor: {} | epochs: {} | synthetic datasets (see DESIGN.md)",
        bench_scale(),
        bench_epochs(2)
    );
    println!("==============================================================");
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
