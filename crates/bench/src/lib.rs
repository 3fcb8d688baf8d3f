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

#![forbid(unsafe_code)]

use tgl_data::{DatasetKind, DatasetSpec};
use tgl_device::TransferModel;
use tgl_harness::{ExperimentConfig, Framework, ModelKind, Placement};

/// Reads the dataset scale divisor from `TGL_BENCH_SCALE`.
pub fn bench_scale() -> usize {
    std::env::var("TGL_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// Reads the epoch override from `TGL_BENCH_EPOCHS`.
pub fn bench_epochs(default: usize) -> usize {
    std::env::var("TGL_BENCH_EPOCHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The compute-slowdown factor between this CPU substrate and the
/// paper's GPUs, used to scale the simulated PCIe link so the
/// transfer:compute ratio matches the paper (see
/// `TransferModel::scaled`).
pub const COMPUTE_SLOWDOWN: f64 = 400.0;

/// The simulated V100-machine PCIe link at reproduction scale.
pub fn sim_link_v100() -> TransferModel {
    TransferModel::scaled(TransferModel::pcie_v100(), COMPUTE_SLOWDOWN)
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
    cfg.transfer = sim_link_v100();
    cfg
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

/// Runs (or loads from the on-disk cache) the full standard grid —
/// 4 models × 4 standard datasets × 3 frameworks — for one placement.
///
/// Figure 5 / Table 4 / Table 5 all report views of the same grid, so
/// results are cached under `target/` keyed by placement, scale, and
/// epochs; delete the file (or change `TGL_BENCH_SCALE`) to recompute.
/// The JODIE `TGLite+opt` cell reuses the `TGLite` measurement (the
/// paper applies no further operators to JODIE).
pub fn standard_grid(placement: Placement) -> Vec<GridRow> {
    let tag = match placement {
        Placement::AllOnDevice => "gpu",
        Placement::HostResident => "cpu",
    };
    // Bench binaries run with the package directory as CWD; anchor the
    // cache at the workspace target dir instead.
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!(
        "../../target/tgl-grid-{tag}-s{}-e{}.csv",
        bench_scale(),
        bench_epochs(2)
    ));
    if let Some(rows) = load_grid(&path) {
        eprintln!("(reusing cached grid results from {})", path.display());
        return rows;
    }
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
    save_grid(&path, &rows);
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

fn save_grid(path: &std::path::Path, rows: &[GridRow]) {
    let mut s = String::from("framework,model,dataset,train_s,test_s,val_ap,test_ap\n");
    for r in rows {
        s.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            r.framework.label(),
            r.model.label(),
            r.dataset.name(),
            r.train_s,
            r.test_s,
            r.val_ap,
            r.test_ap
        ));
    }
    if let Err(e) = std::fs::write(path, s) {
        eprintln!("(could not cache grid to {}: {e})", path.display());
    }
}

fn load_grid(path: &std::path::Path) -> Option<Vec<GridRow>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut rows = Vec::new();
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 7 {
            return None;
        }
        let framework = Framework::all().into_iter().find(|x| x.label() == f[0])?;
        let model = ModelKind::all().into_iter().find(|x| x.label() == f[1])?;
        let dataset = DatasetKind::all().into_iter().find(|x| x.name() == f[2])?;
        rows.push(GridRow {
            framework,
            model,
            dataset,
            train_s: f[3].parse().ok()?,
            test_s: f[4].parse().ok()?,
            val_ap: f[5].parse().ok()?,
            test_ap: f[6].parse().ok()?,
        });
    }
    (rows.len() == 48).then_some(rows)
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
    fn scaled_link_is_slower_than_real() {
        let real = TransferModel::pcie_v100();
        let sim = sim_link_v100();
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
