//! Regenerates **Figure 5**, **Table 4** and **Table 5** — the three
//! views of one all-on-GPU grid (four models × four standard datasets ×
//! {TGL, TGLite, TGLite+opt}), run once and measured by this run:
//!
//! * Figure 5 — training time per epoch. Expected shape (paper §5.2.1):
//!   TGLite ≈ TGL (the `preload()` operator has no effect when data is
//!   already on device), TGLite+opt faster than TGL via dedup (paper:
//!   1.06–1.81×).
//! * Table 4 — training-evaluation AP (best epoch). All three settings
//!   land within a point or two of each other: the optimizations are
//!   semantic-preserving.
//! * Table 5 — test-set inference time and AP. TGLite+opt 1.09–1.54×,
//!   TGLite 0.85–1.61× against TGL (paper §5.3); `cache()` benefits
//!   TGAT more than TGN.

use tgl_bench::{grid_lookup, preamble, print_epoch_times, standard_grid};
use tgl_data::DatasetKind;
use tgl_harness::table::{ap, secs, speedup, TextTable};
use tgl_harness::{Framework, ModelKind, Placement};

fn main() {
    preamble(
        "Figure 5 / Table 4 / Table 5: training time, training AP, inference, all-on-GPU",
        "paper §5.2.1, Figure 5 and Table 4; §5.3, Table 5",
    );
    let grid = standard_grid(Placement::AllOnDevice);

    println!("\n== Figure 5: training time per epoch, all-on-GPU ==");
    print_epoch_times(&grid);
    println!("\n(speedups vs TGL in parentheses; JODIE has no further opt");
    println!(" operators per the paper, so TGLite+opt == TGLite for it)");

    println!("\n== Table 4: training evaluation AP (best epoch), all-on-GPU ==");
    let mut t = TextTable::new(&["Data", "Model", "TGL", "TGLite", "TGLite+opt"]);
    for kind in DatasetKind::standard() {
        for model in ModelKind::all() {
            t.row(&[
                kind.name().to_string(),
                model.label().to_string(),
                ap(grid_lookup(&grid, Framework::Tgl, model, kind).val_ap),
                ap(grid_lookup(&grid, Framework::TgLite, model, kind).val_ap),
                if model == ModelKind::Jodie {
                    "-".into()
                } else {
                    ap(grid_lookup(&grid, Framework::TgLiteOpt, model, kind).val_ap)
                },
            ]);
        }
    }
    println!("{}", t.render());
    println!("\n(AP in percent on the validation split; '-' marks JODIE's");
    println!(" skipped TGLite+opt setting, as in the paper)");

    println!("\n== Table 5: test-set inference time + AP, all-on-GPU ==");
    let mut t = TextTable::new(&["Data", "Model", "TGL", "AP", "TGLite", "AP", "TGLite+opt", "AP"]);
    for kind in DatasetKind::standard() {
        for model in ModelKind::all() {
            let tgl = grid_lookup(&grid, Framework::Tgl, model, kind);
            let lite = grid_lookup(&grid, Framework::TgLite, model, kind);
            let opt = grid_lookup(&grid, Framework::TgLiteOpt, model, kind);
            let mut cells = vec![
                kind.name().to_string(),
                model.label().to_string(),
                secs(tgl.test_s),
                ap(tgl.test_ap),
                format!("{} {}", secs(lite.test_s), speedup(tgl.test_s, lite.test_s)),
                ap(lite.test_ap),
            ];
            if model == ModelKind::Jodie {
                cells.extend(["-".into(), "-".into()]);
            } else {
                cells.push(format!("{} {}", secs(opt.test_s), speedup(tgl.test_s, opt.test_s)));
                cells.push(ap(opt.test_ap));
            }
            t.row(&cells);
        }
    }
    println!("{}", t.render());
    println!("\n(inference over the chronological test split after training;");
    println!(" speedups vs TGL in parentheses)");
}
