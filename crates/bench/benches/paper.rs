//! Every table and figure of the paper's evaluation (§5, Appendix B)
//! from one run: each cell of [`tgl_bench::paper::cells`] runs once,
//! the record goes to `BENCH_paper.json` at the repository root, and
//! every view prints from the record as written.
//!
//! EXPERIMENTS.md carries the views of the committed record (a tier-1
//! test checks it), so a new record goes in together with its views.

use std::path::PathBuf;

use tgl_bench::paper;
use tgl_data::Json;
use tglite::tensor::DeviceOom;

fn main() {
    // A capped Table 7 cell's expected OOM is reported in one line by
    // the run; every other panic reaches the previous hook.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<DeviceOom>().is_none() {
            prev(info);
        }
    }));
    let text = tgl_bench::render(&paper::record(&paper::cells()));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_paper.json");
    std::fs::write(&path, &text).unwrap_or_else(|e| panic!("could not write {}: {e}", path.display()));
    let rec = Json::parse(&text).expect("the record parses back");
    for (title, body) in paper::views(&rec) {
        println!("\n== {title} ==\n{body}");
    }
    println!("\nwrote {}", path.display());
}
