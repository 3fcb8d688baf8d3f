//! Roofline-annotated op-profile reporting.
//!
//! Turns the op rows of the span aggregate ([`tgl_obs::profile`]) into
//! the `--profile` top-k table: each op's time share, achieved
//! GFLOP/s, and arithmetic intensity are compared against a machine
//! [`Roofline`] (GEMM peak from `BENCH_micro_gemm.json` plus a measured
//! memory-bandwidth probe) to classify it as compute-bound,
//! bandwidth-bound, or pure data movement. Also renders the per-phase
//! coverage lines (op self time against the phase rows) and the
//! per-stage table that puts the phase view, the op view and the
//! critical path side by side.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

use tgl_data::Json;
use tgl_obs::critpath::Analysis;
use tgl_obs::profile::{stage_seconds, Row};
use tgl_obs::{Kind, Stage};

use crate::table::TextTable;

/// Peak GFLOP/s assumed when `BENCH_micro_gemm.json` is not found.
const FALLBACK_PEAK_GFLOPS: f64 = 3.0;

/// The two machine ceilings an op can hit: peak compute throughput and
/// peak memory bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// Peak compute throughput (GFLOP/s), taken as the best measured
    /// GEMM rate for the active thread count.
    pub peak_gflops: f64,
    /// Sustained memory bandwidth (GB/s).
    pub bw_gbs: f64,
    /// Where the peak came from: `"BENCH_micro_gemm.json"` or
    /// `"fallback"`.
    pub peak_source: &'static str,
    /// Pool thread count the peak was calibrated for.
    pub threads: usize,
    /// The SIMD level `BENCH_micro_gemm.json` was recorded at, when
    /// that is not the level this process runs: the peak is then
    /// another machine's ceiling, the header says so and no row is
    /// flagged against it.
    pub recorded_simd: Option<&'static str>,
}

impl Roofline {
    /// Detects the machine roofline: GEMM peak from
    /// `BENCH_micro_gemm.json` (searched upward from the working
    /// directory, scaled to the active pool thread count) and memory bandwidth from
    /// [`memory_bandwidth_gbs`].
    pub fn detect() -> Roofline {
        let threads = tgl_runtime::current_threads();
        let artifact = bench_artifact();
        let (peak_gflops, peak_source) = peak_of(artifact.as_ref(), threads);
        let running = tgl_tensor::kernel::simd_label();
        Roofline {
            peak_gflops,
            bw_gbs: memory_bandwidth_gbs(),
            peak_source,
            threads,
            recorded_simd: artifact
                .as_ref()
                .and_then(|v| v.get("simd")?.as_str())
                .filter(|&recorded| recorded != running)
                .map(tgl_obs::intern::intern),
        }
    }

    /// The ridge point: arithmetic intensity (FLOP/byte) above which
    /// the compute ceiling binds before the bandwidth ceiling.
    pub fn ridge_ai(&self) -> f64 {
        self.peak_gflops / self.bw_gbs
    }

    /// Classifies an op from its totals: no FLOPs at all is pure data
    /// movement; otherwise compare arithmetic intensity to the ridge.
    pub fn verdict(&self, flops: u64, bytes: u64) -> &'static str {
        if flops == 0 {
            "data-move"
        } else if bytes == 0 || (flops as f64 / bytes as f64) >= self.ridge_ai() {
            "compute-bound"
        } else {
            "bandwidth-bound"
        }
    }
}

/// Searches the working directory and its ancestors for `name`.
fn find_upwards(name: &str) -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join(name);
        if candidate.is_file() {
            return Some(candidate);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Max `gflops` over the entries of a bench array.
fn max_gflops(arr: &Json) -> Option<f64> {
    arr.as_arr()?
        .iter()
        .filter_map(|r| r.get("gflops")?.as_num())
        .fold(None, |best: Option<f64>, g| Some(best.map_or(g, |b| b.max(g))))
}

/// Best measured GEMM rate from `BENCH_micro_gemm.json` at the given
/// pool thread count, with a conservative
/// fallback when the artifact is missing or unparsable.
///
/// The single-thread peak is the max over the `results[]` series. For
/// `threads > 1` the `multi_thread[]`
/// sweep supplies a scale factor: the measured `speedup_vs_1t` at that
/// thread count, or — when the report asks for a count beyond the
/// sweep — a linear extrapolation from the largest swept count. The
/// scale never drops below 1 so a poorly-scaling sweep cannot push the
/// ceiling under the single-thread rate (which would make honest
/// single-thread ops read as >100% of peak).
pub fn gemm_peak_gflops_at(threads: usize) -> (f64, &'static str) {
    peak_of(bench_artifact().as_ref(), threads)
}

/// `BENCH_micro_gemm.json`, found upward from the working directory.
fn bench_artifact() -> Option<Json> {
    let text = std::fs::read_to_string(find_upwards("BENCH_micro_gemm.json")?).ok()?;
    Json::parse(&text).ok()
}

/// [`gemm_peak_gflops_at`] over an already parsed artifact.
fn peak_of(artifact: Option<&Json>, threads: usize) -> (f64, &'static str) {
    let parsed = artifact
        .and_then(|v| {
            let base = max_gflops(v.get("results")?)?;
            if threads <= 1 {
                return Some(base);
            }
            let scale = v
                .get("multi_thread")
                .and_then(|mt| {
                    let arr = mt.as_arr()?;
                    // Exact thread-count match first.
                    let at = |t: usize| {
                        arr.iter()
                            .filter(|r| {
                                r.get("threads").and_then(Json::as_num) == Some(t as f64)
                            })
                            .filter_map(|r| r.get("speedup_vs_1t")?.as_num())
                            .fold(None, |best: Option<f64>, s| {
                                Some(best.map_or(s, |b| b.max(s)))
                            })
                    };
                    if let Some(s) = at(threads) {
                        return Some(s);
                    }
                    // Beyond the sweep: linear extrapolation from the
                    // largest swept count (ideal scaling of the tail,
                    // a deliberate over-estimate of the ceiling).
                    let swept_max = arr
                        .iter()
                        .filter_map(|r| r.get("threads")?.as_num())
                        .fold(None, |best: Option<f64>, t| {
                            Some(best.map_or(t, |b| b.max(t)))
                        })?;
                    let s = at(swept_max as usize)?;
                    Some(s * threads as f64 / swept_max)
                })
                // No sweep recorded: assume ideal linear scaling so the
                // ceiling stays an upper bound.
                .unwrap_or(threads as f64);
            Some(base * scale.max(1.0))
        });
    match parsed {
        Some(peak) if peak > 0.0 => (peak, "BENCH_micro_gemm.json"),
        _ => (FALLBACK_PEAK_GFLOPS * threads.max(1) as f64, "fallback"),
    }
}

/// Sustained memory bandwidth in GB/s, probed once per process with a
/// large out-of-cache copy (read + write counted). Overridable via
/// `TGL_MEM_BW_GBS` for reproducible reports.
pub fn memory_bandwidth_gbs() -> f64 {
    static BW: OnceLock<f64> = OnceLock::new();
    *BW.get_or_init(|| {
        if let Some(v) = std::env::var("TGL_MEM_BW_GBS")
            .ok()
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|v| *v > 0.0)
        {
            return v;
        }
        probe_bandwidth_gbs()
    })
}

fn probe_bandwidth_gbs() -> f64 {
    // 8 Mi f32 = 32 MiB per buffer, far beyond typical LLC sizes, so
    // the copy streams through memory. Best of three rounds.
    const ELEMS: usize = 8 << 20;
    let src = vec![1.0f32; ELEMS];
    let mut dst = vec![0.0f32; ELEMS];
    let bytes_moved = (2 * ELEMS * std::mem::size_of::<f32>()) as f64;
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        dst.copy_from_slice(&src);
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(&dst);
        best = best.min(dt.max(1e-9));
    }
    bytes_moved / best / 1e9
}

/// One op with its roofline-derived metrics, ready for the table.
#[derive(Debug, Clone)]
pub struct OpRow {
    /// The aggregate's totals for the op.
    pub stat: Row,
    /// Fraction of total self time across all ops (0..=1).
    pub share: f64,
    /// Achieved GFLOP/s over self time.
    pub gflops: f64,
    /// Arithmetic intensity in FLOP/byte (0 when no bytes recorded).
    pub ai: f64,
    /// Roofline verdict: `compute-bound` / `bandwidth-bound` /
    /// `data-move`.
    pub verdict: &'static str,
}

/// Derives roofline metrics for every op row, preserving the
/// aggregate's self-time-descending order.
pub fn analyze(rows: &[Row], roof: &Roofline) -> Vec<OpRow> {
    let ops = || rows.iter().filter(|s| s.kind == Kind::Op);
    let total_self: u64 = ops().map(|s| s.self_ns).sum();
    ops()
        .map(|s| {
            let secs = s.self_ns as f64 / 1e9;
            let (flops, bytes) = (s.cost.flops, s.cost.bytes_read + s.cost.bytes_written);
            OpRow {
                share: if total_self == 0 {
                    0.0
                } else {
                    s.self_ns as f64 / total_self as f64
                },
                gflops: if secs > 0.0 { flops as f64 / secs / 1e9 } else { 0.0 },
                ai: if bytes > 0 { flops as f64 / bytes as f64 } else { 0.0 },
                verdict: roof.verdict(flops, bytes),
                stat: s.clone(),
            }
        })
        .collect()
}

/// Renders the `--profile` report: roofline header plus a top-`k` op
/// table sorted by self time.
pub fn render_table(rows: &[OpRow], roof: &Roofline, top_k: usize) -> String {
    // A peak recorded at another SIMD level is not this machine's.
    let source = match roof.recorded_simd {
        Some(recorded) => format!(
            "{} recorded at {recorded}, this run is {}: not its ceiling",
            roof.peak_source,
            tgl_tensor::kernel::simd_label()
        ),
        None => roof.peak_source.to_string(),
    };
    let mut out = format!(
        "op profile — roofline: peak {:.2} GFLOP/s ({}, {}t), mem {:.1} GB/s, ridge {:.3} FLOP/B\n",
        roof.peak_gflops,
        source,
        roof.threads,
        roof.bw_gbs,
        roof.ridge_ai()
    );
    let mut table = TextTable::new(&[
        "op", "phase", "calls", "self_s", "share", "gflops", "ai", "verdict", "shape",
    ]);
    for row in rows.iter().take(top_k) {
        // An achieved rate above the calibrated ceiling means the
        // roofline is stale (e.g. bench artifact from a pre-SIMD
        // build); flag it rather than report >100% of peak silently.
        // A ceiling from another SIMD level is already named as such in
        // the header.
        let over_peak = roof.recorded_simd.is_none() && row.gflops > roof.peak_gflops * 1.01;
        table.row(&[
            row.stat.name.to_string(),
            row.stat.phase.to_string(),
            row.stat.dur.count.to_string(),
            format!("{:.4}", row.stat.self_ns as f64 / 1e9),
            format!("{:.1}%", row.share * 100.0),
            format!("{:.2}{}", row.gflops, if over_peak { " >peak!" } else { "" }),
            format!("{:.3}", row.ai),
            row.verdict.to_string(),
            row.stat.cost.shape.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push('\n');
    if rows.len() > top_k {
        out.push_str(&format!("... {} more ops\n", rows.len() - top_k));
    }
    out
}

/// One phase's attribution coverage: how much of the phase's time is
/// accounted for by op self time inside that phase.
#[derive(Debug, Clone)]
pub struct PhaseCoverage {
    /// Phase name as pushed via `tgl_obs::span`.
    pub phase: String,
    /// Phase-table seconds.
    pub phase_s: f64,
    /// Sum of op self times attributed to this phase, in seconds.
    pub ops_s: f64,
}

impl PhaseCoverage {
    /// Attributed fraction (1.0 = ops fully explain the phase span).
    pub fn fraction(&self) -> f64 {
        if self.phase_s <= 0.0 {
            0.0
        } else {
            self.ops_s / self.phase_s
        }
    }
}

/// Joins op self times against phase-table seconds, one row per
/// phase, ordered by descending phase seconds.
pub fn phase_coverage(stats: &[Row], phases_s: &[(String, f64)]) -> Vec<PhaseCoverage> {
    let mut rows: Vec<PhaseCoverage> = phases_s
        .iter()
        .map(|(name, secs)| PhaseCoverage {
            phase: name.clone(),
            phase_s: *secs,
            // fold, not sum(): an empty f64 sum() yields -0.0, which
            // renders as "-0.0000" for op-free phases.
            ops_s: stats
                .iter()
                .filter(|s| s.kind == Kind::Op && s.phase == name)
                .fold(0.0, |acc, s| acc + s.self_ns as f64 / 1e9),
        })
        .collect();
    rows.sort_by(|a, b| b.phase_s.total_cmp(&a.phase_s));
    rows
}

/// Renders the per-phase coverage lines printed under the op table.
pub fn render_coverage(rows: &[PhaseCoverage]) -> String {
    let mut out = String::from("phase coverage (op self time / phase time):\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<16} {:>9.4}s of {:>9.4}s  ({:>5.1}%)\n",
            r.phase,
            r.ops_s,
            r.phase_s,
            r.fraction() * 100.0
        ));
    }
    out
}

/// Renders the per-stage table: the same seconds as the phase table
/// sees them (`phase`), as the op profile sees them (`ops` self time
/// plus the stage's non-op `rest`), and, when the event log ran, as the
/// critical-path analysis computed them from the log (`critpath`
/// serial). On one thread the three agree; `scripts/ci.sh` checks it.
pub fn render_stages(rows: &[Row], critpath: Option<&Analysis>) -> String {
    let secs = stage_seconds(rows);
    let mut table = TextTable::new(&["stage", "phase_s", "ops_s", "rest_s", "ops+rest_s", "critpath_s"]);
    for (i, stage) in Stage::ALL.into_iter().enumerate() {
        let s = secs[i];
        table.row(&[
            stage.label().to_string(),
            format!("{:.4}", s.phase_s),
            format!("{:.4}", s.op_s),
            format!("{:.4}", s.rest_s),
            format!("{:.4}", s.op_s + s.rest_s),
            critpath.map_or("-".to_string(), |a| format!("{:.4}", a.stages[i].serial_s)),
        ]);
    }
    format!("stage seconds (phase table / op profile / critical path):\n{}\n", table.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgl_obs::profile::Cost;

    fn stat(op: &'static str, phase: &'static str, self_ns: u64, flops: u64, bytes: u64) -> Row {
        let cost = Cost { flops, bytes_read: bytes / 2, bytes_written: bytes - bytes / 2, ..Cost::default() };
        let mut row = Row { name: op, phase, stage: Stage::Forward, kind: Kind::Op, self_ns, span_ns: self_ns, cost, ..Row::default() };
        row.dur.record(self_ns);
        row
    }

    fn roof() -> Roofline {
        Roofline {
            peak_gflops: 4.0,
            bw_gbs: 8.0,
            peak_source: "fallback",
            threads: 1,
            recorded_simd: None,
        }
    }

    #[test]
    fn verdicts_split_at_the_ridge() {
        let r = roof();
        // ridge = 0.5 FLOP/byte
        assert_eq!(r.verdict(0, 1000), "data-move");
        assert_eq!(r.verdict(1000, 1000), "compute-bound");
        assert_eq!(r.verdict(100, 1000), "bandwidth-bound");
        assert_eq!(r.verdict(1, 0), "compute-bound");
    }

    #[test]
    fn analyze_computes_share_and_rates() {
        let stats = vec![
            stat("matmul", "attention", 3_000_000, 6_000_000, 1_000),
            stat("add", "attention", 1_000_000, 1_000, 1_000_000),
        ];
        let rows = analyze(&stats, &roof());
        assert!((rows[0].share - 0.75).abs() < 1e-9);
        assert!((rows[1].share - 0.25).abs() < 1e-9);
        // 6e6 FLOPs over 3 ms = 2 GFLOP/s.
        assert!((rows[0].gflops - 2.0).abs() < 1e-9);
        assert_eq!(rows[0].verdict, "compute-bound");
        assert_eq!(rows[1].verdict, "bandwidth-bound");
    }

    #[test]
    fn gemm_peak_reads_bench_artifact() {
        // The workspace root holds BENCH_micro_gemm.json; tests run
        // from the crate dir, so the upward search must find it.
        let (peak, source) = gemm_peak_gflops_at(1);
        assert_eq!(source, "BENCH_micro_gemm.json");
        assert!(peak > 0.5 && peak < 10_000.0, "implausible peak {peak}");
    }

    #[test]
    fn multi_thread_peak_never_below_single_thread() {
        // Whatever the artifact holds (with or without a multi_thread
        // sweep), the scaled ceiling must not
        // drop below the 1-thread peak: scale is clamped at >= 1.
        let (p1, _) = gemm_peak_gflops_at(1);
        let (p4, src) = gemm_peak_gflops_at(4);
        assert_eq!(src, "BENCH_micro_gemm.json");
        assert!(p4 >= p1, "peak at 4t ({p4}) below 1t ({p1})");
    }

    #[test]
    fn over_peak_rates_are_flagged_in_the_table() {
        let stats = vec![stat("matmul", "attention", 1_000_000, 100_000_000, 1_000)];
        let r = roof(); // peak 4.0; achieved 100 GFLOP/s
        let text = render_table(&analyze(&stats, &r), &r, 5);
        assert!(text.contains(">peak!"), "stale roofline must be flagged:\n{text}");
        let calm = vec![stat("matmul", "attention", 1_000_000, 1_000_000, 1_000)];
        let text = render_table(&analyze(&calm, &r), &r, 5);
        assert!(!text.contains(">peak!"), "1 GFLOP/s under a 4.0 peak must not flag");
        // A peak recorded at another SIMD level is said to be one, once,
        // in the header; the rows above it are not flagged.
        let elsewhere = Roofline { recorded_simd: Some("some-other-simd"), ..r };
        let text = render_table(&analyze(&stats, &elsewhere), &elsewhere, 5);
        assert!(!text.contains(">peak!"), "another machine's ceiling flags nothing:\n{text}");
        let header = text.lines().next().unwrap();
        assert!(header.contains("recorded at some-other-simd") && header.contains(tgl_tensor::kernel::simd_label()), "{header}");
    }

    #[test]
    fn bandwidth_env_override_wins() {
        // The probe itself is covered implicitly; the override keeps
        // this test instant and deterministic.
        std::env::set_var("TGL_MEM_BW_GBS", "12.5");
        let bw = memory_bandwidth_gbs();
        std::env::remove_var("TGL_MEM_BW_GBS");
        assert!((bw - 12.5).abs() < 1e-9);
    }

    #[test]
    fn table_names_top_ops_and_roofline() {
        let stats = vec![
            stat("matmul", "attention", 3_000_000, 6_000_000, 1_000),
            stat("add", "(no-phase)", 1_000_000, 1_000, 1_000_000),
        ];
        let r = roof();
        let text = render_table(&analyze(&stats, &r), &r, 1);
        assert!(text.contains("matmul"));
        assert!(text.contains("ridge"));
        assert!(text.contains("1 more ops"));
        assert!(!text.contains("\nadd"), "beyond top-k must be elided");
    }

    #[test]
    fn stage_table_puts_the_views_side_by_side() {
        let phase = Row { kind: Kind::Phase, self_ns: 100_000_000, span_ns: 1_000_000_000, ..stat("attention", "(no-phase)", 0, 0, 0) };
        let rows = vec![stat("linear", "attention", 900_000_000, 1, 1), phase];
        let text = render_stages(&rows, None);
        let fwd = text.lines().find(|l| l.starts_with("forward")).expect("forward row");
        let cols: Vec<&str> = fwd.split_whitespace().collect();
        assert_eq!(cols, ["forward", "1.0000", "0.9000", "0.1000", "1.0000", "-"]);
    }

    #[test]
    fn coverage_joins_ops_to_phases() {
        let stats = vec![
            stat("matmul", "attention", 800_000_000, 1, 1),
            stat("add", "attention", 100_000_000, 1, 1),
            stat("cat", "sample", 50_000_000, 0, 1),
        ];
        let phases = vec![("attention".to_string(), 1.0), ("sample".to_string(), 0.1)];
        let rows = phase_coverage(&stats, &phases);
        assert_eq!(rows[0].phase, "attention");
        assert!((rows[0].ops_s - 0.9).abs() < 1e-9);
        assert!((rows[0].fraction() - 0.9).abs() < 1e-9);
        assert!((rows[1].ops_s - 0.05).abs() < 1e-9);
        let text = render_coverage(&rows);
        assert!(text.contains("attention") && text.contains("90.0%"));
    }
}
