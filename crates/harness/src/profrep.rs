//! Roofline-annotated op-profile reporting.
//!
//! Turns the op rows of the span aggregate ([`tgl_obs::profile`]) into
//! the `--profile` top-k table: each op's time share, achieved
//! GFLOP/s, and arithmetic intensity are compared against a machine
//! [`Roofline`] (this process's GEMM and memory bandwidth, both
//! measured in-process at the pool's width) to classify it as
//! compute-bound, bandwidth-bound, or pure data movement. Also renders
//! the per-phase coverage lines (op self time against the phase rows)
//! and the per-stage table that puts the phase view, the op view and
//! the critical path side by side.

use std::sync::OnceLock;
use std::time::Instant;

use tgl_obs::critpath::Analysis;
use tgl_obs::profile::{stage_seconds, Row};
use tgl_obs::{Kind, Stage};
use tgl_tensor::Tensor;

use crate::table::TextTable;

/// The GEMMs (`m × k × n`) the peak probe times: one below the pool's
/// fan-out threshold, which runs inline on the caller, and one that
/// fans out, the two regimes an epoch's `linear` rows fall in.
const PROBE_SHAPES: [(usize, usize, usize); 2] = [(512, 32, 32), (4608, 80, 32)];

/// The two machine ceilings an op can hit: peak compute throughput and
/// peak memory bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// Peak compute throughput (GFLOP/s): the best rate this process's
    /// GEMM reached at `threads`.
    pub peak_gflops: f64,
    /// Sustained memory bandwidth (GB/s).
    pub bw_gbs: f64,
    /// Pool thread count the peak was measured at.
    pub threads: usize,
}

impl Roofline {
    /// Measures the roofline of this process at the pool's current
    /// width: the GEMM peak from [`gemm_peak_gflops`] and the memory
    /// bandwidth from [`memory_bandwidth_gbs`].
    pub fn detect() -> Roofline {
        Roofline {
            peak_gflops: gemm_peak_gflops(),
            bw_gbs: memory_bandwidth_gbs(),
            threads: tgl_runtime::current_threads(),
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

/// The best rate (GFLOP/s, `2·m·k·n` per product) of the crate's GEMM
/// as the models call it (`Tensor::linear`) over [`PROBE_SHAPES`] at
/// the pool's current width: one warm-up round, then the best of five.
/// Collection is off while it runs, so none of its calls lands in the
/// op profile.
fn gemm_peak_gflops() -> f64 {
    let was_collecting = tgl_obs::collecting();
    tgl_obs::collect(false);
    let peak = PROBE_SHAPES
        .iter()
        .map(|&(m, k, n)| {
            let (x, w) = (Tensor::full([m, k], 0.5), Tensor::full([n, k], 0.25));
            // About a millisecond a round at tens of GFLOP/s.
            let calls = ((32 << 20) / (m * k * n)).max(1);
            let round = || {
                let t0 = Instant::now();
                for _ in 0..calls {
                    std::hint::black_box(x.linear(&w, None, false));
                }
                t0.elapsed().as_secs_f64()
            };
            round();
            let best = (0..5).map(|_| round()).fold(f64::MAX, f64::min);
            (2 * m * k * n * calls) as f64 / best.max(1e-9) / 1e9
        })
        .fold(0.0, f64::max);
    tgl_obs::collect(was_collecting);
    peak
}

/// Sustained memory bandwidth in GB/s, probed once per process with a
/// large out-of-cache copy (read + write counted), best of three rounds.
fn memory_bandwidth_gbs() -> f64 {
    static BW: OnceLock<f64> = OnceLock::new();
    *BW.get_or_init(|| {
        // 8 Mi f32 = 32 MiB per buffer, far beyond typical LLC sizes,
        // so the copy streams through memory.
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
    })
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
    let mut out = format!(
        "op profile — roofline: peak {:.2} GFLOP/s (measured, {}t), mem {:.1} GB/s, ridge {:.3} FLOP/B\n",
        roof.peak_gflops,
        roof.threads,
        roof.bw_gbs,
        roof.ridge_ai()
    );
    let mut table = TextTable::new(&[
        "op", "phase", "calls", "self_s", "share", "gflops", "ai", "verdict", "shape",
    ]);
    for row in rows.iter().take(top_k) {
        // An achieved rate above the measured ceiling means the probe
        // missed a faster shape; flag it rather than report >100% of
        // peak silently.
        let over_peak = row.gflops > roof.peak_gflops * 1.01;
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
/// plus the stage's non-op `rest`), and, when the span log kept the
/// whole run, as the critical path runs through them (`critpath`: the
/// stage's share of the path, not its serial seconds, which count every
/// thread's work). Each column adds up to the wall at any thread count,
/// and on one thread the three agree per stage; `scripts/ci.sh` checks
/// it.
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
            critpath.map_or("-".to_string(), |a| format!("{:.4}", a.stages[i].critical_s)),
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
        Roofline { peak_gflops: 4.0, bw_gbs: 8.0, threads: 1 }
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
    fn over_peak_rates_are_flagged_in_the_table() {
        let stats = vec![stat("matmul", "attention", 1_000_000, 100_000_000, 1_000)];
        let r = roof(); // peak 4.0; achieved 100 GFLOP/s
        let text = render_table(&analyze(&stats, &r), &r, 5);
        assert!(text.contains(">peak!"), "stale roofline must be flagged:\n{text}");
        let calm = vec![stat("matmul", "attention", 1_000_000, 1_000_000, 1_000)];
        let text = render_table(&analyze(&calm, &r), &r, 5);
        assert!(!text.contains(">peak!"), "1 GFLOP/s under a 4.0 peak must not flag");
        assert!(text.starts_with("op profile — roofline: peak 4.00 GFLOP/s (measured, 1t)"), "{text}");
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
