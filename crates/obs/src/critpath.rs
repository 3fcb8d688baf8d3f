//! Critical-path analysis over tracer spans.
//!
//! The profiler says where CPU time goes; this module says what the
//! *wall clock* was waiting on. It consumes the spans [`crate::log`]
//! keeps in full mode (thread ids + parent hints included), reduces them
//! to non-overlapping per-thread *leaf segments* (the innermost active
//! span owns each instant, so container spans like `step` contribute
//! only their self time), files every segment under the pipeline stage
//! its span recorded (sample / transfer / forward / backward / opt /
//! other — inherited from the stage roots, see [`crate::span`]), and
//! computes:
//!
//! - per-stage **serial** time (sum of segment durations), split into
//!   **exclusive** time (that stage alone was running) and
//!   **overlapped** time (some other thread was also busy);
//! - the **critical path**: a maximal chain of segments ordered by
//!   time, preferring parent-linked and same-thread predecessors, whose
//!   total is the best lower bound on achievable wall time;
//! - pool busy/wait attribution from the runtime counters.
//!
//! `serial / wall` is how many threads were busy on average (1.0 =
//! sequential); the table prints it as that concurrency, not as a
//! speedup, which only a timed one-thread run can show.
//!
//! This is the acceptance instrument for the pipelined trainer
//! (ROADMAP item 2): a pipelining refactor must show transfer/sample
//! segments moving from `exclusive` to `overlapped` and the critical
//! path shrinking toward the forward/backward chain.

use crate::span::Span;
use std::fmt::Write as _;

pub use crate::span::Stage;

/// One leaf segment: a half-open interval `[start_ns, end_ns)` on one
/// thread during which `name` was the innermost active span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Innermost span's name.
    pub name: &'static str,
    /// Stage of that span.
    pub stage: Stage,
    /// Thread the segment ran on.
    pub tid: u32,
    /// Start offset (ns from trace epoch).
    pub start_ns: u64,
    /// End offset (ns from trace epoch).
    pub end_ns: u64,
    /// Owning span's id (0 when the recorder never allocated one).
    pub id: u64,
    /// Owning span's parent hint (0 = none).
    pub parent: u64,
}

impl Segment {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Reduces spans to per-thread leaf segments. For each thread the
/// spans form a forest of nested intervals; a sweep with an explicit
/// stack assigns every instant to the innermost span covering it, so
/// container spans contribute exactly their self time.
pub fn leaf_segments(spans: &[Span]) -> Vec<Segment> {
    let mut by_tid: std::collections::HashMap<u32, Vec<&Span>> = std::collections::HashMap::new();
    for s in spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    let mut segs = Vec::new();
    for (tid, mut list) in by_tid {
        // Outer (longer) spans first at equal start so they sit deeper
        // in the stack than the children they contain.
        list.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        // Stack entries: (span, cursor) — cursor is the next instant of
        // the span not yet assigned to a deeper child.
        let mut stack: Vec<(&Span, u64)> = Vec::new();
        let emit = |span: &Span, from: u64, to: u64, segs: &mut Vec<Segment>| {
            if to > from {
                segs.push(Segment {
                    name: span.name,
                    stage: span.stage,
                    tid,
                    start_ns: from,
                    end_ns: to,
                    id: span.id,
                    parent: span.parent,
                });
            }
        };
        for s in &list {
            // Close spans that end before this one starts.
            while let Some(&(top, cursor)) = stack.last() {
                if top.end_ns() <= s.start_ns {
                    emit(top, cursor, top.end_ns(), &mut segs);
                    stack.pop();
                    if let Some(last) = stack.last_mut() {
                        last.1 = last.1.max(top.end_ns());
                    }
                } else {
                    break;
                }
            }
            // The parent ran alone from its cursor until this child
            // starts; spans recorded out of nesting order (overlapping
            // but not nested) are treated as if nested — close enough
            // for self-time accounting and cannot happen from the
            // guard-based recorder.
            if let Some(last) = stack.last_mut() {
                emit(last.0, last.1, s.start_ns.min(last.0.end_ns()), &mut segs);
                last.1 = last.1.max(s.start_ns.min(last.0.end_ns()));
            }
            if s.dur_ns == 0 {
                continue;
            }
            stack.push((s, s.start_ns));
        }
        while let Some((top, cursor)) = stack.pop() {
            emit(top, cursor, top.end_ns(), &mut segs);
            if let Some(last) = stack.last_mut() {
                last.1 = last.1.max(top.end_ns());
            }
        }
    }
    segs.sort_by_key(|s| (s.start_ns, s.tid));
    segs
}

/// Per-stage timing row in an [`Analysis`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageRow {
    /// The stage.
    pub stage: Stage,
    /// Sum of segment durations (CPU-serial time), seconds.
    pub serial_s: f64,
    /// Portion of busy wall time where only this stage ran, seconds.
    pub exclusive_s: f64,
    /// Portion of this stage's busy time overlapped with other
    /// concurrent work, seconds.
    pub overlapped_s: f64,
    /// Time this stage contributes to the critical path, seconds.
    pub critical_s: f64,
    /// Number of leaf segments.
    pub segments: usize,
}

/// Result of [`analyze`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Analysis {
    /// Traced wall time: `max(end) - min(start)` over all spans, s.
    pub wall_s: f64,
    /// Wall time during which at least one thread was busy, s.
    pub busy_s: f64,
    /// Total serial work: sum of all leaf-segment durations, s.
    pub serial_s: f64,
    /// Critical-path total, s.
    pub critical_s: f64,
    /// Wall time not on the critical path (`wall - critical`), s.
    pub wait_s: f64,
    /// Distinct thread ids observed.
    pub threads: usize,
    /// Number of `step` container spans (training steps traced).
    pub steps: usize,
    /// Spans consumed.
    pub spans: usize,
    /// Leaf segments produced.
    pub segments: usize,
    /// Per-stage rows (all six stages, display order).
    pub stages: Vec<StageRow>,
    /// Runtime pool busy time (sum of `pool.busy_ns.t*` counters), ns.
    pub pool_busy_ns: u64,
    /// Runtime pool wait time (`pool.wait_ns` histogram sum), ns.
    pub pool_wait_ns: u64,
}

fn stage_index(stage: Stage) -> usize {
    stage as usize
}

/// Analyzes a set of logged spans (from [`crate::log::take`] or
/// [`crate::log::snapshot`]). Returns a zeroed analysis when the
/// trace is empty.
pub fn analyze(spans: &[Span]) -> Analysis {
    let ns = 1e-9;
    let mut rows: Vec<StageRow> =
        Stage::ALL.iter().map(|&stage| StageRow { stage, ..StageRow::default() }).collect();
    let pool_busy_ns = pool_busy_total();
    let pool_wait_ns = crate::profile::latency_snapshot()
        .iter()
        .find(|(n, _)| *n == "pool.wait_ns")
        .map_or(0, |(_, s)| s.sum);
    if spans.is_empty() {
        return Analysis { stages: rows, pool_busy_ns, pool_wait_ns, ..Analysis::default() };
    }

    let segs = leaf_segments(spans);
    let wall_start = spans.iter().map(|s| s.start_ns).min().unwrap();
    let wall_end = spans.iter().map(|s| s.end_ns()).max().unwrap();
    let wall_s = (wall_end - wall_start) as f64 * ns;

    let mut serial_s = 0.0;
    for seg in &segs {
        let row = &mut rows[stage_index(seg.stage)];
        row.serial_s += seg.dur_ns() as f64 * ns;
        row.segments += 1;
        serial_s += seg.dur_ns() as f64 * ns;
    }

    // Boundary sweep for exclusive vs overlapped attribution: between
    // consecutive boundaries the set of active segments is constant.
    // `delta` entries: (time, +1/-1, stage). Ends sort before starts at
    // equal time so back-to-back segments don't look overlapped.
    let mut bounds: Vec<(u64, i32, usize)> = Vec::with_capacity(segs.len() * 2);
    for seg in &segs {
        bounds.push((seg.start_ns, 1, stage_index(seg.stage)));
        bounds.push((seg.end_ns, -1, stage_index(seg.stage)));
    }
    bounds.sort_by_key(|&(t, d, _)| (t, d));
    let mut active = [0i64; 6];
    let mut total_active = 0i64;
    let mut busy_s = 0.0;
    let mut prev_t = bounds.first().map_or(0, |b| b.0);
    for (t, delta, si) in bounds {
        if t > prev_t && total_active > 0 {
            let dt = (t - prev_t) as f64 * ns;
            busy_s += dt;
            if total_active == 1 {
                let solo = active.iter().position(|&c| c > 0).unwrap();
                rows[solo].exclusive_s += dt;
            } else {
                for (k, &c) in active.iter().enumerate() {
                    if c > 0 {
                        rows[k].overlapped_s += dt;
                    }
                }
            }
        }
        prev_t = t;
        active[si] += i64::from(delta);
        total_active += i64::from(delta);
    }

    // Critical path: greedy backward walk from the last-ending segment.
    // Predecessor = the segment with the latest end not after our
    // start; ties prefer (a) our span's recorded parent, (b) a segment
    // sharing that parent, (c) same thread. The chain's gaps are wait.
    let mut by_end: Vec<&Segment> = segs.iter().collect();
    by_end.sort_by_key(|s| (s.end_ns, s.start_ns, s.tid));
    let mut critical_s = 0.0;
    if let Some(&last) = by_end.last() {
        let mut cur = last;
        loop {
            rows[stage_index(cur.stage)].critical_s += cur.dur_ns() as f64 * ns;
            critical_s += cur.dur_ns() as f64 * ns;
            // Candidates ending at or before cur.start.
            let cut = by_end.partition_point(|s| s.end_ns <= cur.start_ns);
            if cut == 0 {
                break;
            }
            let best_end = by_end[cut - 1].end_ns;
            let score = |s: &Segment| -> u32 {
                if cur.parent != 0 && s.id == cur.parent {
                    3
                } else if cur.parent != 0 && s.parent == cur.parent {
                    2
                } else if s.tid == cur.tid {
                    1
                } else {
                    0
                }
            };
            let mut best = by_end[cut - 1];
            let mut i = cut - 1;
            loop {
                let cand = by_end[i];
                if cand.end_ns < best_end {
                    break;
                }
                if score(cand) > score(best) {
                    best = cand;
                }
                if i == 0 {
                    break;
                }
                i -= 1;
            }
            cur = best;
        }
    }

    let steps = spans.iter().filter(|s| s.name == "step").count();
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();

    Analysis {
        wall_s,
        busy_s,
        serial_s,
        critical_s,
        wait_s: (wall_s - critical_s).max(0.0),
        threads: tids.len(),
        steps,
        spans: spans.len(),
        segments: segs.len(),
        stages: rows,
        pool_busy_ns,
        pool_wait_ns,
    }
}

fn pool_busy_total() -> u64 {
    crate::metrics::snapshot()
        .iter()
        .filter(|(n, _)| n.starts_with("pool.busy_ns."))
        .map(|&(_, v)| v)
        .sum()
}

/// Renders the human-readable `--critpath` table.
pub fn render_table(a: &Analysis) -> String {
    let mut out = String::new();
    let pct = |x: f64| if a.wall_s > 0.0 { 100.0 * x / a.wall_s } else { 0.0 };
    let _ = writeln!(
        out,
        "critical path: {:.3}s of {:.3}s wall ({:.1}%), wait {:.3}s",
        a.critical_s,
        a.wall_s,
        pct(a.critical_s),
        a.wait_s
    );
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>11} {:>11} {:>10} {:>9}",
        "stage", "serial(s)", "exclusive(s)", "overlap(s)", "critpath(s)", "segments"
    );
    for row in &a.stages {
        let _ = writeln!(
            out,
            "{:<10} {:>10.3} {:>11.3} {:>11.3} {:>10.3} {:>9}",
            row.stage.label(),
            row.serial_s,
            row.exclusive_s,
            row.overlapped_s,
            row.critical_s,
            row.segments
        );
    }
    let concurrency = if a.wall_s > 0.0 { a.serial_s / a.wall_s } else { 0.0 };
    let _ = writeln!(
        out,
        "serial/wall {:.2} over {} thread(s), {} step(s), busy {:.3}s",
        concurrency, a.threads, a.steps, a.busy_s
    );
    if a.pool_busy_ns > 0 || a.pool_wait_ns > 0 {
        let _ = writeln!(
            out,
            "pool: busy {:.3}s, wait {:.3}s",
            a.pool_busy_ns as f64 * 1e-9,
            a.pool_wait_ns as f64 * 1e-9
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Float sums over ns-scale values accumulate 1-ulp error.
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-15
    }

    /// A logged span whose stage is what its stage root would have set.
    fn sp(name: &'static str, tid: u32, start: u64, dur: u64, id: u64, parent: u64) -> Span {
        let stage = match name {
            "sample" => Stage::Sample,
            "feature_load" => Stage::Transfer,
            "attention" => Stage::Forward,
            "backward" => Stage::Backward,
            _ => Stage::Other,
        };
        Span { name, stage, tid, start_ns: start, dur_ns: dur, id, parent, ..Span::default() }
    }

    #[test]
    fn segments_take_their_stage_from_the_record_not_the_name() {
        // A worker's `pool.job` under a backward op is backward time,
        // whatever it is called.
        let job = Span { stage: Stage::Backward, ..sp("pool.job", 1, 0, 50, 2, 1) };
        let a = analyze(&[job]);
        assert!(close(a.stages[stage_index(Stage::Backward)].serial_s, 50e-9));
        assert_eq!(a.stages[stage_index(Stage::Other)].serial_s, 0.0);
    }

    #[test]
    fn fully_serial_chain_has_critical_path_equal_to_wall() {
        // One thread, three back-to-back stages: CP == serial == wall.
        let spans = vec![
            sp("sample", 0, 0, 100, 1, 0),
            sp("attention", 0, 100, 300, 2, 0),
            sp("backward", 0, 400, 200, 3, 0),
        ];
        let a = analyze(&spans);
        assert!(close(a.wall_s, 600e-9));
        assert!(close(a.serial_s, 600e-9));
        assert!(close(a.critical_s, 600e-9));
        assert!(a.wait_s < 1e-15);
        assert!(close(a.serial_s / a.wall_s, 1.0));
        let fwd = &a.stages[stage_index(Stage::Forward)];
        assert!(close(fwd.serial_s, 300e-9));
        assert!(close(fwd.exclusive_s, 300e-9));
        assert_eq!(fwd.overlapped_s, 0.0);
    }

    #[test]
    fn fully_parallel_spans_overlap_completely() {
        // Two threads running the same interval: CP == wall == one
        // span; serial == 2x wall; everything overlapped.
        let spans = vec![
            sp("attention", 0, 0, 500, 1, 0),
            sp("attention", 1, 0, 500, 2, 0),
        ];
        let a = analyze(&spans);
        assert!(close(a.wall_s, 500e-9));
        assert!(close(a.serial_s, 1000e-9));
        assert!(close(a.critical_s, 500e-9));
        assert!(close(a.serial_s / a.wall_s, 2.0));
        let fwd = &a.stages[stage_index(Stage::Forward)];
        assert_eq!(fwd.exclusive_s, 0.0);
        assert!(close(fwd.overlapped_s, 500e-9));
        assert_eq!(a.threads, 2);
    }

    #[test]
    fn mixed_overlap_known_answer() {
        // t0: sample [0,40) then forward [40,100).
        // t1: transfer [0,30) overlapping the sample.
        let spans = vec![
            sp("sample", 0, 0, 40, 1, 0),
            sp("attention", 0, 40, 60, 2, 0),
            sp("feature_load", 1, 0, 30, 3, 0),
        ];
        let a = analyze(&spans);
        assert!(close(a.wall_s, 100e-9));
        assert!(close(a.serial_s, 130e-9));
        assert!(close(a.busy_s, 100e-9));
        // CP: attention(60) <- sample(40) = 100; transfer loses the
        // tiebreak (sample ends later: 40 > 30).
        assert!(close(a.critical_s, 100e-9));
        assert!(a.wait_s < 1e-15);
        let sample = &a.stages[stage_index(Stage::Sample)];
        let transfer = &a.stages[stage_index(Stage::Transfer)];
        let fwd = &a.stages[stage_index(Stage::Forward)];
        assert!(close(sample.exclusive_s, 10e-9)); // [30,40)
        assert!(close(sample.overlapped_s, 30e-9)); // [0,30)
        assert!(close(transfer.overlapped_s, 30e-9));
        assert_eq!(transfer.exclusive_s, 0.0);
        assert!(close(fwd.exclusive_s, 60e-9));
        assert_eq!(transfer.critical_s, 0.0);
        assert!(close(sample.critical_s, 40e-9));
        assert!(close(fwd.critical_s, 60e-9));
    }

    #[test]
    fn container_spans_contribute_only_self_time() {
        // step [0,100) containing sample [10,40) and attention [40,90):
        // step's leaf segments are [0,10) and [90,100) => Other 20ns.
        let spans = vec![
            sp("step", 0, 0, 100, 1, 0),
            sp("sample", 0, 10, 30, 2, 1),
            sp("attention", 0, 40, 50, 3, 1),
        ];
        let a = analyze(&spans);
        assert!(
            close(a.serial_s, 100e-9),
            "self times must sum to wall on one thread"
        );
        let other = &a.stages[stage_index(Stage::Other)];
        assert!(close(other.serial_s, 20e-9));
        assert_eq!(a.steps, 1);
        // CP covers the whole wall: step-tail <- attention <- sample <- step-head.
        assert!(close(a.critical_s, 100e-9));
    }

    #[test]
    fn parent_hint_breaks_predecessor_ties() {
        // Two candidates end at t=50; cur's parent hint picks span 1.
        let spans = vec![
            sp("sample", 0, 0, 50, 1, 0),
            sp("feature_load", 1, 0, 50, 2, 0),
            sp("attention", 2, 50, 50, 3, 1),
        ];
        let a = analyze(&spans);
        let sample = &a.stages[stage_index(Stage::Sample)];
        let transfer = &a.stages[stage_index(Stage::Transfer)];
        assert!(close(sample.critical_s, 50e-9));
        assert_eq!(transfer.critical_s, 0.0);
    }

    #[test]
    fn empty_trace_analyzes_to_zeroes() {
        let a = analyze(&[]);
        assert_eq!(a.wall_s, 0.0);
        assert_eq!(a.spans, 0);
        assert_eq!(a.stages.len(), 6);
    }

    #[test]
    fn json_and_table_render() {
        let spans = vec![
            sp("sample", 0, 0, 40, 1, 0),
            sp("attention", 0, 40, 60, 2, 0),
        ];
        let a = analyze(&spans);
        let table = render_table(&a);
        assert!(table.contains("critical path:"));
        assert!(table.contains("serial/wall 1.00 over 1 thread(s)"));
        for stage in Stage::ALL {
            assert!(table.contains(stage.label()));
        }
    }
}
