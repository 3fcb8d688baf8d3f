//! The one timing store and its views.
//!
//! Every finished span (see [`crate::span`]) lands in one bounded
//! aggregate keyed `(name, phase, stage)`, where `phase` is the
//! innermost enclosing [`crate::span`] name: calls, total / self time,
//! analytic FLOPs and bytes, pool and transfer attribution, and log2
//! duration buckets. The aggregate is bounded by the distinct keys a
//! run produces, never by its length, and is fed only while
//! [`crate::collect`] is on.
//!
//! Everything that answers "where did the time go" reads these rows:
//!
//! * the Fig. 7 phase table — [`crate::phase::table`] (phase rows by name);
//! * the op / roofline profile — the [`Kind::Op`] rows;
//! * per-stage seconds for both — [`stage_seconds`];
//! * the latency histograms in the run report —
//!   [`latency_snapshot`] (`step`, `gemm`, `sampler`, `transfer`,
//!   `pool.wait` and the pipeline queue's two waits as `*.latency_ns`
//!   / `*_ns`).
//!
//! Two invariants carry over from the per-operator profiler this
//! replaces. **Thread-count invariance:** ops are dispatched on the
//! caller thread (only kernels fan out), so op rows' calls, FLOPs and
//! bytes are identical at 1 and N threads; sharding by thread id only
//! avoids lock contention. **Self time never double counts:** a span's
//! self time excludes every nested span except timers, so self times
//! over all rows of a thread sum to that thread's covered wall.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::hist::HistSnapshot;
pub use crate::span::Cost;
use crate::span::{self, Frame, Kind, SpanGuard, Stage};

/// Phase key of a span opened outside any [`crate::span`] scope.
pub const NO_PHASE: &str = "(no-phase)";

type Key = (&'static str, &'static str, Stage);

/// The aggregate. One lock: ops are recorded by the dispatching thread
/// and only while collection is on, so it is all but uncontended.
static ROWS: Mutex<Option<HashMap<Key, Row>>> = Mutex::new(None);

/// One aggregate row: totals for a `(name, phase, stage)` key.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Row {
    /// Span name: an operator (`linear`, `linear.bwd`), a phase, a
    /// region or a timer.
    pub name: &'static str,
    /// Innermost enclosing phase name, or [`NO_PHASE`].
    pub phase: &'static str,
    /// Stage the spans ran in.
    pub stage: Stage,
    /// What the spans were for.
    pub kind: Kind,
    /// Span durations in nanoseconds: `count` calls, `sum` total time
    /// including everything nested, exact `max`, log2 buckets.
    pub dur: HistSnapshot,
    /// Wall nanoseconds excluding nested spans (0 for timers, whose
    /// time belongs to the enclosing span).
    pub self_ns: u64,
    /// Wall nanoseconds excluding nested phases and regions but
    /// including ops: what a phase table that cannot see ops measures.
    pub span_ns: u64,
    /// Summed analytic cost and pool / transfer attribution.
    pub cost: Cost,
}

/// Folds one finished frame into the aggregate (called from the span
/// emit while collection is on).
pub(crate) fn record(f: &Frame, dur_ns: u64) {
    let mut rows = ROWS.lock().unwrap_or_else(|e| e.into_inner());
    let row = rows.get_or_insert_with(HashMap::new).entry((f.name, f.phase, f.stage)).or_insert_with(|| {
        Row { name: f.name, phase: f.phase, stage: f.stage, kind: f.kind, ..Row::default() }
    });
    row.dur.record(dur_ns);
    if f.kind != Kind::Timer {
        row.self_ns += dur_ns.saturating_sub(f.child_ns);
        row.span_ns += dur_ns.saturating_sub(f.nested_ns);
    }
    let (c, add) = (&mut row.cost, &f.cost);
    c.flops += add.flops;
    c.bytes_read += add.bytes_read;
    c.bytes_written += add.bytes_written;
    c.pool_hits += add.pool_hits;
    c.pool_misses += add.pool_misses;
    c.transfer_bytes += add.transfer_bytes;
    if !add.shape.is_empty() {
        c.shape = add.shape;
    }
}

/// Opens an op span named `name`. Report analytic costs with the
/// builder methods, then let the guard drop at the end of the op:
///
/// ```
/// tgl_obs::collect(true);
/// {
///     let _g = tgl_obs::profile::op("matmul")
///         .flops(2 * 2 * 3 * 4)
///         .io(4 * (2 * 3 + 3 * 4), 4 * 2 * 4)
///         .shape(&[&[2, 3], &[3, 4]]);
///     // ... kernel work ...
/// }
/// let rows = tgl_obs::profile::take();
/// tgl_obs::collect(false);
/// assert_eq!(rows.iter().find(|r| r.name == "matmul").unwrap().cost.flops, 48);
/// ```
#[inline]
pub fn op(name: &'static str) -> SpanGuard {
    span::open(name, Kind::Op)
}

/// Opens an op span for the backward pass of `fwd_op`, named
/// `{fwd_op}.bwd`, pre-charged with the analytic costs the forward op
/// declared via [`SpanGuard::backward_cost`].
#[inline]
pub fn op_backward(fwd_op: &'static str, flops: u64, read: u64, write: u64) -> SpanGuard {
    let name = if crate::collecting() { crate::intern::intern(&format!("{fwd_op}.bwd")) } else { "" };
    op(name).flops(flops).io(read, write)
}

/// Reports the name and declared backward cost of the innermost open
/// op, for attaching to an autograd node — and *consumes* the cost so
/// a second node built inside the same op cannot double-charge it.
/// Returns `("op", 0, 0, 0)` when collection is off or no op is open.
pub fn node_info() -> (&'static str, u64, u64, u64) {
    if !crate::collecting() {
        return ("op", 0, 0, 0);
    }
    span::with_innermost_op(|f| {
        let (flops, read, write) = std::mem::take(&mut f.bwd);
        (f.name, flops, read, write)
    })
    .unwrap_or(("op", 0, 0, 0))
}

/// Attributes one pool request (hit or miss) to the innermost open op.
#[inline]
pub fn note_pool(hit: bool) {
    if !crate::collecting() {
        return;
    }
    let noted = span::with_innermost_op(|f| {
        if hit {
            f.cost.pool_hits += 1;
        } else {
            f.cost.pool_misses += 1;
        }
    });
    if noted.is_none() {
        // Outside any op (harness bookkeeping): count the drop so
        // the report shows how much activity escapes attribution.
        crate::counter!("profile.dropped").incr();
    }
}

/// Attributes `bytes` of device-transfer traffic to the innermost open
/// op.
#[inline]
pub fn note_transfer(bytes: u64) {
    if !crate::collecting() {
        return;
    }
    if span::with_innermost_op(|f| f.cost.transfer_bytes += bytes).is_none() {
        crate::counter!("profile.dropped").incr();
    }
}

fn collect(drain: bool) -> Vec<Row> {
    let mut rows = ROWS.lock().unwrap_or_else(|e| e.into_inner());
    let map = if drain { rows.take() } else { rows.clone() };
    drop(rows);
    let mut out: Vec<Row> = map.map(|m| m.into_values().collect()).unwrap_or_default();
    // Heaviest self time first; the key tiebreak keeps output
    // deterministic when times collide (all-zero in tests).
    out.sort_by(|a, b| {
        b.self_ns.cmp(&a.self_ns).then((a.name, a.phase, a.stage).cmp(&(b.name, b.phase, b.stage)))
    });
    out
}

/// Drains the aggregate: every row, heaviest self time first.
pub fn take() -> Vec<Row> {
    collect(true)
}

/// The same view as [`take`] without draining.
pub fn snapshot() -> Vec<Row> {
    collect(false)
}

/// One stage's seconds as two views of the same rows see them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageSeconds {
    /// Phase-table view: phases and regions, nested phases excluded,
    /// ops included.
    pub phase_s: f64,
    /// Op-profile view: op self time.
    pub op_s: f64,
    /// The stage's non-op remainder: phase and region self time.
    pub rest_s: f64,
}

/// Per-stage seconds in [`Stage::ALL`] order. On one thread
/// `phase_s == op_s + rest_s` for every stage whose ops enclose no
/// foreign stage root; the critical path's `serial_s` is the third,
/// independently computed, reading of the same quantity.
pub fn stage_seconds(rows: &[Row]) -> [StageSeconds; 6] {
    let mut out = [StageSeconds::default(); 6];
    for r in rows {
        let s = &mut out[r.stage as usize];
        match r.kind {
            Kind::Phase | Kind::Region => {
                s.phase_s += r.span_ns as f64 * 1e-9;
                s.rest_s += r.self_ns as f64 * 1e-9;
            }
            Kind::Op => s.op_s += r.self_ns as f64 * 1e-9,
            Kind::Timer => {}
        }
    }
    out
}

/// Span name behind each duration-histogram family.
const LATENCY_FAMILIES: [(&str, &str); 7] = [
    ("gemm.latency_ns", "gemm"),
    ("pipeline.queue.recv_wait_ns", "pipeline.queue.recv_wait"),
    ("pipeline.queue.send_wait_ns", "pipeline.queue.send_wait"),
    ("pool.wait_ns", "pool.wait"),
    ("sampler.latency_ns", "sampler"),
    ("step.latency_ns", "step"),
    ("transfer.latency_ns", "transfer"),
];

/// The duration histograms as a view of the aggregate: one snapshot
/// per family (empty until collection has seen the span), sorted by
/// family name.
pub fn latency_snapshot() -> Vec<(&'static str, HistSnapshot)> {
    let rows = ROWS.lock().unwrap_or_else(|e| e.into_inner());
    let family = |name: &str| {
        rows.iter()
            .flat_map(HashMap::values)
            .filter(|r| r.name == name)
            .fold(HistSnapshot::default(), |h, r| h.merge(&r.dur))
    };
    LATENCY_FAMILIES.iter().map(|&(fam, name)| (fam, family(name))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::serial;
    use crate::{collect, span};

    fn find<'a>(rows: &'a [Row], name: &str) -> &'a Row {
        rows.iter().find(|r| r.name == name).unwrap_or_else(|| panic!("no {name} row"))
    }

    #[test]
    fn disabled_op_records_nothing() {
        let _g = serial();
        collect(false);
        take();
        {
            let _op = op("profile-test-disabled").flops(100);
        }
        assert!(!take().iter().any(|s| s.name == "profile-test-disabled"));
    }

    #[test]
    fn op_accumulates_flops_bytes_and_calls() {
        let _g = serial();
        collect(true);
        take();
        for _ in 0..3 {
            let _op = op("profile-test-acc").flops(10).io(64, 32).shape(&[&[2, 8]]);
        }
        let stats = take();
        collect(false);
        let s = find(&stats, "profile-test-acc");
        assert_eq!(s.dur.count, 3);
        assert_eq!(s.cost.flops, 30);
        assert_eq!(s.cost.bytes_read, 192);
        assert_eq!(s.cost.bytes_written, 96);
        assert_eq!(s.cost.shape, "2x8");
        assert_eq!(s.phase, NO_PHASE);
        assert_eq!(s.dur.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn nested_ops_split_self_time() {
        let _g = serial();
        collect(true);
        take();
        {
            let _outer = op("profile-test-outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = op("profile-test-inner");
                let _probe = crate::timer("profile-test-probe");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let stats = take();
        collect(false);
        let outer = find(&stats, "profile-test-outer");
        let inner = find(&stats, "profile-test-inner");
        assert!(outer.dur.sum >= inner.dur.sum);
        // The inner op's exact duration is the outer op's child time.
        assert_eq!(outer.self_ns, outer.dur.sum - inner.dur.sum, "outer self time must exclude the inner op");
        assert!(outer.self_ns + inner.dur.sum <= outer.dur.sum + 1_000_000);
        // A timer is counted and bucketed but leaves the enclosing
        // op's self time alone.
        let probe = find(&stats, "profile-test-probe");
        assert_eq!((probe.dur.count, probe.self_ns), (1, 0));
        assert_eq!(inner.self_ns, inner.dur.sum);
    }

    #[test]
    fn ops_are_keyed_by_enclosing_span_phase() {
        let _g = serial();
        collect(true);
        take();
        {
            let _p = span("profile-test-phase");
            let _r = crate::region("profile-test-region");
            let _op = op("profile-test-scoped");
        }
        let stats = take();
        collect(false);
        assert_eq!(find(&stats, "profile-test-scoped").phase, "profile-test-phase");
        // Phase-table seconds exclude the nested region but not the op.
        let phase = find(&stats, "profile-test-phase");
        let region = find(&stats, "profile-test-region");
        assert_eq!(phase.span_ns, phase.dur.sum - region.dur.sum);
        assert_eq!(region.span_ns, region.dur.sum);
    }

    #[test]
    fn node_info_consumes_backward_cost() {
        let _g = serial();
        collect(true);
        take();
        {
            let _op = op("profile-test-bwd").backward_cost(42, 7, 3);
            assert_eq!(node_info(), ("profile-test-bwd", 42, 7, 3));
            // Consumed: a second node inside the same frame gets zeros.
            assert_eq!(node_info(), ("profile-test-bwd", 0, 0, 0));
        }
        collect(false);
        take();
        assert_eq!(node_info(), ("op", 0, 0, 0));
    }

    #[test]
    fn pool_and_transfer_attribute_to_innermost_frame() {
        let _g = serial();
        collect(true);
        take();
        {
            let _op = op("profile-test-attr");
            // A kernel's own timer does not hide the op from its
            // scratch-buffer requests.
            let _t = crate::timer("profile-test-kernel");
            note_pool(true);
            note_pool(false);
            note_transfer(4096);
        }
        // Outside any frame: dropped from op attribution, but counted
        // so the report shows the escape rate.
        let dropped0 = crate::metrics::get("profile.dropped");
        note_pool(true);
        note_transfer(8);
        let stats = take();
        collect(false);
        assert_eq!(crate::metrics::get("profile.dropped"), dropped0 + 2);
        let s = find(&stats, "profile-test-attr");
        assert_eq!(s.cost.pool_hits, 1);
        assert_eq!(s.cost.pool_misses, 1);
        assert_eq!(s.cost.transfer_bytes, 4096);
    }

    #[test]
    fn backward_guard_uses_interned_bwd_name() {
        let _g = serial();
        collect(true);
        take();
        {
            let _op = op_backward("profile-test-fwd", 12, 8, 4);
        }
        let stats = take();
        collect(false);
        let s = find(&stats, "profile-test-fwd.bwd");
        assert_eq!((s.cost.flops, s.cost.bytes_read, s.cost.bytes_written), (12, 8, 4));
    }

    #[test]
    fn snapshot_does_not_drain() {
        let _g = serial();
        collect(true);
        take();
        {
            let _op = op("profile-test-snap");
        }
        assert!(snapshot().iter().any(|s| s.name == "profile-test-snap"));
        assert!(take().iter().any(|s| s.name == "profile-test-snap"));
        collect(false);
    }

    #[test]
    fn latency_families_read_the_aggregate() {
        let _g = serial();
        collect(true);
        take();
        {
            let _step = crate::region("step");
            let _k = crate::timer("gemm");
        }
        let lat = latency_snapshot();
        collect(false);
        take();
        assert_eq!(lat.len(), LATENCY_FAMILIES.len());
        assert!(lat.windows(2).all(|w| w[0].0 < w[1].0), "sorted by family");
        for family in ["step.latency_ns", "gemm.latency_ns"] {
            let (_, h) = lat.iter().find(|(n, _)| *n == family).unwrap();
            assert_eq!(h.count, 1);
            assert_eq!(h.buckets.iter().sum::<u64>(), 1);
        }
        assert!(lat.iter().find(|(n, _)| *n == "pool.wait_ns").unwrap().1.is_empty());
    }

    #[test]
    fn stage_views_agree_on_one_thread() {
        let _g = serial();
        collect(true);
        take();
        {
            let _fwd = crate::region("profile-test-fwd").stage(Stage::Forward);
            let _p = span("profile-test-attn");
            let _o = op("profile-test-mm");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let rows: Vec<Row> = take().into_iter().filter(|r| r.name.starts_with("profile-test-")).collect();
        collect(false);
        let fwd = stage_seconds(&rows)[Stage::Forward as usize];
        assert!(fwd.op_s > 0.0 && fwd.phase_s > 0.0);
        assert!((fwd.phase_s - (fwd.op_s + fwd.rest_s)).abs() < 1e-9);
    }
}
