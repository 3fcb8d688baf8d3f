//! The one timing primitive: a span guard, one thread-local frame
//! stack, and one [`Span`] record written once.
//!
//! [`crate::span`] (a Fig. 7 phase), [`crate::region`] (a container
//! such as `step`), [`crate::profile::op`] (a tensor operator with an
//! analytic cost) and [`crate::timer`] (a latency probe inside an op)
//! all return the same [`SpanGuard`]. Opening one pushes a frame;
//! dropping it pops the frame and hands the finished span to every sink
//! that is on: the flight ring ([`crate::flight`], on by default), the
//! aggregate behind the phase table, op profile and latency histograms
//! ([`crate::profile`], [`crate::collect`]), and the opt-in event log
//! behind the Chrome trace and the critical path ([`crate::trace`]).
//!
//! **Stage inheritance.** A span's [`Stage`] is its parent's unless the
//! site sets one with [`SpanGuard::stage`]; only the stage roots do
//! (`sample` / `prefetch`, `preload` / `feature_load` / `transfer.*`,
//! `forward`, `backward`, `opt_step`). The parent is the innermost open
//! frame on the thread; [`current`] / [`adopt`] carry it to pool
//! workers and across the pipeline channel.
//!
//! With every sink off a phase or region site costs one relaxed load;
//! ops and timers are live only while collecting, so they cost one
//! relaxed load otherwise and never reach the flight ring.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::{flight, intern, profile, trace};

/// What a span is for; decides which views count it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Kind {
    /// A Fig. 7 phase (`attention`, `sample`, `backward`, ...).
    #[default]
    Phase,
    /// A container (`epoch`, `step`, `forward`): traced, not a phase.
    Region,
    /// A tensor operator with analytic FLOPs / bytes.
    Op,
    /// A latency probe (`gemm`, `pool.wait`, `pool.job`): counted and
    /// bucketed, but its time stays in the enclosing span's self time.
    Timer,
}

impl Kind {
    /// Lowercase label used in the run report.
    pub fn label(self) -> &'static str {
        ["phase", "region", "op", "timer"][self as usize]
    }
}

/// Pipeline stage a span runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Stage {
    /// Temporal neighbor sampling (and the prefetch stage around it).
    Sample,
    /// Feature staging and device transfers.
    Transfer,
    /// Forward compute.
    Forward,
    /// Backward pass.
    Backward,
    /// Optimizer step.
    Opt,
    /// Outside every stage root: step/epoch bookkeeping.
    #[default]
    Other,
}

impl Stage {
    /// All stages in display (and discriminant) order.
    pub const ALL: [Stage; 6] =
        [Stage::Sample, Stage::Transfer, Stage::Forward, Stage::Backward, Stage::Opt, Stage::Other];

    /// Lowercase label used in tables and JSON.
    pub fn label(self) -> &'static str {
        ["sample", "transfer", "forward", "backward", "opt", "other"][self as usize]
    }
}

/// One completed span, as the event log stores it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Span {
    /// Phase / region / operator name.
    pub name: &'static str,
    /// What the span is for.
    pub kind: Kind,
    /// Stage it ran in (set at a stage root or inherited).
    pub stage: Stage,
    /// Dense thread id from [`crate::thread_id`].
    pub tid: u32,
    /// Start offset from the process trace epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Process-unique id (0 = none: allocated only while logging).
    pub id: u64,
    /// Id of the enclosing span, possibly on another thread (0 = none).
    pub parent: u64,
    /// Analytic floating-point operations (ops only).
    pub flops: u64,
    /// Analytic bytes read + written (ops only).
    pub bytes: u64,
    /// Input-shape signature such as `2x3,3x4` (may be empty).
    pub shape: &'static str,
}

impl Span {
    /// End offset (`start_ns + dur_ns`) from the trace epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// What an op declares and attracts while open; summed per aggregate
/// row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Analytic floating-point operations.
    pub flops: u64,
    /// Analytic bytes read.
    pub bytes_read: u64,
    /// Analytic bytes written.
    pub bytes_written: u64,
    /// Pool requests served from the free list inside the op.
    pub pool_hits: u64,
    /// Pool requests that fell through to the allocator.
    pub pool_misses: u64,
    /// Metered device-transfer bytes attributed to the op.
    pub transfer_bytes: u64,
    /// Most recent input-shape signature (empty if never reported).
    pub shape: &'static str,
}

pub(crate) const COLLECT: u32 = 1;
pub(crate) const LOG: u32 = 2;
pub(crate) const FLIGHT: u32 = 4;
const ANY_SINK: u32 = COLLECT | LOG | FLIGHT;

/// Every sink switch in one word, so a disabled site is one load. The
/// flight ring starts on.
static STATE: AtomicU32 = AtomicU32::new(FLIGHT);

#[inline]
fn state() -> u32 {
    STATE.load(Ordering::Relaxed)
}

pub(crate) fn set(bit: u32, on: bool) {
    if on {
        STATE.fetch_or(bit, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!bit, Ordering::Relaxed);
    }
}

pub(crate) fn is(bit: u32) -> bool {
    state() & bit != 0
}

/// Next span id; 0 is reserved for "no span".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One open span on this thread's stack.
#[derive(Debug)]
pub(crate) struct Frame {
    pub name: &'static str,
    pub kind: Kind,
    pub stage: Stage,
    /// Innermost enclosing phase name: the aggregate's second key.
    pub phase: &'static str,
    /// A foreign parent pushed by [`adopt`]; never emitted.
    adopted: bool,
    start: Instant,
    id: u64,
    parent: u64,
    /// Time in directly nested spans (timers excluded).
    pub child_ns: u64,
    /// Time in nested phases and regions, reached through ops too.
    pub nested_ns: u64,
    pub cost: Cost,
    /// Declared cost of this op's backward pass (flops, read, written).
    pub bwd: (u64, u64, u64),
}

impl Frame {
    /// A frame for `name`, started at `start`, under `parent` (its id,
    /// stage and the phase its children are keyed by).
    fn new(name: &'static str, kind: Kind, parent: Option<SpanCtx>, start: Instant) -> Frame {
        let ctx = parent.unwrap_or(SpanCtx { id: 0, stage: Stage::Other, phase: profile::NO_PHASE });
        let logging = state() & LOG != 0;
        Frame {
            name,
            kind,
            stage: ctx.stage,
            phase: ctx.phase,
            adopted: false,
            start,
            id: if logging { NEXT_ID.fetch_add(1, Ordering::Relaxed) } else { 0 },
            parent: ctx.id,
            child_ns: 0,
            nested_ns: 0,
            cost: Cost::default(),
            bwd: (0, 0, 0),
        }
    }

    fn ctx(&self) -> SpanCtx {
        let phase = if self.kind == Kind::Phase { self.name } else { self.phase };
        SpanCtx { id: self.id, stage: self.stage, phase }
    }
}

thread_local! {
    /// The one stack of open spans on this thread, innermost last.
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// What a worker needs to continue the dispatcher's span: its id (the
/// cross-thread parent edge), stage and phase.
#[derive(Debug, Clone, Copy)]
pub struct SpanCtx {
    /// Id of the dispatching span (0 unless logging).
    pub id: u64,
    stage: Stage,
    phase: &'static str,
}

/// The innermost open span on this thread, to hand to [`adopt`] on
/// another thread. `None` when no span is open (every sink off).
pub fn current() -> Option<SpanCtx> {
    STACK.with(|s| s.borrow().last().map(Frame::ctx))
}

/// Makes `ctx` (captured on another thread with [`current`]) the parent
/// of every span opened on this thread while the guard lives.
pub fn adopt(ctx: Option<SpanCtx>) -> SpanGuard {
    if ctx.is_none() || state() & ANY_SINK == 0 {
        return INERT;
    }
    // Never emitted, so its start time is never read.
    let mut frame = Frame::new("", Kind::Region, ctx, Instant::now());
    (frame.adopted, frame.id) = (true, frame.parent);
    push(frame)
}

fn push(frame: Frame) -> SpanGuard {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(frame);
        SpanGuard { depth: s.len() as u32, _thread: std::marker::PhantomData }
    })
}

/// Opens a span of `kind`. Phases and regions are live while any sink
/// is on; ops and timers only while collecting.
#[inline]
pub(crate) fn open(name: &'static str, kind: Kind) -> SpanGuard {
    let live = match kind {
        Kind::Phase | Kind::Region => state() & ANY_SINK != 0,
        Kind::Op | Kind::Timer => state() & COLLECT != 0,
    };
    if !live {
        return INERT;
    }
    push(Frame::new(name, kind, current(), Instant::now()))
}

/// Records an already-measured [`Kind::Timer`] span under the innermost
/// open span (the pool's `pool.job`, timed around its claim loop).
pub fn record_timer(name: &'static str, start: Instant, dur: Duration) {
    if state() & ANY_SINK != 0 {
        emit(&Frame::new(name, Kind::Timer, current(), start), dur.as_nanos() as u64);
    }
}

/// RAII guard returned by every span site; inert when its sinks are
/// off. The builder methods annotate the open frame.
#[derive(Debug)]
#[must_use = "a span ends when its guard drops"]
pub struct SpanGuard {
    /// Stack depth of this guard's frame (0 = inert).
    depth: u32,
    /// The frame lives on the opening thread's stack: not `Send`.
    _thread: std::marker::PhantomData<*const ()>,
}

/// A guard with no frame behind it.
const INERT: SpanGuard = SpanGuard { depth: 0, _thread: std::marker::PhantomData };

impl SpanGuard {
    fn with_frame(self, f: impl FnOnce(&mut Frame)) -> Self {
        if self.depth != 0 {
            STACK.with(|s| {
                if let Some(frame) = s.borrow_mut().get_mut(self.depth as usize - 1) {
                    f(frame);
                }
            });
        }
        self
    }

    /// Makes this span a stage root: it and everything under it run in
    /// `stage` until a nested root says otherwise.
    pub fn stage(self, stage: Stage) -> Self {
        self.with_frame(|f| f.stage = stage)
    }

    /// Adds analytic floating-point operations for this call.
    pub fn flops(self, n: u64) -> Self {
        self.with_frame(|f| f.cost.flops += n)
    }

    /// Adds analytic bytes read / written for this call.
    pub fn io(self, read: u64, written: u64) -> Self {
        self.with_frame(|f| {
            f.cost.bytes_read += read;
            f.cost.bytes_written += written;
        })
    }

    /// Records the input-shape signature (`&[&[2,3], &[3,4]]` becomes
    /// `2x3,3x4`). Formatting and interning only happen on a live guard.
    pub fn shape(self, shapes: &[&[usize]]) -> Self {
        if self.depth == 0 {
            return self;
        }
        let dims = |s: &&[usize]| s.iter().map(usize::to_string).collect::<Vec<_>>().join("x");
        let sig = intern::intern(&shapes.iter().map(dims).collect::<Vec<_>>().join(","));
        self.with_frame(|f| f.cost.shape = sig)
    }

    /// Declares the analytic cost of this op's backward pass, for
    /// [`profile::node_info`] to stash on the autograd node being built.
    pub fn backward_cost(self, flops: u64, read: u64, written: u64) -> Self {
        self.with_frame(|f| f.bwd = (flops, read, written))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.depth == 0 {
            return;
        }
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards drop innermost first; a leaked inner guard's frame
            // is closed here with its parent rather than left to skew
            // every later span on the thread.
            while s.len() >= self.depth as usize {
                let Some(frame) = s.pop() else { break };
                if frame.adopted {
                    continue;
                }
                let dur_ns = end.saturating_duration_since(frame.start).as_nanos() as u64;
                if frame.kind != Kind::Timer {
                    if let Some(parent) = s.last_mut() {
                        parent.child_ns += dur_ns;
                    }
                }
                if matches!(frame.kind, Kind::Phase | Kind::Region) {
                    for anc in s.iter_mut().rev() {
                        anc.nested_ns += dur_ns;
                        if matches!(anc.kind, Kind::Phase | Kind::Region) {
                            break;
                        }
                    }
                }
                emit(&frame, dur_ns);
            }
        });
    }
}

/// The one write: hands a finished frame to every sink that is on.
fn emit(f: &Frame, dur_ns: u64) {
    let st = state();
    if st & COLLECT != 0 {
        profile::record(f, dur_ns);
    }
    if st & (FLIGHT | LOG) == 0 {
        return;
    }
    let span = Span {
        name: f.name,
        kind: f.kind,
        stage: f.stage,
        tid: crate::thread_id(),
        start_ns: trace::offset_ns(f.start),
        dur_ns,
        id: f.id,
        parent: f.parent,
        flops: f.cost.flops,
        bytes: f.cost.bytes_read + f.cost.bytes_written,
        shape: f.cost.shape,
    };
    if st & FLIGHT != 0 {
        flight::record(span.clone());
    }
    if st & LOG != 0 {
        trace::push(span);
    }
}

/// Runs `f` on the innermost open op frame of this thread, if any.
pub(crate) fn with_innermost_op<R>(f: impl FnOnce(&mut Frame) -> R) -> Option<R> {
    STACK.with(|s| s.borrow_mut().iter_mut().rev().find(|fr| fr.kind == Kind::Op).map(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::serial;

    #[test]
    fn stage_is_set_at_roots_and_inherited_below_and_across_threads() {
        let _g = serial();
        trace::enable(true);
        crate::collect(true);
        trace::take();
        {
            let _step = crate::region("span-test-step");
            let _fwd = crate::region("span-test-forward").stage(Stage::Forward);
            let _phase = crate::span("span-test-attention");
            {
                let _root = crate::span("span-test-sample").stage(Stage::Sample);
                let _op = profile::op("span-test-op");
            }
            let ctx = current();
            std::thread::spawn(move || {
                let _a = adopt(ctx);
                record_timer("span-test-job", Instant::now(), Duration::from_nanos(5));
            })
            .join()
            .unwrap();
            // A leaked guard's frame closes with its parent.
            std::mem::forget(crate::region("span-test-leaked"));
        }
        assert!(current().is_none(), "stack must be empty again");
        let spans = trace::take();
        trace::enable(false);
        crate::collect(false);
        let find = |n: &str| spans.iter().find(|s| s.name == n).unwrap_or_else(|| panic!("no {n}"));
        assert_eq!(find("span-test-step").stage, Stage::Other);
        assert_eq!(find("span-test-attention").stage, Stage::Forward);
        assert_eq!(find("span-test-sample").stage, Stage::Sample);
        assert_eq!(find("span-test-op").stage, Stage::Sample, "ops inherit the nested root");
        assert_eq!(find("span-test-leaked").stage, Stage::Forward);
        let (job, phase) = (find("span-test-job"), find("span-test-attention"));
        assert_eq!(job.stage, Stage::Forward, "workers inherit the dispatcher");
        assert_eq!(job.parent, phase.id);
        assert_ne!(job.tid, phase.tid);
    }
}
