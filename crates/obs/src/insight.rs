//! Model & data introspection: deterministic per-step statistics about
//! *what the model and the data are doing*, not just where time goes.
//!
//! The rest of the obs stack answers "where did the wall clock go"
//! (profiler, critpath, histograms). This module answers the questions
//! a temporal-GNN operator actually asks when a run misbehaves:
//!
//! * **Model stats, per parameter group** — gradient norm, weight norm,
//!   and update ratio for every *named* group (`layer0.w_q`,
//!   `layer1.ffn`, `predictor`, ...), plus dead-ReLU / zero-activation
//!   fraction per activation scope. A diverging run is attributable to
//!   a specific layer instead of one whole-model scalar.
//! * **Temporal-data stats, per batch** — node-memory staleness at read
//!   time, sampled-neighbor time-delta distribution, negative-sampling
//!   collision rate, dedup effectiveness, and mailbox depth. These are
//!   the drift/staleness signals continuous-time training and serving
//!   SLOs are built on.
//!
//! # Architecture: the per-batch bag
//!
//! Observations are collected into an [`InsightBag`] — a plain value
//! installed thread-locally around one batch's work. The trainer calls
//! [`begin_batch`] where the batch is *built* (the sampler thread under
//! `--pipeline`, inline otherwise), carries the bag across the channel
//! on the batch itself ([`take_batch`] / [`install_batch`]), and calls
//! [`flush_step`] on the compute thread in strict batch order. Because
//! every observation site runs in a serial section and the flush order
//! is the batch order, every emitted series is **bitwise identical at
//! any thread count and pipeline depth**.
//!
//! Per-step values land in a cumulative registry of streaming sketches
//! (count/mean/M2/min/max via Welford + the log2-bucket histogram for
//! p99) rendered as the run report's `insight` section and the
//! `--insight` table.
//!
//! Disabled (the default), every site costs one relaxed atomic load —
//! inside the repo's 2% disabled observability budget (`obs_overhead`
//! bench). Enable with [`enable`], `TGL_INSIGHT=on`, or `--insight` in
//! the CLI/quickstart.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hist::{self, HistSnapshot, NUM_BUCKETS};

// ---------------------------------------------------------------------
// Enable gate

/// 0 = uninitialized (consult `TGL_INSIGHT`), 1 = on, 2 = off.
static STATE: AtomicU32 = AtomicU32::new(0);

#[cold]
fn init_state() -> u32 {
    let on = matches!(
        std::env::var("TGL_INSIGHT").as_deref(),
        Ok("on") | Ok("1") | Ok("ON")
    );
    let s = if on { 1 } else { 2 };
    STATE.store(s, Ordering::Relaxed);
    s
}

/// Whether introspection is collecting. First call reads `TGL_INSIGHT`
/// (default off); after that a single relaxed load.
#[inline]
pub fn enabled() -> bool {
    let s = STATE.load(Ordering::Relaxed);
    if s == 0 {
        return init_state() == 1;
    }
    s == 1
}

/// Force introspection on or off, overriding `TGL_INSIGHT`.
pub fn enable(on: bool) {
    STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Streaming sketch

/// Streaming count/mean/M2/min/max (Welford). Observation order is the
/// serial batch order, so the running mean is deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sketch {
    /// Finite values observed.
    pub count: u64,
    /// Running mean.
    pub mean: f64,
    m2: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl Sketch {
    /// Folds one value in. Non-finite values are ignored (the
    /// registry's `last` carries them, not the summary sketch).
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
    }

    /// Sample standard deviation (0 with fewer than two observations).
    pub fn std(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }
}

/// A sketch plus a log2-bucket histogram so per-batch distributions
/// (staleness, neighbor time-deltas) report a p99 as well as moments.
#[derive(Debug, Clone)]
struct Dist {
    sketch: Sketch,
    buckets: [u64; NUM_BUCKETS],
    bsum: u64,
    bmax: u64,
}

impl Default for Dist {
    fn default() -> Dist {
        Dist {
            sketch: Sketch::default(),
            buckets: [0; NUM_BUCKETS],
            bsum: 0,
            bmax: 0,
        }
    }
}

impl Dist {
    fn observe(&mut self, v: f64) {
        self.sketch.observe(v);
        if v.is_finite() {
            let u = if v > 0.0 { v as u64 } else { 0 };
            self.buckets[hist::bucket_index(u)] += 1;
            self.bsum += u;
            self.bmax = self.bmax.max(u);
        }
    }

    fn p99(&self) -> f64 {
        HistSnapshot {
            count: self.sketch.count,
            sum: self.bsum,
            max: self.bmax,
            buckets: self.buckets,
        }
        .quantile(0.99)
    }
}

// ---------------------------------------------------------------------
// The per-batch bag

/// Per-group model stats harvested after backward on the compute
/// thread.
#[derive(Debug, Clone)]
struct GroupStat {
    group: String,
    grad_norm: f64,
    weight_norm: f64,
    update_ratio: f64,
}

/// One batch's worth of observations. Built wherever the batch is
/// built, carried on the batch, flushed on the compute thread in batch
/// order.
#[derive(Debug, Clone, Default)]
pub struct InsightBag {
    mem_staleness: Dist,
    nbr_dt: Dist,
    mailbox_depth: Dist,
    neg_candidates: u64,
    neg_collisions: u64,
    dedup_rows_in: u64,
    dedup_rows_saved: u64,
    /// Activation scope → (zero count, total count).
    act: BTreeMap<&'static str, (u64, u64)>,
    model: Vec<GroupStat>,
}

thread_local! {
    static BAG: RefCell<Option<Box<InsightBag>>> = const { RefCell::new(None) };
    static ACT_SCOPE: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// True when introspection is enabled *and* a bag is installed on this
/// thread — the cheap guard instrumentation sites check before doing
/// any work to build observation values.
#[inline]
pub fn active() -> bool {
    enabled() && BAG.with(|b| b.borrow().is_some())
}

/// Installs a fresh bag on this thread (call where the batch is built).
pub fn begin_batch() {
    if !enabled() {
        return;
    }
    BAG.with(|b| *b.borrow_mut() = Some(Box::default()));
}

/// Removes this thread's bag so it can travel with the batch across a
/// pipeline channel. `None` while disabled or when no bag is installed.
pub fn take_batch() -> Option<Box<InsightBag>> {
    if !enabled() {
        return None;
    }
    BAG.with(|b| b.borrow_mut().take())
}

/// Installs a bag that traveled with a batch (compute-thread side of a
/// pipeline). Passing `None` clears any stale bag.
pub fn install_batch(bag: Option<Box<InsightBag>>) {
    BAG.with(|b| *b.borrow_mut() = bag);
}

fn with_bag(f: impl FnOnce(&mut InsightBag)) {
    if !enabled() {
        return;
    }
    BAG.with(|b| {
        if let Some(bag) = b.borrow_mut().as_mut() {
            f(bag);
        }
    });
}

// ---------------------------------------------------------------------
// Observation sites

/// Node-memory staleness at read time: `query_time − stored_time` per
/// read row (the GRU delta the memory models already compute; TGN
/// reads one row per distinct node of a batch, so one delta each).
pub fn observe_mem_staleness(deltas: &[f32]) {
    with_bag(|b| {
        for &d in deltas {
            b.mem_staleness.observe(f64::from(d.max(0.0)));
        }
    });
}

/// Sampled-neighbor time deltas (`dst_time − neighbor_time`) for one
/// sampler query, in output order.
pub fn observe_nbr_dt(dts: &[f64]) {
    with_bag(|b| {
        for &d in dts {
            b.nbr_dt.observe(d.max(0.0));
        }
    });
}

/// Occupied-slot counts per node for one mailbox read.
pub fn observe_mailbox_depths(depths: &[u64]) {
    with_bag(|b| {
        for &d in depths {
            b.mailbox_depth.observe(d as f64);
        }
    });
}

/// One batch's negative draw: how many candidates were drawn and how
/// many collided with the batch's positive destinations.
pub fn observe_neg_sampling(candidates: u64, collisions: u64) {
    with_bag(|b| {
        b.neg_candidates += candidates;
        b.neg_collisions += collisions;
    });
}

/// One dedup pass: rows in and rows eliminated (cache effectiveness).
pub fn observe_dedup(rows_in: u64, rows_saved: u64) {
    with_bag(|b| {
        b.dedup_rows_in += rows_in;
        b.dedup_rows_saved += rows_saved;
    });
}

/// Zero-activation counts for the current activation scope (no-op when
/// no scope is open — evaluation passes stay unobserved).
pub fn observe_activation(zeros: u64, total: u64) {
    if total == 0 {
        return;
    }
    let Some(scope) = ACT_SCOPE.with(|s| s.borrow().last().copied()) else {
        return;
    };
    with_bag(|b| {
        let e = b.act.entry(scope).or_insert((0, 0));
        e.0 += zeros;
        e.1 += total;
    });
}

/// Opens a named activation scope (`layer0`, `predictor`, ...) for the
/// duration of the returned guard; ReLU sites attribute their
/// zero-fractions to the innermost open scope.
pub fn act_scope(name: &'static str) -> ActScope {
    if !enabled() {
        return ActScope { pushed: false };
    }
    ACT_SCOPE.with(|s| s.borrow_mut().push(name));
    ActScope { pushed: true }
}

/// RAII guard from [`act_scope`].
#[derive(Debug)]
pub struct ActScope {
    pushed: bool,
}

impl Drop for ActScope {
    fn drop(&mut self) {
        if self.pushed {
            ACT_SCOPE.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Records one parameter group's post-step stats (harvested by the
/// trainer after `backward` + `opt.step`).
pub fn record_group(group: &str, grad_norm: f64, weight_norm: f64, update_ratio: f64) {
    with_bag(|b| {
        b.model.push(GroupStat {
            group: group.to_string(),
            grad_norm,
            weight_norm,
            update_ratio,
        });
    });
}

// ---------------------------------------------------------------------
// Flush: cumulative registry

/// Cumulative per-series aggregate backing the artifact and the table.
#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    sketch: Sketch,
    last: f64,
}

static REG: std::sync::LazyLock<Mutex<BTreeMap<String, Agg>>> =
    std::sync::LazyLock::new(|| Mutex::new(BTreeMap::new()));

/// Steps flushed since process start / last [`reset`].
static STEPS: AtomicU64 = AtomicU64::new(0);

fn emit(reg: &mut BTreeMap<String, Agg>, name: String, v: f64) {
    let a = reg.entry(name).or_default();
    a.sketch.observe(v);
    a.last = v;
}

/// Flushes this thread's bag: folds every per-step `insight.*` value
/// into the cumulative registry (in a fixed order, so the sketches are
/// bitwise reproducible). Called once per training step, on the
/// compute thread, in batch order. A missing bag (insight disabled, or
/// the batch was dropped) is a no-op.
pub fn flush_step() {
    if !enabled() {
        return;
    }
    let Some(bag) = BAG.with(|b| b.borrow_mut().take()) else {
        return;
    };
    STEPS.fetch_add(1, Ordering::Relaxed);
    let mut reg = REG.lock().unwrap_or_else(|e| e.into_inner());
    if bag.mem_staleness.sketch.count > 0 {
        emit(
            &mut reg,
            "insight.data.mem_staleness.mean".into(),
            bag.mem_staleness.sketch.mean,
        );
        emit(
            &mut reg,
            "insight.data.mem_staleness.p99".into(),
            bag.mem_staleness.p99(),
        );
    }
    if bag.nbr_dt.sketch.count > 0 {
        emit(
            &mut reg,
            "insight.data.nbr_dt.mean".into(),
            bag.nbr_dt.sketch.mean,
        );
        emit(&mut reg, "insight.data.nbr_dt.p99".into(), bag.nbr_dt.p99());
    }
    if bag.mailbox_depth.sketch.count > 0 {
        emit(
            &mut reg,
            "insight.data.mailbox_depth.mean".into(),
            bag.mailbox_depth.sketch.mean,
        );
    }
    if bag.neg_candidates > 0 {
        let rate = bag.neg_collisions as f64 / bag.neg_candidates as f64;
        emit(&mut reg, "insight.data.neg_collision_rate".into(), rate);
    }
    if bag.dedup_rows_in > 0 {
        emit(
            &mut reg,
            "insight.data.dedup_saved_frac".into(),
            bag.dedup_rows_saved as f64 / bag.dedup_rows_in as f64,
        );
    }
    for (scope, &(zeros, total)) in &bag.act {
        if total == 0 {
            continue;
        }
        let frac = zeros as f64 / total as f64;
        emit(&mut reg, format!("insight.act.{scope}.dead_frac"), frac);
    }
    for g in &bag.model {
        emit(
            &mut reg,
            format!("insight.layer.{}.grad_norm", g.group),
            g.grad_norm,
        );
        emit(
            &mut reg,
            format!("insight.layer.{}.weight_norm", g.group),
            g.weight_norm,
        );
        emit(
            &mut reg,
            format!("insight.layer.{}.update_ratio", g.group),
            g.update_ratio,
        );
    }
    crate::counter!("insight.steps").incr();
}

// ---------------------------------------------------------------------
// Readout: registry, artifact, table

/// One cumulative per-series summary from the insight registry.
#[derive(Debug, Clone, PartialEq)]
pub struct InsightStat {
    /// Series name (`insight.layer.layer0.w_q.grad_norm`, ...).
    pub name: String,
    /// Finite per-step values folded in.
    pub count: u64,
    /// Mean of the per-step values.
    pub mean: f64,
    /// Sample standard deviation.
    pub std: f64,
    /// Smallest per-step value.
    pub min: f64,
    /// Largest per-step value.
    pub max: f64,
    /// Most recent per-step value (may be non-finite).
    pub last: f64,
}

/// Cumulative summaries for every insight series, sorted by name.
pub fn stats() -> Vec<InsightStat> {
    let reg = REG.lock().unwrap_or_else(|e| e.into_inner());
    reg.iter()
        .map(|(name, a)| InsightStat {
            name: name.clone(),
            count: a.sketch.count,
            mean: a.sketch.mean,
            std: a.sketch.std(),
            min: a.sketch.min,
            max: a.sketch.max,
            last: a.last,
        })
        .collect()
}

/// Steps flushed so far.
pub fn steps() -> u64 {
    STEPS.load(Ordering::Relaxed)
}

/// Clears the cumulative registry, the step counter, and this thread's
/// bag (test hook).
pub fn reset() {
    REG.lock().unwrap_or_else(|e| e.into_inner()).clear();
    STEPS.store(0, Ordering::Relaxed);
    BAG.with(|b| *b.borrow_mut() = None);
}

fn fmt_val(v: f64) -> String {
    if !v.is_finite() {
        format!("{v}")
    } else if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e4 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders the `--insight` console table: the top-`k` parameter groups
/// by most recent gradient norm (non-finite groups first — they are
/// the ones being hunted), then every data-quality stat.
pub fn render_table(k: usize) -> String {
    let all = stats();
    let mut out = String::new();
    // group → (grad_norm, weight_norm, update_ratio), keyed off `last`.
    let mut groups: BTreeMap<&str, [f64; 3]> = BTreeMap::new();
    for s in &all {
        if let Some(rest) = s.name.strip_prefix("insight.layer.") {
            if let Some((group, stat)) = rest.rsplit_once('.') {
                let slot = match stat {
                    "grad_norm" => 0,
                    "weight_norm" => 1,
                    "update_ratio" => 2,
                    _ => continue,
                };
                groups.entry(group).or_insert([0.0; 3])[slot] = s.last;
            }
        }
    }
    if !groups.is_empty() {
        let mut rows: Vec<(&str, [f64; 3])> = groups.into_iter().collect();
        // Non-finite grad norms sort to the top, then descending norm.
        rows.sort_by(|a, b| {
            let key = |v: f64| if v.is_finite() { v } else { f64::INFINITY };
            key(b.1[0])
                .partial_cmp(&key(a.1[0]))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(b.0))
        });
        let _ = writeln!(
            out,
            "model introspection — top {} parameter groups by grad norm ({} steps)",
            k.min(rows.len()),
            steps()
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>12} {:>12} {:>12}",
            "group", "grad_norm", "weight_norm", "update_ratio"
        );
        for (group, [gn, wn, ur]) in rows.into_iter().take(k) {
            let _ = writeln!(
                out,
                "  {:<24} {:>12} {:>12} {:>12}",
                group,
                fmt_val(gn),
                fmt_val(wn),
                fmt_val(ur)
            );
        }
    }
    let data: Vec<&InsightStat> = all
        .iter()
        .filter(|s| s.name.starts_with("insight.data.") || s.name.starts_with("insight.act."))
        .collect();
    if !data.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        let _ = writeln!(out, "data introspection");
        let _ = writeln!(
            out,
            "  {:<34} {:>12} {:>12} {:>12} {:>12}",
            "stat", "last", "mean", "min", "max"
        );
        for s in data {
            let name = s
                .name
                .strip_prefix("insight.data.")
                .or_else(|| s.name.strip_prefix("insight."))
                .unwrap_or(&s.name);
            let _ = writeln!(
                out,
                "  {:<34} {:>12} {:>12} {:>12} {:>12}",
                name,
                fmt_val(s.last),
                fmt_val(s.mean),
                fmt_val(s.min),
                fmt_val(s.max)
            );
        }
    }
    if out.is_empty() {
        out.push_str("insight: no observations recorded (enable with --insight / TGL_INSIGHT=on)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::serial;

    #[test]
    fn sketch_matches_closed_form() {
        let mut s = Sketch::default();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.observe(v);
        }
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std of the classic example: sqrt(32/7).
        assert!((s.std() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        s.observe(f64::NAN);
        assert_eq!(s.count, 8, "non-finite values must not poison the sketch");
    }

    #[test]
    fn disabled_sites_observe_nothing() {
        let _g = serial();
        enable(false);
        reset();
        begin_batch();
        assert!(!active());
        observe_dedup(10, 5);
        flush_step();
        assert_eq!(steps(), 0);
        assert!(stats().is_empty());
    }

    #[test]
    fn bag_travels_and_flushes_in_order() {
        let _g = serial();
        enable(true);
        reset();
        // "Sampler thread": build a bag, observe, detach.
        begin_batch();
        assert!(active());
        observe_dedup(100, 25);
        observe_neg_sampling(50, 5);
        observe_nbr_dt(&[1.0, 3.0, 5.0]);
        let bag = take_batch();
        assert!(bag.is_some());
        assert!(!active());
        // "Compute thread": reattach, add model stats, flush.
        install_batch(bag);
        record_group("layer0.w_q", 2.0, 10.0, 1e-3);
        flush_step();
        assert_eq!(steps(), 1);
        let all = stats();
        let get = |n: &str| all.iter().find(|s| s.name == n).cloned().unwrap();
        assert_eq!(get("insight.data.dedup_saved_frac").last, 0.25);
        assert_eq!(get("insight.data.neg_collision_rate").last, 0.1);
        assert!((get("insight.data.nbr_dt.mean").last - 3.0).abs() < 1e-12);
        assert_eq!(get("insight.layer.layer0.w_q.grad_norm").last, 2.0);
        assert_eq!(get("insight.layer.layer0.w_q.update_ratio").last, 1e-3);
        enable(false);
        reset();
    }

    #[test]
    fn activation_scope_attributes_to_innermost() {
        let _g = serial();
        enable(true);
        reset();
        begin_batch();
        // No scope open: dropped.
        observe_activation(1, 2);
        {
            let _outer = act_scope("layer0");
            observe_activation(3, 10);
            {
                let _inner = act_scope("predictor");
                observe_activation(5, 10);
            }
            observe_activation(2, 10);
        }
        flush_step();
        let all = stats();
        let get = |n: &str| all.iter().find(|s| s.name == n).cloned().unwrap();
        assert_eq!(get("insight.act.layer0.dead_frac").last, 0.25);
        assert_eq!(get("insight.act.predictor.dead_frac").last, 0.5);
        assert!(!all.iter().any(|s| s.name == "insight.act..dead_frac"));
        enable(false);
        reset();
    }

    #[test]
    fn artifact_and_table_render() {
        let _g = serial();
        enable(true);
        reset();
        begin_batch();
        record_group("layer0.w_q", f64::NAN, 1.0, 2.0);
        record_group("predictor", 0.5, 1.0, 1e-4);
        observe_mem_staleness(&[1.0, 2.0, 100.0]);
        flush_step();
        assert_eq!(steps(), 1);
        let all = stats();
        assert!(all.iter().any(|s| s.name == "insight.layer.predictor.grad_norm"));
        assert!(all.iter().any(|s| s.last.is_nan()), "the NaN group stays visible");
        let table = render_table(10);
        // The non-finite group sorts first — it is the one being hunted.
        let nan_pos = table.find("layer0.w_q").unwrap();
        let ok_pos = table.find("predictor").unwrap();
        assert!(nan_pos < ok_pos, "non-finite grad group must sort first:\n{table}");
        assert!(table.contains("mem_staleness.mean"));
        enable(false);
        reset();
    }

    #[test]
    fn dist_p99_tracks_upper_tail() {
        let mut d = Dist::default();
        for _ in 0..99 {
            d.observe(10.0);
        }
        d.observe(1000.0);
        let p99 = d.p99();
        assert!(p99 >= 10.0, "p99 {p99}");
        assert!(d.sketch.max == 1000.0);
    }
}
