//! Machine-readable run reports.
//!
//! A [`RunReporter`] rides along a training run: per epoch it diffs the
//! span aggregate's phase rows, the global counter registry and the
//! histograms (`tgl_obs`), producing one [`RunReport`] JSON document
//! with the Fig. 7 phase breakdown and the Table 6 redundancy counters
//! for every epoch — the structured counterpart to the
//! [`MetricLog`](crate::MetricLog) CSV. The report is the one artifact
//! envelope: the op profile and the critical path are its `profile`
//! and `critpath` sections, not documents of their own.
//!
//! Schema (`"schema": "tgl-run-report/v3"`; v1 lacked `hists`,
//! `histograms`, `gauges`, and `health`):
//!
//! ```json
//! {
//!   "schema": "tgl-run-report/v3",
//!   "meta": {"model": "tgat", "dataset": "wiki", ...},
//!   "epochs": [
//!     {"epoch": 0, "loss": 0.61, "train_s": 1.9, "val_ap": 0.93,
//!      "phases_s": {"sample": 0.41, "attention": 0.62, ...},
//!      "counters": {"cache.hits": 0, "sampler.neighbors": 51200, ...},
//!      "hists": {"step.latency_ns": {"count": 12, "p50": 31e6, ...}}},
//!     ...
//!   ],
//!   "test": {"ap": 0.94, "secs": 0.7},
//!   "counters_total": {"cache.hits": 123, ...},
//!   "histograms": {"step.latency_ns": {"count": 36, "sum": 9.1e8,
//!                  "mean": 2.5e7, "p50": 2.4e7, "p90": 4.0e7,
//!                  "p99": 6.1e7, "max": 66123456}, ...},
//!   "gauges": {"health.grad_norm": 0.82, ...},
//!   "health": {"policy": "warn", "status": "ok", "loss_trend": -0.12,
//!              "dropped": 0, "events": [{"level": "warn",
//!              "source": "trainer.loss", "message": "...", "seq": 3,
//!              "t_ns": 81234567}]},
//!   "phases_total_s": {"sample": 1.21, "attention": 1.88, ...},
//!   "profile": [{"name": "linear", "phase": "attention",
//!                "stage": "forward", "kind": "op", "calls": 96,
//!                "self_ns": 1.2e9, "flops": 8.1e9, ...}, ...],
//!   "critpath": {"wall_s": 2.1, "critical_s": 1.9, "wait_s": 0.2,
//!                "overlap_efficiency": 1.4,
//!                "stages": [{"stage": "sample", "serial_s": 0.4,
//!                            "exclusive_s": 0.1, "overlapped_s": 0.3,
//!                            "critical_s": 0.2, "segments": 64}, ...]},
//!   "recent": [{"name": "step", "kind": "region", "stage": "other",
//!               "tid": 0, "t_ns": 80112233, "dur_ns": 3100000}, ...]
//! }
//! ```
//!
//! A flight dump ([`RunReport::flight`]) is the same document read off
//! the process-wide registries: `meta.reason` says why it was taken
//! (`panic`, `health-fail`, `request`), `recent` holds the flight
//! rings' spans, `epochs` is empty and `test` `null` unless the run got
//! that far, and `profile` / `phases_total_s` / `critpath` are empty.
//! Health events carry `t_ns` on the spans' time base, so a reader
//! orders them among the spans. A report from [`RunReporter`] leaves
//! `recent` empty.
//!
//! `critpath` is `null` unless the event log was on for the run (see
//! `tgl_obs::critpath`).
//!
//! `profile` holds every row of the span aggregate
//! ([`tgl_obs::profile`]) for the run: ops, phases, regions and timers,
//! told apart by `kind`. `phases_total_s` is the phase rows by name —
//! the whole-run Fig. 7 table, read from the same rows.
//!
//! Per-epoch `counters`/`hists` are deltas over that epoch;
//! `counters_total`/`histograms` hold the absolute values at finish.

use std::collections::HashMap;
use std::path::Path;
use std::time::Duration;

use tgl_data::Json;
use tgl_obs::hist::HistSnapshot;
use tgl_obs::profile::{self, Row};
use tgl_obs::Span;
use tglite::obs;

use crate::{EpochStats, HealthPolicy};

/// One epoch's measurements: trainer stats + phase durations + counter
/// deltas.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch index.
    pub epoch: usize,
    /// Mean training loss.
    pub loss: f32,
    /// Training wall/CPU seconds (as reported by the trainer).
    pub train_s: f64,
    /// Validation AP after the epoch.
    pub val_ap: f64,
    /// Per-phase seconds drained from the profiler, sorted by
    /// descending duration.
    pub phases_s: Vec<(String, f64)>,
    /// Counter increments during the epoch, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram sample deltas during the epoch (histograms with no
    /// new samples omitted), sorted by name. `max` is the lifetime
    /// maximum, not the per-epoch one (see [`HistSnapshot::diff`]).
    pub hists: Vec<(String, HistSnapshot)>,
}

impl EpochReport {
    /// An epoch's trainer stats alone, with no phase, counter or
    /// histogram deltas (the epochs of a flight dump).
    pub fn bare(epoch: usize, stats: &EpochStats) -> EpochReport {
        EpochReport {
            epoch,
            loss: stats.loss,
            train_s: stats.train_time_s,
            val_ap: stats.val_ap,
            phases_s: Vec::new(),
            counters: Vec::new(),
            hists: Vec::new(),
        }
    }
}

/// The run report's `health` section.
#[derive(Debug, Clone)]
pub struct HealthSection {
    /// Active health policy label (`off` / `warn` / `fail`).
    pub policy: String,
    /// `"ok"`, or the worst event level seen during the run.
    pub status: String,
    /// Relative mean-loss change, last epoch vs the one before
    /// (negative = improving; 0 with fewer than two epochs).
    pub loss_trend: f64,
    /// Health events recorded during the run, in order.
    pub events: Vec<obs::health::HealthEvent>,
    /// Events that overflowed the bounded sink.
    pub dropped: u64,
}

/// A completed run's structured report.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Free-form run metadata (model, dataset, seed, threads, ...).
    pub meta: Vec<(String, Json)>,
    /// Per-epoch measurements in order.
    pub epochs: Vec<EpochReport>,
    /// Test AP and inference seconds (`None` before test inference).
    pub test: Option<(f64, f64)>,
    /// Absolute counter values at the end of the run, sorted by name.
    pub counters_total: Vec<(String, u64)>,
    /// Absolute histogram state at the end of the run (empty
    /// histograms omitted), sorted by name.
    pub histograms: Vec<(String, HistSnapshot)>,
    /// Gauge values at the end of the run, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Training-health summary.
    pub health: HealthSection,
    /// Whole-run phase seconds (training epochs plus test inference),
    /// sorted by name.
    pub phases_total_s: Vec<(String, f64)>,
    /// Every span-aggregate row of the run, in self-time-descending
    /// order.
    pub profile: Vec<Row>,
    /// Critical-path analysis over the run's event log (`None` unless
    /// the log was on).
    pub critpath: Option<tgl_obs::critpath::Analysis>,
    /// The flight rings' spans, oldest first (a flight dump's; empty
    /// otherwise).
    pub recent: Vec<Span>,
}

/// `(key, number)` pairs as JSON object fields.
fn nums<const N: usize>(pairs: [(&str, f64); N]) -> Vec<(String, Json)> {
    pairs.iter().map(|&(k, v)| (k.to_string(), Json::Num(v))).collect()
}

/// A name-keyed numeric map (`phases_s`, `counters`, `gauges`, ...).
fn num_map<T: Copy>(pairs: &[(String, T)], to_f64: impl Fn(T) -> f64) -> Json {
    Json::Obj(pairs.iter().map(|(n, v)| (n.clone(), Json::Num(to_f64(*v)))).collect())
}

/// The critical-path analysis as the report's `critpath` section.
fn critpath_json(a: &tgl_obs::critpath::Analysis) -> Json {
    let stage = |row: &tgl_obs::critpath::StageRow| {
        let mut fields = vec![("stage".to_string(), Json::Str(row.stage.label().into()))];
        fields.extend(nums([
            ("serial_s", row.serial_s),
            ("exclusive_s", row.exclusive_s),
            ("overlapped_s", row.overlapped_s),
            ("critical_s", row.critical_s),
            ("segments", row.segments as f64),
        ]));
        Json::obj(fields)
    };
    let mut fields = nums([
        ("wall_s", a.wall_s),
        ("busy_s", a.busy_s),
        ("serial_s", a.serial_s),
        ("critical_s", a.critical_s),
        ("wait_s", a.wait_s),
        ("overlap_efficiency", a.overlap_efficiency),
        ("threads", a.threads as f64),
        ("steps", a.steps as f64),
        ("spans", a.spans as f64),
        ("segments", a.segments as f64),
        ("pool_busy_ns", a.pool_busy_ns as f64),
        ("pool_wait_ns", a.pool_wait_ns as f64),
    ]);
    fields.push(("stages".into(), Json::Arr(a.stages.iter().map(stage).collect())));
    Json::obj(fields)
}

/// One aggregate row as an entry of the report's `profile` section.
fn row_json(s: &Row) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::Str(s.name.into())),
        ("phase".into(), Json::Str(s.phase.into())),
        ("stage".into(), Json::Str(s.stage.label().into())),
        ("kind".into(), Json::Str(s.kind.label().into())),
        ("shape".into(), Json::Str(s.cost.shape.into())),
    ];
    fields.extend(nums([
        ("calls", s.dur.count as f64),
        ("self_ns", s.self_ns as f64),
        ("span_ns", s.span_ns as f64),
        ("total_ns", s.dur.sum as f64),
        ("flops", s.cost.flops as f64),
        ("bytes_read", s.cost.bytes_read as f64),
        ("bytes_written", s.cost.bytes_written as f64),
        ("pool_hits", s.cost.pool_hits as f64),
        ("pool_misses", s.cost.pool_misses as f64),
        ("transfer_bytes", s.cost.transfer_bytes as f64),
    ]));
    Json::obj(fields)
}

/// One histogram as report JSON: counts plus interpolated quantiles.
fn hist_json(s: &HistSnapshot) -> Json {
    Json::obj(vec![
        ("count".into(), Json::Num(s.count as f64)),
        ("sum".into(), Json::Num(s.sum as f64)),
        ("mean".into(), Json::Num(s.mean())),
        ("p50".into(), Json::Num(s.quantile(0.5))),
        ("p90".into(), Json::Num(s.quantile(0.9))),
        ("p99".into(), Json::Num(s.quantile(0.99))),
        ("max".into(), Json::Num(s.max as f64)),
    ])
}

fn hists_json(hists: &[(String, HistSnapshot)]) -> Json {
    Json::Obj(hists.iter().map(|(n, s)| (n.clone(), hist_json(s))).collect())
}

fn epoch_json(e: &EpochReport) -> Json {
    let mut fields = nums([
        ("epoch", e.epoch as f64),
        ("loss", e.loss as f64),
        ("train_s", e.train_s),
        ("val_ap", e.val_ap),
    ]);
    fields.push(("phases_s".into(), num_map(&e.phases_s, |s| s)));
    fields.push(("counters".into(), num_map(&e.counters, |v| v as f64)));
    fields.push(("hists".into(), hists_json(&e.hists)));
    Json::obj(fields)
}

fn health_json(h: &HealthSection) -> Json {
    let events = h
        .events
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("level".into(), Json::Str(e.level.label().into())),
                ("source".into(), Json::Str(e.source.into())),
                ("message".into(), Json::Str(e.message.clone())),
                ("seq".into(), Json::Num(e.seq as f64)),
                ("t_ns".into(), Json::Num(e.t_ns as f64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("policy".into(), Json::Str(h.policy.clone())),
        ("status".into(), Json::Str(h.status.clone())),
        ("loss_trend".into(), Json::Num(h.loss_trend)),
        ("dropped".into(), Json::Num(h.dropped as f64)),
        ("events".into(), Json::Arr(events)),
    ])
}

/// One flight-ring span as an entry of the report's `recent` section.
fn span_json(s: &Span) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::Str(s.name.into())),
        ("kind".into(), Json::Str(s.kind.label().into())),
        ("stage".into(), Json::Str(s.stage.label().into())),
    ];
    fields.extend(nums([("tid", s.tid as f64), ("t_ns", s.start_ns as f64), ("dur_ns", s.dur_ns as f64)]));
    Json::obj(fields)
}

/// Renders spans as a Chrome trace (complete `"ph":"X"` events with
/// microsecond timestamps, as the format requires): open it in
/// `chrome://tracing` or <https://ui.perfetto.dev> for the per-thread
/// timeline. An op's event is named `op[shape]`; the category is the
/// span's stage, and spans the event log numbered carry their cost,
/// id and parent as `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let event = |s: &Span| {
        let name = if s.shape.is_empty() { s.name.to_string() } else { format!("{}[{}]", s.name, s.shape) };
        let mut fields = vec![
            ("name".to_string(), Json::Str(name)),
            ("cat".into(), Json::Str(s.stage.label().into())),
            ("ph".into(), Json::Str("X".into())),
        ];
        fields.extend(nums([
            ("ts", s.start_ns as f64 / 1e3),
            ("dur", s.dur_ns as f64 / 1e3),
            ("pid", 1.0),
            ("tid", s.tid as f64),
        ]));
        if s.id != 0 || s.parent != 0 || s.flops != 0 || s.bytes != 0 {
            let mut args = nums([("flops", s.flops as f64), ("bytes", s.bytes as f64)]);
            args.push(("shape".into(), Json::Str(s.shape.into())));
            args.extend(nums([("id", s.id as f64), ("parent", s.parent as f64)]));
            fields.push(("args".into(), Json::obj(args)));
        }
        Json::obj(fields)
    };
    Json::obj(vec![
        ("traceEvents".into(), Json::Arr(spans.iter().map(event).collect())),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
    .render()
}

impl RunReport {
    /// A flight dump: what the process-wide registries hold now, plus
    /// the flight rings' spans, with `meta.reason` set to `reason` and
    /// every health event the process recorded. `policy` names the
    /// health policy when the caller knows it.
    pub fn flight(reason: &str, policy: Option<HealthPolicy>) -> RunReport {
        let policy = policy.map_or("unknown", HealthPolicy::label);
        RunReport {
            meta: vec![("reason".into(), Json::Str(reason.into()))],
            epochs: Vec::new(),
            test: None,
            counters_total: counters_total(),
            histograms: histograms(),
            gauges: gauges(),
            health: HealthSection::new(policy, obs::health::events(), &[]),
            phases_total_s: Vec::new(),
            profile: Vec::new(),
            critpath: None,
            recent: obs::flight::recent(),
        }
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("schema".into(), Json::Str("tgl-run-report/v3".into())),
            ("meta".into(), Json::Obj(self.meta.clone())),
            ("epochs".into(), Json::Arr(self.epochs.iter().map(epoch_json).collect())),
            ("test".into(), self.test.map_or(Json::Null, |(ap, secs)| Json::obj(nums([("ap", ap), ("secs", secs)])))),
            ("counters_total".into(), num_map(&self.counters_total, |v| v as f64)),
            ("histograms".into(), hists_json(&self.histograms)),
            ("gauges".into(), num_map(&self.gauges, |v| v)),
            ("health".into(), health_json(&self.health)),
            ("phases_total_s".into(), num_map(&self.phases_total_s, |v| v)),
            ("profile".into(), Json::Arr(self.profile.iter().map(row_json).collect())),
            ("critpath".into(), self.critpath.as_ref().map_or(Json::Null, critpath_json)),
            ("recent".into(), Json::Arr(self.recent.iter().map(span_json).collect())),
        ])
        .render()
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Collects per-epoch phase and counter snapshots during a run.
///
/// [`RunReporter::start`] turns span collection on and baselines the
/// counter registry; call [`record_epoch`](RunReporter::record_epoch)
/// after each training epoch and [`finish`](RunReporter::finish) after
/// test inference.
#[derive(Debug)]
pub struct RunReporter {
    meta: Vec<(String, Json)>,
    epochs: Vec<EpochReport>,
    last_counters: HashMap<String, u64>,
    last_hists: HashMap<String, HistSnapshot>,
    /// Cumulative nanoseconds per phase at the last epoch boundary.
    last_phases: HashMap<&'static str, Duration>,
    /// Number of health events that existed before the run: only later
    /// events belong to this report.
    health_events0: usize,
    /// The trainer's policy, named in the health section.
    policy: HealthPolicy,
    was_collecting: bool,
}

impl RunReporter {
    /// Starts reporting: turns span collection on (restored by
    /// [`finish`](RunReporter::finish)), drains any stale rows, and
    /// baselines counters, histograms, and health events so epoch
    /// deltas start from here.
    pub fn start() -> RunReporter {
        let was_collecting = obs::collecting();
        obs::collect(true);
        profile::take();
        RunReporter {
            meta: Vec::new(),
            epochs: Vec::new(),
            last_counters: snapshot_map(),
            last_hists: hist_map(),
            last_phases: HashMap::new(),
            health_events0: obs::health::events().len(),
            policy: HealthPolicy::default(),
            was_collecting,
        }
    }

    /// Names the trainer's health policy in the report (default
    /// `warn`, the trainer's own default).
    pub fn with_health(mut self, policy: HealthPolicy) -> RunReporter {
        self.policy = policy;
        self
    }

    /// Attaches a metadata string (model name, dataset, ...).
    pub fn set_meta(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_string(), Json::Str(value.to_string())));
    }

    /// Attaches a numeric metadata value (seed, threads, scale, ...).
    pub fn set_meta_num(&mut self, key: &str, value: f64) {
        self.meta.push((key.to_string(), Json::Num(value)));
    }

    /// Epoch reports recorded so far (most recent last).
    pub fn epochs_so_far(&self) -> &[EpochReport] {
        &self.epochs
    }

    /// Records one finished epoch: diffs phases and counters against
    /// the previous epoch boundary.
    pub fn record_epoch(&mut self, epoch: usize, stats: &EpochStats) {
        let now_phases = obs::phase::table(&profile::snapshot());
        let mut phases_s: Vec<(String, f64)> = now_phases
            .iter()
            .map(|&(n, d)| (n.to_string(), (d - self.last_phases.get(n).copied().unwrap_or_default()).as_secs_f64()))
            .filter(|(_, s)| *s > 0.0)
            .collect();
        phases_s.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        self.last_phases = now_phases.into_iter().collect();
        let now = snapshot_map();
        let mut counters: Vec<(String, u64)> = now
            .iter()
            .map(|(n, v)| {
                let before = self.last_counters.get(n).copied().unwrap_or(0);
                (n.clone(), v - before)
            })
            .collect();
        counters.sort();
        self.last_counters = now;
        let hist_now = hist_map();
        let mut hists: Vec<(String, HistSnapshot)> = hist_now
            .iter()
            .filter_map(|(n, s)| {
                let delta = s.diff(self.last_hists.get(n).unwrap_or(&HistSnapshot::default()));
                (!delta.is_empty()).then(|| (n.clone(), delta))
            })
            .collect();
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        self.last_hists = hist_now;
        self.epochs.push(EpochReport { phases_s, counters, hists, ..EpochReport::bare(epoch, stats) });
    }

    /// Finishes the run: reads everything the registries and the
    /// aggregate hold (without draining; the next
    /// [`start`](RunReporter::start) drains), restores the previous
    /// collection state, and returns the report.
    pub fn finish(self, test_ap: f64, test_s: f64) -> RunReport {
        let events = obs::health::events().get(self.health_events0..).unwrap_or(&[]).to_vec();
        let health = HealthSection::new(self.policy.label(), events, &self.epochs);
        let profile = profile::snapshot();
        let mut phases_total_s: Vec<(String, f64)> = obs::phase::table(&profile)
            .into_iter()
            .map(|(n, d)| (n.to_string(), d.as_secs_f64()))
            .collect();
        phases_total_s.sort_by(|a, b| a.0.cmp(&b.0));
        let mut meta = self.meta;
        meta.sort_by(|a, b| a.0.cmp(&b.0));
        // Analyze a non-draining snapshot of the event log so the
        // caller can still export the Chrome trace afterwards.
        let critpath =
            tgl_obs::trace::enabled().then(|| tgl_obs::critpath::analyze(&tgl_obs::trace::snapshot()));
        obs::collect(self.was_collecting);
        RunReport {
            meta,
            epochs: self.epochs,
            test: Some((test_ap, test_s)),
            counters_total: counters_total(),
            histograms: histograms(),
            gauges: gauges(),
            health,
            phases_total_s,
            profile,
            critpath,
            recent: Vec::new(),
        }
    }
}

impl HealthSection {
    /// The section for `events` under the policy labelled `policy`,
    /// with the loss trend of the last two `epochs`.
    fn new(policy: &str, events: Vec<obs::health::HealthEvent>, epochs: &[EpochReport]) -> HealthSection {
        let status = events.iter().map(|e| e.level).max().map_or("ok", |l| l.label()).to_string();
        let loss_trend = match epochs {
            [.., prev, last] => {
                let (prev, last) = (prev.loss as f64, last.loss as f64);
                (last - prev) / prev.abs().max(1e-12)
            }
            _ => 0.0,
        };
        HealthSection { policy: policy.to_string(), status, loss_trend, events, dropped: obs::health::dropped() }
    }
}

/// Absolute counter values, sorted by name.
fn counters_total() -> Vec<(String, u64)> {
    let mut counters: Vec<(String, u64)> = snapshot_map().into_iter().collect();
    counters.sort();
    counters
}

/// Non-empty histograms, sorted by name.
fn histograms() -> Vec<(String, HistSnapshot)> {
    let mut hists: Vec<(String, HistSnapshot)> = hist_map().into_iter().filter(|(_, s)| !s.is_empty()).collect();
    hists.sort_by(|a, b| a.0.cmp(&b.0));
    hists
}

/// Gauge values, sorted by name.
fn gauges() -> Vec<(String, f64)> {
    obs::hist::gauge_snapshot().into_iter().map(|(n, v)| (n.to_string(), v)).collect()
}

fn snapshot_map() -> HashMap<String, u64> {
    obs::metrics::snapshot()
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect()
}

fn hist_map() -> HashMap<String, HistSnapshot> {
    obs::hist::hist_snapshot()
        .into_iter()
        .map(|(n, s)| (n.to_string(), s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Profiler and counters are process-global; serialize tests that
    /// exercise them.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn stats() -> EpochStats {
        EpochStats {
            loss: 0.5,
            steps: 10,
            skipped: 0,
            train_time_s: 1.25,
            val_ap: 0.9,
        }
    }

    #[test]
    fn reporter_collects_phases_and_counter_deltas() {
        let _g = serial();
        let mut rep = RunReporter::start();
        rep.set_meta("model", "tgat");
        rep.set_meta_num("seed", 42.0);
        {
            let _phase = obs::span("report-test-phase");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        obs::counter!("report.test.events").add(7);
        rep.record_epoch(0, &stats());
        obs::counter!("report.test.events").add(2);
        rep.record_epoch(1, &stats());
        let report = rep.finish(0.91, 0.2);

        assert_eq!(report.epochs.len(), 2);
        let e0 = &report.epochs[0];
        assert!(e0.phases_s.iter().any(|(n, s)| n == "report-test-phase" && *s > 0.0));
        let delta = |e: &EpochReport| {
            e.counters
                .iter()
                .find(|(n, _)| n == "report.test.events")
                .map(|(_, v)| *v)
        };
        assert_eq!(delta(e0), Some(7));
        assert_eq!(delta(&report.epochs[1]), Some(2));
        let total = report
            .counters_total
            .iter()
            .find(|(n, _)| n == "report.test.events")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(total >= 9);
    }

    #[test]
    fn report_json_parses_and_has_schema() {
        let _g = serial();
        let mut rep = RunReporter::start();
        rep.set_meta("dataset", "wiki \"scaled\"");
        {
            let _phase = obs::span("report-test-json");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        rep.record_epoch(0, &stats());
        let report = rep.finish(0.9, 0.1);
        let v = Json::parse(&report.to_json()).expect("report must be valid JSON");
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("tgl-run-report/v3")
        );
        assert!(v.get("histograms").is_some());
        assert!(v.get("health").and_then(|h| h.get("status")).is_some());
        let epochs = v.get("epochs").and_then(Json::as_arr).unwrap();
        assert_eq!(epochs.len(), 1);
        assert!(epochs[0]
            .get("phases_s")
            .and_then(|p| p.get("report-test-json"))
            .is_some());
        assert_eq!(
            v.get("meta").and_then(|m| m.get("dataset")).and_then(Json::as_str),
            Some("wiki \"scaled\"")
        );
        assert!(v.get("test").and_then(|t| t.get("ap")).is_some());
    }

    #[test]
    fn reporter_collects_histogram_deltas_and_quantiles() {
        let _g = serial();
        let mut rep = RunReporter::start();
        obs::hist::histogram("report.test.lat_ns").record_always(1000);
        obs::hist::histogram("report.test.lat_ns").record_always(3000);
        rep.record_epoch(0, &stats());
        obs::hist::histogram("report.test.lat_ns").record_always(5000);
        rep.record_epoch(1, &stats());
        let report = rep.finish(0.9, 0.1);

        let epoch_delta = |e: &EpochReport| {
            e.hists
                .iter()
                .find(|(n, _)| n == "report.test.lat_ns")
                .map(|(_, s)| s.count)
        };
        assert_eq!(epoch_delta(&report.epochs[0]), Some(2));
        assert_eq!(epoch_delta(&report.epochs[1]), Some(1));
        let (_, total) = report
            .histograms
            .iter()
            .find(|(n, _)| n == "report.test.lat_ns")
            .expect("histogram totals present");
        assert!(total.count >= 3);
        // Quantiles appear in the rendered JSON.
        let v = Json::parse(&report.to_json()).unwrap();
        let h = v
            .get("histograms")
            .and_then(|h| h.get("report.test.lat_ns"))
            .expect("histogram in JSON");
        for key in ["count", "sum", "mean", "p50", "p90", "p99", "max"] {
            assert!(h.get(key).and_then(Json::as_num).is_some(), "missing {key}");
        }
    }

    #[test]
    fn health_events_during_run_land_in_report() {
        let _g = serial();
        let mut rep = RunReporter::start();
        obs::health::record(
            obs::health::Level::Warn,
            "report.test",
            "synthetic wobble".into(),
        );
        rep.record_epoch(0, &stats());
        let report = rep.finish(0.9, 0.1);
        assert!(report
            .health
            .events
            .iter()
            .any(|e| e.source == "report.test"));
        assert_ne!(report.health.status, "ok");
    }

    #[test]
    fn loss_trend_tracks_epoch_losses() {
        let _g = serial();
        let mut rep = RunReporter::start();
        let mk = |loss: f32| EpochStats {
            loss,
            steps: 10,
            skipped: 0,
            train_time_s: 1.0,
            val_ap: 0.9,
        };
        rep.record_epoch(0, &mk(2.0));
        rep.record_epoch(1, &mk(1.0));
        let report = rep.finish(0.9, 0.1);
        assert!((report.health.loss_trend + 0.5).abs() < 1e-9);
    }

    fn span(name: &'static str, tid: u32, start_ns: u64, dur_ns: u64) -> Span {
        Span { name, tid, start_ns, dur_ns, ..Span::default() }
    }

    #[test]
    fn chrome_trace_shape() {
        let json = chrome_trace(&[span("alpha", 0, 1_500, 2_000_123), span("beta", 3, 10_000, 500)]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"alpha\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.5"));
        assert!(json.contains("\"dur\":2000.123"));
        assert!(json.contains("\"tid\":3"));
        assert!(!json.contains("\"args\""));
    }

    #[test]
    fn chrome_trace_renders_op_args() {
        let op = Span {
            kind: obs::Kind::Op,
            stage: obs::Stage::Forward,
            id: 9,
            parent: 7,
            flops: 48,
            bytes: 128,
            shape: "2x3,3x4",
            ..span("matmul", 1, 1_000, 2_000)
        };
        let json = chrome_trace(&[op]);
        assert!(json.contains("\"name\":\"matmul[2x3,3x4]\",\"cat\":\"forward\""));
        assert!(json.contains("\"args\":{\"flops\":48,\"bytes\":128,\"shape\":\"2x3,3x4\",\"id\":9,\"parent\":7}"));
    }

    #[test]
    fn finish_restores_profiler_state() {
        let _g = serial();
        obs::collect(false);
        let rep = RunReporter::start().with_health(HealthPolicy::Fail);
        assert!(obs::collecting());
        let report = rep.finish(0.0, 0.0);
        assert!(!obs::collecting());
        assert_eq!(report.health.policy, "fail", "policy is passed by value");
    }
}
