//! Always-on flight recorder: a fixed-size, lock-free, per-thread ring
//! buffer of the most recent spans and health events.
//!
//! Post-mortems of a panic or a `--health fail` trip normally carry
//! nothing about the last moments of execution — the tracer is off by
//! default (it grows without bound) and the profiler only aggregates.
//! The flight recorder fills that gap: every span end and health event
//! is written into a small per-thread ring (256 slots of five `u64`
//! words, allocated once and leaked), cheap enough to stay on all the
//! time within the repo's 2% disabled-overhead budget (see the
//! `obs_overhead` bench). [`to_json`] renders the merged rings as a
//! `tgl-flight/v1` artifact; [`dump_to_dir`] writes `flight-<ts>.json`.
//!
//! On by default; `TGL_FLIGHT=off` (or `0`) disables it, as does
//! [`enable`]`(false)`. Slot writes publish their metadata word last
//! with `Release` ordering and readers load it first with `Acquire`,
//! but a dump taken while other threads are mid-write may still observe
//! a torn slot (fields from two generations). That is acceptable for a
//! crash artifact: the dump is best-effort diagnostics, never an input
//! to computation, and a torn slot at worst misreports one event's
//! name or timing.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Slots per thread ring. 256 events cover several training steps of
/// span traffic — enough context for a post-mortem without measurable
/// memory cost (256 * 40 B per thread).
pub const CAPACITY: usize = 256;

const KIND_NONE: u64 = 0;
const KIND_SPAN: u64 = 1;
const KIND_HEALTH: u64 = 2;

/// Whether the flight recorder is on. The first span-state read
/// consults `TGL_FLIGHT`; after that it is a single relaxed load.
#[inline]
pub fn enabled() -> bool {
    crate::span::is(crate::span::FLIGHT)
}

/// Force the recorder on or off, overriding `TGL_FLIGHT`.
pub fn enable(on: bool) {
    crate::span::set(crate::span::FLIGHT, on);
}

struct Slot {
    /// Event kind; written last (Release) / read first (Acquire).
    meta: AtomicU64,
    /// Interned name id (span) or source id (health).
    name: AtomicU64,
    /// Event time: offset from the trace epoch, nanoseconds.
    t_ns: AtomicU64,
    /// Span duration in ns, or the health event's sink sequence number.
    dur_ns: AtomicU64,
    /// Spare word: health level for health events, 0 for spans.
    extra: AtomicU64,
}

struct Ring {
    tid: u32,
    /// Total events ever written to this ring; slot = head % CAPACITY.
    head: AtomicU64,
    slots: [Slot; CAPACITY],
}

impl Ring {
    fn write(&self, kind: u64, name: u64, t_ns: u64, dur_ns: u64, extra: u64) {
        let n = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(n as usize) % CAPACITY];
        slot.name.store(name, Ordering::Relaxed);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.extra.store(extra, Ordering::Relaxed);
        slot.meta.store(kind, Ordering::Release);
        self.head.store(n + 1, Ordering::Release);
    }
}

/// All rings ever created; rings are leaked so dumps from the panic
/// hook can read them after their owning thread has unwound.
static REGISTRY: Mutex<Vec<&'static Ring>> = Mutex::new(Vec::new());

thread_local! {
    static RING: &'static Ring = {
        #[allow(clippy::declare_interior_mutable_const)]
        const SLOT: Slot = Slot {
            meta: AtomicU64::new(KIND_NONE),
            name: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            extra: AtomicU64::new(0),
        };
        let ring: &'static Ring = Box::leak(Box::new(Ring {
            tid: crate::thread_id(),
            head: AtomicU64::new(0),
            slots: [SLOT; CAPACITY],
        }));
        REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).push(ring);
        ring
    };
}

/// Name interning: span names are `&'static str`, so a pointer-keyed
/// thread-local cache makes the steady-state lookup a single HashMap
/// probe with no string hashing.
struct Names {
    by_name: HashMap<&'static str, u64>,
    list: Vec<&'static str>,
}

static NAMES: OnceLock<Mutex<Names>> = OnceLock::new();

fn names() -> &'static Mutex<Names> {
    NAMES.get_or_init(|| {
        Mutex::new(Names {
            by_name: HashMap::new(),
            list: Vec::new(),
        })
    })
}

thread_local! {
    static NAME_CACHE: std::cell::RefCell<HashMap<usize, u64>> =
        std::cell::RefCell::new(HashMap::new());
}

fn name_id(name: &'static str) -> u64 {
    let key = name.as_ptr() as usize;
    NAME_CACHE.with(|c| {
        if let Some(&id) = c.borrow().get(&key) {
            return id;
        }
        let mut tbl = names().lock().unwrap_or_else(|e| e.into_inner());
        let id = match tbl.by_name.get(name) {
            Some(&id) => id,
            None => {
                tbl.list.push(name);
                let id = tbl.list.len() as u64; // ids start at 1
                tbl.by_name.insert(name, id);
                id
            }
        };
        drop(tbl);
        c.borrow_mut().insert(key, id);
        id
    })
}

fn name_for(id: u64) -> &'static str {
    if id == 0 {
        return "?";
    }
    let tbl = names().lock().unwrap_or_else(|e| e.into_inner());
    tbl.list.get(id as usize - 1).copied().unwrap_or("?")
}

/// Records one completed span (start offset from the trace epoch and
/// duration, nanoseconds) into the calling thread's ring. Called from
/// the span emit while the recorder is on.
pub(crate) fn record_span(name: &'static str, start_ns: u64, dur_ns: u64) {
    let id = name_id(name);
    RING.with(|r| r.write(KIND_SPAN, id, start_ns, dur_ns, 0));
}

/// Records a health event (called from `health::record`; checks
/// [`enabled`] itself so the health sink stays recorder-agnostic).
pub fn note_health(level: crate::health::Level, source: &'static str, seq: u64) {
    if !enabled() {
        return;
    }
    let id = name_id(source);
    let t = crate::trace::now_ns();
    RING.with(|r| r.write(KIND_HEALTH, id, t, seq, level as u64));
}

struct Event {
    kind: u64,
    tid: u32,
    name: &'static str,
    t_ns: u64,
    dur_ns: u64,
    extra: u64,
}

fn collect() -> (Vec<Event>, u64, usize) {
    let rings: Vec<&'static Ring> = REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let mut events = Vec::new();
    let mut total = 0u64;
    for ring in &rings {
        let head = ring.head.load(Ordering::Acquire);
        total += head;
        let live = head.min(CAPACITY as u64) as usize;
        for k in 0..live {
            let idx = ((head - live as u64) as usize + k) % CAPACITY;
            let slot = &ring.slots[idx];
            let kind = slot.meta.load(Ordering::Acquire);
            if kind == KIND_NONE {
                continue;
            }
            events.push(Event {
                kind,
                tid: ring.tid,
                name: name_for(slot.name.load(Ordering::Relaxed)),
                t_ns: slot.t_ns.load(Ordering::Relaxed),
                dur_ns: slot.dur_ns.load(Ordering::Relaxed),
                extra: slot.extra.load(Ordering::Relaxed),
            });
        }
    }
    events.sort_by_key(|e| (e.t_ns, e.tid));
    (events, total, rings.len())
}

pub(crate) fn esc(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn level_label(v: u64) -> &'static str {
    match v {
        0 => "info",
        1 => "warn",
        _ => "fail",
    }
}

/// Renders the merged rings plus counter and health context as a
/// `tgl-flight/v1` JSON artifact. `reason` says why the dump was taken
/// (`"panic"`, `"health-fail"`, `"request"`, ...).
pub fn to_json(reason: &str) -> String {
    let (events, total, threads) = collect();
    let unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("{\n  \"schema\": \"tgl-flight/v1\",\n  \"reason\": \"");
    esc(reason, &mut out);
    let _ = write!(
        out,
        "\",\n  \"unix_ms\": {unix_ms},\n  \"threads\": {threads},\n  \"capacity\": {CAPACITY},\n  \"recorded_total\": {total},\n  \"events\": ["
    );
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        match e.kind {
            KIND_SPAN => {
                out.push_str("\"kind\": \"span\", \"name\": \"");
                esc(e.name, &mut out);
                let _ = write!(
                    out,
                    "\", \"tid\": {}, \"t_ns\": {}, \"dur_ns\": {}",
                    e.tid, e.t_ns, e.dur_ns
                );
            }
            _ => {
                out.push_str("\"kind\": \"health\", \"source\": \"");
                esc(e.name, &mut out);
                let _ = write!(
                    out,
                    "\", \"tid\": {}, \"t_ns\": {}, \"level\": \"{}\", \"seq\": {}",
                    e.tid,
                    e.t_ns,
                    level_label(e.extra),
                    e.dur_ns
                );
            }
        }
        out.push('}');
    }
    out.push_str("\n  ],\n  \"counters\": {");
    let mut counters = crate::metrics::snapshot();
    counters.sort_by(|a, b| a.0.cmp(b.0));
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        esc(name, &mut out);
        let _ = write!(out, "\": {value}");
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, (name, value)) in crate::hist::gauge_snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        esc(name, &mut out);
        out.push_str("\": ");
        json_num(*value, &mut out);
    }
    out.push_str("\n  },\n  \"health\": {");
    let worst = crate::health::worst();
    let _ = write!(
        out,
        "\n    \"worst\": \"{}\",\n    \"events\": {},\n    \"dropped\": {}\n  }}\n}}\n",
        worst.map_or("none", |l| l.label()),
        crate::health::events().len(),
        crate::health::dropped()
    );
    out
}

/// Writes `v` as a JSON number, or `null` when non-finite (matching
/// `tgl_data::Json::render` so the artifact always re-parses).
fn json_num(v: f64, out: &mut String) {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 9.0e15 {
            let _ = write!(out, "{}", v as i64);
        } else {
            let _ = write!(out, "{v}");
        }
    } else {
        out.push_str("null");
    }
}

/// Wall-clock ms of the most recent [`dump_to_dir`] (0 = never).
static LAST_DUMP: AtomicU64 = AtomicU64::new(0);

/// True when a flight dump was written within the last `within_ms`
/// milliseconds — lets the harness panic hook skip a duplicate dump
/// right after an explicit health-fail dump.
pub fn recently_dumped(within_ms: u64) -> bool {
    let last = LAST_DUMP.load(Ordering::Relaxed);
    if last == 0 {
        return false;
    }
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    now.saturating_sub(last) <= within_ms
}

/// Writes `flight-<unix_ms>.json` into `dir` and returns its path.
pub fn dump_to_dir(dir: &std::path::Path, reason: &str) -> std::io::Result<std::path::PathBuf> {
    let unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let path = dir.join(format!("flight-{unix_ms}.json"));
    std::fs::write(&path, to_json(reason))?;
    LAST_DUMP.store(unix_ms, Ordering::Relaxed);
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::serial;

    #[test]
    fn spans_land_in_ring_and_render() {
        let _g = serial();
        enable(true);
        {
            let _s = crate::span("flight-test-span");
        }
        let json = to_json("test");
        assert!(json.contains("\"schema\": \"tgl-flight/v1\""));
        assert!(json.contains("\"reason\": \"test\""));
        assert!(json.contains("\"name\": \"flight-test-span\""));
    }

    #[test]
    fn ring_keeps_only_most_recent_events() {
        let _g = serial();
        enable(true);
        for _ in 0..(CAPACITY + 16) {
            let _s = crate::span("flight-test-flood");
        }
        {
            let _s = crate::span("flight-test-last");
        }
        let (events, total, _) = collect();
        // Tests share the process but each test thread gets its own
        // ring, so filter to this test's event names.
        let mine: Vec<_> = events
            .iter()
            .filter(|e| e.name == "flight-test-flood" || e.name == "flight-test-last")
            .collect();
        assert!(mine.len() <= CAPACITY, "ring must cap at CAPACITY events");
        assert!(total > CAPACITY as u64);
        assert_eq!(mine.last().unwrap().name, "flight-test-last");
    }

    #[test]
    fn health_events_are_recorded() {
        let _g = serial();
        enable(true);
        let seq =
            crate::health::record(crate::health::Level::Warn, "flight.test", "synthetic".into());
        let json = to_json("test");
        assert!(json.contains("\"kind\": \"health\""));
        assert!(json.contains("\"source\": \"flight.test\""));
        assert!(json.contains(&format!("\"seq\": {seq}")));
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let _g = serial();
        enable(false);
        {
            let _s = crate::span("flight-test-disabled");
        }
        enable(true);
        let json = to_json("test");
        assert!(!json.contains("flight-test-disabled"));
    }

    #[test]
    fn dump_carries_gauges() {
        let _g = serial();
        enable(true);
        crate::metrics::set_enabled(true);
        crate::hist::gauge("flight.test.level").set(3.5);
        crate::hist::gauge("flight.test.nan").set(f64::NAN);
        let json = to_json("test");
        assert!(json.contains("\"gauges\": {"));
        assert!(json.contains("\"flight.test.level\": 3.5"));
        assert!(json.contains("\"flight.test.nan\": null"));
    }

    #[test]
    fn dump_writes_parseable_file() {
        let _g = serial();
        enable(true);
        {
            let _s = crate::span("flight-test-dump");
        }
        let dir = std::env::temp_dir().join(format!("tgl-flight-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dump_to_dir(&dir, "test").unwrap();
        assert!(recently_dumped(60_000));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"schema\": \"tgl-flight/v1\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
