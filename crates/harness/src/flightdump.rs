//! Flight-recorder dump policy for training runs.
//!
//! The spans come from each thread's tail in `tgl_obs::log`; a dump is
//! a run report ([`RunReport::flight`]). This module decides *when* one hits
//! disk: on panic (via a std panic hook installed once by
//! [`install_flight_hook`]), on a `--health fail` trip (the health
//! monitor calls [`dump`] just before panicking), or wherever a driver
//! wants one. Dumps land in `TGL_FLIGHT_DIR` (default: the current
//! directory) as `flight-<unix_ms>.json`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::{HealthPolicy, RunReport};

/// Directory flight dumps are written to: `TGL_FLIGHT_DIR` when set,
/// otherwise the process working directory.
pub fn flight_dir() -> PathBuf {
    match std::env::var_os("TGL_FLIGHT_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("."),
    }
}

fn unix_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64)
}

/// Wall-clock ms of the most recent [`dump`] (0 = never).
static LAST_DUMP: AtomicU64 = AtomicU64::new(0);

/// Writes a flight dump now, naming `reason` and, when the caller knows
/// it, the health `policy`. Returns `None` when the write fails — a
/// post-mortem must never turn into a second failure. Logs the dump
/// path to stderr on success.
pub fn dump(reason: &str, policy: Option<HealthPolicy>) -> Option<PathBuf> {
    let now = unix_ms();
    let path = flight_dir().join(format!("flight-{now}.json"));
    match RunReport::flight(reason, policy).save(&path) {
        Ok(()) => {
            LAST_DUMP.store(now, Ordering::Relaxed);
            eprintln!("flight recorder: dumped {} ({reason})", path.display());
            Some(path)
        }
        Err(err) => {
            eprintln!("flight recorder: dump failed: {err}");
            None
        }
    }
}

/// Installs a std panic hook (once per process) that writes a flight
/// dump before delegating to the previous hook, so any panic — a
/// kernel bug, an assert, a health trip — leaves the last moments of
/// execution on disk. Skips the dump when one was already written in
/// the last second (the health monitor dumps explicitly before its
/// policy panic).
pub fn install_flight_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if unix_ms().saturating_sub(LAST_DUMP.load(Ordering::Relaxed)) > 1_000 {
                dump("panic", None);
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tgl_data::Json;

    /// Points `TGL_FLIGHT_DIR` at a directory of the test's own and
    /// removes both when dropped (a policy panic drops it on its way
    /// out), so a test leaves no file behind. The variable is
    /// process-global: holders take turns.
    pub(crate) struct FlightDir {
        pub dir: PathBuf,
        _turn: std::sync::MutexGuard<'static, ()>,
    }

    impl FlightDir {
        pub fn new(test: &str) -> FlightDir {
            static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
            let turn = TURN.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let dir = std::env::temp_dir().join(format!("tgl-flight-{test}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create flight dir");
            std::env::set_var("TGL_FLIGHT_DIR", &dir);
            FlightDir { dir, _turn: turn }
        }
    }

    impl Drop for FlightDir {
        fn drop(&mut self) {
            std::env::remove_var("TGL_FLIGHT_DIR");
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    #[test]
    fn flight_dir_defaults_to_cwd() {
        // Not asserting against the env var itself (other tests may
        // set it); just that the fallback is the current directory.
        if std::env::var_os("TGL_FLIGHT_DIR").is_none() {
            assert_eq!(flight_dir(), PathBuf::from("."));
        }
    }

    #[test]
    fn install_is_idempotent() {
        install_flight_hook();
        install_flight_hook();
    }

    #[test]
    fn dump_carries_gauges() {
        tgl_obs::hist::gauge("flight.test.level").set(3.5);
        tgl_obs::hist::gauge("flight.test.nan").set(f64::NAN);
        let doc = Json::parse(&RunReport::flight("test", None).to_json()).expect("a dump parses");
        let gauge = |name| doc.get("gauges").and_then(|g| g.get(name)).cloned();
        assert_eq!(gauge("flight.test.level"), Some(Json::Num(3.5)));
        assert_eq!(gauge("flight.test.nan"), Some(Json::Null), "a non-finite gauge renders as null");
    }

    #[test]
    fn dump_writes_parseable_file() {
        let dir = FlightDir::new("dump");
        drop(tgl_obs::region("flight-dump-test"));
        let path = dump("test", Some(HealthPolicy::Fail)).expect("the directory exists");
        assert_eq!(path.parent(), Some(dir.dir.as_path()));
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).expect("the dump parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("tgl-run-report/v3"));
        assert_eq!(doc.get("meta").and_then(|m| m.get("reason")).and_then(Json::as_str), Some("test"));
        assert_eq!(doc.get("health").and_then(|h| h.get("policy")).and_then(Json::as_str), Some("fail"));
        let recent = doc.get("recent").and_then(Json::as_arr).expect("a recent section");
        assert!(recent.iter().any(|s| s.get("name").and_then(Json::as_str) == Some("flight-dump-test")));
    }
}
