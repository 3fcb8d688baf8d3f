//! Flight-recorder dump policy for training runs.
//!
//! The recorder itself lives in `tgl_obs::flight`; this module decides
//! *when* a dump hits disk: on panic (via a std panic hook installed
//! once by [`install_flight_hook`]), on a `--health fail` trip (the
//! health monitor calls [`dump`] just before panicking), or wherever a
//! driver wants one. Dumps land in `TGL_FLIGHT_DIR` (default: the
//! current directory) as `flight-<unix_ms>.json`.

use std::path::PathBuf;
use std::sync::Once;

/// Directory flight dumps are written to: `TGL_FLIGHT_DIR` when set,
/// otherwise the process working directory.
pub fn flight_dir() -> PathBuf {
    match std::env::var_os("TGL_FLIGHT_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("."),
    }
}

/// Writes a flight dump now (no-op returning `None` when the recorder
/// is disabled or the write fails — a post-mortem must never turn into
/// a second failure). Logs the dump path to stderr on success.
pub fn dump(reason: &str) -> Option<PathBuf> {
    if !tgl_obs::flight::enabled() {
        return None;
    }
    match tgl_obs::flight::dump_to_dir(&flight_dir(), reason) {
        Ok(path) => {
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
            if tgl_obs::flight::enabled() && !tgl_obs::flight::recently_dumped(1_000) {
                dump("panic");
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
