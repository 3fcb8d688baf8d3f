//! Lightweight phase profiling for breakdown analyses.
//!
//! The paper's Fig. 7 breaks a TGAT training epoch into major
//! operations (sample, batch prep, time encoding, attention, backward,
//! …). This module is the framework-side name for the
//! [`tgl_obs`](crate::obs) span primitive: a [`scope`] *is* an obs
//! phase span, so its time lands in the one process-global aggregate no
//! matter which thread records it — including `tgl-runtime` pool
//! workers — and the same guard feeds the per-thread span log.
//!
//! Collection is process-global and off (one relaxed load per scope)
//! unless a harness calls [`enable`].
//!
//! # Examples
//!
//! ```
//! use tglite::prof;
//!
//! prof::enable(true);
//! {
//!     let _g = prof::scope("attention");
//!     // ... work ...
//! }
//! let report = prof::take();
//! assert!(report.iter().any(|(name, _)| *name == "attention"));
//! prof::enable(false);
//! ```

pub use tgl_obs::phase::take;
pub use tgl_obs::{collect as enable, collecting as enabled, span as scope};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    /// The aggregate is process-global and cargo runs tests
    /// concurrently, so tests serialize and look for their own unique
    /// phase names rather than asserting the report is empty.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_scope_records_nothing() {
        let _g = serial();
        let was = enabled();
        enable(false);
        {
            let _s = scope("prof-test-disabled");
        }
        enable(true);
        let report = take();
        enable(was);
        assert!(!report.iter().any(|(n, _)| *n == "prof-test-disabled"));
    }

    #[test]
    fn enabled_scope_accumulates() {
        let _g = serial();
        enable(true);
        {
            let _s = scope("prof-test-alpha");
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            let _s = scope("prof-test-alpha");
        }
        let report = take();
        enable(false);
        let alpha = report.iter().find(|(n, _)| *n == "prof-test-alpha").unwrap();
        assert!(alpha.1 >= Duration::from_millis(2));
    }

    #[test]
    fn take_drains() {
        let _g = serial();
        enable(true);
        drop(scope("prof-test-drain"));
        assert!(take().iter().any(|(n, _)| *n == "prof-test-drain"));
        assert!(!take().iter().any(|(n, _)| *n == "prof-test-drain"));
        enable(false);
    }

    #[test]
    fn worker_thread_scopes_reach_caller_report() {
        // Regression test for the PR 1 era bug: phases recorded inside
        // pool closures vanished from the caller's thread-local report.
        let _g = serial();
        enable(true);
        take();
        let before = tgl_runtime::current_threads();
        tgl_runtime::set_threads(2);
        tgl_runtime::parallel_for(4096, 1, |r| {
            let _s = scope("prof-test-worker-phase");
            let mut acc = 0.0f64;
            for i in r {
                acc += (i as f64).sqrt();
            }
            std::hint::black_box(acc);
        });
        tgl_runtime::set_threads(before);
        let report = take();
        enable(false);
        let phase = report
            .iter()
            .find(|(n, _)| *n == "prof-test-worker-phase")
            .expect("phase recorded inside a parallel region must appear in the report");
        assert!(phase.1 > Duration::ZERO);
    }
}
