//! The Fig. 7 phase table: a view of the span aggregate.
//!
//! Every [`crate::span`] is a phase; its time lands in the one
//! aggregate ([`crate::profile`]) whichever thread records it. This
//! module only *reads*: [`table`] folds the phase rows by name, and
//! [`take`] drains the aggregate and returns that table.

use std::collections::HashMap;
use std::time::Duration;

use crate::profile::{self, Row};
use crate::Kind;

/// Total time of every phase by name, longest first (ties by name).
pub fn table(rows: &[Row]) -> Vec<(&'static str, Duration)> {
    let mut by_name: HashMap<&'static str, u64> = HashMap::new();
    for r in rows.iter().filter(|r| r.kind == Kind::Phase) {
        *by_name.entry(r.name).or_default() += r.dur.sum;
    }
    let mut v: Vec<_> = by_name.into_iter().map(|(n, ns)| (n, Duration::from_nanos(ns))).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    v
}

/// Drains the aggregate and returns its phase table.
pub fn take() -> Vec<(&'static str, Duration)> {
    table(&profile::take())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::serial;
    use crate::{collect, span};

    #[test]
    fn phases_accumulate_across_threads() {
        let _g = serial();
        collect(true);
        take();
        drop(span("phase-test-main"));
        std::thread::spawn(|| {
            let _s = span("phase-test-worker");
            std::thread::sleep(Duration::from_millis(2));
        })
        .join()
        .unwrap();
        drop(span("phase-test-main"));
        let rows = profile::take();
        collect(false);
        let main = rows.iter().find(|r| r.name == "phase-test-main").unwrap();
        assert_eq!(main.dur.count, 2);
        let report = table(&rows);
        let get = |n: &str| report.iter().find(|(p, _)| *p == n).map(|(_, d)| *d);
        assert_eq!(get("phase-test-main"), Some(Duration::from_nanos(main.dur.sum)));
        assert!(get("phase-test-worker") >= Some(Duration::from_millis(2)));
        // Sorted by descending duration.
        let worker_pos = report.iter().position(|(p, _)| *p == "phase-test-worker");
        let main_pos = report.iter().position(|(p, _)| *p == "phase-test-main");
        assert!(worker_pos < main_pos);
    }

    #[test]
    fn take_drains() {
        let _g = serial();
        collect(true);
        drop(span("phase-test-drain"));
        collect(false);
        assert!(take().iter().any(|(n, _)| *n == "phase-test-drain"));
        assert!(!take().iter().any(|(n, _)| *n == "phase-test-drain"));
    }
}
