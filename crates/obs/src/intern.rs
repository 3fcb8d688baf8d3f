//! Small global string interner for dynamically-composed span and op
//! names.
//!
//! The tracer and profiler key everything by `&'static str` so the hot
//! path is a pointer copy, not a `String` clone. Names composed at
//! runtime (e.g. `matmul[128x64,64x256]`) can't be `'static` — unless
//! each distinct spelling is leaked exactly once and reused from then
//! on. The set of distinct op/shape names in a training run is small
//! and bounded (a few hundred), so the total leak is a few KiB, paid
//! once per name rather than per call.

use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

fn table() -> &'static Mutex<HashSet<&'static str>> {
    static TABLE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Returns a `&'static str` equal to `s`, leaking it on first sight
/// and returning the same pointer for every later request.
pub fn intern(s: &str) -> &'static str {
    let mut t = table().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = t.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    t.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_to_one_pointer() {
        let a = intern("intern-test-alpha");
        let b = intern(&format!("intern-test-{}", "alpha"));
        assert_eq!(a, b);
        assert!(std::ptr::eq(a, b), "same spelling must intern to one allocation");
    }

    #[test]
    fn intern_distinguishes_distinct_strings() {
        let a = intern("intern-test-x");
        let b = intern("intern-test-y");
        assert_ne!(a, b);
    }

    #[test]
    fn len_grows_monotonically() {
        // Other tests intern concurrently, so the table's size is not
        // this test's to read; the entries equal to the probe are.
        let probe = "intern-test-growth-probe";
        let (a, b) = (intern(probe), intern(probe));
        assert!(std::ptr::eq(a, b), "re-interning must return the first pointer");
        let t = table().lock().unwrap_or_else(|e| e.into_inner());
        let entries: Vec<&str> = t.iter().copied().filter(|e| *e == probe).collect();
        assert_eq!(entries.len(), 1, "re-interning must not grow the table");
        assert!(std::ptr::eq(entries[0], a));
    }
}
