//! Order statistics and counter arithmetic used by every report.

use std::collections::BTreeMap;

/// Median of `values`: the middle sample, or the mean of the two
/// middle samples for an even count.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample (a timing is never NaN).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The steady cost of one unit of work that was run several times and
/// cut into the same slots each time: per slot, the fastest of its
/// samples; summed over the slots. `units[u][j]` is slot `j` of unit
/// `u`.
///
/// Contention from outside the process only ever adds time, and on a
/// shared host it comes in bursts that slow whole seconds by a third
/// and can cover most of a run, so a median over units lands in either
/// mode. A slot is short next to a burst, so unless every repeat of it
/// was hit, its fastest sample is uncontended.
///
/// # Panics
///
/// Panics when there are no units or they differ in slot count.
pub fn steady_total(units: &[&[f64]]) -> f64 {
    let slots = units.first().expect("steady_total of no units").len();
    assert!(
        units.iter().all(|u| u.len() == slots),
        "units differ in slot count"
    );
    (0..slots)
        .map(|j| units.iter().map(|u| u[j]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// The tail statistic reported beside a median: p95 when at least ten
/// samples lie beyond it, otherwise the maximum. Returns the value and
/// which of the two it is.
pub fn tail(values: &[f64]) -> (f64, &'static str) {
    let v = sorted(values);
    assert!(!v.is_empty(), "tail of no samples");
    let r = rank(v.len(), 0.95);
    if v.len() - 1 - r >= 10 {
        (v[r], "p95")
    } else {
        (v[v.len() - 1], "max")
    }
}

/// Index, among `n` sorted samples, of the nearest-rank percentile `p`
/// (0..=1): the smallest sample with at least `p` of them at or below.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// A counter snapshot keyed by name.
pub type Counts = BTreeMap<String, u64>;

/// Converts `tgl_obs::metrics::snapshot()` output into [`Counts`].
pub fn counts(snapshot: &[(&'static str, u64)]) -> Counts {
    snapshot.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

/// `after - before` per counter. A counter first registered between
/// the two snapshots counts from zero; counters are monotonic, so a
/// smaller `after` (a reset in between) saturates to zero.
pub fn delta(before: &Counts, after: &Counts) -> Counts {
    after
        .iter()
        .map(|(k, &a)| {
            (
                k.clone(),
                a.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn steady_total_takes_each_slot_from_its_fastest_unit() {
        // A burst slows slot 0 of the first unit and slots 1-2 of the second.
        let units: [&[f64]; 3] = [&[3.0, 2.0, 5.0], &[1.0, 4.0, 9.0], &[1.5, 2.5, 5.5]];
        assert_eq!(steady_total(&units), 1.0 + 2.0 + 5.0);
        assert_eq!(steady_total(&units[..1]), 10.0, "one unit is its own wall");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(rank(100, 0.95), 94);
        assert_eq!(rank(100, 0.5), 49);
        assert_eq!(rank(100, 1.0), 99);
        assert_eq!(rank(100, 0.0), 0);
        assert_eq!(rank(2, 0.5), 0);
        assert_eq!(rank(28, 0.95), 26);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_p95() {
        // 200 samples: p95 is the 190th, ten lie beyond it.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (190.0, "p95"));
        // 199 samples: p95 is the 190th, only nine beyond -> max.
        assert_eq!(tail(&v[..199]), (199.0, "max"));
        assert_eq!(tail(&[2.0, 9.0, 4.0]), (9.0, "max"));
    }

    #[test]
    fn delta_handles_new_and_reset_counters() {
        let before = counts(&[("a", 5), ("b", 10)]);
        let after = counts(&[("a", 9), ("b", 3), ("c", 7)]);
        let d = delta(&before, &after);
        assert_eq!(d["a"], 4);
        assert_eq!(d["b"], 0, "a reset saturates instead of wrapping");
        assert_eq!(
            d["c"], 7,
            "a counter registered in between counts from zero"
        );
        assert_eq!(ratio(d["a"], d["c"]), 4.0 / 7.0);
        assert_eq!(ratio(1, 0), 0.0);
    }
}
