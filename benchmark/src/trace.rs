//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own step loop around
//! calls into public functions of the crates; nothing inside `crates/`
//! knows about them. A span has a name, a start and an end (ns since
//! the tracer was created), the span that caused it, and the index of
//! the batch it belongs to. A root (`parent == None`) is one batch.

use std::collections::BTreeMap;
use std::time::Instant;

use tgl_data::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub batch: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    batch: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            batch: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of batch `batch`.
    pub fn open_root(&mut self, name: &'static str, batch: usize) -> usize {
        assert!(self.stack.is_empty(), "a batch root cannot nest");
        self.batch = batch;
        self.open(name)
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            batch: self.batch,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span named `name`; returns its id and result.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (usize, R) {
        let id = self.open(name);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Adds a child of the closed span `parent` covering `dur_ns` from
    /// the parent's start: time the parent spent inside a lower layer
    /// that reports a duration instead of a call boundary (the
    /// simulated link).
    pub fn child(&mut self, parent: usize, name: &'static str, dur_ns: u64) {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            batch: self.spans[parent].batch,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: the span's duration minus the part of its
/// interval that its children cover (children clipped to the parent,
/// overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Summed self time per span name over the batches whose root is named
/// `root`, in seconds (the root's own self time under the root's name).
pub fn self_seconds_under(spans: &[Span], root: &str) -> BTreeMap<&'static str, f64> {
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        root_of.push(s.parent.map_or(i, |p| root_of[p]));
    }
    let mut out = BTreeMap::new();
    for (i, ns) in self_times(spans).into_iter().enumerate() {
        if spans[root_of[i]].name == root {
            *out.entry(spans[i].name).or_insert(0.0) += ns as f64 / 1e9;
        }
    }
    out
}

/// Summed duration of the root spans, in seconds.
pub fn root_seconds(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

/// Structural checks on a finished trace: a span ends after it
/// starts, its parent was recorded before it and belongs to the same
/// batch, and each batch has exactly one root. Returns a description
/// of the first violation.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    let mut roots: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        match s.parent {
            None => *roots.entry(s.batch).or_insert(0) += 1,
            Some(p) if p >= i => return Err(format!("span {i} names a later parent {p}")),
            Some(p) if spans[p].batch != s.batch => {
                return Err(format!(
                    "span {i} and its parent {p} are in different batches"
                ))
            }
            Some(_) => {}
        }
    }
    match roots.iter().find(|(_, &n)| n != 1) {
        Some((b, n)) => Err(format!("batch {b} has {n} roots")),
        None => Ok(()),
    }
}

/// The trace file: `{"workload", "unit": "ns", "spans": [{id, name,
/// start, end, parent, batch}], "batches": [{batch, counters}]}`.
pub fn to_json(workload: &str, spans: &[Span], batch_counters: &[crate::stats::Counts]) -> Json {
    let num = |v: u64| Json::Num(v as f64);
    let spans = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj(vec![
                ("id".into(), num(i as u64)),
                ("name".into(), Json::Str(s.name.into())),
                ("start".into(), num(s.start_ns)),
                ("end".into(), num(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| num(p as u64)),
                ),
                ("batch".into(), num(s.batch as u64)),
            ])
        })
        .collect();
    let batches = batch_counters
        .iter()
        .enumerate()
        .map(|(b, c)| {
            Json::obj(vec![
                ("batch".into(), num(b as u64)),
                (
                    "counters".into(),
                    Json::obj(c.iter().map(|(k, &v)| (k.clone(), num(v))).collect()),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("unit".into(), Json::Str("ns".into())),
        ("spans".into(), Json::Arr(spans)),
        ("batches".into(), Json::Arr(batches)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            batch: 0,
        }
    }

    #[test]
    fn self_time_subtracts_siblings_and_nested_children() {
        let spans = vec![
            span("step", 0, 100, None),
            span("forward", 10, 50, Some(0)),
            span("transfer", 10, 25, Some(1)), // nested: charged to forward only
            span("backward", 50, 90, Some(0)), // sibling of forward
        ];
        assert_eq!(self_times(&spans), vec![20, 25, 15, 40]);
        let by = self_seconds_under(&spans, "step");
        assert_eq!(by["forward"], 25e-9);
        let total: f64 = by.values().sum();
        assert!(
            (total - root_seconds(&spans)).abs() < 1e-12,
            "self times partition the root"
        );
        assert!(self_seconds_under(&spans, "eval").is_empty());
    }

    #[test]
    fn self_time_counts_overlapping_and_overhanging_children_once() {
        let spans = vec![
            span("p", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps a by 10
            span("c", 190, 260, Some(0)), // overhangs the parent by 60
        ];
        // covered = [110,170) + [190,200) = 70
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_attaches_synthetic_children() {
        let mut t = Tracer::new();
        let root = t.open_root("step", 3);
        let (fwd, v) = t.scope("forward", || 7);
        assert_eq!(v, 7);
        t.child(fwd, "transfer", 0);
        t.close(root);
        let s = t.spans();
        assert_eq!(s[fwd].parent, Some(root));
        assert_eq!(s[2].parent, Some(fwd));
        assert!(s.iter().all(|x| x.batch == 3));
        assert!(validate(s).is_ok());
    }

    #[test]
    fn validate_wants_one_root_per_batch() {
        let two_roots = vec![span("step", 0, 1, None), span("step", 1, 2, None)];
        assert!(validate(&two_roots).unwrap_err().contains("2 roots"));
        let forward_parent = vec![span("a", 0, 1, Some(1)), span("b", 0, 1, None)];
        assert!(validate(&forward_parent).is_err());
    }

    #[test]
    fn trace_json_round_trips_through_the_repo_parser() {
        let spans = vec![
            span("step", 0, 1_234_567_890_123, None),
            span("forward", 5, 9, Some(0)),
        ];
        let counters = vec![crate::stats::counts(&[("sampler.queries", 600)])];
        let doc = to_json("tgat_train", &spans, &counters);
        let back = Json::parse(&doc.render()).expect("valid JSON");
        assert_eq!(back, doc);
        let first = &back.get("spans").and_then(Json::as_arr).expect("spans")[0];
        assert_eq!(
            first.get("end").and_then(Json::as_num),
            Some(1_234_567_890_123.0)
        );
        assert_eq!(first.get("parent"), Some(&Json::Null));
    }
}
