//! Declarative SLO / alert rules evaluated on the time-series store.
//!
//! A [`Rule`] names a series in [`timeseries`](crate::timeseries) and a
//! condition over its most recent `window` points — a threshold
//! (`above` / `below`), a trend (`trend = non-decreasing`, the loss
//! plateau / divergence detector), a non-finite sentinel, or a
//! pegged-at-capacity check. Rules are written in a tiny INI-style file
//! (`--slo <path>` / `TGL_SLO`):
//!
//! ```text
//! # step p99 latency SLO
//! [step-latency-slo]
//! metric   = step.latency_ns.p99
//! above    = 5e9
//! window   = 8
//! for      = 3
//! severity = warn
//!
//! [loss-divergence]
//! metric   = train.loss
//! trend    = non-decreasing
//! window   = 8
//! for      = 4
//! severity = fail
//! ```
//!
//! [`evaluate`] runs every installed rule against the store with
//! `for_n_samples` hysteresis: a rule *fires* only after `for`
//! consecutive breaching evaluations and *resolves* only after `for`
//! consecutive clean ones, so a single spike cannot flap an alert.
//! Hysteresis advances only when the target series has gained points
//! since the rule's last evaluation, which makes the firing sequence a
//! pure function of the series contents — **bitwise identical at any
//! thread count** when the series itself is (the harness drives
//! evaluation per training step).
//!
//! Firings are structured: each transition lands in the health sink
//! (`health::record`, which also mirrors it into flight-recorder
//! rings), increments `alerts.fired` / sets the `alerts.firing` gauge
//! for `/metrics`, and is retained for the `tgl-alerts/v1` artifact
//! served at `/alerts.json`. The harness routes fail-severity firings
//! through the `--health` policy (warn → log and continue, fail →
//! flight dump + abort).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::health::Level;
use crate::timeseries;

/// Condition a rule checks over the last `window` points.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Latest point strictly above the threshold.
    Above(f64),
    /// Latest point strictly below the threshold.
    Below(f64),
    /// The series has not decreased across the window (`!(last <
    /// first)`): fires on plateaus, divergence, and — deliberately —
    /// on NaN/Inf tails, so a poisoned loss trips the trend rule too.
    TrendNonDecreasing,
    /// Any non-finite value in the window.
    NonFinite,
    /// Every point in the window at or above the cap (e.g.
    /// `pipeline.queue.occupancy` pegged at capacity).
    Pegged(f64),
}

impl Condition {
    /// Short label for artifacts and log lines.
    pub fn label(&self) -> &'static str {
        match self {
            Condition::Above(_) => "above",
            Condition::Below(_) => "below",
            Condition::TrendNonDecreasing => "trend-non-decreasing",
            Condition::NonFinite => "nonfinite",
            Condition::Pegged(_) => "pegged",
        }
    }

    /// Whether the last `window` points (chronological order) breach.
    fn breaches(&self, window: &[(u64, f64)]) -> bool {
        let last = match window.last() {
            Some(&(_, v)) => v,
            None => return false,
        };
        match *self {
            Condition::Above(t) => last > t,
            Condition::Below(t) => last < t,
            // NaN comparisons are false, so `!(last < first)` is true
            // for a NaN tail — exactly the divergence signal we want.
            // (`last >= first` would be false for NaN, hence the allow.)
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            Condition::TrendNonDecreasing => !(last < window[0].1),
            Condition::NonFinite => window.iter().any(|&(_, v)| !v.is_finite()),
            Condition::Pegged(cap) => window.iter().all(|&(_, v)| v >= cap),
        }
    }
}

/// One declarative SLO rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name (the INI section header); health events use the
    /// source `alert.<name>`.
    pub name: String,
    /// Target series in the time-series store.
    pub metric: String,
    /// Breach condition.
    pub condition: Condition,
    /// Points the condition inspects; evaluation waits until the
    /// series holds at least this many (warmup).
    pub window: usize,
    /// Consecutive breaching (resp. clean) evaluations required to
    /// fire (resp. resolve) — the `for_n_samples` hysteresis.
    pub for_n: usize,
    /// Severity of the fired health event.
    pub severity: Level,
}

/// A parsed set of rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    /// Rules in file order.
    pub rules: Vec<Rule>,
}

fn parse_level(s: &str) -> Result<Level, String> {
    match s {
        "info" => Ok(Level::Info),
        "warn" => Ok(Level::Warn),
        "fail" => Ok(Level::Fail),
        other => Err(format!("unknown severity '{other}' (use info|warn|fail)")),
    }
}

impl RuleSet {
    /// Parses the INI-style rules text (see the module docs). Errors
    /// name the offending line.
    pub fn parse(text: &str) -> Result<RuleSet, String> {
        struct Draft {
            name: String,
            metric: Option<String>,
            condition: Option<Condition>,
            window: usize,
            for_n: usize,
            severity: Level,
            line: usize,
        }
        fn finish(d: Draft, rules: &mut Vec<Rule>) -> Result<(), String> {
            let metric = d
                .metric
                .ok_or_else(|| format!("rule [{}] (line {}): missing 'metric'", d.name, d.line))?;
            let condition = d.condition.ok_or_else(|| {
                format!(
                    "rule [{}] (line {}): missing condition (above|below|trend|nonfinite|pegged)",
                    d.name, d.line
                )
            })?;
            rules.push(Rule {
                name: d.name,
                metric,
                condition,
                window: d.window.max(1),
                for_n: d.for_n.max(1),
                severity: d.severity,
            });
            Ok(())
        }
        let mut rules = Vec::new();
        let mut current: Option<Draft> = None;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = i + 1;
            if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
                if let Some(d) = current.take() {
                    finish(d, &mut rules)?;
                }
                if name.trim().is_empty() {
                    return Err(format!("line {lineno}: empty rule name"));
                }
                current = Some(Draft {
                    name: name.trim().to_string(),
                    metric: None,
                    condition: None,
                    window: 1,
                    for_n: 1,
                    severity: Level::Warn,
                    line: lineno,
                });
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected 'key = value', got '{line}'"))?;
            let (key, value) = (key.trim(), value.trim());
            let d = current
                .as_mut()
                .ok_or_else(|| format!("line {lineno}: '{key}' outside any [rule] section"))?;
            let num = |v: &str| -> Result<f64, String> {
                v.parse()
                    .map_err(|_| format!("line {lineno}: '{key}' wants a number, got '{v}'"))
            };
            let set_cond = |d: &mut Draft, c: Condition| -> Result<(), String> {
                if d.condition.is_some() {
                    return Err(format!(
                        "line {lineno}: rule [{}] already has a condition",
                        d.name
                    ));
                }
                d.condition = Some(c);
                Ok(())
            };
            match key {
                "metric" => d.metric = Some(value.to_string()),
                "window" => {
                    d.window = value.parse().map_err(|_| {
                        format!("line {lineno}: 'window' wants an integer, got '{value}'")
                    })?;
                }
                "for" | "for_n_samples" => {
                    d.for_n = value.parse().map_err(|_| {
                        format!("line {lineno}: '{key}' wants an integer, got '{value}'")
                    })?;
                }
                "severity" => {
                    d.severity = parse_level(value).map_err(|e| format!("line {lineno}: {e}"))?;
                }
                "above" => {
                    let t = num(value)?;
                    set_cond(d, Condition::Above(t))?;
                }
                "below" => {
                    let t = num(value)?;
                    set_cond(d, Condition::Below(t))?;
                }
                "trend" => {
                    if value != "non-decreasing" {
                        return Err(format!(
                            "line {lineno}: 'trend' supports only 'non-decreasing', got '{value}'"
                        ));
                    }
                    set_cond(d, Condition::TrendNonDecreasing)?;
                }
                "nonfinite" => {
                    if !matches!(value, "true" | "1" | "on") {
                        return Err(format!(
                            "line {lineno}: 'nonfinite' wants true, got '{value}'"
                        ));
                    }
                    set_cond(d, Condition::NonFinite)?;
                }
                "pegged" => {
                    let t = num(value)?;
                    set_cond(d, Condition::Pegged(t))?;
                }
                other => return Err(format!("line {lineno}: unknown key '{other}'")),
            }
        }
        if let Some(d) = current.take() {
            finish(d, &mut rules)?;
        }
        if rules.is_empty() {
            return Err("no rules defined".to_string());
        }
        Ok(RuleSet { rules })
    }

    /// Reads and parses a rules file.
    pub fn from_file(path: &std::path::Path) -> Result<RuleSet, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        RuleSet::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// One fire/resolve transition of a rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Firing {
    /// Rule name.
    pub rule: String,
    /// Target series.
    pub metric: String,
    /// Rule severity.
    pub severity: Level,
    /// `true` = fired, `false` = resolved.
    pub firing: bool,
    /// Series index of the point that completed the hysteresis.
    pub idx: u64,
    /// That point's value.
    pub value: f64,
}

struct RuleState {
    rule: Rule,
    /// Leaked `alert.<name>`, the health-event source.
    source: &'static str,
    firing: bool,
    breaches: u32,
    oks: u32,
    fired_total: u64,
    /// Series `total` at the last hysteresis advance; evaluation is
    /// idempotent until the series gains points.
    seen_total: u64,
    last_idx: u64,
    last_value: f64,
}

#[derive(Default)]
struct Engine {
    states: Vec<RuleState>,
    /// Bounded transition history for the artifact.
    transitions: Vec<Firing>,
}

const MAX_TRANSITIONS: usize = 256;

static ENGINE: Mutex<Option<Engine>> = Mutex::new(None);
/// Fast-path gate so `evaluate()` with no rules installed is one
/// relaxed load (it sits on the per-step hot path).
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Installs a rule set, replacing any previous one and resetting all
/// rule state. Registers the `alerts.*` metric families immediately so
/// exposition scrapes see them before the first evaluation.
pub fn install(set: RuleSet) {
    let states = set
        .rules
        .into_iter()
        .map(|rule| RuleState {
            source: Box::leak(format!("alert.{}", rule.name).into_boxed_str()),
            rule,
            firing: false,
            breaches: 0,
            oks: 0,
            fired_total: 0,
            seen_total: 0,
            last_idx: 0,
            last_value: 0.0,
        })
        .collect();
    let mut engine = ENGINE.lock().unwrap_or_else(|e| e.into_inner());
    *engine = Some(Engine {
        states,
        transitions: Vec::new(),
    });
    INSTALLED.store(true, Ordering::Relaxed);
    crate::counter!("alerts.evaluations").add(0);
    crate::counter!("alerts.fired").add(0);
    crate::gauge!("alerts.firing").set(0.0);
}

/// Removes all rules and state.
pub fn clear() {
    INSTALLED.store(false, Ordering::Relaxed);
    let mut engine = ENGINE.lock().unwrap_or_else(|e| e.into_inner());
    *engine = None;
    crate::gauge!("alerts.firing").set(0.0);
}

/// Whether a rule set is installed.
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Evaluates every installed rule against the time-series store and
/// returns the transitions (fires and resolves) this pass produced.
/// No-op (one relaxed load) when nothing is installed; idempotent for
/// a rule until its target series gains points.
pub fn evaluate() -> Vec<Firing> {
    if !INSTALLED.load(Ordering::Relaxed) {
        return Vec::new();
    }
    let mut engine = ENGINE.lock().unwrap_or_else(|e| e.into_inner());
    let engine = match engine.as_mut() {
        Some(e) => e,
        None => return Vec::new(),
    };
    crate::counter!("alerts.evaluations").incr();
    let mut fired = Vec::new();
    for st in engine.states.iter_mut() {
        let snap = match timeseries::get(&st.rule.metric) {
            Some(s) => s,
            None => continue,
        };
        if snap.total == st.seen_total || snap.points.len() < st.rule.window {
            continue;
        }
        st.seen_total = snap.total;
        let window = &snap.points[snap.points.len() - st.rule.window..];
        let &(idx, value) = window.last().expect("window is non-empty");
        st.last_idx = idx;
        st.last_value = value;
        let breach = st.rule.condition.breaches(window);
        let transition = if breach {
            st.breaches += 1;
            st.oks = 0;
            (!st.firing && st.breaches >= st.rule.for_n as u32).then(|| {
                st.firing = true;
                st.fired_total += 1;
                true
            })
        } else {
            st.oks += 1;
            st.breaches = 0;
            (st.firing && st.oks >= st.rule.for_n as u32).then(|| {
                st.firing = false;
                false
            })
        };
        if let Some(now_firing) = transition {
            let t = Firing {
                rule: st.rule.name.clone(),
                metric: st.rule.metric.clone(),
                severity: st.rule.severity,
                firing: now_firing,
                idx,
                value,
            };
            let (level, verb) = if now_firing {
                crate::counter!("alerts.fired").incr();
                (st.rule.severity, "fired")
            } else {
                (Level::Info, "resolved")
            };
            crate::health::record(
                level,
                st.source,
                format!(
                    "alert {} {verb}: {} {} (value {} at idx {})",
                    st.rule.name,
                    st.rule.metric,
                    st.rule.condition.label(),
                    value,
                    idx
                ),
            );
            if engine.transitions.len() < MAX_TRANSITIONS {
                engine.transitions.push(t.clone());
            }
            fired.push(t);
        }
    }
    let firing_now = engine.states.iter().filter(|s| s.firing).count();
    crate::gauge!("alerts.firing").set(firing_now as f64);
    fired
}

/// Per-rule state for reports and summaries.
#[derive(Debug, Clone)]
pub struct RuleStatus {
    /// The rule itself.
    pub rule: Rule,
    /// Currently firing.
    pub firing: bool,
    /// Times fired since install.
    pub fired_total: u64,
    /// Latest evaluated point.
    pub last_idx: u64,
    /// Latest evaluated value.
    pub last_value: f64,
}

/// Status of every installed rule (empty when none installed).
pub fn status() -> Vec<RuleStatus> {
    let engine = ENGINE.lock().unwrap_or_else(|e| e.into_inner());
    engine
        .as_ref()
        .map(|e| {
            e.states
                .iter()
                .map(|s| RuleStatus {
                    rule: s.rule.clone(),
                    firing: s.firing,
                    fired_total: s.fired_total,
                    last_idx: s.last_idx,
                    last_value: s.last_value,
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Transition history since install (bounded to the most recent
/// [`MAX_TRANSITIONS`]... actually the first — history stops recording
/// once full; `fired_total` keeps exact counts).
pub fn transitions() -> Vec<Firing> {
    let engine = ENGINE.lock().unwrap_or_else(|e| e.into_inner());
    engine
        .as_ref()
        .map(|e| e.transitions.clone())
        .unwrap_or_default()
}

/// Renders the engine as a `tgl-alerts/v1` artifact (the
/// `/alerts.json` endpoint body).
pub fn to_json() -> String {
    let unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let rules = status();
    let trans = transitions();
    let mut out = String::with_capacity(4 * 1024);
    let _ = write!(
        out,
        "{{\n  \"schema\": \"tgl-alerts/v1\",\n  \"unix_ms\": {unix_ms},\n  \"installed\": {},\n  \"rules\": [",
        installed()
    );
    for (i, r) in rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"name\": \"");
        crate::flight::esc(&r.rule.name, &mut out);
        out.push_str("\", \"metric\": \"");
        crate::flight::esc(&r.rule.metric, &mut out);
        let _ = write!(
            out,
            "\", \"condition\": \"{}\", \"window\": {}, \"for\": {}, \"severity\": \"{}\", \"firing\": {}, \"fired_total\": {}, \"last_idx\": {}, \"last_value\": ",
            r.rule.condition.label(),
            r.rule.window,
            r.rule.for_n,
            r.rule.severity.label(),
            r.firing,
            r.fired_total,
            r.last_idx
        );
        crate::timeseries::json_num(r.last_value, &mut out);
        out.push('}');
    }
    out.push_str("\n  ],\n  \"transitions\": [");
    for (i, t) in trans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"rule\": \"");
        crate::flight::esc(&t.rule, &mut out);
        out.push_str("\", \"metric\": \"");
        crate::flight::esc(&t.metric, &mut out);
        let _ = write!(
            out,
            "\", \"severity\": \"{}\", \"firing\": {}, \"idx\": {}, \"value\": ",
            t.severity.label(),
            t.firing,
            t.idx
        );
        crate::timeseries::json_num(t.value, &mut out);
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::serial;

    fn setup(rules: &str) {
        timeseries::enable(true);
        timeseries::reset();
        install(RuleSet::parse(rules).unwrap());
    }

    #[test]
    fn parser_accepts_every_condition_and_defaults() {
        let set = RuleSet::parse(
            "# comment\n\
             [a]\nmetric = m\nabove = 1.5\n\n\
             [b]\nmetric = m\nbelow = -2\nwindow = 4\nfor = 2\nseverity = fail\n\
             [c]\nmetric = m\ntrend = non-decreasing\n\
             [d]\nmetric = m\nnonfinite = true\n\
             [e]\nmetric = m\npegged = 8\nfor_n_samples = 3\n",
        )
        .unwrap();
        assert_eq!(set.rules.len(), 5);
        assert_eq!(set.rules[0].condition, Condition::Above(1.5));
        assert_eq!(set.rules[0].window, 1);
        assert_eq!(set.rules[0].for_n, 1);
        assert_eq!(set.rules[0].severity, Level::Warn);
        assert_eq!(set.rules[1].condition, Condition::Below(-2.0));
        assert_eq!(set.rules[1].severity, Level::Fail);
        assert_eq!(set.rules[4].for_n, 3);
    }

    #[test]
    fn parser_rejects_malformed_rules() {
        for (bad, why) in [
            ("metric = m\n", "key outside section"),
            ("[a]\nabove = 1\n", "missing metric"),
            ("[a]\nmetric = m\n", "missing condition"),
            ("[a]\nmetric = m\nabove = 1\nbelow = 2\n", "two conditions"),
            ("[a]\nmetric = m\nabove = x\n", "non-numeric threshold"),
            ("[a]\nmetric = m\nfrobnicate = 1\n", "unknown key"),
            ("", "no rules"),
        ] {
            assert!(RuleSet::parse(bad).is_err(), "parser accepted {why}");
        }
    }

    #[test]
    fn threshold_rule_fires_after_for_n_consecutive_breaches() {
        let _g = serial();
        setup("[hot]\nmetric = syn.spike\nabove = 10\nfor = 2\n");
        let s = timeseries::series("syn.spike");
        // Single-sample spike: breach, then recovery — must NOT fire.
        for v in [1.0, 50.0, 1.0, 1.0] {
            s.push(v);
            assert!(evaluate().is_empty(), "spike flapped the alert");
        }
        // Sustained breach: fires on the 2nd consecutive breach.
        s.push(60.0);
        assert!(evaluate().is_empty());
        s.push(70.0);
        let fired = evaluate();
        assert_eq!(fired.len(), 1);
        assert!(fired[0].firing);
        assert_eq!(fired[0].rule, "hot");
        assert_eq!(fired[0].value, 70.0);
        // Resolve needs 2 consecutive clean samples too.
        s.push(1.0);
        assert!(evaluate().is_empty());
        s.push(1.0);
        let resolved = evaluate();
        assert_eq!(resolved.len(), 1);
        assert!(!resolved[0].firing);
        clear();
    }

    #[test]
    fn flat_series_trips_trend_but_not_thresholds() {
        let _g = serial();
        setup(
            "[plateau]\nmetric = syn.flat\ntrend = non-decreasing\nwindow = 4\nfor = 3\n\
             [hot]\nmetric = syn.flat\nabove = 10\n",
        );
        let s = timeseries::series("syn.flat");
        let mut fired = Vec::new();
        for _ in 0..10 {
            s.push(1.0);
            fired.extend(evaluate());
        }
        // Warmup: window=4 → first evaluation at the 4th point; for=3
        // consecutive breaches → fires on the 6th point (idx 5).
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "plateau");
        assert_eq!(fired[0].idx, 5);
        clear();
    }

    #[test]
    fn decreasing_ramp_never_trips_trend() {
        let _g = serial();
        setup("[plateau]\nmetric = syn.ramp\ntrend = non-decreasing\nwindow = 4\nfor = 2\n");
        let s = timeseries::series("syn.ramp");
        for i in 0..20 {
            s.push(10.0 - i as f64 * 0.5);
            assert!(evaluate().is_empty(), "decreasing ramp fired at {i}");
        }
        clear();
    }

    #[test]
    fn nan_poisoned_series_trips_nonfinite_and_trend_but_not_above() {
        let _g = serial();
        setup(
            "[poison]\nmetric = syn.nan\nnonfinite = true\nwindow = 2\n\
             [plateau]\nmetric = syn.nan\ntrend = non-decreasing\nwindow = 2\n\
             [hot]\nmetric = syn.nan\nabove = 0.5\n",
        );
        let s = timeseries::series("syn.nan");
        s.push(0.3);
        assert!(evaluate().is_empty());
        s.push(f64::NAN);
        let fired = evaluate();
        let names: Vec<&str> = fired.iter().map(|f| f.rule.as_str()).collect();
        assert!(names.contains(&"poison"), "nonfinite rule must fire");
        assert!(names.contains(&"plateau"), "trend must treat NaN as breach");
        assert!(!names.contains(&"hot"), "NaN must not satisfy 'above'");
        clear();
    }

    #[test]
    fn pegged_rule_needs_the_whole_window_at_cap() {
        let _g = serial();
        setup("[full]\nmetric = syn.occ\npegged = 4\nwindow = 3\n");
        let s = timeseries::series("syn.occ");
        for v in [4.0, 4.0, 3.0, 4.0, 4.0] {
            s.push(v);
            assert!(evaluate().is_empty(), "pegged fired with a dip in window");
        }
        s.push(4.0);
        let fired = evaluate();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "full");
        clear();
    }

    #[test]
    fn evaluation_is_idempotent_without_new_points() {
        let _g = serial();
        setup("[hot]\nmetric = syn.idem\nabove = 0\nfor = 3\n");
        let s = timeseries::series("syn.idem");
        s.push(1.0);
        // 10 evaluations of the same point advance hysteresis once.
        for _ in 0..10 {
            assert!(evaluate().is_empty());
        }
        s.push(1.0);
        assert!(evaluate().is_empty());
        s.push(1.0);
        assert_eq!(evaluate().len(), 1, "3rd new point must complete for=3");
        clear();
    }

    #[test]
    fn firings_route_to_health_sink_and_metrics() {
        let _g = serial();
        crate::health::reset();
        setup("[sev]\nmetric = syn.sev\nabove = 0\nseverity = fail\n");
        let before = crate::metrics::get("alerts.fired");
        timeseries::series("syn.sev").push(1.0);
        let fired = evaluate();
        assert_eq!(fired[0].severity, Level::Fail);
        assert_eq!(crate::metrics::get("alerts.fired"), before + 1);
        assert_eq!(crate::hist::gauge("alerts.firing").get(), 1.0);
        let ev = crate::health::events();
        assert!(ev
            .iter()
            .any(|e| e.source == "alert.sev" && e.level == Level::Fail));
        clear();
    }

    #[test]
    fn artifact_renders_rules_and_transitions() {
        let _g = serial();
        setup("[hot]\nmetric = syn.art\nabove = 0\n");
        timeseries::series("syn.art").push(2.0);
        evaluate();
        let json = to_json();
        assert!(json.contains("\"schema\": \"tgl-alerts/v1\""));
        assert!(json.contains("\"name\": \"hot\""));
        assert!(json.contains("\"firing\": true"));
        assert!(json.contains("\"transitions\": ["));
        clear();
        timeseries::enable(false);
    }
}
