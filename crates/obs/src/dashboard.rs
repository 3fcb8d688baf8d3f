//! The `/dashboard` page: a self-contained live training dashboard.
//!
//! One HTML document, zero external assets — no CDN scripts, no
//! stylesheets, no fonts, no images. Inline JS polls the expo server's
//! own `/timeseries.json`, `/alerts.json`, and `/healthz` every couple
//! of seconds and renders SVG sparklines (built as DOM nodes, no
//! libraries) for the headline series — `train.loss`, `val.ap`,
//! `step.latency_ns.p99`, `pipeline.queue.occupancy` — plus whatever
//! else the store holds, an alert banner listing firing rules, a
//! health badge, and — when the introspection layer is on — a
//! per-layer panel built from the `insight` section of `/report.json`
//! (parameter groups with
//! their latest gradient norm, weight norm, and update ratio;
//! non-finite groups sort to the top and are highlighted). Works from `file://` saves too: everything it needs
//! ships in this one response, which is what "std-only dashboard"
//! means for a dependency-free workspace.

/// The complete `/dashboard` document.
pub fn html() -> &'static str {
    PAGE
}

const PAGE: &str = r#"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>tgl dashboard</title>
<style>
  body { background:#101418; color:#d8dee6; font:13px/1.4 monospace; margin:0; padding:16px; }
  h1 { font-size:16px; margin:0 0 4px 0; }
  #meta { color:#7b8794; margin-bottom:12px; }
  #badge { display:inline-block; padding:1px 8px; border-radius:3px; font-weight:bold; }
  .ok   { background:#1d3b2a; color:#5dd39e; }
  .warn { background:#3b331d; color:#e8c45d; }
  .fail { background:#3b1d1d; color:#e86a5d; }
  #alerts { margin:0 0 12px 0; }
  .alert { padding:4px 8px; margin:2px 0; border-left:3px solid #e86a5d; background:#1b1416; }
  .alert.resolved { border-color:#5dd39e; opacity:0.6; }
  #charts { display:flex; flex-wrap:wrap; gap:12px; }
  .card { background:#161b21; border:1px solid #232a32; border-radius:4px; padding:8px; }
  .card .name { color:#9fb3c8; }
  .card .val { float:right; color:#e8eef4; }
  svg { display:block; margin-top:4px; }
  polyline { fill:none; stroke:#4aa8ff; stroke-width:1.5; }
  .gap circle { fill:#e86a5d; }
  #insight table { border-collapse:collapse; margin-top:4px; }
  #insight th, #insight td { text-align:right; padding:1px 10px 1px 0; }
  #insight th:first-child, #insight td:first-child { text-align:left; }
  #insight th { color:#9fb3c8; font-weight:normal; }
  #insight tr.bad td { color:#e86a5d; font-weight:bold; }
</style>
</head>
<body>
<h1>tgl dashboard <span id="badge" class="ok">...</span></h1>
<div id="meta">polling /timeseries.json + /alerts.json every 2s</div>
<div id="alerts"></div>
<div id="insight"></div>
<div id="charts"></div>
<script>
"use strict";
var PREFERRED = ["train.loss", "val.ap", "step.latency_ns.p99", "pipeline.queue.occupancy"];
var MAX_CHARTS = 12, W = 280, H = 60;

function fetchJson(path) {
  return fetch(path, {cache: "no-store"}).then(function (r) { return r.json(); });
}

function fmt(v) {
  if (v === null || !isFinite(v)) return "NaN";
  if (v !== 0 && (Math.abs(v) >= 1e6 || Math.abs(v) < 1e-3)) return v.toExponential(2);
  return String(Math.round(v * 10000) / 10000);
}

function sparkline(points) {
  var svg = document.createElementNS("http://www.w3.org/2000/svg", "svg");
  svg.setAttribute("width", W); svg.setAttribute("height", H);
  var vals = points.map(function (p) { return p[1]; }).filter(function (v) { return v !== null && isFinite(v); });
  if (!vals.length) return svg;
  var lo = Math.min.apply(null, vals), hi = Math.max.apply(null, vals);
  if (hi === lo) { hi = lo + 1; }
  var n = points.length, coords = [];
  for (var i = 0; i < n; i++) {
    var v = points[i][1];
    var x = n > 1 ? (i / (n - 1)) * (W - 4) + 2 : W / 2;
    if (v === null || !isFinite(v)) {
      // non-finite point: mark it in red at the top edge
      var g = document.createElementNS("http://www.w3.org/2000/svg", "g");
      g.setAttribute("class", "gap");
      var c = document.createElementNS("http://www.w3.org/2000/svg", "circle");
      c.setAttribute("cx", x); c.setAttribute("cy", 4); c.setAttribute("r", 2);
      g.appendChild(c); svg.appendChild(g);
      continue;
    }
    var y = H - 4 - ((v - lo) / (hi - lo)) * (H - 8);
    coords.push(x + "," + y);
  }
  var line = document.createElementNS("http://www.w3.org/2000/svg", "polyline");
  line.setAttribute("points", coords.join(" "));
  svg.appendChild(line);
  return svg;
}

function pickSeries(all) {
  var byName = {}, out = [];
  all.forEach(function (s) { byName[s.name] = s; });
  PREFERRED.forEach(function (n) { if (byName[n]) { out.push(byName[n]); delete byName[n]; } });
  all.forEach(function (s) {
    if (out.length < MAX_CHARTS && byName[s.name] && s.points.length > 1) {
      out.push(s); delete byName[s.name];
    }
  });
  return out;
}

function renderCharts(doc) {
  var root = document.getElementById("charts");
  root.textContent = "";
  pickSeries(doc.series || []).forEach(function (s) {
    var card = document.createElement("div");
    card.className = "card";
    var head = document.createElement("div");
    var name = document.createElement("span");
    name.className = "name"; name.textContent = s.name;
    var val = document.createElement("span");
    var last = s.points.length ? s.points[s.points.length - 1][1] : null;
    val.className = "val"; val.textContent = fmt(last);
    head.appendChild(name); head.appendChild(val);
    card.appendChild(head);
    card.appendChild(sparkline(s.points));
    root.appendChild(card);
  });
}

function renderAlerts(doc) {
  var root = document.getElementById("alerts");
  root.textContent = "";
  (doc.rules || []).forEach(function (r) {
    if (!r.firing && !r.fired_total) return;
    var div = document.createElement("div");
    div.className = "alert" + (r.firing ? "" : " resolved");
    div.textContent = (r.firing ? "FIRING " : "resolved ") + r.name + ": " +
      r.metric + " " + r.condition + " [" + r.severity + "] last=" + fmt(r.last_value) +
      " fired " + r.fired_total + "x";
    root.appendChild(div);
  });
}

function renderInsight(doc) {
  var root = document.getElementById("insight");
  root.textContent = "";
  var groups = {};
  (doc.series || []).forEach(function (s) {
    var m = /^insight\.layer\.(.+)\.(grad_norm|weight_norm|update_ratio)$/.exec(s.name);
    if (!m) return;
    if (!groups[m[1]]) groups[m[1]] = {};
    groups[m[1]][m[2]] = s.last;
  });
  var names = Object.keys(groups);
  if (!names.length) return;
  // Non-finite gradient norms first, then descending norm: the
  // diverged layer tops the panel.
  names.sort(function (a, b) {
    var ka = groups[a].grad_norm, kb = groups[b].grad_norm;
    ka = (ka === null || !isFinite(ka)) ? Infinity : ka;
    kb = (kb === null || !isFinite(kb)) ? Infinity : kb;
    return kb - ka || (a < b ? -1 : 1);
  });
  var card = document.createElement("div");
  card.className = "card";
  var head = document.createElement("div");
  head.className = "name";
  head.textContent = "model introspection (" + (doc.steps || 0) + " steps)";
  card.appendChild(head);
  var table = document.createElement("table");
  var hr = document.createElement("tr");
  ["group", "grad_norm", "weight_norm", "update_ratio"].forEach(function (h) {
    var th = document.createElement("th"); th.textContent = h; hr.appendChild(th);
  });
  table.appendChild(hr);
  names.forEach(function (n) {
    var g = groups[n], tr = document.createElement("tr");
    var bad = [g.grad_norm, g.weight_norm, g.update_ratio].some(function (v) {
      return v === null || !isFinite(v);
    });
    if (bad) tr.className = "bad";
    [n, fmt(g.grad_norm), fmt(g.weight_norm), fmt(g.update_ratio)].forEach(function (c) {
      var td = document.createElement("td"); td.textContent = c; tr.appendChild(td);
    });
    table.appendChild(tr);
  });
  card.appendChild(table);
  root.appendChild(card);
}

function renderHealth(status) {
  var badge = document.getElementById("badge");
  badge.textContent = status;
  badge.className = status === "ok" ? "ok" : (status === "fail" ? "fail" : "warn");
}

function tick() {
  fetchJson("/timeseries.json").then(renderCharts).catch(function () {});
  fetchJson("/alerts.json").then(renderAlerts).catch(function () {});
  fetchJson("/report.json").then(function (r) { renderInsight(r.insight || {}); }).catch(function () {});
  fetch("/healthz", {cache: "no-store"})
    .then(function (r) { renderHealth(r.status === 200 ? "ok" : "fail"); })
    .catch(function () { renderHealth("down"); });
}

tick();
setInterval(tick, 2000);
</script>
</body>
</html>
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_is_self_contained_html() {
        let page = html();
        assert!(page.starts_with("<!DOCTYPE html>"));
        assert!(page.contains("</html>"));
        assert!(page.contains("/timeseries.json"));
        assert!(page.contains("/alerts.json"));
        assert!(page.contains("/report.json"));
        assert!(page.contains("update_ratio"));
        assert!(page.contains("svg"));
        // Zero external assets: nothing fetched from elsewhere. The
        // only absolute URL allowed is the SVG XML namespace constant,
        // which the browser never requests.
        assert!(!page.contains("https://"));
        let externals = page
            .matches("http://")
            .count();
        assert_eq!(externals, page.matches("http://www.w3.org/2000/svg").count());
        assert!(!page.contains("src="));
        assert!(!page.contains("<link"));
        assert!(!page.contains("@import"));
    }
}
