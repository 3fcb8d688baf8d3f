//! Live metrics exposition over HTTP — std-only (`std::net`), no deps.
//!
//! [`start`] binds a `TcpListener` and serves, from a background
//! thread, a read-only snapshot of the process's metrics surface:
//!
//! * `GET /metrics` — Prometheus text exposition format (version
//!   0.0.4): every registered counter (as `_total`), gauge, and
//!   histogram (cumulative `_bucket{le="..."}` series + `_sum` +
//!   `_count`, bounds in nanoseconds matching the `_ns` convention).
//! * `GET /healthz` — `200 {"status":"ok"|"degraded"}` while no `fail`
//!   health event is recorded, `503 {"status":"failing", ...}` after.
//! * `GET /report.json` — the most recently [`publish_report`]ed run
//!   report (the in-progress document while a run is live, with its
//!   `profile` and `insight` sections; the finished one adds
//!   `critpath`), `404` before the first publish.
//! * `GET /timeseries.json` — the retained telemetry store as a
//!   `tgl-timeseries/v1` artifact (see [`crate::timeseries`]).
//! * `GET /alerts.json` — installed SLO rules, their firing state, and
//!   the transition history as `tgl-alerts/v1` (see [`crate::alert`]).
//! * `GET /dashboard` — a self-contained live HTML dashboard (inline
//!   JS + SVG sparklines, zero external assets; see
//!   [`crate::dashboard`]).
//! * `GET /quit` — releases [`wait_for_quit`] so a driver script can
//!   scrape a short-lived process deterministically and then let it
//!   exit.
//!
//! The server is deliberately minimal: HTTP/1.0 semantics, one request
//! per connection, everything rendered from atomics at request time. It
//! never writes to any metric, so scraping cannot perturb a run beyond
//! the snapshot loads themselves. Accepted connections are dispatched
//! to a small worker pool ([`WORKERS`] threads per listener) so one
//! slow render — a big `/dashboard` or `/timeseries.json` body — never
//! blocks a concurrent `/healthz` liveness probe.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::{health, hist, metrics};

static REPORT: Mutex<Option<String>> = Mutex::new(None);
static QUIT: Mutex<bool> = Mutex::new(false);
static QUIT_CV: Condvar = Condvar::new();

/// Publishes (replaces) the document served at `/report.json`.
/// Harness reporters call this after every epoch so the endpoint shows
/// the in-progress run, not just the finished one.
pub fn publish_report(json: String) {
    *REPORT.lock().unwrap_or_else(|e| e.into_inner()) = Some(json);
}

/// The most recently published report, if any.
pub fn latest_report() -> Option<String> {
    REPORT.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Blocks until a `/quit` request arrives or `timeout` elapses.
/// Returns `true` when quit was requested.
pub fn wait_for_quit(timeout: Duration) -> bool {
    let guard = QUIT.lock().unwrap_or_else(|e| e.into_inner());
    let (guard, result) = QUIT_CV
        .wait_timeout_while(guard, timeout, |quit| !*quit)
        .unwrap_or_else(|e| e.into_inner());
    drop(guard);
    !result.timed_out()
}

fn signal_quit() {
    *QUIT.lock().unwrap_or_else(|e| e.into_inner()) = true;
    QUIT_CV.notify_all();
}

/// Mangles a dotted metric name into a valid Prometheus metric name:
/// `tensor.pool.hit` → `tgl_tensor_pool_hit`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("tgl_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Formats a float the exposition format accepts (no exponent
/// surprises for integral values).
fn prom_num(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders the full Prometheus text exposition document from the
/// current counter / gauge / histogram registries.
pub fn render_prometheus() -> String {
    let mut out = String::new();
    for (name, value) in metrics::snapshot() {
        let p = prom_name(name);
        out.push_str(&format!("# TYPE {p}_total counter\n{p}_total {value}\n"));
    }
    for (name, value) in hist::gauge_snapshot() {
        let p = prom_name(name);
        out.push_str(&format!("# TYPE {p} gauge\n{p} {}\n", prom_num(value)));
    }
    for (name, snap) in hist::hist_snapshot() {
        let p = prom_name(name);
        out.push_str(&format!("# TYPE {p} histogram\n"));
        // Cumulative counts up to the highest non-empty bucket, then
        // +Inf. An empty histogram still exposes its +Inf bucket so the
        // family is visible as soon as it is registered.
        let last = snap
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        let mut cum = 0u64;
        for i in 0..last {
            cum += snap.buckets[i];
            out.push_str(&format!(
                "{p}_bucket{{le=\"{}\"}} {cum}\n",
                hist::bucket_hi(i)
            ));
        }
        out.push_str(&format!("{p}_bucket{{le=\"+Inf\"}} {}\n", snap.count));
        out.push_str(&format!("{p}_sum {}\n", snap.sum));
        out.push_str(&format!("{p}_count {}\n", snap.count));
    }
    out
}

/// Renders the `/healthz` body and whether the process is healthy.
fn render_health() -> (bool, String) {
    let worst = health::worst();
    let status = match worst {
        Some(health::Level::Fail) => "failing",
        Some(health::Level::Warn) => "degraded",
        _ => "ok",
    };
    let events = health::events();
    let body = format!(
        "{{\"status\":\"{status}\",\"events\":{},\"dropped\":{}}}\n",
        events.len(),
        health::dropped()
    );
    (worst != Some(health::Level::Fail), body)
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

fn handle(mut stream: TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .ok();
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers so well-behaved clients see a clean close.
    let mut line = String::new();
    while reader.read_line(&mut line).is_ok() && line.trim() != "" {
        line.clear();
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        respond(&mut stream, "405 Method Not Allowed", "text/plain", "GET only\n");
        return;
    }
    match path {
        "/metrics" => {
            let body = render_prometheus();
            respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        "/healthz" => {
            let (ok, body) = render_health();
            let status = if ok { "200 OK" } else { "503 Service Unavailable" };
            respond(&mut stream, status, "application/json", &body);
        }
        "/report.json" => match latest_report() {
            Some(json) => respond(&mut stream, "200 OK", "application/json", &json),
            None => respond(
                &mut stream,
                "404 Not Found",
                "application/json",
                "{\"error\":\"no report published yet\"}\n",
            ),
        },
        "/timeseries.json" => {
            let body = crate::timeseries::to_json();
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        "/alerts.json" => {
            let body = crate::alert::to_json();
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        "/dashboard" => {
            let delay = TEST_RENDER_DELAY_MS.load(Ordering::Relaxed);
            if delay > 0 {
                std::thread::sleep(Duration::from_millis(delay));
            }
            respond(
                &mut stream,
                "200 OK",
                "text/html; charset=utf-8",
                crate::dashboard::html(),
            );
        }
        "/quit" => {
            respond(&mut stream, "200 OK", "text/plain", "bye\n");
            signal_quit();
        }
        _ => respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

/// Artificial delay injected into `/dashboard` rendering, in
/// milliseconds. Test-only hook: the parallel-scrape test uses it to
/// prove a slow render on one worker never blocks `/healthz` on
/// another.
#[doc(hidden)]
pub static TEST_RENDER_DELAY_MS: AtomicU64 = AtomicU64::new(0);

/// Request-handling worker threads per listener. Small on purpose:
/// scrape traffic is a handful of concurrent clients, and the workers
/// only read atomics — the pool exists so one slow response cannot
/// serialize a liveness probe behind it, not for throughput.
pub const WORKERS: usize = 4;

/// Binds `addr` (e.g. `127.0.0.1:0`) and serves the exposition
/// endpoints for the life of the process: one accept thread feeding a
/// bounded hand-off queue drained by [`WORKERS`] handler threads.
/// Returns the bound address (useful with port 0).
///
/// # Errors
///
/// Returns the bind error when the address is unavailable.
pub fn start(addr: &str) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    type Queue = (Mutex<VecDeque<TcpStream>>, Condvar);
    let queue: Arc<Queue> = Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));
    for i in 0..WORKERS {
        let queue = Arc::clone(&queue);
        std::thread::Builder::new()
            .name(format!("tgl-metrics-worker-{i}"))
            .spawn(move || loop {
                let stream = {
                    let (lock, cv) = &*queue;
                    let mut q = lock.lock().unwrap_or_else(|e| e.into_inner());
                    loop {
                        if let Some(s) = q.pop_front() {
                            break s;
                        }
                        q = cv.wait(q).unwrap_or_else(|e| e.into_inner());
                    }
                };
                handle(stream);
            })
            .expect("spawn metrics worker thread");
    }
    std::thread::Builder::new()
        .name("tgl-metrics-server".into())
        .spawn(move || {
            for stream in listener.incoming() {
                match stream {
                    Ok(s) => {
                        let (lock, cv) = &*queue;
                        let mut q = lock.lock().unwrap_or_else(|e| e.into_inner());
                        // Bound the backlog: beyond it, shed the oldest
                        // waiting connection (its client sees a reset)
                        // rather than queueing without limit.
                        if q.len() >= WORKERS * 16 {
                            q.pop_front();
                        }
                        q.push_back(s);
                        cv.notify_one();
                    }
                    Err(_) => continue,
                }
            }
        })
        .expect("spawn metrics server thread");
    Ok(bound)
}

/// Minimal scrape client for the server above (used by `tgl promcheck`
/// and the test suite): sends `GET path` to `addr`, returns
/// `(status_code, body)`.
///
/// # Errors
///
/// Returns connection or protocol errors.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    http_get_timeout(addr, path, Duration::from_secs(5))
}

/// [`http_get`] with an explicit bound on *every* blocking phase:
/// address resolution aside, connect, write, and read each time out
/// after `timeout` instead of hanging a CI scrape on a half-open
/// listener (the bare `TcpStream::connect` has no deadline at all).
///
/// # Errors
///
/// Returns connection or protocol errors; timeouts surface as
/// `TimedOut`/`WouldBlock` errors naming the phase that stalled.
pub fn http_get_timeout(
    addr: &str,
    path: &str,
    timeout: Duration,
) -> std::io::Result<(u16, String)> {
    use std::net::ToSocketAddrs;
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{addr}: no usable socket address"),
            )
        })?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout).map_err(|e| {
        std::io::Error::new(
            e.kind(),
            format!("connect to {addr} failed within {timeout:?}: {e}"),
        )
    })?;
    stream.set_read_timeout(Some(timeout)).ok();
    stream.set_write_timeout(Some(timeout)).ok();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n")?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_names_are_legal() {
        assert_eq!(prom_name("tensor.pool.hit"), "tgl_tensor_pool_hit");
        assert_eq!(prom_name("pool.busy_ns.t3"), "tgl_pool_busy_ns_t3");
    }

    #[test]
    fn render_contains_counters_gauges_and_histograms() {
        crate::counter!("test.expo.count").add(3);
        crate::gauge!("test.expo.level").set(1.5);
        crate::histogram!("test.expo.lat_ns").record_always(700);
        let doc = render_prometheus();
        assert!(doc.contains("# TYPE tgl_test_expo_count_total counter"));
        assert!(doc.contains("tgl_test_expo_count_total"));
        assert!(doc.contains("# TYPE tgl_test_expo_level gauge"));
        assert!(doc.contains("tgl_test_expo_level 1.5"));
        assert!(doc.contains("# TYPE tgl_test_expo_lat_ns histogram"));
        assert!(doc.contains("tgl_test_expo_lat_ns_bucket{le=\"+Inf\"}"));
        assert!(doc.contains("tgl_test_expo_lat_ns_sum"));
        assert!(doc.contains("tgl_test_expo_lat_ns_count"));
        // Bucket lines are cumulative and end at the +Inf total.
        let bucket_lines: Vec<u64> = doc
            .lines()
            .filter(|l| l.starts_with("tgl_test_expo_lat_ns_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(bucket_lines.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn server_serves_metrics_healthz_report_and_quit() {
        let addr = start("127.0.0.1:0").expect("bind");
        let addr = addr.to_string();

        let (code, body) = http_get(&addr, "/metrics").expect("scrape /metrics");
        assert_eq!(code, 200);
        assert!(body.contains("# TYPE "), "exposition body: {body:?}");

        let (code, body) = http_get(&addr, "/healthz").expect("scrape /healthz");
        assert!(code == 200 || code == 503);
        assert!(body.contains("\"status\""));

        let (code, _) = http_get(&addr, "/nope").expect("scrape 404");
        assert_eq!(code, 404);

        // Retired endpoints: their documents are sections of the report.
        for gone in ["/profile.json", "/critpath.json", "/insight.json", "/flight.json"] {
            assert_eq!(http_get(&addr, gone).expect("scrape retired").0, 404, "{gone}");
        }

        publish_report("{\"schema\":\"tgl-run-report/v2\"}".into());
        let (code, body) = http_get(&addr, "/report.json").expect("scrape report");
        assert_eq!(code, 200);
        assert!(body.contains("tgl-run-report"));

        let (code, body) = http_get(&addr, "/timeseries.json").expect("scrape timeseries");
        assert_eq!(code, 200);
        assert!(body.contains("\"schema\": \"tgl-timeseries/v1\""));

        let (code, body) = http_get(&addr, "/alerts.json").expect("scrape alerts");
        assert_eq!(code, 200);
        assert!(body.contains("\"schema\": \"tgl-alerts/v1\""));

        let (code, body) = http_get(&addr, "/dashboard").expect("scrape dashboard");
        assert_eq!(code, 200);
        assert!(body.starts_with("<!DOCTYPE html>"));
        assert!(body.contains("</html>"));

        assert!(!wait_for_quit(Duration::from_millis(1)));
        let (code, _) = http_get(&addr, "/quit").expect("quit");
        assert_eq!(code, 200);
        assert!(wait_for_quit(Duration::from_secs(5)));
    }

    #[test]
    fn http_get_timeout_names_the_connect_phase() {
        // Nothing listens on the port; the refusal (or timeout) must
        // come back as an error naming the connect phase, not a hang.
        let err = http_get_timeout("127.0.0.1:1", "/metrics", Duration::from_millis(500))
            .expect_err("nothing listens on port 1");
        assert!(
            err.to_string().contains("connect to 127.0.0.1:1"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn slow_dashboard_render_does_not_block_healthz() {
        let addr = start("127.0.0.1:0").expect("bind").to_string();
        TEST_RENDER_DELAY_MS.store(800, Ordering::Relaxed);
        let slow = {
            let addr = addr.clone();
            std::thread::spawn(move || http_get(&addr, "/dashboard").expect("slow dashboard"))
        };
        // Give the slow request time to occupy its worker.
        std::thread::sleep(Duration::from_millis(100));
        let t0 = std::time::Instant::now();
        let (code, _) = http_get(&addr, "/healthz").expect("healthz during slow render");
        let elapsed = t0.elapsed();
        TEST_RENDER_DELAY_MS.store(0, Ordering::Relaxed);
        assert!(code == 200 || code == 503);
        assert!(
            elapsed < Duration::from_millis(600),
            "/healthz waited {elapsed:?} behind a slow /dashboard render"
        );
        let (code, body) = slow.join().expect("join slow scrape");
        assert_eq!(code, 200);
        assert!(body.contains("</html>"));
    }
}
