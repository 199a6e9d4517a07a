//! Dependency-free live metrics endpoint.
//!
//! [`serve`] binds a `std::net::TcpListener` and answers plain HTTP/1.1 on
//! a background thread:
//!
//! * `GET /metrics` — every registered counter/gauge/histogram in the
//!   Prometheus text exposition format (version 0.0.4). Metric names have
//!   `.` mapped to `_` (`exchange.compress_ns` → `exchange_compress_ns`);
//!   histograms expose their native log₂ buckets as cumulative
//!   `_bucket{le="…"}` series plus `_sum` and `_count`.
//! * `GET /health` — a compact JSON view of the `health.*` series written
//!   by `grace-core`'s `HealthMonitor`: overall status plus the latest
//!   gauge values and anomaly counters.
//! * `GET /` — a one-line index pointing at the two routes.
//!
//! The endpoint is opt-in (`GRACE_METRICS_ADDR` or
//! `TrainConfig::metrics_addr` in `grace-core`) and costs the training hot
//! path nothing: scraping snapshots the lock-free registry on the server
//! thread; no instrumentation site ever blocks on, or even knows about, the
//! listener. When nothing scrapes, the server thread sleeps in `accept`.

use crate::json;
use crate::metrics::{self, MetricSnapshot, BUCKETS};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Maps a registry metric name onto the Prometheus name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): `.` and any other invalid character become
/// `_`, and a leading digit is prefixed with `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn push_prom_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Renders metric snapshots in the Prometheus text exposition format
/// (version 0.0.4).
///
/// Histograms use the registry's log₂ bucket layout: bucket 0 (zeros) maps
/// to `le="0"`, bucket `i ≥ 1` (values in `[2^(i−1), 2^i)`) to
/// `le="2^i − 1"`, emitted cumulatively up to the highest populated bucket
/// and closed with the mandatory `le="+Inf"` series.
pub fn prometheus_text(snaps: &[MetricSnapshot]) -> String {
    let mut out = String::with_capacity(snaps.len() * 96);
    for snap in snaps {
        let name = prometheus_name(snap.name());
        match snap {
            MetricSnapshot::Counter { value, .. } => {
                let _ = write!(out, "# TYPE {name} counter\n{name} {value}\n");
            }
            MetricSnapshot::Gauge { value, .. } => {
                let _ = write!(out, "# TYPE {name} gauge\n{name} ");
                push_prom_f64(&mut out, *value);
                out.push('\n');
            }
            MetricSnapshot::Histogram { hist, .. } => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let buckets = hist.buckets();
                let top = buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
                let mut cumulative = 0u64;
                for (i, &n) in buckets.iter().enumerate().take(top + 1) {
                    cumulative += n;
                    // The last bucket absorbs everything; it has no finite
                    // upper bound and is covered by +Inf below.
                    if i == BUCKETS - 1 {
                        break;
                    }
                    let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                let _ = write!(
                    out,
                    "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
                    hist.count(),
                    hist.sum(),
                    hist.count()
                );
            }
        }
    }
    out
}

/// One parsed exposition sample (see [`parse_exposition`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sample name, including any `_bucket`/`_sum`/`_count` suffix.
    pub name: String,
    /// Label pairs in source order (empty for unlabelled samples).
    pub labels: Vec<(String, String)>,
    /// Sample value (`NaN`/`±Inf` literals are honoured).
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn parse_prom_value(s: &str) -> Result<f64, String> {
    match s {
        "NaN" => Ok(f64::NAN),
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        _ => s
            .parse::<f64>()
            .map_err(|e| format!("bad value {s:?}: {e}")),
    }
}

/// Parses Prometheus text exposition (the subset [`prometheus_text`]
/// emits: comments, `name value`, and `name{k="v",…} value` lines) back
/// into samples. Tests use this to round-trip a scrape against the
/// registry snapshot it came from.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, value) = match line.find('{') {
            Some(_) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("unclosed labels in {line:?}"))?;
                (&line[..close + 1], line[close + 1..].trim())
            }
            None => {
                let sp = line
                    .find(|c: char| c.is_ascii_whitespace())
                    .ok_or_else(|| format!("no value in {line:?}"))?;
                (&line[..sp], line[sp..].trim())
            }
        };
        let (name, labels) = match head.find('{') {
            Some(brace) => {
                let body = &head[brace + 1..head.len() - 1];
                let mut labels = Vec::new();
                for pair in body.split(',').filter(|p| !p.trim().is_empty()) {
                    let eq = pair
                        .find('=')
                        .ok_or_else(|| format!("bad label pair {pair:?}"))?;
                    let key = pair[..eq].trim().to_string();
                    let raw = pair[eq + 1..].trim();
                    let val = raw
                        .strip_prefix('"')
                        .and_then(|r| r.strip_suffix('"'))
                        .ok_or_else(|| format!("unquoted label value {raw:?}"))?;
                    labels.push((key, val.replace("\\\"", "\"").replace("\\\\", "\\")));
                }
                (head[..brace].to_string(), labels)
            }
            None => (head.to_string(), Vec::new()),
        };
        samples.push(Sample {
            name,
            labels,
            value: parse_prom_value(value)?,
        });
    }
    Ok(samples)
}

/// Renders the `/health` JSON document from metric snapshots: overall
/// status (`"alert"` while the monitor's `health.tripped` gauge is
/// nonzero, `"ok"` otherwise), the total anomaly count, and every
/// `health.*` series by name.
pub fn health_json(snaps: &[MetricSnapshot]) -> String {
    let mut tripped = 0.0f64;
    let mut anomalies = 0u64;
    for snap in snaps {
        match snap {
            MetricSnapshot::Gauge { name, value } if name == "health.tripped" => tripped = *value,
            MetricSnapshot::Counter { name, value } if name == "health.anomalies_total" => {
                anomalies = *value
            }
            _ => {}
        }
    }
    let mut out = String::from("{\"status\":\"");
    out.push_str(if tripped > 0.0 { "alert" } else { "ok" });
    let _ = write!(
        out,
        "\",\"recorder\":{{\"active\":{},\"tripped\":{}}}",
        crate::recorder::active(),
        crate::recorder::tripped()
    );
    let _ = write!(out, ",\"anomalies_total\":{anomalies},\"series\":{{");
    let mut first = true;
    for snap in snaps {
        if !snap.name().starts_with("health.") {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        json::escape_into(&mut out, snap.name());
        out.push_str("\":");
        match snap {
            MetricSnapshot::Counter { value, .. } => {
                let _ = write!(out, "{value}");
            }
            MetricSnapshot::Gauge { value, .. } => json::push_f64(&mut out, *value),
            MetricSnapshot::Histogram { hist, .. } => {
                let _ = write!(out, "{}", hist.count());
            }
        }
    }
    out.push_str("}}");
    out
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn handle_connection(mut stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the headers so well-behaved clients see a clean close.
    let mut header = String::new();
    while reader.read_line(&mut header)? > 2 {
        header.clear();
    }
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split(['?', '#']).next().unwrap_or("");
    if method != "GET" {
        return write_response(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        );
    }
    match path {
        "/metrics" => {
            let body = prometheus_text(&metrics::snapshot_all());
            write_response(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/health" => {
            let body = health_json(&metrics::snapshot_all());
            write_response(&mut stream, "200 OK", "application/json", &body)
        }
        "/" => write_response(
            &mut stream,
            "200 OK",
            "text/plain; charset=utf-8",
            "grace metrics endpoint: GET /metrics (Prometheus 0.0.4) or GET /health (JSON)\n",
        ),
        _ => write_response(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "unknown path; try /metrics or /health\n",
        ),
    }
}

/// A running metrics endpoint. Dropping it shuts the server down (the
/// listener is woken with a loopback connection and the thread joined).
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept; an ignored error just means the
        // listener already went away.
        if let Ok(mut s) = TcpStream::connect(self.addr) {
            let _ = s.write_all(b"");
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:9184"`; port 0 picks an ephemeral port)
/// and serves `/metrics` + `/health` from a background thread until the
/// returned [`MetricsServer`] is dropped.
pub fn serve(addr: &str) -> io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("grace-metrics".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    // A slow or broken scraper must never take the server
                    // down; per-connection errors are dropped.
                    let _ = handle_connection(stream);
                }
            }
        })?;
    Ok(MetricsServer {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

/// Starts the endpoint if `GRACE_METRICS_ADDR` is set and non-empty.
/// A bind failure is reported on stderr but never aborts the training run.
pub fn serve_from_env() -> Option<MetricsServer> {
    let addr = std::env::var("GRACE_METRICS_ADDR").ok()?;
    let addr = addr.trim();
    if addr.is_empty() {
        return None;
    }
    match serve(addr) {
        Ok(server) => Some(server),
        Err(e) => {
            eprintln!("[grace-telemetry] cannot bind metrics endpoint {addr}: {e}");
            None
        }
    }
}

/// Issues a plain-HTTP GET against a [`serve`]d endpoint and returns the
/// response body. Test/CI helper — real deployments point Prometheus or
/// `curl` at the endpoint instead.
pub fn scrape(addr: SocketAddr, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or(response);
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    fn sample_snaps() -> Vec<MetricSnapshot> {
        let mut hist = Histogram::new();
        for v in [0u64, 1, 3, 9, 1000] {
            hist.record(v);
        }
        vec![
            MetricSnapshot::Counter {
                name: "traffic.bytes_total".to_string(),
                value: 41,
            },
            MetricSnapshot::Gauge {
                name: "exchange.overlap_ratio".to_string(),
                value: 0.75,
            },
            MetricSnapshot::Histogram {
                name: "exchange.compress_ns".to_string(),
                hist: Box::new(hist),
            },
        ]
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(
            prometheus_name("traffic.bytes_total"),
            "traffic_bytes_total"
        );
        assert_eq!(
            prometheus_name("exchange.encode_ns.lane0"),
            "exchange_encode_ns_lane0"
        );
        assert_eq!(prometheus_name("7seas"), "_7seas");
    }

    #[test]
    fn exposition_round_trips() {
        let text = prometheus_text(&sample_snaps());
        let samples = parse_exposition(&text).expect("parse own output");
        let ctr = samples
            .iter()
            .find(|s| s.name == "traffic_bytes_total")
            .unwrap();
        assert_eq!(ctr.value, 41.0);
        let gauge = samples
            .iter()
            .find(|s| s.name == "exchange_overlap_ratio")
            .unwrap();
        assert_eq!(gauge.value, 0.75);
        let count = samples
            .iter()
            .find(|s| s.name == "exchange_compress_ns_count")
            .unwrap();
        assert_eq!(count.value, 5.0);
        let sum = samples
            .iter()
            .find(|s| s.name == "exchange_compress_ns_sum")
            .unwrap();
        assert_eq!(sum.value, 1013.0);
        // Cumulative buckets: le="0" holds the single zero; +Inf holds all.
        let b0 = samples
            .iter()
            .find(|s| s.name == "exchange_compress_ns_bucket" && s.label("le") == Some("0"))
            .unwrap();
        assert_eq!(b0.value, 1.0);
        let inf = samples
            .iter()
            .find(|s| s.name == "exchange_compress_ns_bucket" && s.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(inf.value, 5.0);
        // Monotone non-decreasing cumulative counts.
        let mut last = 0.0;
        for s in samples
            .iter()
            .filter(|s| s.name == "exchange_compress_ns_bucket")
        {
            assert!(s.value >= last, "buckets must be cumulative");
            last = s.value;
        }
    }

    #[test]
    fn health_json_reports_status() {
        let calm = health_json(&[MetricSnapshot::Gauge {
            name: "health.tripped".to_string(),
            value: 0.0,
        }]);
        let doc = crate::json::parse(&calm).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));

        let alert = health_json(&[
            MetricSnapshot::Gauge {
                name: "health.tripped".to_string(),
                value: 1.0,
            },
            MetricSnapshot::Counter {
                name: "health.anomalies_total".to_string(),
                value: 3,
            },
        ]);
        let doc = crate::json::parse(&alert).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("alert"));
        assert_eq!(doc.get("anomalies_total").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            doc.get("series")
                .unwrap()
                .get("health.tripped")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn server_serves_and_shuts_down() {
        let server = serve("127.0.0.1:0").expect("bind ephemeral");
        let addr = server.local_addr();
        let body = scrape(addr, "/").expect("scrape index");
        assert!(body.contains("/metrics"));
        let health = scrape(addr, "/health").expect("scrape health");
        crate::json::parse(&health).expect("health is JSON");
        let missing = scrape(addr, "/nope").expect("scrape 404");
        assert!(missing.contains("unknown path"));
        drop(server);
        // The port is released after drop: a fresh bind to it succeeds or
        // at minimum connecting no longer reaches a responder.
        assert!(TcpStream::connect(addr).is_err() || serve("127.0.0.1:0").is_ok());
    }
}
