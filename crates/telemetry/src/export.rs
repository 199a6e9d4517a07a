//! Exporters: Chrome trace-event JSON and JSONL metrics snapshots.
//!
//! The trace format is the Chrome trace-event "JSON object format"
//! (`{"traceEvents": [...]}`), which Perfetto and `chrome://tracing` both
//! load directly. Each [`Track`](crate::Track) becomes one named thread
//! (`"M"` metadata events) under a single process; spans are complete
//! (`"X"`) events and markers are instants (`"i"`). Timestamps are
//! microseconds relative to the telemetry [`epoch`](crate::epoch).
//!
//! Metrics snapshots are one JSON object per line; histograms carry
//! count/sum/min/max/mean plus p50/p95/p99 so downstream tooling never has
//! to re-derive percentiles from buckets.

use crate::json::{escape_into, push_f64};
use crate::metrics::{self, MetricSnapshot};
use crate::trace::{self, EventKind, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The single Chrome-trace process id used for all tracks.
const PID: u32 = 1;

/// Where [`export_run`] writes its artefacts.
pub const TELEMETRY_DIR: &str = "results/telemetry";

/// Per-process header recorded alongside the trace so a merge tool can
/// rebase this process's monotonic timeline onto the hub clock.
///
/// Serialised as a top-level `"grace"` object in the trace JSON — Perfetto
/// and `chrome://tracing` ignore unknown top-level keys, so a headered
/// trace still loads everywhere a plain one does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// This process's rank; `None` for the hub/launcher process.
    pub rank: Option<usize>,
    /// World size of the run.
    pub world: usize,
    /// Estimated `hub_clock - local_clock` in nanoseconds (NTP midpoint,
    /// min-RTT sample). Adding this to a local timestamp yields hub time.
    pub clock_offset_ns: i64,
    /// Round-trip time of the winning offset sample, in nanoseconds — the
    /// uncertainty bound on the offset.
    pub clock_rtt_ns: u64,
}

static TRACE_HEADER: Mutex<Option<TraceHeader>> = Mutex::new(None);

/// Installs the header stamped onto subsequent [`export_run_to`] calls and
/// post-mortem bundles in this process. `None` clears it (the default:
/// headerless trace).
pub fn set_trace_header(header: Option<TraceHeader>) {
    *TRACE_HEADER.lock().unwrap_or_else(|e| e.into_inner()) = header;
}

/// The currently installed export header, if any.
pub fn trace_header() -> Option<TraceHeader> {
    *TRACE_HEADER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Microseconds with sub-µs precision preserved (ns → µs, 3 decimals).
fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Renders events as a Chrome trace-event JSON document.
///
/// Emits one `thread_name` metadata record per distinct track (sorted by
/// tid, so lane tracks appear in rank order below the stage tracks), then
/// every event in recording order.
pub fn trace_json_string(events: &[TraceEvent]) -> String {
    trace_json_string_with_header(events, None)
}

/// [`trace_json_string`] plus an optional per-process `"grace"` header
/// object carrying the rank identity and clock-offset estimate.
pub fn trace_json_string_with_header(
    events: &[TraceEvent],
    header: Option<&TraceHeader>,
) -> String {
    // Collect track names keyed by tid; BTreeMap gives stable ordering.
    let mut tracks: BTreeMap<u32, String> = BTreeMap::new();
    for ev in events {
        tracks
            .entry(ev.track.tid())
            .or_insert_with(|| ev.track.label());
    }

    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (tid, name) in &tracks {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\""
        );
        escape_into(&mut out, name);
        out.push_str("\"}}");
    }
    for ev in events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"ph\":\"");
        out.push_str(match ev.kind {
            EventKind::Span => "X",
            EventKind::Instant => "i",
        });
        let _ = write!(
            out,
            "\",\"pid\":{PID},\"tid\":{},\"name\":\"",
            ev.track.tid()
        );
        escape_into(&mut out, ev.name);
        out.push_str("\",\"ts\":");
        push_us(&mut out, ev.ts_ns);
        match ev.kind {
            EventKind::Span => {
                out.push_str(",\"dur\":");
                push_us(&mut out, ev.dur_ns);
            }
            // Thread-scoped instant marker.
            EventKind::Instant => out.push_str(",\"s\":\"t\""),
        }
        if let Some((key, val)) = ev.arg {
            out.push_str(",\"args\":{\"");
            escape_into(&mut out, key);
            let _ = write!(out, "\":{val}");
            if let Some((key2, val2)) = ev.arg2 {
                out.push_str(",\"");
                escape_into(&mut out, key2);
                let _ = write!(out, "\":{val2}");
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push(']');
    if let Some(h) = header {
        out.push_str(",\"grace\":{\"rank\":");
        match h.rank {
            Some(r) => {
                let _ = write!(out, "{r}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"world\":{},\"clock_offset_ns\":{},\"clock_rtt_ns\":{}}}",
            h.world, h.clock_offset_ns, h.clock_rtt_ns
        );
    }
    out.push_str(",\"displayTimeUnit\":\"ms\"}");
    out
}

/// Renders metric snapshots as JSONL (one object per line, trailing
/// newline).
pub fn metrics_jsonl_string(snaps: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    for snap in snaps {
        match snap {
            MetricSnapshot::Counter { name, value } => {
                out.push_str("{\"type\":\"counter\",\"name\":\"");
                escape_into(&mut out, name);
                let _ = write!(out, "\",\"value\":{value}}}");
            }
            MetricSnapshot::Gauge { name, value } => {
                out.push_str("{\"type\":\"gauge\",\"name\":\"");
                escape_into(&mut out, name);
                out.push_str("\",\"value\":");
                push_f64(&mut out, *value);
                out.push('}');
            }
            MetricSnapshot::Histogram { name, hist } => {
                out.push_str("{\"type\":\"histogram\",\"name\":\"");
                escape_into(&mut out, name);
                let _ = write!(
                    out,
                    "\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":",
                    hist.count(),
                    hist.sum(),
                    hist.min(),
                    hist.max()
                );
                push_f64(&mut out, hist.mean());
                let _ = write!(
                    out,
                    ",\"p50\":{},\"p95\":{},\"p99\":{}}}",
                    hist.percentile(0.50),
                    hist.percentile(0.95),
                    hist.percentile(0.99)
                );
            }
        }
        out.push('\n');
    }
    out
}

/// File paths produced by [`export_run`].
#[derive(Debug, Clone)]
pub struct ExportPaths {
    /// The Chrome trace-event JSON (open in <https://ui.perfetto.dev>).
    pub trace: PathBuf,
    /// The JSONL metrics snapshot.
    pub metrics: PathBuf,
}

pub(crate) fn sanitize(label: &str) -> String {
    let cleaned: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '-'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "run".to_string()
    } else {
        cleaned
    }
}

/// Writes the stored trace events and the metrics registry to
/// `<dir>/<label>.trace.json` and `<dir>/<label>.metrics.jsonl`, creating
/// `dir` if needed, with the installed [`trace_header`] (if any). The event
/// store is left untouched (use [`trace::take_events`] to drain it).
pub fn export_run_to(dir: impl AsRef<Path>, label: &str) -> io::Result<ExportPaths> {
    write_run(dir.as_ref(), label, trace_header().as_ref())
}

/// [`export_run_to`] with an explicit header — the one place a
/// `*.trace.json` is written (a post-mortem bundle passes a synthesized
/// identity header when none is installed).
pub(crate) fn write_run(
    dir: &Path,
    label: &str,
    header: Option<&TraceHeader>,
) -> io::Result<ExportPaths> {
    fs::create_dir_all(dir)?;
    let stem = sanitize(label);
    let paths = ExportPaths {
        trace: dir.join(format!("{stem}.trace.json")),
        metrics: dir.join(format!("{stem}.metrics.jsonl")),
    };
    let events = trace::snapshot_events();
    fs::write(&paths.trace, trace_json_string_with_header(&events, header))?;
    fs::write(
        &paths.metrics,
        metrics_jsonl_string(&metrics::snapshot_all()),
    )?;
    Ok(paths)
}

/// [`export_run_to`] with the conventional [`TELEMETRY_DIR`] destination.
pub fn export_run(label: &str) -> io::Result<ExportPaths> {
    export_run_to(TELEMETRY_DIR, label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::trace::{EventKind, TraceEvent, Track};
    use crate::{Histogram, Stage};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                name: "compress",
                track: Track::Lane(0),
                ts_ns: 1_500,
                dur_ns: 2_250,
                kind: EventKind::Span,
                arg: Some(("bytes", 42)),
                arg2: None,
            },
            TraceEvent {
                name: "fault: drop",
                track: Track::Stage(Stage::Fault),
                ts_ns: 4_000,
                dur_ns: 0,
                kind: EventKind::Instant,
                arg: None,
                arg2: None,
            },
        ]
    }

    #[test]
    fn trace_json_is_valid_and_complete() {
        let text = trace_json_string(&sample_events());
        let doc = json::parse(&text).expect("trace must parse");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 2 metadata records (two distinct tracks) + 2 events.
        assert_eq!(events.len(), 4);
        let meta: Vec<&json::Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 2);
        assert!(meta.iter().any(|m| {
            m.get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
                == Some("lane 0")
        }));
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(2.25));
        assert_eq!(
            span.get("args").unwrap().get("bytes").unwrap().as_f64(),
            Some(42.0)
        );
        let instant = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i"))
            .unwrap();
        assert_eq!(instant.get("s").and_then(|s| s.as_str()), Some("t"));
    }

    #[test]
    fn header_and_second_arg_render() {
        let events = vec![TraceEvent {
            name: "net.roundtrip",
            track: Track::Net(2),
            ts_ns: 9_000,
            dur_ns: 1_000,
            kind: EventKind::Span,
            arg: Some(("step", 5)),
            arg2: Some(("op", 3)),
        }];
        let header = TraceHeader {
            rank: Some(2),
            world: 4,
            clock_offset_ns: -1_234,
            clock_rtt_ns: 8_900,
        };
        let text = trace_json_string_with_header(&events, Some(&header));
        let doc = json::parse(&text).expect("headered trace must parse");
        let grace = doc.get("grace").expect("grace header present");
        assert_eq!(grace.get("rank").unwrap().as_f64(), Some(2.0));
        assert_eq!(grace.get("world").unwrap().as_f64(), Some(4.0));
        assert_eq!(
            grace.get("clock_offset_ns").unwrap().as_f64(),
            Some(-1234.0)
        );
        assert_eq!(grace.get("clock_rtt_ns").unwrap().as_f64(), Some(8900.0));
        let span = doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        let args = span.get("args").unwrap();
        assert_eq!(args.get("step").unwrap().as_f64(), Some(5.0));
        assert_eq!(args.get("op").unwrap().as_f64(), Some(3.0));
        // The hub writes rank:null.
        let hub = TraceHeader {
            rank: None,
            world: 4,
            clock_offset_ns: 0,
            clock_rtt_ns: 0,
        };
        let text = trace_json_string_with_header(&[], Some(&hub));
        let doc = json::parse(&text).unwrap();
        assert!(doc.get("grace").unwrap().get("rank").unwrap().is_null());
    }

    #[test]
    fn empty_trace_still_parses() {
        let text = trace_json_string(&[]);
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn metrics_jsonl_lines_parse_and_carry_percentiles() {
        let mut hist = Histogram::new();
        for v in [10u64, 20, 30, 1000] {
            hist.record(v);
        }
        let snaps = vec![
            MetricSnapshot::Counter {
                name: "traffic.bytes_total".to_string(),
                value: 7,
            },
            MetricSnapshot::Gauge {
                name: "ratio".to_string(),
                value: 2.5,
            },
            MetricSnapshot::Histogram {
                name: "exchange.compress_ns".to_string(),
                hist: Box::new(hist),
            },
        ];
        let text = metrics_jsonl_string(&snaps);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            json::parse(line).expect("each JSONL line must parse");
        }
        let h = json::parse(lines[2]).unwrap();
        assert_eq!(h.get("type").unwrap().as_str(), Some("histogram"));
        assert_eq!(h.get("count").unwrap().as_f64(), Some(4.0));
        for key in ["p50", "p95", "p99", "mean", "min", "max"] {
            assert!(h.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn labels_are_sanitized() {
        assert_eq!(sanitize("bandwidth sweep/qsgd"), "bandwidth-sweep-qsgd");
        assert_eq!(sanitize(""), "run");
    }
}
