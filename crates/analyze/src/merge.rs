//! The one trace loader, and the cross-rank merged timeline.
//!
//! [`parse_rank_trace`] is the only place a Chrome trace-event export
//! becomes events. A single-process export (a simulated or threaded run)
//! carries no identity header and loads on its own clock. A traced
//! `grace-launch` run leaves a directory of per-process exports —
//! `rank<k>.trace.json` for every socket rank plus the parent's
//! `hub.trace.json` — each stamped (in its `"grace"` header) with that
//! process's NTP-style offset from the hub's telemetry clock; a
//! flight-recorder bundle is the same kind of directory. [`load_dir`]
//! loads one, and [`merged_trace_json`] **rebases** every timestamp onto
//! the hub clock (`ts += clock_offset_ns`) into a single Perfetto document
//! — one *process* per rank (the hub is pid 1, rank *k* is pid *k*+2) so
//! the UI lays the fleet out as parallel process lanes on one shared time
//! axis.

use crate::critical::{STEPS_TRACK, STEP_MARKER};
use grace_telemetry::json::{self, escape_into, push_f64, Value};
use grace_telemetry::TraceHeader;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::path::Path;

/// Merged-document track id for overlaid health-anomaly instants. Chosen
/// outside every exporter-assigned tid (stages 1–5, buckets 6, steps 7,
/// hub 8, lanes 16+, net 4096+) so the overlay gets its own named lane.
pub const HEALTH_TID: u64 = 9;

/// One event lifted out of a per-rank export, timestamps still in that
/// rank's own clock (microseconds, as exported).
#[derive(Debug, Clone)]
pub struct RawEvent {
    /// Chrome phase: `"M"`, `"X"` or `"i"`.
    pub ph: String,
    /// Track id within the source process.
    pub tid: u64,
    /// Event name.
    pub name: String,
    /// Start timestamp in µs (source clock).
    pub ts_us: f64,
    /// Span duration in µs (zero for instants/metadata).
    pub dur_us: f64,
    /// `args` object, numeric and string values preserved.
    pub args: Vec<(String, ArgVal)>,
}

/// A preserved `args` value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgVal {
    /// Any JSON number.
    Num(f64),
    /// A string (e.g. `thread_name` metadata).
    Str(String),
}

impl RawEvent {
    /// Numeric `args` value under `key`, when present.
    pub fn arg_num(&self, key: &str) -> Option<f64> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgVal::Num(n) if k == key => Some(*n),
            _ => None,
        })
    }
}

/// One loaded export: its identity header and its events.
#[derive(Debug, Clone)]
pub struct RankTrace {
    /// The checked `"grace"` header — rank (`None` for the hub), world
    /// size, `hub_clock − this_clock` and the RTT of that estimate. `None`
    /// for a headerless single-process export, which keeps its own clock.
    pub header: Option<TraceHeader>,
    /// Events in recording order, timestamps *not* yet rebased.
    pub events: Vec<RawEvent>,
}

impl RankTrace {
    /// `Some(k)` for rank *k*; `None` for the hub or a headerless export.
    pub fn rank(&self) -> Option<usize> {
        self.header.and_then(|h| h.rank)
    }

    /// Display label: `rank <k>`, `hub`, or `process` when headerless.
    pub fn label(&self) -> String {
        match self.header {
            Some(TraceHeader { rank: Some(k), .. }) => format!("rank {k}"),
            Some(_) => "hub".to_string(),
            None => "process".to_string(),
        }
    }

    /// Merged-document pid: hub is 1, rank *k* is *k* + 2.
    pub fn pid(&self) -> u64 {
        self.rank().map_or(1, |k| k as u64 + 2)
    }

    /// A source timestamp rebased onto the hub clock, in µs.
    pub fn rebase_us(&self, ts_us: f64) -> f64 {
        ts_us + self.header.map_or(0, |h| h.clock_offset_ns) as f64 / 1_000.0
    }

    /// step → step-marker timestamp on this file's own clock (µs), from
    /// the `steps` track.
    pub(crate) fn step_marks(&self) -> BTreeMap<u64, f64> {
        let tracks = self.track_names();
        self.events
            .iter()
            .filter(|e| e.ph == "i" && e.name == STEP_MARKER)
            .filter(|e| tracks.get(&e.tid).copied() == Some(STEPS_TRACK))
            .filter_map(|e| Some((e.arg_num("step")? as u64, e.ts_us)))
            .collect()
    }

    /// tid → track label, from this file's `thread_name` metadata.
    pub(crate) fn track_names(&self) -> BTreeMap<u64, &str> {
        self.events
            .iter()
            .filter(|e| e.ph == "M" && e.name == "thread_name")
            .filter_map(|e| {
                e.args.iter().find_map(|(k, v)| match v {
                    ArgVal::Str(s) if k == "name" => Some((e.tid, s.as_str())),
                    _ => None,
                })
            })
            .collect()
    }
}

/// Why a trace file cannot be loaded.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The text is not a Chrome trace-event export.
    Format(String),
    /// A `"grace"` header field is missing or outside its range.
    Header {
        /// The field, e.g. `"rank"`.
        field: &'static str,
        /// What it must be.
        want: &'static str,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Format(msg) => f.write_str(msg),
            TraceError::Header { field, want } => write!(f, "grace.{field} must be {want}"),
        }
    }
}

/// Parses one trace export. The `"grace"` header is optional — without it
/// the file is one process on its own clock — but a header that is present
/// is checked field by field, so no file can claim a rank outside its world.
///
/// # Errors
///
/// [`TraceError::Format`] when the text is not a trace export,
/// [`TraceError::Header`] naming the first bad header field.
pub fn parse_rank_trace(text: &str) -> Result<RankTrace, TraceError> {
    let doc = json::parse(text).map_err(TraceError::Format)?;
    let header = doc.get("grace").map(parse_header).transpose()?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| {
            TraceError::Format("missing traceEvents array — not a Chrome trace export?".into())
        })?
        .iter()
        .filter_map(|ev| {
            let ph = ev.get("ph").and_then(Value::as_str)?;
            let tid = ev.get("tid").and_then(Value::as_f64)? as u64;
            let name = ev.get("name").and_then(Value::as_str)?;
            let args = match ev.get("args") {
                Some(Value::Object(m)) => m
                    .iter()
                    .filter_map(|(k, v)| {
                        let val = match v {
                            Value::Number(n) => ArgVal::Num(*n),
                            Value::String(s) => ArgVal::Str(s.clone()),
                            _ => return None,
                        };
                        Some((k.clone(), val))
                    })
                    .collect(),
                _ => Vec::new(),
            };
            Some(RawEvent {
                ph: ph.to_string(),
                tid,
                name: name.to_string(),
                ts_us: ev.get("ts").and_then(Value::as_f64).unwrap_or(0.0),
                dur_us: ev.get("dur").and_then(Value::as_f64).unwrap_or(0.0),
                args,
            })
        })
        .collect();
    Ok(RankTrace { header, events })
}

/// Checks a `"grace"` header: `world` an integer in `1..=u32::MAX`, `rank`
/// `null` (the hub) or an integer in `0..world`, `clock_offset_ns` a number.
fn parse_header(h: &Value) -> Result<TraceHeader, TraceError> {
    let bad = |field, want| TraceError::Header { field, want };
    let int_below = |key: &str, end: f64| {
        h.get(key)
            .and_then(Value::as_f64)
            .filter(|x| x.fract() == 0.0 && (0.0..end).contains(x))
    };
    let world = int_below("world", f64::from(u32::MAX) + 1.0)
        .filter(|w| *w >= 1.0)
        .ok_or_else(|| bad("world", "an integer in 1..=4294967295"))? as usize;
    let rank = match h.get("rank") {
        Some(Value::Null) => None,
        _ => Some(
            int_below("rank", world as f64)
                .ok_or_else(|| bad("rank", "null or an integer in 0..world"))? as usize,
        ),
    };
    let clock_offset_ns = h
        .get("clock_offset_ns")
        .and_then(Value::as_f64)
        .ok_or_else(|| bad("clock_offset_ns", "a number"))? as i64;
    Ok(TraceHeader {
        rank,
        world,
        clock_offset_ns,
        clock_rtt_ns: h.get("clock_rtt_ns").and_then(Value::as_f64).unwrap_or(0.0) as u64,
    })
}

/// Loads every `rank<k>.trace.json` (and `hub.trace.json`, if present)
/// from `dir`, sorted hub-first then by rank. Every file must carry its
/// `"grace"` header: placing it on the shared clock needs the offset.
///
/// # Errors
///
/// Names the offending file on an IO failure, a parse failure or a
/// missing header, and rejects directories containing no rank files.
pub fn load_dir(dir: &Path) -> Result<Vec<RankTrace>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut traces = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let is_rank = name.starts_with("rank") && name.ends_with(".trace.json");
        let is_hub = name == "hub.trace.json";
        if !is_rank && !is_hub {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let trace = parse_rank_trace(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if trace.header.is_none() {
            return Err(format!(
                "{}: missing \"grace\" header — re-export with tracing enabled",
                path.display()
            ));
        }
        traces.push(trace);
    }
    if !traces.iter().any(|t| t.rank().is_some()) {
        return Err(format!(
            "no rank*.trace.json files in {} — was the run launched with --trace?",
            dir.display()
        ));
    }
    traces.sort_by_key(|t| t.pid());
    Ok(traces)
}

fn push_us(out: &mut String, us: f64) {
    let _ = write!(out, "{us:.3}");
}

/// Appends `s` as a JSON string literal.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// One anomaly line lifted from a `health.jsonl` / `rank<k>.health.jsonl`
/// sidecar (written by the run-health monitor and by post-mortem bundles).
#[derive(Debug, Clone)]
pub struct HealthEvent {
    /// Rank that observed the anomaly (`None` for legacy lines without a
    /// `rank` field and no rank-derivable filename).
    pub rank: Option<usize>,
    /// Step the anomaly fired on.
    pub step: u64,
    /// Anomaly kind label (`grad_spike`, `residual_growth`, …).
    pub kind: String,
    /// Observed signal value.
    pub value: f64,
    /// Threshold it breached.
    pub threshold: f64,
}

/// Parses one health JSONL line; `fallback_rank` fills in when the line
/// carries no `rank` field (pre-identity logs).
pub fn parse_health_line(line: &str, fallback_rank: Option<usize>) -> Option<HealthEvent> {
    let doc = json::parse(line.trim()).ok()?;
    Some(HealthEvent {
        rank: doc
            .get("rank")
            .and_then(Value::as_f64)
            .map(|r| r as usize)
            .or(fallback_rank),
        step: doc.get("step").and_then(Value::as_f64)? as u64,
        kind: doc.get("kind").and_then(Value::as_str)?.to_string(),
        value: doc.get("value").and_then(Value::as_f64).unwrap_or(0.0),
        threshold: doc.get("threshold").and_then(Value::as_f64).unwrap_or(0.0),
    })
}

/// Loads every anomaly line from `dir`'s health sidecars
/// (`rank<k>.health.jsonl` and plain `health.jsonl`). Missing sidecars are
/// not an error — a healthy run has none.
pub fn load_health_events(dir: &Path) -> Vec<HealthEvent> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut events = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name != "health.jsonl" && !(name.starts_with("rank") && name.ends_with(".health.jsonl"))
        {
            continue;
        }
        let fallback = name
            .strip_prefix("rank")
            .and_then(|s| s.strip_suffix(".health.jsonl"))
            .and_then(|s| s.parse::<usize>().ok());
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        events.extend(
            text.lines()
                .filter(|l| !l.trim().is_empty())
                .filter_map(|l| parse_health_line(l, fallback)),
        );
    }
    events.sort_by_key(|e| e.step);
    events
}

/// Renders the merged Perfetto document: every process's events rebased
/// onto the hub clock, one pid per process, `process_name` metadata naming
/// each lane. Every [`HealthEvent`] is overlaid as an instant on a
/// dedicated `health` track ([`HEALTH_TID`]) of the rank that observed it,
/// at that rank's step-marker timestamp — so a `grad_spike` lines up
/// visually with the spans that produced it. Strings taken from the input
/// files are re-escaped, so the document always parses.
pub fn merged_trace_json(traces: &[RankTrace], health: &[HealthEvent]) -> String {
    // Attribute each anomaly to its observing rank's process lane; events
    // without a resolvable rank ride on the lowest-ranked timeline.
    let fallback = traces.iter().position(|t| t.rank().is_some());
    let mut per_trace: Vec<Vec<&HealthEvent>> = vec![Vec::new(); traces.len()];
    for h in health {
        let idx = traces
            .iter()
            .position(|t| t.rank().is_some() && t.rank() == h.rank)
            .or(fallback);
        if let Some(i) = idx {
            per_trace[i].push(h);
        }
    }
    let mut out =
        String::with_capacity(64 + traces.iter().map(|t| t.events.len()).sum::<usize>() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };
    for (trace, overlay) in traces.iter().zip(&per_trace) {
        let pid = trace.pid();
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
            trace.label()
        );
        let _ = write!(
            out,
            ",{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_sort_index\",\"args\":{{\"sort_index\":{pid}}}}}"
        );
        for ev in &trace.events {
            sep(&mut out);
            out.push_str("{\"ph\":");
            push_quoted(&mut out, &ev.ph);
            let _ = write!(out, ",\"pid\":{pid},\"tid\":{},\"name\":", ev.tid);
            push_quoted(&mut out, &ev.name);
            if ev.ph != "M" {
                out.push_str(",\"ts\":");
                push_us(&mut out, trace.rebase_us(ev.ts_us));
            }
            if ev.ph == "X" {
                out.push_str(",\"dur\":");
                push_us(&mut out, ev.dur_us);
            }
            if ev.ph == "i" {
                out.push_str(",\"s\":\"t\"");
            }
            if !ev.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_quoted(&mut out, k);
                    out.push(':');
                    match v {
                        ArgVal::Num(n) => push_f64(&mut out, *n),
                        ArgVal::Str(s) => push_quoted(&mut out, s),
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        if !overlay.is_empty() {
            let marks = trace.step_marks();
            let last_mark = marks.values().next_back().copied();
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{HEALTH_TID},\"name\":\"thread_name\",\"args\":{{\"name\":\"health\"}}}}"
            );
            for h in overlay {
                let ts = marks.get(&h.step).copied().or(last_mark);
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{HEALTH_TID},\"name\":"
                );
                push_quoted(&mut out, &format!("anomaly: {}", h.kind));
                out.push_str(",\"ts\":");
                push_us(&mut out, ts.map_or(0.0, |t| trace.rebase_us(t)));
                let _ = write!(
                    out,
                    ",\"s\":\"t\",\"args\":{{\"step\":{},\"value\":",
                    h.step
                );
                push_f64(&mut out, h.value);
                out.push_str(",\"threshold\":");
                push_f64(&mut out, h.threshold);
                out.push_str("}}");
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeSet;

    pub(crate) fn rank_doc(rank: usize, offset_ns: i64, events: &[String]) -> String {
        format!(
            "{{\"traceEvents\":[{}],\"grace\":{{\"rank\":{rank},\"world\":2,\"clock_offset_ns\":{offset_ns},\"clock_rtt_ns\":1000}},\"displayTimeUnit\":\"ms\"}}",
            events.join(",")
        )
    }

    pub(crate) fn meta(tid: u64, name: &str) -> String {
        format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
        )
    }

    pub(crate) fn roundtrip(tid: u64, ts: f64, dur: f64, step: u64) -> String {
        format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"net.roundtrip\",\"ts\":{ts},\"dur\":{dur},\"args\":{{\"step\":{step},\"op\":1}}}}"
        )
    }

    pub(crate) fn mark(tid: u64, ts: f64, step: u64) -> String {
        format!(
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"name\":\"step\",\"ts\":{ts},\"s\":\"t\",\"args\":{{\"step\":{step}}}}}"
        )
    }

    /// Two ranks, rank 1's clock 5 ms *behind* the hub (offset +5 ms).
    /// On its own clock rank 1 sends at 90 µs — *earlier* than rank 0's
    /// 1000 µs — but rebased it lands at 5090 µs: rank 1 is the straggler.
    pub(crate) fn two_rank_traces() -> Vec<RankTrace> {
        let r0 = rank_doc(
            0,
            0,
            &[
                meta(4096, "net 0"),
                meta(7, "steps"),
                roundtrip(4096, 1000.0, 200.0, 0),
                mark(7, 1500.0, 0),
            ],
        );
        let r1 = rank_doc(
            1,
            5_000_000,
            &[
                meta(4097, "net 1"),
                meta(7, "steps"),
                roundtrip(4097, 90.0, 200.0, 0),
                mark(7, 500.0, 0),
            ],
        );
        vec![
            parse_rank_trace(&r0).unwrap(),
            parse_rank_trace(&r1).unwrap(),
        ]
    }

    #[test]
    fn header_round_trips_and_rebases() {
        let traces = two_rank_traces();
        assert_eq!(traces[0].rank(), Some(0));
        assert_eq!(traces[1].header.unwrap().clock_offset_ns, 5_000_000);
        assert!((traces[1].rebase_us(90.0) - 5090.0).abs() < 1e-9);
        // Hub headers carry rank: null.
        let hub = "{\"traceEvents\":[],\"grace\":{\"rank\":null,\"world\":2,\"clock_offset_ns\":0,\"clock_rtt_ns\":0}}";
        let hub = parse_rank_trace(hub).unwrap();
        assert_eq!((hub.rank(), hub.label()), (None, "hub".to_string()));
        // A headerless export is one process on its own clock.
        let solo = parse_rank_trace("{\"traceEvents\":[]}").unwrap();
        assert!(solo.header.is_none());
        assert_eq!(solo.rebase_us(90.0), 90.0);
    }

    /// A header is outside input: a rank that overflows, is negative or is
    /// fractional, or a world of zero, is an error naming the field —
    /// never a wrapped pid or a silent rank 0.
    #[test]
    fn header_rank_must_be_an_integer_inside_the_world() {
        let header = |rank: &str, world: &str| {
            parse_rank_trace(&format!(
                "{{\"traceEvents\":[],\"grace\":{{\"rank\":{rank},\"world\":{world},\"clock_offset_ns\":0}}}}"
            ))
        };
        for (rank, world, field) in [
            ("1e300", "2", "rank"),
            ("-1", "2", "rank"),
            ("0.5", "2", "rank"),
            ("2", "2", "rank"),
            ("\"0\"", "2", "rank"),
            ("0", "0", "world"),
            ("0", "1e300", "world"),
        ] {
            match header(rank, world) {
                Err(TraceError::Header { field: f, .. }) => assert_eq!(f, field, "{rank}/{world}"),
                other => panic!("rank {rank} of world {world} loaded: {other:?}"),
            }
        }
        let err = header("-1", "2").unwrap_err().to_string();
        assert_eq!(err, "grace.rank must be null or an integer in 0..world");
        assert_eq!(header("1", "2").unwrap().pid(), 3);
    }

    /// Every file of a directory needs its header, and a bad one takes the
    /// directory down with an error naming the file, not a panic.
    #[test]
    fn load_dir_names_the_file_it_cannot_place() {
        let dir = std::env::temp_dir().join(format!("grace_load_dir_{}", std::process::id()));
        for (body, complaint) in [
            ("{\"traceEvents\":[]}", "missing \"grace\" header"),
            (
                "{\"traceEvents\":[],\"grace\":{\"rank\":1e300,\"world\":2,\"clock_offset_ns\":0}}",
                "grace.rank must be",
            ),
        ] {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("rank0.trace.json"), body).unwrap();
            let err = load_dir(&dir).unwrap_err();
            assert!(err.contains("rank0.trace.json"), "{err}");
            assert!(err.contains(complaint), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `steps` track also carries the flight recorder's counter-delta
    /// instants (same `step` arg, a moment later); only the marker named
    /// `step` places a step.
    #[test]
    fn step_marks_ignore_counter_delta_instants() {
        let delta = mark(7, 1600.0, 0).replace("\"name\":\"step\"", "\"name\":\"comm.net.frames\"");
        let r0 = rank_doc(
            0,
            0,
            &[
                meta(7, "steps"),
                mark(7, 1500.0, 0),
                delta,
                mark(7, 2500.0, 1),
            ],
        );
        let marks = parse_rank_trace(&r0).unwrap().step_marks();
        assert_eq!(marks, BTreeMap::from([(0, 1500.0), (1, 2500.0)]));
    }

    #[test]
    fn merged_document_is_valid_and_multi_process() {
        let traces = two_rank_traces();
        let merged = merged_trace_json(&traces, &[]);
        let doc = json::parse(&merged).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        // Every rank contributes a process_name and its own pid space.
        let pids: BTreeSet<u64> = events
            .iter()
            .filter_map(|e| e.get("pid").and_then(Value::as_f64))
            .map(|p| p as u64)
            .collect();
        assert_eq!(pids, BTreeSet::from([2, 3]));
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
            })
            .collect();
        assert_eq!(names, vec!["rank 0", "rank 1"]);
        // Rank 1's roundtrip was rebased by +5 ms.
        let rebased = events
            .iter()
            .find(|e| {
                e.get("pid").and_then(Value::as_f64) == Some(3.0)
                    && e.get("name").and_then(Value::as_str) == Some("net.roundtrip")
            })
            .unwrap();
        let ts = rebased.get("ts").and_then(Value::as_f64).unwrap();
        assert!((ts - 5090.0).abs() < 1e-6);
    }

    /// Names, arg keys, string args and anomaly kinds come from input
    /// files; the merged document must escape them and still parse, with
    /// every string coming back unchanged.
    #[test]
    fn merged_document_escapes_strings_from_input_files() {
        let odd = r#"{"ph":"i","tid":7,"name":"a\"b\\c","ts":1.0,"s":"t","args":{"k\"ey":"x\u001by","step":0}}"#;
        let trace =
            parse_rank_trace(&rank_doc(0, 0, &[meta(7, "steps"), odd.to_string()])).unwrap();
        let health = [HealthEvent {
            rank: Some(0),
            step: 0,
            kind: "spike\"\n".into(),
            value: 1.0,
            threshold: 0.5,
        }];
        let merged = merged_trace_json(&[trace], &health);
        let doc = json::parse(&merged).expect("merged document parses");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let find = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
                .unwrap_or_else(|| panic!("{name:?} missing from {merged}"))
        };
        let args = find("a\"b\\c").get("args").unwrap();
        assert_eq!(args.get("k\"ey").and_then(Value::as_str), Some("x\u{1b}y"));
        assert_eq!(args.get("step").and_then(Value::as_f64), Some(0.0));
        assert!(find("anomaly: spike\"\n").get("ts").is_some());
    }
}
