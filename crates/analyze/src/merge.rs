//! Cross-rank trace merge: one hub-clock timeline from per-process exports.
//!
//! A traced `grace-launch` run leaves a directory of per-process Chrome
//! trace exports — `rank<k>.trace.json` for every socket rank plus the
//! parent's `hub.trace.json` — each stamped (in its `"grace"` header) with
//! that process's NTP-style offset from the hub's telemetry clock. This
//! module loads them all, **rebases** every timestamp onto the hub clock
//! (`ts += clock_offset_ns`), and emits:
//!
//! 1. a single merged Perfetto document — one *process* per rank (the hub
//!    is pid 1, rank *k* is pid *k*+2) so the UI lays the fleet out as
//!    parallel process lanes on one shared time axis;
//! 2. a cross-rank step report: for every step observed by *all* ranks,
//!    which rank's request reached the wire last (the barrier convoy's
//!    straggler) and by how much; how much collective round-trip time was
//!    *exposed* versus hidden under codec work (encode/decompress); and
//!    what frame corruption cost in NACKs and retransmitted bytes.
//!
//! Convoy attribution deliberately uses the **client-side** `net.roundtrip`
//! span starts rebased onto the hub clock, not the hub's arrival stamps:
//! the hub reads ranks in rank order, so a stalled early rank inflates the
//! recorded arrival time of every later rank, while each client's own send
//! timestamp is unaffected by its peers.

use crate::critical::{
    merge as merge_intervals, overlap_len, total_len, STAGE_PREFIX, STEPS_TRACK, STEP_MARKER,
};
use grace_telemetry::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// Merged-document track id for overlaid health-anomaly instants. Chosen
/// outside every exporter-assigned tid (stages 1–5, buckets 6, steps 7,
/// hub 8, lanes 16+, net 4096+) so the overlay gets its own named lane.
pub const HEALTH_TID: u64 = 9;
/// Per-rank wire tracks are labelled `net <rank>` (`Track::Net`).
const NET_PREFIX: &str = "net ";
/// Stage tracks counted as codec time when computing exposed network time.
const CODEC_STAGES: [&str; 2] = ["encode", "decompress"];

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

/// One per-process export: its identity header and its events.
#[derive(Debug, Clone)]
pub struct RankTrace {
    /// `Some(k)` for rank *k*, `None` for the hub.
    pub rank: Option<usize>,
    /// World size stamped at export time.
    pub world: usize,
    /// `hub_clock − this_clock` in nanoseconds (0 for the hub itself).
    pub clock_offset_ns: i64,
    /// RTT of the offset estimate's best sample, in nanoseconds.
    pub clock_rtt_ns: u64,
    /// Events in recording order, timestamps *not* yet rebased.
    pub events: Vec<RawEvent>,
}

impl RankTrace {
    /// Display label: `hub` or `rank <k>`.
    pub fn label(&self) -> String {
        match self.rank {
            Some(k) => format!("rank {k}"),
            None => "hub".to_string(),
        }
    }

    /// Merged-document pid: hub is 1, rank *k* is *k* + 2.
    pub fn pid(&self) -> u64 {
        match self.rank {
            Some(k) => k as u64 + 2,
            None => 1,
        }
    }

    /// A source timestamp rebased onto the hub clock, in µs.
    pub fn rebase_us(&self, ts_us: f64) -> f64 {
        ts_us + self.clock_offset_ns as f64 / 1_000.0
    }

    /// step → rebased step-marker timestamp (µs), from the `steps` track.
    fn step_marks(&self) -> BTreeMap<u64, f64> {
        let tracks = self.track_names();
        self.events
            .iter()
            .filter(|e| e.ph == "i" && e.name == STEP_MARKER)
            .filter(|e| tracks.get(&e.tid).copied() == Some(STEPS_TRACK))
            .filter_map(|e| Some((e.arg_num("step")? as u64, self.rebase_us(e.ts_us))))
            .collect()
    }

    /// tid → track label, from this file's `thread_name` metadata.
    fn track_names(&self) -> BTreeMap<u64, &str> {
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

/// Parses one per-rank export. The `"grace"` header is required — a trace
/// without it cannot be placed on the shared clock.
///
/// # Errors
///
/// Returns a message when the document is not a trace export or the
/// header is missing/malformed.
pub fn parse_rank_trace(text: &str) -> Result<RankTrace, String> {
    let doc = json::parse(text)?;
    let header = doc
        .get("grace")
        .ok_or("missing \"grace\" header — re-export with tracing enabled")?;
    let rank = match header.get("rank") {
        Some(v) if v.is_null() => None,
        Some(v) => Some(v.as_f64().ok_or("grace.rank must be a number or null")? as usize),
        None => return Err("grace header without rank".into()),
    };
    let world = header
        .get("world")
        .and_then(Value::as_f64)
        .ok_or("grace header without world")? as usize;
    let clock_offset_ns = header
        .get("clock_offset_ns")
        .and_then(Value::as_f64)
        .ok_or("grace header without clock_offset_ns")? as i64;
    let clock_rtt_ns = header
        .get("clock_rtt_ns")
        .and_then(Value::as_f64)
        .unwrap_or(0.0) as u64;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array — not a Chrome trace export?")?
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
    Ok(RankTrace {
        rank,
        world,
        clock_offset_ns,
        clock_rtt_ns,
        events,
    })
}

/// Loads every `rank<k>.trace.json` (and `hub.trace.json`, if present)
/// from `dir`, sorted hub-first then by rank.
///
/// # Errors
///
/// Propagates IO and parse failures with the offending path, and rejects
/// directories containing no rank files at all.
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
        traces.push(trace);
    }
    if !traces.iter().any(|t| t.rank.is_some()) {
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
/// each lane.
pub fn merged_trace_json(traces: &[RankTrace]) -> String {
    merged_trace_json_with_health(traces, &[])
}

/// [`merged_trace_json`] plus an anomaly overlay: every [`HealthEvent`] is
/// placed as an instant on a dedicated `health` track ([`HEALTH_TID`]) of
/// the rank that observed it, at that rank's step-marker timestamp — so a
/// `grad_spike` lines up visually with the spans that produced it.
pub fn merged_trace_json_with_health(traces: &[RankTrace], health: &[HealthEvent]) -> String {
    // Attribute each anomaly to its observing rank's process lane; events
    // without a resolvable rank ride on the lowest-ranked timeline.
    let fallback = traces.iter().position(|t| t.rank.is_some());
    let mut per_trace: Vec<Vec<&HealthEvent>> = vec![Vec::new(); traces.len()];
    for h in health {
        let idx = traces
            .iter()
            .position(|t| t.rank.is_some() && t.rank == h.rank)
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
            let _ = write!(
                out,
                "{{\"ph\":\"{}\",\"pid\":{pid},\"tid\":{},\"name\":\"{}\"",
                ev.ph, ev.tid, ev.name
            );
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
                    let _ = write!(out, "\"{k}\":");
                    match v {
                        ArgVal::Num(n) => {
                            let _ = write!(out, "{n}");
                        }
                        ArgVal::Str(s) => {
                            let _ = write!(out, "{s:?}");
                        }
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        if !overlay.is_empty() {
            let marks = trace.step_marks();
            let last_mark = marks.values().copied().next_back().unwrap_or(0.0);
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{HEALTH_TID},\"name\":\"thread_name\",\"args\":{{\"name\":\"health\"}}}}"
            );
            for h in overlay {
                let ts = marks.get(&h.step).copied().unwrap_or(last_mark);
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{HEALTH_TID},\"name\":\"anomaly: {}\",\"ts\":",
                    h.kind
                );
                push_us(&mut out, ts);
                let _ = write!(
                    out,
                    ",\"s\":\"t\",\"args\":{{\"step\":{},\"value\":{},\"threshold\":{}}}}}",
                    h.step, h.value, h.threshold
                );
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// One step's convoy attribution across the fleet.
#[derive(Debug, Clone)]
pub struct StepConvoy {
    /// Step index.
    pub step: u64,
    /// Per-rank first `net.roundtrip` start this step, rebased (µs).
    pub arrivals_us: Vec<(usize, f64)>,
    /// The rank whose request hit the wire last.
    pub last_rank: usize,
    /// How far the last rank trailed the first, in µs.
    pub gap_us: f64,
}

/// Whole-run cross-rank report.
#[derive(Debug, Clone, Default)]
pub struct MergeReport {
    /// Rank files merged (hub excluded).
    pub ranks: usize,
    /// Whether the hub's own timeline was present.
    pub has_hub: bool,
    /// Worst clock-offset estimate RTT across ranks (alignment error is
    /// bounded by half of this), in nanoseconds.
    pub worst_rtt_ns: u64,
    /// Steps every rank completed, ascending.
    pub complete_steps: Vec<u64>,
    /// Convoy attribution for each complete step.
    pub convoys: Vec<StepConvoy>,
    /// Union length of all ranks' `net.roundtrip` spans (µs, summed over
    /// ranks — wall-clock a rank spent inside a collective).
    pub net_busy_us: f64,
    /// Portion of `net_busy_us` not covered by codec work on the same
    /// rank: time the network alone accounts for.
    pub net_exposed_us: f64,
    /// Corrupted frames rejected fleet-wide (`net.nack` instants).
    pub nacks: u64,
    /// Bytes retransmitted verbatim after NACKs (`net.resend` args).
    pub resend_bytes: u64,
}

/// Computes the cross-rank report from loaded (unrebased) traces.
pub fn analyze(traces: &[RankTrace]) -> MergeReport {
    let mut report = MergeReport {
        ranks: traces.iter().filter(|t| t.rank.is_some()).count(),
        has_hub: traces.iter().any(|t| t.rank.is_none()),
        ..MergeReport::default()
    };
    // Per rank: step set, step → first roundtrip start, interval unions.
    let mut step_sets: Vec<BTreeSet<u64>> = Vec::new();
    let mut first_roundtrip: Vec<(usize, BTreeMap<u64, f64>)> = Vec::new();
    for trace in traces {
        let Some(rank) = trace.rank else {
            continue;
        };
        report.worst_rtt_ns = report.worst_rtt_ns.max(trace.clock_rtt_ns);
        let tracks = trace.track_names();
        let mut steps = BTreeSet::new();
        let mut firsts: BTreeMap<u64, f64> = BTreeMap::new();
        let mut net_spans: Vec<(f64, f64)> = Vec::new();
        let mut codec_spans: Vec<(f64, f64)> = Vec::new();
        for ev in &trace.events {
            let track = tracks.get(&ev.tid).copied().unwrap_or("");
            match ev.ph.as_str() {
                "i" if track == STEPS_TRACK => {
                    if let Some(s) = ev.arg_num("step") {
                        steps.insert(s as u64);
                    }
                }
                "i" if ev.name == "net.nack" => report.nacks += 1,
                "i" if ev.name == "net.resend" => {
                    report.resend_bytes += ev.arg_num("bytes").unwrap_or(0.0) as u64;
                }
                "X" if track.starts_with(NET_PREFIX) && ev.name == "net.roundtrip" => {
                    let start = trace.rebase_us(ev.ts_us);
                    net_spans.push((start, start + ev.dur_us));
                    if let Some(s) = ev.arg_num("step") {
                        let e = firsts.entry(s as u64).or_insert(start);
                        *e = e.min(start);
                    }
                }
                "X" => {
                    if let Some(stage) = track.strip_prefix(STAGE_PREFIX) {
                        if CODEC_STAGES.contains(&stage) {
                            let start = trace.rebase_us(ev.ts_us);
                            codec_spans.push((start, start + ev.dur_us));
                        }
                    }
                }
                _ => {}
            }
        }
        net_spans.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        codec_spans.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let net = merge_intervals(&net_spans);
        let codec = merge_intervals(&codec_spans);
        let busy = total_len(&net);
        report.net_busy_us += busy;
        report.net_exposed_us += (busy - overlap_len(&net, &codec)).max(0.0);
        step_sets.push(steps);
        first_roundtrip.push((rank, firsts));
    }
    // A step counts only when every rank both marked it and reached the
    // wire for it — partial steps (startup, teardown) are excluded.
    let mut complete: Option<BTreeSet<u64>> = None;
    for set in &step_sets {
        complete = Some(match complete {
            None => set.clone(),
            Some(acc) => acc.intersection(set).copied().collect(),
        });
    }
    for step in complete.unwrap_or_default() {
        let mut arrivals: Vec<(usize, f64)> = first_roundtrip
            .iter()
            .filter_map(|(rank, firsts)| firsts.get(&step).map(|ts| (*rank, *ts)))
            .collect();
        if arrivals.len() < report.ranks {
            continue;
        }
        arrivals.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let (first_ts, last) = (arrivals[0].1, arrivals[arrivals.len() - 1]);
        report.complete_steps.push(step);
        report.convoys.push(StepConvoy {
            step,
            last_rank: last.0,
            gap_us: last.1 - first_ts,
            arrivals_us: arrivals,
        });
    }
    report
}

/// Renders the report as a text summary (optionally one line per step).
pub fn render_report(report: &MergeReport, per_step: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "merged {} rank timeline(s){} onto the hub clock (alignment error ≤ {:.1} µs)",
        report.ranks,
        if report.has_hub { " + hub" } else { "" },
        report.worst_rtt_ns as f64 / 2_000.0
    );
    let _ = writeln!(out, "complete steps: {}", report.complete_steps.len());
    if !report.convoys.is_empty() {
        let mut last_counts: BTreeMap<usize, usize> = BTreeMap::new();
        let mut gap_sum = 0.0;
        for convoy in &report.convoys {
            *last_counts.entry(convoy.last_rank).or_insert(0) += 1;
            gap_sum += convoy.gap_us;
        }
        let (worst_rank, n) = last_counts
            .iter()
            .max_by_key(|(_, n)| **n)
            .map(|(r, n)| (*r, *n))
            .unwrap_or((0, 0));
        let _ = writeln!(
            out,
            "convoy: rank {worst_rank} arrived last in {n}/{} steps; mean last-arrival gap {:.3} ms",
            report.convoys.len(),
            gap_sum / report.convoys.len() as f64 / 1e3
        );
    }
    let hidden = (report.net_busy_us - report.net_exposed_us).max(0.0);
    let _ = writeln!(
        out,
        "network: busy {:.3} ms, exposed {:.3} ms, hidden under codec {:.3} ms",
        report.net_busy_us / 1e3,
        report.net_exposed_us / 1e3,
        hidden / 1e3
    );
    let _ = writeln!(
        out,
        "retransmits: {} NACK(s), {} byte(s) resent",
        report.nacks, report.resend_bytes
    );
    if per_step {
        for convoy in &report.convoys {
            let _ = writeln!(
                out,
                "step {:>6}: last arrival rank {} (+{:.3} ms behind rank {})",
                convoy.step,
                convoy.last_rank,
                convoy.gap_us / 1e3,
                convoy.arrivals_us.first().map(|(r, _)| *r).unwrap_or(0)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank_doc(rank: usize, offset_ns: i64, events: &[String]) -> String {
        format!(
            "{{\"traceEvents\":[{}],\"grace\":{{\"rank\":{rank},\"world\":2,\"clock_offset_ns\":{offset_ns},\"clock_rtt_ns\":1000}},\"displayTimeUnit\":\"ms\"}}",
            events.join(",")
        )
    }

    fn meta(tid: u64, name: &str) -> String {
        format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
        )
    }

    fn roundtrip(tid: u64, ts: f64, dur: f64, step: u64) -> String {
        format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"net.roundtrip\",\"ts\":{ts},\"dur\":{dur},\"args\":{{\"step\":{step},\"op\":1}}}}"
        )
    }

    fn mark(tid: u64, ts: f64, step: u64) -> String {
        format!(
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"name\":\"step\",\"ts\":{ts},\"s\":\"t\",\"args\":{{\"step\":{step}}}}}"
        )
    }

    /// Two ranks, rank 1's clock 5 ms *behind* the hub (offset +5 ms).
    /// On its own clock rank 1 sends at 90 µs — *earlier* than rank 0's
    /// 1000 µs — but rebased it lands at 5090 µs: rank 1 is the straggler.
    fn two_rank_traces() -> Vec<RankTrace> {
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
        assert_eq!(traces[0].rank, Some(0));
        assert_eq!(traces[1].clock_offset_ns, 5_000_000);
        assert!((traces[1].rebase_us(90.0) - 5090.0).abs() < 1e-9);
        // Hub headers carry rank: null.
        let hub = "{\"traceEvents\":[],\"grace\":{\"rank\":null,\"world\":2,\"clock_offset_ns\":0,\"clock_rtt_ns\":0}}";
        assert_eq!(parse_rank_trace(hub).unwrap().rank, None);
        assert!(parse_rank_trace("{\"traceEvents\":[]}").is_err());
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
    fn convoy_uses_rebased_client_send_times() {
        let report = analyze(&two_rank_traces());
        assert_eq!(report.ranks, 2);
        assert_eq!(report.complete_steps, vec![0]);
        let convoy = &report.convoys[0];
        // Raw timestamps say rank 1 sent first; the clock offset says
        // otherwise. Rebasing must win.
        assert_eq!(convoy.last_rank, 1);
        assert!(
            (convoy.gap_us - 4090.0).abs() < 1e-6,
            "gap {}",
            convoy.gap_us
        );
        assert_eq!(report.worst_rtt_ns, 1000);
    }

    #[test]
    fn merged_document_is_valid_and_multi_process() {
        let traces = two_rank_traces();
        let merged = merged_trace_json(&traces);
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

    #[test]
    fn incomplete_steps_are_excluded() {
        // Rank 1 never marked step 1: only step 0 is complete.
        let r0 = rank_doc(
            0,
            0,
            &[
                meta(4096, "net 0"),
                meta(7, "steps"),
                roundtrip(4096, 100.0, 10.0, 0),
                mark(7, 200.0, 0),
                roundtrip(4096, 300.0, 10.0, 1),
                mark(7, 400.0, 1),
            ],
        );
        let r1 = rank_doc(
            1,
            0,
            &[
                meta(4097, "net 1"),
                meta(7, "steps"),
                roundtrip(4097, 110.0, 10.0, 0),
                mark(7, 210.0, 0),
            ],
        );
        let report = analyze(&[
            parse_rank_trace(&r0).unwrap(),
            parse_rank_trace(&r1).unwrap(),
        ]);
        assert_eq!(report.complete_steps, vec![0]);
        let text = render_report(&report, true);
        assert!(text.contains("complete steps: 1"));
        assert!(text.contains("step      0"));
    }

    #[test]
    fn exposed_network_excludes_codec_overlap() {
        // net busy [0,100); encode covers [60,100): exposed = 60.
        let r0 = rank_doc(
            0,
            0,
            &[
                meta(4096, "net 0"),
                meta(1, "stage: encode"),
                meta(7, "steps"),
                roundtrip(4096, 0.0, 100.0, 0),
                r#"{"ph":"X","pid":1,"tid":1,"name":"s","ts":60.0,"dur":40.0}"#.to_string(),
                mark(7, 120.0, 0),
            ],
        );
        let report = analyze(&[parse_rank_trace(&r0).unwrap()]);
        assert!((report.net_busy_us - 100.0).abs() < 1e-9);
        assert!((report.net_exposed_us - 60.0).abs() < 1e-9);
    }

    #[test]
    fn retransmit_cost_is_tallied() {
        let nack = "{\"ph\":\"i\",\"pid\":1,\"tid\":4096,\"name\":\"net.nack\",\"ts\":5.0,\"s\":\"t\",\"args\":{\"bytes\":64}}";
        let resend = "{\"ph\":\"i\",\"pid\":1,\"tid\":4096,\"name\":\"net.resend\",\"ts\":6.0,\"s\":\"t\",\"args\":{\"bytes\":128}}";
        let r0 = rank_doc(
            0,
            0,
            &[meta(4096, "net 0"), nack.to_string(), resend.to_string()],
        );
        let report = analyze(&[parse_rank_trace(&r0).unwrap()]);
        assert_eq!(report.nacks, 1);
        assert_eq!(report.resend_bytes, 128);
    }
}
