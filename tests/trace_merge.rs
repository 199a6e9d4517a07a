//! The cross-rank trace-merge pipeline, end to end in one process: clock
//! offsets estimated from simulated exchanges, per-rank export files that
//! round-trip through the merge parser without losing a span, and a
//! four-rank merged document that obeys the minimal Perfetto schema with
//! one process lane per rank.
//!
//! This binary owns the global telemetry level (tests take a serial lock),
//! so it must not share a process with other telemetry tests.

use grace::analyze::merge;
use grace::analyze::report::Report;
use grace::comm::{ClockEstimator, ClockSample};
use grace::telemetry::json::{self, Value};
use grace::telemetry::trace::{self, StageTimer};
use grace::telemetry::{set_level, set_trace_header, Level, TraceHeader, Track};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grace_trace_merge_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A simulated four-timestamp exchange against a hub whose epoch is
/// `offset` ns ahead, with asymmetric delays.
fn sample(t0: u64, offset: i64, up: u64, hold: u64, down: u64) -> ClockSample {
    let h1 = (t0 as i128 + up as i128 + offset as i128) as u64;
    let h2 = h1 + hold;
    ClockSample {
        t0,
        h1,
        h2,
        t3: (h2 as i128 - offset as i128 + down as i128) as u64,
    }
}

/// The estimator the rendezvous ping burst feeds is deterministic: the
/// same simulated exchanges always produce the same (offset, rtt), the
/// min-RTT sample wins regardless of fold order, and symmetric delay
/// recovers the planted offset exactly.
#[test]
fn clock_offset_estimation_is_deterministic_under_simulated_clock() {
    let offset = 7_654_321i64;
    let exchanges = [
        sample(1_000, offset, 500_000, 2_000, 40_000), // asymmetric, slow
        sample(2_000_000, offset, 30_000, 1_000, 30_000), // clean
        sample(4_000_000, offset, 45_000, 0, 700_000), // asymmetric, slow
    ];
    let mut forward = ClockEstimator::new();
    for s in exchanges {
        forward.fold(s);
    }
    let mut reverse = ClockEstimator::new();
    for s in exchanges.iter().rev() {
        reverse.fold(*s);
    }
    assert_eq!(forward.estimate(), reverse.estimate());
    let (got, rtt) = forward.estimate().expect("three samples folded");
    assert_eq!(got, offset, "symmetric min-RTT sample recovers the offset");
    assert_eq!(rtt, 60_000);
    assert_eq!(forward.samples(), 3);
}

/// Emits one rank's worth of events and exports them as
/// `<dir>/rank<k>.trace.json` with the given clock offset in the header.
/// Returns the (name, dur_ns) of every span emitted.
fn export_rank(dir: &std::path::Path, rank: usize, world: usize, offset_ns: i64) -> Vec<String> {
    let mut span_names = Vec::new();
    for step in 0..2u64 {
        let timer = StageTimer::start();
        std::hint::black_box(());
        timer.finish_with2(
            "net.roundtrip",
            Track::Net(rank),
            ("step", step),
            ("op", step + 1),
        );
        span_names.push("net.roundtrip".to_string());
        trace::instant_arg("step", Track::Step, Some(("step", step)));
    }
    set_trace_header(Some(TraceHeader {
        rank: Some(rank),
        world,
        clock_offset_ns: offset_ns,
        clock_rtt_ns: 9_000,
    }));
    grace::telemetry::export::export_run_to(dir, &format!("rank{rank}"))
        .expect("export rank trace");
    let _ = trace::take_events();
    span_names
}

/// A per-rank export file parses back with every span intact: same count,
/// same names, same track, timestamps preserved to export precision.
#[test]
fn rank_file_round_trips_preserving_every_span() {
    let _g = serial();
    let dir = fresh_dir("roundtrip");
    set_level(Level::Trace);
    trace::clear();
    let spans = export_rank(&dir, 3, 4, -2_500_000);
    set_level(Level::Off);

    let text = std::fs::read_to_string(dir.join("rank3.trace.json")).unwrap();
    let parsed = merge::parse_rank_trace(&text).expect("parse rank export");
    assert_eq!(
        parsed.header,
        Some(TraceHeader {
            rank: Some(3),
            world: 4,
            clock_offset_ns: -2_500_000,
            clock_rtt_ns: 9_000,
        })
    );

    let parsed_spans: Vec<&merge::RawEvent> =
        parsed.events.iter().filter(|e| e.ph == "X").collect();
    assert_eq!(parsed_spans.len(), spans.len(), "a span went missing");
    for span in &parsed_spans {
        assert_eq!(span.name, "net.roundtrip");
        assert!(span.dur_us >= 0.0);
    }
    // Both steps' args survived the round trip.
    let steps: BTreeSet<u64> = parsed_spans
        .iter()
        .filter_map(|e| {
            e.args.iter().find_map(|(k, v)| match v {
                merge::ArgVal::Num(n) if k == "step" => Some(*n as u64),
                _ => None,
            })
        })
        .collect();
    assert_eq!(steps, BTreeSet::from([0, 1]));
    // Instants survive too (2 step markers), and the rebase applies the
    // negative header offset.
    let instants = parsed.events.iter().filter(|e| e.ph == "i").count();
    assert_eq!(instants, 2);
    let raw = parsed_spans[0].ts_us;
    assert!((parsed.rebase_us(raw) - (raw - 2_500.0)).abs() < 1e-9);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Four rank files merge into one document that passes the minimal
/// Perfetto schema check: every event carries pid/tid, spans have ts+dur,
/// instants are scoped, each rank owns a distinct pid with a
/// `process_name`, and the step report sees both steps as complete.
#[test]
fn four_rank_merged_trace_passes_perfetto_schema_check() {
    let _g = serial();
    let dir = fresh_dir("merge4");
    set_level(Level::Trace);
    trace::clear();
    for rank in 0..4 {
        export_rank(&dir, rank, 4, rank as i64 * 1_000_000);
    }
    set_level(Level::Off);

    let traces = merge::load_dir(&dir).expect("load rank files");
    assert_eq!(traces.len(), 4);
    let merged = merge::merged_trace_json(&traces, &[]);
    std::fs::write(dir.join("merged.trace.json"), &merged).unwrap();

    let doc = json::parse(&merged).expect("merged trace is valid JSON");
    assert!(doc.get("displayTimeUnit").is_some());
    let list = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let mut pids = BTreeSet::new();
    let mut process_names = Vec::new();
    for ev in list {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph");
        let pid = ev.get("pid").and_then(Value::as_f64).expect("pid") as u64;
        assert!(ev.get("tid").is_some(), "tid missing on {ph}");
        pids.insert(pid);
        match ph {
            "M" => {
                let name = ev.get("name").and_then(Value::as_str).unwrap();
                if name == "process_name" {
                    let label = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                        .expect("process_name args.name");
                    process_names.push(label.to_string());
                }
            }
            "X" => {
                assert!(ev.get("ts").and_then(Value::as_f64).is_some(), "ts");
                assert!(ev.get("dur").and_then(Value::as_f64).is_some(), "dur");
            }
            "i" => {
                assert_eq!(ev.get("s").and_then(Value::as_str), Some("t"));
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    // One process lane per rank (pids 2..=5 — pid 1 is reserved for the
    // hub, absent from this synthetic run).
    assert_eq!(pids, BTreeSet::from([2, 3, 4, 5]));
    assert_eq!(process_names, vec!["rank 0", "rank 1", "rank 2", "rank 3"]);

    let report = Report::build(&traces, &[]);
    assert_eq!(report.ranks, 4);
    assert!(!report.has_hub);
    assert_eq!(report.complete_steps, vec![0, 1]);
    assert_eq!(report.convoys.len(), 2);
    assert_eq!(report.worst_rtt_ns, 9_000);
    let _ = std::fs::remove_dir_all(&dir);
}
