//! Trigger paths of the black-box flight recorder.
//!
//! Each trigger — an anomaly trip, an injected fault instant, a wedged
//! socket rank's `ClusterError` — must drain the ring into a parseable
//! post-mortem bundle whose newest retained step is the step the run
//! tripped on (the recorder's whole point is preserving the window
//! *leading up to* the failure).
//!
//! The recorder is process-global (latched trip flag, pooled rings,
//! `GRACE_POSTMORTEM_DIR`), so the tests serialise on a mutex and reset
//! the recorder around each scenario.

use grace::analyze::{merge, report::Report};
use grace::comm::{FaultConfig, FaultPlan, FaultStats};
use grace::core::health::{HealthConfig, HealthMonitor, StepObservation};
use grace::core::process::run_cluster;
use grace::core::trainer::CodecTiming;
use grace::core::{Compressor, ExecBackend, Memory, ResidualMemory, TrainConfig};
use grace::nn::data::ClassificationDataset;
use grace::nn::models;
use grace::nn::network::Network;
use grace::nn::optim::{Momentum, Optimizer};
use grace::telemetry::{metrics, recorder, set_level, Level};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

/// Fresh bundle directory for one scenario; points the recorder at it.
fn arm_recorder(scenario: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grace-flight-{}-{scenario}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("GRACE_POSTMORTEM_DIR", &dir);
    set_level(Level::Metrics);
    recorder::set_enabled(true);
    recorder::reset();
    dir
}

fn disarm_recorder() {
    std::env::remove_var("GRACE_POSTMORTEM_DIR");
    recorder::reset();
}

/// Newest step stamped on any retained instant (counter deltas and step
/// markers both carry a numeric `step` arg).
fn newest_step(traces: &[merge::RankTrace]) -> Option<u64> {
    traces
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.ph == "i")
        .filter_map(|e| e.arg_num("step"))
        .map(|s| s as u64)
        .max()
}

fn has_instant(traces: &[merge::RankTrace], name: &str) -> bool {
    traces
        .iter()
        .flat_map(|t| &t.events)
        .any(|e| e.ph == "i" && e.name == name)
}

fn assert_bundle_files(dir: &Path, rank: usize) {
    for kind in ["trace.json", "metrics.jsonl", "health.jsonl"] {
        let path = dir.join(format!("rank{rank}.{kind}"));
        assert!(path.is_file(), "bundle missing {}", path.display());
    }
}

#[test]
fn anomaly_trip_dumps_window_ending_at_trip_step() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = arm_recorder("anomaly");
    recorder::configure("fr-anomaly", Some(0));

    let mut hc = HealthConfig::default().with_log(None);
    hc.warmup_steps = 2;
    hc.trip_steps = 1;
    hc.grad_spike_factor = 2.0;
    let mut monitor = HealthMonitor::new(hc).with_identity(0, "fr-anomaly");

    let wire = metrics::counter("traffic.bytes_total");
    let trip_step = 9u64;
    for step in 0..=trip_step {
        wire.add(128);
        recorder::observe_step(step);
        let grad_norm = if step == trip_step { 50.0 } else { 1.0 };
        monitor.observe_step(
            step,
            &StepObservation {
                grad_norm,
                ..Default::default()
            },
        );
    }

    assert_eq!(monitor.anomaly_count(), 1, "spike must fire exactly once");
    assert!(recorder::tripped(), "anomaly trip must latch the recorder");
    assert_bundle_files(&dir, 0);

    let traces = merge::load_dir(&dir).expect("bundle trace must parse");
    assert_eq!(traces.len(), 1);
    assert_eq!(traces[0].rank(), Some(0));
    assert_eq!(newest_step(&traces), Some(trip_step));
    assert!(has_instant(&traces, "recorder: anomaly trip"));

    let health = merge::load_health_events(&dir);
    let last = health.last().expect("anomaly line in health sidecar");
    assert_eq!(last.step, trip_step);
    assert_eq!(last.kind, "grad_norm_spike");
    assert_eq!(last.rank, Some(0));

    let report = Report::build(&traces, &health);
    assert_eq!(
        report.triggers.first().map(|t| t.1.as_str()),
        Some("recorder: anomaly trip")
    );
    let text = report.render(false);
    assert!(text.contains("trip: \"recorder: anomaly trip\" on rank 0"));
    assert!(text.contains(&format!("grad_norm_spike at step {trip_step}")));

    disarm_recorder();
}

#[test]
fn injected_fault_instant_dumps_bundle() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = arm_recorder("fault");
    recorder::configure("fr-fault", Some(1));

    let wire = metrics::counter("traffic.bytes_total");
    let trip_step = 6u64;
    for step in 0..=trip_step {
        wire.add(64);
        recorder::observe_step(step);
    }
    // A planned drop lands: the fault layer records the instant and trips
    // the recorder on the spot.
    FaultStats::new(4).record_drop(2);

    assert!(recorder::tripped());
    assert_bundle_files(&dir, 1);

    let traces = merge::load_dir(&dir).expect("bundle trace must parse");
    assert_eq!(traces[0].rank(), Some(1));
    assert_eq!(newest_step(&traces), Some(trip_step));
    assert!(has_instant(&traces, "fault: drop"));

    let report = Report::build(&traces, &merge::load_health_events(&dir));
    assert_eq!(
        report.triggers.first().map(|t| t.1.as_str()),
        Some("fault: drop")
    );
    assert!(report.render(false).contains("trip: \"fault: drop\""));

    // A second drop is latched out: the instant is retained but the bundle
    // written at the *first* trip is not overwritten.
    let before = std::fs::metadata(dir.join("rank1.trace.json"))
        .unwrap()
        .len();
    FaultStats::new(4).record_drop(3);
    let after = std::fs::metadata(dir.join("rank1.trace.json"))
        .unwrap()
        .len();
    assert_eq!(before, after, "latched trigger must not re-dump");

    disarm_recorder();
}

#[test]
fn recorder_state_never_perturbs_training() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = arm_recorder("equiv");

    let run = || {
        let mut cfg = TrainConfig::new(3, 8, 2, 31);
        cfg.codec = CodecTiming::Free;
        cfg.telemetry = Some(Level::Metrics);
        let task = ClassificationDataset::synthetic(96, 8, 2, 0.3, 31);
        let result = grace::core::threaded::run_threaded(&cfg, &task, |_rank| {
            (
                models::mlp_classifier("m", 8, &[12], 2, 31) as Network,
                Box::new(Momentum::new(0.05, 0.9)) as Box<dyn Optimizer>,
                Box::new(grace::compressors::TopK::new(0.05)) as Box<dyn Compressor>,
                Box::new(ResidualMemory::new()) as Box<dyn Memory>,
            )
        });
        grace::core::param_checksum(&result.final_params)
    };

    recorder::set_enabled(true);
    let with_recorder = run();
    // A healthy run trips nothing, and its retained window is still
    // available on demand.
    assert!(!recorder::tripped());
    assert_eq!(recorder::dump().expect("on-demand bundle"), dir);
    assert_bundle_files(&dir, 0);
    assert!(!recorder::tripped(), "an on-demand dump is not a trip");
    recorder::set_enabled(false);
    let without_recorder = run();
    recorder::set_enabled(true);

    assert_eq!(
        with_recorder, without_recorder,
        "the flight recorder observes the run; it must never change it"
    );
    disarm_recorder();
}

#[test]
fn wedged_socket_rank_dumps_bundle_on_cluster_error() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = arm_recorder("cluster");

    let mut cfg = TrainConfig::new(3, 8, 2, 31);
    cfg.codec = CodecTiming::Free;
    cfg.backend = ExecBackend::SocketTcp;
    cfg.telemetry = Some(Level::Metrics);
    cfg.fault = Some(FaultConfig {
        plan: FaultPlan::empty().with_drop(1, 6),
        timeout: Some(Duration::from_secs(10)),
    });
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let task = ClassificationDataset::synthetic(96, 8, 2, 0.3, 31);
        let result = run_cluster(&cfg, &task, |_rank| {
            (
                models::mlp_classifier("m", 8, &[12], 2, 31) as Network,
                Box::new(Momentum::new(0.05, 0.9)) as Box<dyn Optimizer>,
                Box::new(grace::compressors::TopK::new(0.05)) as Box<dyn Compressor>,
                Box::new(ResidualMemory::new()) as Box<dyn Memory>,
            )
        });
        let _ = tx.send(result);
    });
    let result = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("faulted socket run deadlocked");
    handle.join().expect("runner panicked after reporting");

    assert_eq!(result.survivors, 2, "exactly the dropped rank must die");
    assert!(
        recorder::tripped(),
        "drop + ClusterError must trip the recorder"
    );
    assert_bundle_files(&dir, 0);

    // The bundle written at trip time parses and names the root trigger.
    let traces = merge::load_dir(&dir).expect("bundle trace must parse");
    let report = Report::build(&traces, &merge::load_health_events(&dir));
    assert!(
        report
            .triggers
            .iter()
            .any(|(_, reason, _)| reason == "fault: drop"),
        "trip-time bundle must carry the injected-fault trigger"
    );

    // The wedged rank's error path fires its own (latched-out) trigger;
    // an on-demand re-dump drains the ring again and must now show it.
    recorder::dump().expect("on-demand dump");
    let traces = merge::load_dir(&dir).expect("re-dumped trace must parse");
    assert!(has_instant(&traces, "recorder: cluster error"));
    assert!(
        newest_step(&traces).is_some(),
        "step deltas retained across the run"
    );

    disarm_recorder();
}

/// A traced run loses no event to a dump: while another thread dumps in a
/// loop, a `Level::Trace` producer waits out the copy instead of dropping
/// (the ring's never-stall rule is for the ring), and a dump never removes
/// what it wrote. One store, one writer: a bundle and an `export_run_to`
/// of the same instant then carry the same events byte for byte (they
/// differ only in the header a bundle synthesizes).
#[test]
fn dumps_cost_a_trace_nothing_and_match_its_export() {
    use grace::telemetry::{export, trace, Track};
    use std::sync::atomic::{AtomicBool, Ordering};

    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = arm_recorder("dump-race");
    recorder::configure("fr-dump-race", Some(0));
    set_level(Level::Trace);
    trace::clear();

    const EVENTS: usize = 50_000;
    let done = AtomicBool::new(false);
    let dumps = std::thread::scope(|s| {
        let dumper = s.spawn(|| {
            let mut dumps = 0;
            loop {
                recorder::dump().expect("dump beside a live producer");
                dumps += 1;
                if done.load(Ordering::SeqCst) {
                    break dumps;
                }
            }
        });
        for seq in 0..EVENTS {
            trace::instant_arg("dump-race", Track::Lane(0), Some(("seq", seq as u64)));
        }
        done.store(true, Ordering::SeqCst);
        dumper.join().expect("dumper")
    });
    recorder::dump().expect("bundle of the finished run");
    let exported = export::export_run_to(dir.join("export"), "rank0").expect("export");
    let kept = trace::take_events()
        .iter()
        .filter(|e| e.name == "dump-race")
        .count();
    set_level(Level::Metrics);

    assert!(dumps >= 1);
    assert_eq!(kept, EVENTS, "a dump cost the trace an event");
    let events_of = |path: &Path| {
        let text = std::fs::read_to_string(path).expect("trace file");
        let end = text.find("],\"").expect("end of traceEvents");
        text[..end].to_string()
    };
    let bundled = events_of(&dir.join("rank0.trace.json"));
    assert!(bundled == events_of(&exported.trace), "bundle != export");
    assert!(bundled.contains("\"seq\":49999"));
    disarm_recorder();
    let _ = std::fs::remove_dir_all(&dir);
}
