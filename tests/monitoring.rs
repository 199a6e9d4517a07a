//! Live run-health monitoring, end to end.
//!
//! * **Exposition round-trip** — a real training run populates the metrics
//!   registry; the Prometheus endpoint serves it; the scraped text parses
//!   back into samples that match the registry snapshot exactly.
//! * **Chaos** — injected straggler faults on one rank must trip the
//!   monitor's `straggler_skew` anomaly; the identical run without faults
//!   must stay silent (hysteresis + absolute floor), and turning the
//!   monitor on must not change the trained bits.
//!
//! The metrics registry and telemetry level are process-global, so the
//! tests in this file serialize on one mutex.

use grace::comm::{FaultConfig, FaultPlan};
use grace::core::threaded::{run_threaded, ThreadedResult};
use grace::core::trainer::{run_simulated, CodecTiming};
use grace::core::{Compressor, HealthConfig, Memory, NoCompression, NoMemory, TrainConfig};
use grace::nn::data::ClassificationDataset;
use grace::nn::models;
use grace::nn::network::Network;
use grace::nn::optim::{Momentum, Optimizer};
use grace::telemetry::serve::{self, parse_exposition, prometheus_name};
use grace::telemetry::{json, metrics, MetricSnapshot};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

const N: usize = 3;

fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn task() -> ClassificationDataset {
    ClassificationDataset::synthetic(96, 8, 2, 0.3, 31)
}

fn config() -> TrainConfig {
    let mut cfg = TrainConfig::new(N, 8, 2, 31);
    cfg.codec = CodecTiming::Free;
    cfg.telemetry = Some(grace::telemetry::Level::Metrics);
    cfg
}

/// Hysteresis windows sized for this file's 8-step runs: 3 steps of
/// baseline, 3 consecutive breaches to fire. The straggler floor is high
/// enough that scheduling noise on a busy single-CPU host stays silent.
fn health(log: Option<PathBuf>) -> HealthConfig {
    let mut h = HealthConfig::default().with_log(log);
    h.warmup_steps = 3;
    h.trip_steps = 3;
    h.clear_steps = 3;
    h.straggler_floor_seconds = 10e-3;
    h
}

type Worker = (
    Network,
    Box<dyn Optimizer>,
    Box<dyn Compressor>,
    Box<dyn Memory>,
);

fn worker(_rank: usize) -> Worker {
    (
        models::mlp_classifier("m", 8, &[12], 2, 31),
        Box::new(Momentum::new(0.05, 0.9)) as Box<dyn Optimizer>,
        Box::new(NoCompression::new()) as Box<dyn Compressor>,
        Box::new(NoMemory::new()) as Box<dyn Memory>,
    )
}

fn run(cfg: &TrainConfig) -> ThreadedResult {
    run_threaded(cfg, &task(), worker)
}

fn temp_log(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("grace-monitoring-{name}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

fn logged_kinds(path: &PathBuf) -> Vec<String> {
    match std::fs::read_to_string(path) {
        Ok(text) => text
            .lines()
            .map(|line| {
                json::parse(line)
                    .expect("health log line is JSON")
                    .get("kind")
                    .and_then(|k| k.as_str())
                    .expect("health log line has kind")
                    .to_string()
            })
            .collect(),
        Err(_) => Vec::new(),
    }
}

#[test]
fn exposition_round_trips_through_live_server() {
    let _g = serial();
    metrics::reset_all();
    // A real (simulated-mode) training run populates exchange.* and
    // health.* series, including histograms.
    let cfg = {
        let mut c = config();
        c.health = Some(health(None));
        c
    };
    let t = task();
    let mut net = models::mlp_classifier("m", 8, &[12], 2, 31);
    let mut opt = Momentum::new(0.05, 0.9);
    let mut cs: Vec<Box<dyn Compressor>> = (0..N)
        .map(|_| Box::new(NoCompression::new()) as Box<dyn Compressor>)
        .collect();
    let mut ms: Vec<Box<dyn Memory>> = (0..N)
        .map(|_| Box::new(NoMemory::new()) as Box<dyn Memory>)
        .collect();
    let result = run_simulated(&cfg, &mut net, &t, &mut opt, &mut cs, &mut ms);
    assert!(result.steps > 0);

    // Serve, scrape, parse, compare against the registry snapshot.
    let server = serve::serve("127.0.0.1:0").expect("bind ephemeral port");
    let body = serve::scrape(server.local_addr(), "/metrics").expect("scrape");
    let samples = parse_exposition(&body).expect("exposition parses");
    let snaps = metrics::snapshot_all();
    assert!(!snaps.is_empty());
    let find = |name: &str| -> f64 {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .unwrap_or_else(|| panic!("series {name} missing from exposition"))
            .value
    };
    for snap in &snaps {
        let mangled = prometheus_name(snap.name());
        match snap {
            MetricSnapshot::Counter { value, .. } => {
                assert_eq!(find(&mangled) as u64, *value, "counter {mangled}");
            }
            MetricSnapshot::Gauge { value, .. } => {
                let got = find(&mangled);
                assert!(
                    (got - value).abs() < 1e-9 * value.abs().max(1.0)
                        || (got.is_nan() && value.is_nan()),
                    "gauge {mangled}: scraped {got}, registry {value}"
                );
            }
            MetricSnapshot::Histogram { hist, .. } => {
                assert_eq!(
                    find(&format!("{mangled}_count")) as u64,
                    hist.count(),
                    "histogram {mangled} count"
                );
                assert_eq!(
                    find(&format!("{mangled}_sum")) as u64,
                    hist.sum(),
                    "histogram {mangled} sum"
                );
            }
        }
    }
    // The run itself must have produced the monitored series.
    for required in [
        "exchange_wire_bytes_per_step_count",
        "health_grad_norm",
        "health_tripped",
    ] {
        let _ = find(required);
    }
    // The health view agrees with a clean run.
    let health_body = serve::scrape(server.local_addr(), "/health").expect("health");
    let doc = json::parse(&health_body).expect("health JSON");
    assert_eq!(doc.get("status").and_then(|s| s.as_str()), Some("ok"));
}

#[test]
fn straggler_faults_trip_the_monitor_and_clean_runs_stay_silent() {
    let _g = serial();
    metrics::reset_all();

    // --- Clean monitored run: must stay silent and match unmonitored bits.
    let clean_log = temp_log("clean");
    let mut clean_cfg = config();
    clean_cfg.health = Some(health(Some(clean_log.clone())));
    let clean = run(&clean_cfg);
    assert_eq!(clean.survivors, N);
    assert_eq!(
        logged_kinds(&clean_log),
        Vec::<String>::new(),
        "clean run must not alert"
    );
    let unmonitored = run(&config());
    for ((na, ta), (nb, tb)) in clean
        .final_params
        .iter()
        .zip(unmonitored.final_params.iter())
    {
        assert_eq!(na, nb);
        assert_eq!(
            ta.as_slice(),
            tb.as_slice(),
            "monitoring changed the trained bits at {na}"
        );
    }

    // --- Faulty run: rank 1 stalls 40 ms before every collective from the
    // 4th step on (the 4 gradient tensors fuse into one bucket → one
    // collective per step, ops 3..=7), so its peers pile up ~40 ms of
    // barrier wait per step while rank 1 itself waits least — a sustained
    // skew far over the 10 ms floor.
    let mut fault_plan = FaultPlan::empty();
    for op in 3..8 {
        fault_plan = fault_plan.with_straggler(1, op, Duration::from_millis(40));
    }
    let fault_log = temp_log("faulty");
    let mut faulty_cfg = config();
    faulty_cfg.health = Some(health(Some(fault_log.clone())));
    faulty_cfg.fault = Some(FaultConfig {
        plan: fault_plan,
        timeout: Some(Duration::from_secs(20)),
    });
    let before = metrics::counter("health.anomalies.straggler_skew").get();
    let faulty = run(&faulty_cfg);
    assert_eq!(faulty.survivors, N, "stragglers must not kill workers");
    assert!(faulty.faults.total_injected() > 0);

    let kinds = logged_kinds(&fault_log);
    assert!(
        kinds.iter().any(|k| k == "straggler_skew"),
        "injected stragglers must trip the skew anomaly, got {kinds:?}"
    );
    assert!(
        metrics::counter("health.anomalies.straggler_skew").get() > before,
        "anomaly counter must advance"
    );

    let _ = std::fs::remove_file(&clean_log);
    let _ = std::fs::remove_file(&fault_log);
}
