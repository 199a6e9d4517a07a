//! Live-monitoring smoke check: run a traced + health-monitored training job
//! with the metrics endpoint enabled (`TrainConfig::metrics_addr`), scrape it
//! **while the run is in flight**, and assert the exposition carries the
//! series a dashboard needs — wire traffic, pipeline overlap, and the health
//! gauges. Afterwards the trace is exported under a config-derived run tag
//! so CI can hand it to `grace-analyze report` for critical-path attribution.
//!
//! Run: `cargo run --example monitoring_smoke`
//! (CI runs this as the `monitoring` gate; it exits non-zero on violation.)

use grace::compressors::registry;
use grace::core::trainer::run_simulated;
use grace::core::{HealthConfig, TrainConfig};
use grace::nn::data::ClassificationDataset;
use grace::nn::models;
use grace::nn::optim::Momentum;
use grace::telemetry::serve::{self, parse_exposition, Sample};
use grace::telemetry::{json, Level};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const WORKERS: usize = 4;
const EPOCHS: usize = 24;
const SCRAPE_DEADLINE: Duration = Duration::from_secs(30);

/// The series a run-health dashboard is built on. `traffic.bytes_total`
/// proves the collective layer is metered, `exchange.overlap_ratio` that the
/// pipelined exchange reports hiding, and the `health.*` gauges that the
/// anomaly monitor is live.
const REQUIRED: [&str; 6] = [
    "traffic_bytes_total",
    "traffic_messages_total",
    "exchange_overlap_ratio",
    "health_grad_norm",
    "health_grad_norm_ewma",
    "health_tripped",
];

fn value(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .unwrap_or_else(|| panic!("series {name} missing from exposition"))
        .value
}

fn main() {
    // Reserve a port for the trainer-owned endpoint: bind an ephemeral
    // listener, note its address, release it. The trainer re-binds it via
    // `metrics_addr` a moment later.
    let addr: SocketAddr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr")
    };

    let mut cfg = TrainConfig::new(WORKERS, 16, EPOCHS, 5);
    cfg.telemetry = Some(Level::Trace);
    cfg.metrics_addr = Some(addr.to_string());
    cfg.health = Some(HealthConfig::default());
    // The smoke model is tiny; a small fusion threshold keeps the exchange
    // multi-bucket so the pipeline actually has overlap to report.
    cfg.fusion_bytes = 1024;
    let tag = cfg.run_tag("monitoring_smoke");

    let trainer = std::thread::spawn(move || {
        let task = ClassificationDataset::synthetic(128, 32, 10, 0.35, 5);
        let mut net = models::mlp_classifier("m", 32, &[24], 10, 5);
        let spec = registry::find("topk").expect("registered");
        let (mut cs, mut ms) = registry::build_fleet(&spec, WORKERS, 5);
        let mut opt = Momentum::new(0.03, 0.9);
        run_simulated(&cfg, &mut net, &task, &mut opt, &mut cs, &mut ms)
    });

    // Scrape the live endpoint until every dashboard series has appeared.
    // The endpoint only exists while the run does, so this loop *is* the
    // mid-run check.
    let started = Instant::now();
    let body = loop {
        assert!(
            started.elapsed() < SCRAPE_DEADLINE,
            "metrics endpoint on {addr} never served all of {REQUIRED:?}"
        );
        if let Ok(text) = serve::scrape(addr, "/metrics") {
            if let Ok(samples) = parse_exposition(&text) {
                // Presence is not enough: the registry pre-registers
                // counters at 0 during setup, so a fast scrape can win the
                // race against step 1. Wait until traffic has flowed.
                let have = |n: &str| samples.iter().any(|s| s.name == n);
                let flowing = |n: &str| samples.iter().any(|s| s.name == n && s.value > 0.0);
                if REQUIRED.iter().all(|n| have(n))
                    && flowing("traffic_bytes_total")
                    && flowing("traffic_messages_total")
                {
                    break text;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let health_body = serve::scrape(addr, "/health").unwrap_or_default();
    println!(
        "scraped live endpoint at {addr} after {:?}",
        started.elapsed()
    );

    let result = trainer.join().expect("training thread panicked");
    println!(
        "trained: {} steps, accuracy {:.3}",
        result.steps, result.best_quality
    );

    // --- The mid-run exposition must be dashboard-ready. ---
    let samples = parse_exposition(&body).expect("exposition parses");
    assert!(
        value(&samples, "traffic_bytes_total") > 0.0,
        "no traffic metered"
    );
    assert!(value(&samples, "traffic_messages_total") > 0.0);
    let overlap = value(&samples, "exchange_overlap_ratio");
    assert!(
        (0.0..=1.0).contains(&overlap),
        "overlap_ratio {overlap} outside [0, 1]"
    );
    // The mid-run gauge may still read its initial 0 on the very first
    // step; by end of run the pipelined exchange must have hidden work.
    let final_overlap = grace::telemetry::metrics::gauge("exchange.overlap_ratio").get();
    assert!(
        final_overlap > 0.0,
        "pipelined exchange reported no overlap ({final_overlap})"
    );
    assert!(value(&samples, "health_grad_norm").is_finite());
    assert_eq!(
        value(&samples, "health_tripped"),
        0.0,
        "clean smoke run must not trip the monitor"
    );
    for name in REQUIRED {
        println!("  {name} = {}", value(&samples, name));
    }
    if !health_body.is_empty() {
        let doc = json::parse(&health_body).expect("health JSON parses");
        assert_eq!(doc.get("status").and_then(|s| s.as_str()), Some("ok"));
        println!("  /health status = ok");
    }

    // --- Export under the config-derived tag for grace-analyze. ---
    let paths = grace::telemetry::export::export_run(&tag).expect("export");
    println!("trace:   {}", paths.trace.display());
    println!("metrics: {}", paths.metrics.display());

    // The trace must carry step markers: that is what grace-analyze windows
    // its critical-path attribution on.
    let text = std::fs::read_to_string(&paths.trace).expect("read trace");
    let steps = text.matches("\"steps\"").count();
    assert!(steps > 0, "trace lacks the step-marker track");
    println!("monitoring smoke: OK ({} steps traced)", result.steps);
}
