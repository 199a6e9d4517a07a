//! Communication-schedule extension experiment: synchronous Algorithm 1 vs
//! local SGD (periodic compressed-delta averaging, the schedule under
//! Qsparse-local-SGD) vs compressed ring gossip (the paper's §VI "ad-hoc
//! P2P overlays" future work).
//!
//! Run: `cargo run --release -p grace-experiments --bin grace-exp -- schedules`

use crate::report;
use crate::runner::{custom_fleet, resolve};
use grace_compressors::{registry, TopK};
use grace_core::replicated::{run_gossip, run_local_sgd, ReplicatedConfig};
use grace_core::trainer::{run_simulated, CodecTiming};
use grace_core::TrainConfig;
use grace_nn::data::ClassificationDataset;
use grace_nn::models;
use grace_nn::network::Network;
use grace_nn::optim::{Optimizer, Sgd};

const SEED: u64 = 77;
const WORKERS: usize = 4;
const EPOCHS: usize = 10;

fn net(_w: usize) -> Network {
    models::resnet20_analog(32, 4, SEED)
}

fn opt(_w: usize) -> Box<dyn Optimizer> {
    Box::new(Sgd::new(0.05))
}

/// Prints the schedule comparison and writes `schedules.csv`.
pub fn run() {
    let t = ClassificationDataset::synthetic(640, 32, 4, 0.35, SEED);
    let mut rows = Vec::new();

    // Synchronous baseline (Algorithm 1, no compression).
    let mut sync_net = net(0);
    let mut cfg = TrainConfig::new(WORKERS, 32, EPOCHS, SEED);
    cfg.codec = CodecTiming::Free;
    let mut o = Sgd::new(0.05);
    let (mut cs, mut ms) = registry::build_fleet(&resolve("baseline"), WORKERS, SEED);
    let sync = run_simulated(&cfg, &mut sync_net, &t, &mut o, &mut cs, &mut ms);
    let steps = sync.steps as f64;
    rows.push(vec![
        "Synchronous (dense)".to_string(),
        report::fmt(sync.best_quality, 4),
        report::fmt(steps, 0),
        report::fmt_bytes(sync.bytes_per_worker_per_iter * steps),
        "0".to_string(),
    ]);

    // Local SGD with compressed deltas at H ∈ {1, 4, 16}.
    for h in [1usize, 4, 16] {
        eprintln!("[schedules] local SGD H={h} …");
        let mut rcfg = ReplicatedConfig::new(WORKERS, 32, EPOCHS, SEED);
        rcfg.sync_every = h;
        let (mut cs, mut ms) = custom_fleet(WORKERS, true, |_| Box::new(TopK::new(0.05)));
        let res = run_local_sgd(&rcfg, net, opt, &t, &mut cs, &mut ms);
        rows.push(vec![
            format!("Local SGD H={h} + Topk(0.05)"),
            report::fmt(res.final_quality, 4),
            report::fmt(res.sync_rounds as f64, 0),
            report::fmt_bytes(res.bytes_per_worker_per_sync * res.sync_rounds as f64),
            report::fmt(res.consensus_gap, 6),
        ]);
    }

    // Compressed ring gossip.
    eprintln!("[schedules] ring gossip …");
    let mut gcfg = ReplicatedConfig::new(WORKERS, 32, EPOCHS, SEED);
    gcfg.gossip_gamma = 0.5;
    let (mut gcs, _) = registry::build_fleet(&resolve("baseline"), WORKERS, SEED);
    let gossip = run_gossip(&gcfg, net, opt, &t, &mut gcs);
    rows.push(vec![
        "Ring gossip (γ=0.5)".to_string(),
        report::fmt(gossip.final_quality, 4),
        report::fmt(gossip.sync_rounds as f64, 0),
        report::fmt_bytes(gossip.bytes_per_worker_per_sync * gossip.sync_rounds as f64),
        report::fmt(gossip.consensus_gap, 6),
    ]);

    report::publish(
        "Communication schedules — ResNet-20 analog, 4 workers",
        "schedules.csv",
        &[
            ("Schedule", "schedule"),
            ("Top-1 acc", "accuracy"),
            ("Comm rounds", "rounds"),
            ("Total bytes/worker", "total_bytes"),
            ("Consensus gap", "consensus_gap"),
        ],
        &rows,
    );
    println!(
        "\nLocal SGD trades synchronization rounds for consensus freshness; \
         gossip removes the global collective entirely at the cost of an \
         approximate consensus (paper §VI)."
    );
}
