//! Ablation studies beyond the paper's figures (DESIGN.md §6):
//!
//! 1. **Error feedback on/off** for Top-k (the paper's §V-B observation that
//!    EF is what makes sparsifiers competitive);
//! 2. **Compression-ratio sweep** for Top-k and Random-k (the Fig. 6d inset:
//!    heavier compression, lower quality);
//! 3. **Worker scaling** 2→16 for baseline vs Top-k (the ring all-reduce
//!    cost grows with n, sparsified allgather grows faster in latency but
//!    moves far fewer bytes).
//!
//! Run: `cargo run --release -p grace-experiments --bin ablations`

use grace_compressors::{RandomK, TopK};
use grace_core::trainer::run_simulated;
use grace_core::{Compressor, Memory, NoMemory, ResidualMemory, TrainConfig};
use grace_experiments::report;
use grace_experiments::runner::{run_cell, RunnerConfig};
use grace_experiments::suite;

type Fleet = (Vec<Box<dyn Compressor>>, Vec<Box<dyn Memory>>);

fn fleet_topk(ratio: f64, n: usize, ef: bool) -> Fleet {
    let cs = (0..n)
        .map(|_| Box::new(TopK::new(ratio)) as Box<dyn Compressor>)
        .collect();
    let ms = (0..n)
        .map(|_| {
            if ef {
                Box::new(ResidualMemory::new()) as Box<dyn Memory>
            } else {
                Box::new(NoMemory::new()) as Box<dyn Memory>
            }
        })
        .collect();
    (cs, ms)
}

fn run_custom(
    bench_id: &str,
    rc: &RunnerConfig,
    make: impl Fn(usize) -> Fleet,
) -> grace_core::RunResult {
    let bench = suite::find(bench_id).expect("benchmark registered");
    let task = (bench.build_task)(rc.seed);
    let mut net = (bench.build_net)(rc.seed);
    let byte_scale = bench.paper_params as f64 / net.param_count() as f64;
    let cfg = TrainConfig {
        n_workers: rc.n_workers,
        batch_per_worker: bench.batch,
        epochs: ((bench.epochs as u64 * rc.epoch_scale_pct as u64) / 100).max(1) as usize,
        seed: rc.seed,
        network: rc.network,
        compute: grace_core::ComputeModel::new(bench.paper_sec_per_example),
        codec: grace_core::trainer::CodecTiming::Modeled {
            per_op_seconds: 1.0e-4,
            ops_per_tensor: 4.0,
            ns_per_element: 4.0,
            tensor_count: bench.paper_gradient_vectors as usize,
        },
        topology: grace_core::trainer::Topology::Peer,
        byte_scale,
        evals_per_epoch: 1,
        // Step-decay like the paper's CIFAR recipes, so late-training EF
        // bursts are damped the way they would be in the original runs.
        lr_schedule: Some(grace_nn::schedule::Schedule::StepDecay {
            milestones: vec![(bench.epochs * 2) / 3],
            gamma: 0.1,
        }),
        fault: None,
        exchange_threads: None,
        fusion_bytes: grace_experiments::runner::fusion_bytes_for_model(net.param_count()),
        telemetry: None,
        metrics_addr: None,
        health: None,
        backend: grace_core::ExecBackend::Threads,
        agg_plan: grace_core::AggregationPlan::default(),
    };
    let (mut cs, mut ms) = make(rc.n_workers);
    let mut opt = bench.opt.build("topk");
    run_simulated(
        &cfg,
        &mut net,
        task.as_ref(),
        opt.as_mut(),
        &mut cs,
        &mut ms,
    )
}

fn main() {
    let rc = RunnerConfig::default();

    // --- 1. EF on/off for Top-k on ResNet-20 ---
    eprintln!("[ablations] error feedback on/off …");
    let mut rows = Vec::new();
    for ratio in [0.01, 0.001] {
        for ef in [true, false] {
            let res = run_custom("resnet20", &rc, |n| fleet_topk(ratio, n, ef));
            rows.push(vec![
                format!("Topk({ratio}){}", if ef { " + EF" } else { ", no EF" }),
                report::fmt(res.best_quality, 4),
                report::fmt(res.final_quality, 4),
            ]);
        }
    }
    report::print_table(
        "Ablation 1 — error feedback for Top-k (ResNet-20 analog)",
        &["Configuration", "Best acc", "Final acc"],
        &rows,
    );
    report::write_csv(
        "ablation_ef.csv",
        &["configuration", "best_accuracy", "final_accuracy"],
        &rows,
    );

    // --- 2. Ratio sweep for Top-k and Random-k ---
    eprintln!("[ablations] compression-ratio sweep …");
    let mut rows = Vec::new();
    for &ratio in &[0.001, 0.01, 0.1, 0.5] {
        let topk = run_custom("resnet20", &rc, |n| fleet_topk(ratio, n, true));
        let randk = run_custom("resnet20", &rc, |n| {
            let cs = (0..n)
                .map(|w| Box::new(RandomK::new(ratio, rc.seed + w as u64)) as Box<dyn Compressor>)
                .collect();
            let ms = (0..n)
                .map(|_| Box::new(ResidualMemory::new()) as Box<dyn Memory>)
                .collect();
            (cs, ms)
        });
        rows.push(vec![
            format!("{ratio}"),
            report::fmt(topk.best_quality, 4),
            report::fmt(topk.compression_ratio(), 1),
            report::fmt(randk.best_quality, 4),
            report::fmt(randk.compression_ratio(), 1),
        ]);
    }
    report::print_table(
        "Ablation 2 — sparsity-ratio sweep (ResNet-20 analog, EF on)",
        &["Ratio", "Topk acc", "Topk ×vol", "Randk acc", "Randk ×vol"],
        &rows,
    );
    report::write_csv(
        "ablation_ratio.csv",
        &[
            "ratio",
            "topk_acc",
            "topk_compression",
            "randk_acc",
            "randk_compression",
        ],
        &rows,
    );

    // --- 3. Worker scaling ---
    eprintln!("[ablations] worker scaling …");
    let mut rows = Vec::new();
    for n in [2usize, 4, 8, 16] {
        let rc_n = RunnerConfig {
            n_workers: n,
            ..RunnerConfig::default()
        };
        let bench = suite::find("vgg16").unwrap();
        let base = run_cell(&bench, None, &rc_n);
        let topk = run_cell(&bench, Some("topk"), &rc_n);
        rows.push(vec![
            n.to_string(),
            report::fmt(base.throughput, 1),
            report::fmt(topk.throughput, 1),
            report::fmt(topk.throughput / base.throughput, 2),
        ]);
    }
    report::print_table(
        "Ablation 3 — worker scaling (VGG16 analog, 10 Gbps)",
        &["Workers", "Baseline imgs/s", "Topk imgs/s", "Topk speedup"],
        &rows,
    );
    report::write_csv(
        "ablation_workers.csv",
        &["workers", "baseline_tput", "topk_tput", "speedup"],
        &rows,
    );
}
