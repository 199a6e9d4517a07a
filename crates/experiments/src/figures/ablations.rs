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
//! Run: `cargo run --release -p grace-experiments --bin grace-exp -- ablations`

use crate::report;
use crate::runner::{custom_fleet, relative, resolve, run_specs, Cell, RunnerConfig};
use crate::suite;
use grace_compressors::{RandomK, TopK};
use grace_core::Compressor;

/// One cell with a hand-built fleet. Every ablation cell is Top-k's cell —
/// its optimizer and its 4.0/4.0 codec op model — so the fleet under test is
/// the only thing that varies between rows.
pub(crate) fn run_custom(
    rc: &RunnerConfig,
    ef: bool,
    build: impl Fn(usize) -> Box<dyn Compressor>,
) -> grace_core::RunResult {
    let bench = suite::find("resnet20").expect("benchmark registered");
    let mut cell = Cell::new(&bench, &resolve("topk"), rc);
    // Step-decay like the paper's CIFAR recipes, so late-training EF
    // bursts are damped the way they would be in the original runs.
    cell.cfg.lr_schedule = Some(grace_nn::schedule::Schedule::StepDecay {
        milestones: vec![(bench.epochs * 2) / 3],
        gamma: 0.1,
    });
    cell.fleet = custom_fleet(rc.n_workers, ef, build);
    cell.run()
}

/// Prints the three ablations and writes `ablation_ef.csv`,
/// `ablation_ratio.csv` and `ablation_workers.csv`.
pub fn run(rc: &RunnerConfig) {
    // --- 1. EF on/off for Top-k on ResNet-20 ---
    eprintln!("[ablations] error feedback on/off …");
    let mut rows = Vec::new();
    for ratio in [0.01, 0.001] {
        for ef in [true, false] {
            let res = run_custom(rc, ef, |_| Box::new(TopK::new(ratio)));
            rows.push(vec![
                format!("Topk({ratio}){}", if ef { " + EF" } else { ", no EF" }),
                report::fmt(res.best_quality, 4),
                report::fmt(res.final_quality, 4),
            ]);
        }
    }
    report::publish(
        "Ablation 1 — error feedback for Top-k (ResNet-20 analog)",
        "ablation_ef.csv",
        &[
            ("Configuration", "configuration"),
            ("Best acc", "best_accuracy"),
            ("Final acc", "final_accuracy"),
        ],
        &rows,
    );

    // --- 2. Ratio sweep for Top-k and Random-k ---
    eprintln!("[ablations] compression-ratio sweep …");
    let mut rows = Vec::new();
    for &ratio in &[0.001, 0.01, 0.1, 0.5] {
        let topk = run_custom(rc, true, |_| Box::new(TopK::new(ratio)));
        let randk = run_custom(rc, true, |w| {
            Box::new(RandomK::new(ratio, rc.seed + w as u64))
        });
        rows.push(vec![
            format!("{ratio}"),
            report::fmt(topk.best_quality, 4),
            report::fmt(topk.compression_ratio(), 1),
            report::fmt(randk.best_quality, 4),
            report::fmt(randk.compression_ratio(), 1),
        ]);
    }
    report::publish(
        "Ablation 2 — sparsity-ratio sweep (ResNet-20 analog, EF on)",
        "ablation_ratio.csv",
        &[
            ("Ratio", "ratio"),
            ("Topk acc", "topk_acc"),
            ("Topk ×vol", "topk_compression"),
            ("Randk acc", "randk_acc"),
            ("Randk ×vol", "randk_compression"),
        ],
        &rows,
    );

    // --- 3. Worker scaling ---
    eprintln!("[ablations] worker scaling …");
    let mut rows = Vec::new();
    let bench = suite::find("vgg16").unwrap();
    for n in [2usize, 4, 8, 16] {
        let rc_n = RunnerConfig {
            n_workers: n,
            ..*rc
        };
        let cells = run_specs(&bench, ["baseline", "topk"].map(resolve), &rc_n);
        rows.push(vec![
            n.to_string(),
            report::fmt(cells[0].1.throughput, 1),
            report::fmt(cells[1].1.throughput, 1),
            report::fmt(relative(&cells)[1].relative_throughput, 2),
        ]);
    }
    report::publish(
        "Ablation 3 — worker scaling (VGG16 analog, 10 Gbps)",
        "ablation_workers.csv",
        &[
            ("Workers", "workers"),
            ("Baseline imgs/s", "baseline_tput"),
            ("Topk imgs/s", "topk_tput"),
            ("Topk speedup", "speedup"),
        ],
        &rows,
    );
}
