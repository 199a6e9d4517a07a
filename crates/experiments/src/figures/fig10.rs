//! Regenerates the paper's **Figure 10**: the ResNet-50 experiment of
//! Fig. 6(c) re-run on 1 Gbps links. With the network as the bottleneck, "a
//! large number of compressors obtain a throughput speedup over the
//! baseline" — the opposite of the 10 Gbps picture.
//!
//! Run: `cargo run --release -p grace-experiments --bin grace-exp -- fig10`

use crate::runner::RunnerConfig;
use crate::suite;
use grace_comm::{NetworkModel, Transport};

/// Prints Fig. 10 and writes `fig10_resnet50_1gbps.csv`.
pub fn run(rc: &RunnerConfig) {
    let rc = RunnerConfig {
        network: NetworkModel::new(1.0, Transport::Tcp),
        ..*rc
    };
    let bench = suite::find("resnet50").expect("resnet50 registered");
    let rel = super::throughput_panel("Fig. 10 (1 Gbps)", "fig10_resnet50_1gbps.csv", &bench, &rc);
    let speedups = rel
        .iter()
        .skip(1)
        .filter(|r| r.relative_throughput > 1.0)
        .count();
    println!(
        "\n{speedups}/{} compressors beat the baseline at 1 Gbps \
         (paper: \"a large number\").",
        rel.len() - 1
    );
}
