//! Regenerates the paper's **Figure 6** (panels a–f): model quality versus
//! training throughput (normalized to the no-compression baseline) for every
//! implemented compressor, across six benchmarks:
//! ResNet-20, DenseNet40-K12, ResNet-50, NCF, LSTM and U-Net analogs, on
//! 8 workers over 10 Gbps TCP.
//!
//! Expected shape (paper §V-B): on compute-bound models (ResNet, DenseNet,
//! U-Net) most compressors fall *below* 1.0 relative throughput; on
//! communication-bound models (NCF) several exceed it by 1.5–4.5×; no method
//! wins everywhere.
//!
//! Run: `cargo run --release -p grace-experiments --bin grace-exp -- fig6`
//! (`--scale 25` for a quicker pass.)

use crate::runner::RunnerConfig;
use crate::suite;

/// Prints the six panels and writes one `fig6<letter>_<benchmark>.csv` each.
pub fn run(rc: &RunnerConfig) {
    for (panel, bench) in suite::fig6_benchmarks().iter().enumerate() {
        let letter = (b'a' + panel as u8) as char;
        let csv = format!("fig6{letter}_{}.csv", bench.id);
        super::throughput_panel(&format!("Fig. 6({letter})"), &csv, bench, rc);
    }
}
