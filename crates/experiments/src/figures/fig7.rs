//! Regenerates the paper's **Figure 7** (panels a–c): model quality versus
//! the average transmitted data volume per iteration (normalized to the
//! baseline), for the ResNet-50 (a), LSTM (b) and NCF (c) analogs.
//!
//! Expected shape (paper §V-C): compressors that send more data generally
//! reach higher quality, with non-trivial exceptions; the trade-off must be
//! tuned per scenario.
//!
//! Run: `cargo run --release -p grace-experiments --bin grace-exp -- fig7`

use crate::report;
use crate::runner::{relative, run_all_compressors, RunnerConfig};
use crate::suite;

/// Prints the three panels and writes one `fig7<letter>_<benchmark>.csv` each.
pub fn run(rc: &RunnerConfig) {
    for (panel, id) in ["resnet50", "lstm", "ncf"].iter().enumerate() {
        let letter = (b'a' + panel as u8) as char;
        let bench = suite::find(id).expect("benchmark registered");
        let rows = run_all_compressors(&bench, rc);
        let quality = (bench.build_task)(rc.seed).quality_name();
        // Beyond the printed columns the CSV carries the per-step stage
        // latency tails (p50/p95/p99, microseconds) from the telemetry
        // histograms — summed means hide straggler skew; these don't.
        let mut columns = ["method", "relative_volume", "quality", "overlap_ratio"]
            .map(String::from)
            .to_vec();
        for stage in ["compress", "decompress", "aggregate"] {
            columns.extend([50, 95, 99].map(|q| format!("{stage}_p{q}_us")));
        }
        let csv_rows: Vec<Vec<String>> = relative(&rows)
            .iter()
            .zip(&rows)
            .map(|(rel, (_, r))| {
                let mut row = vec![
                    rel.name.clone(),
                    report::fmt(rel.relative_volume, 5),
                    report::fmt(rel.quality, 4),
                    report::fmt(r.overlap_ratio, 3),
                ];
                let h = &r.stage_hists;
                for stage in [&h.compress, &h.decompress, &h.aggregate] {
                    let tail = |q| report::fmt(stage.percentile(q) as f64 / 1e3, 1);
                    row.extend([0.50, 0.95, 0.99].map(tail));
                }
                row
            })
            .collect();
        let printed: Vec<Vec<String>> = csv_rows.iter().map(|r| r[..4].to_vec()).collect();
        report::print_table(
            &format!(
                "Fig. 7({letter}) — {} / {} — {quality} vs relative data volume/iteration",
                bench.paper_model, bench.paper_dataset
            ),
            &["Method", "Rel. volume", quality, "Overlap"],
            &printed,
        );
        let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
        report::write_csv(
            &format!("fig7{letter}_{}.csv", bench.id),
            &columns,
            &csv_rows,
        );
    }
}
