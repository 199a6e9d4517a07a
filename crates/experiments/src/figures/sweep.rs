//! A practitioner's view of the evaluation grid: pick a benchmark, a
//! compressor (any core or extension id, `baseline`, or `all`), worker
//! count, link speed and transport, and get the quality / throughput /
//! volume summary — the "practitioners investigate the trade-offs and
//! select the method that suits their model" workflow of §I.
//!
//! ```text
//! cargo run --release -p grace-experiments --bin grace-exp -- sweep \
//!     --benchmark ncf --compressor all --workers 8 --gbps 10 --transport tcp
//! ```

use crate::report;
use crate::runner::{relative, resolve, run_all_compressors, run_specs, RunnerConfig};
use crate::suite::Benchmark;

/// Prints the summary table for `compressor` (`"all"` = the baseline plus
/// the 16 core methods; any other id runs next to the baseline) on `bench`.
pub fn run(bench: &Benchmark, compressor: &str, rc: &RunnerConfig) {
    let results = match compressor {
        "all" => run_all_compressors(bench, rc),
        "baseline" => run_specs(bench, [resolve("baseline")], rc),
        id => run_specs(bench, [resolve("baseline"), resolve(id)], rc),
    };
    let rows: Vec<Vec<String>> = relative(&results)
        .iter()
        .zip(&results)
        .map(|(rel, (_, res))| {
            vec![
                rel.name.clone(),
                report::fmt(rel.quality, 4),
                report::fmt(res.throughput, 1),
                report::fmt(rel.relative_throughput, 3),
                report::fmt_bytes(res.bytes_per_worker_per_iter),
                report::fmt(res.compression_ratio(), 1),
            ]
        })
        .collect();
    report::print_table(
        &format!(
            "Sweep — {} ({}), {} workers, {} Gbps {}",
            bench.paper_model,
            (bench.build_task)(rc.seed).quality_name(),
            rc.n_workers,
            rc.network.bandwidth_gbps,
            rc.network.transport
        ),
        &[
            "Method",
            "Quality",
            "Samples/s",
            "Rel. tput",
            "Bytes/iter",
            "×vol",
        ],
        &rows,
    );
}
