//! Regenerates the paper's **Table II**: the benchmark suite summary —
//! paper reference numbers side by side with this reproduction's analog
//! models, plus the measured baseline quality of each analog.
//!
//! Run: `cargo run --release -p grace-experiments --bin grace-exp -- table2`
//! (`--scale 25` for a quicker pass.)

use crate::report;
use crate::runner::{run_cell, RunnerConfig};
use crate::suite;

/// Prints Table II and writes `table2.csv`.
pub fn run(rc: &RunnerConfig) {
    let mut rows = Vec::new();
    for bench in suite::all_benchmarks() {
        eprintln!("[table2] training baseline for {} …", bench.id);
        let mut net = (bench.build_net)(rc.seed);
        let res = run_cell(&bench, "baseline", rc);
        rows.push(vec![
            bench.task.to_string(),
            format!("{} (analog)", bench.paper_model),
            bench.paper_dataset.to_string(),
            format!("{} / {}", bench.paper_params, net.param_count()),
            format!(
                "{} / {}",
                bench.paper_gradient_vectors,
                net.gradient_tensor_count()
            ),
            format!("{} / {}", bench.paper_epochs, bench.epochs),
            bench.paper_metric.to_string(),
            bench.paper_baseline.to_string(),
            report::fmt(res.best_quality, 4),
        ]);
    }
    report::publish(
        "Table II — benchmark suite (paper / analog)",
        "table2.csv",
        &[
            ("Task", "task"),
            ("Model", "model"),
            ("Dataset (paper)", "dataset"),
            ("Params p/a", "params"),
            ("Grad vectors p/a", "gradient_vectors"),
            ("Epochs p/a", "epochs"),
            ("Metric", "metric"),
            ("Paper baseline", "paper_baseline"),
            ("Analog baseline", "analog_baseline"),
        ],
        &rows,
    );
}
