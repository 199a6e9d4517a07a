//! Aggregator cost per aggregation plan — the companion figure to the
//! pluggable-`AggregationPlan` refactor.
//!
//! For every fig6 benchmark and every gather-side compression method, this
//! sweeps `decode_then_merge` / `homomorphic_sum` and reports what each plan
//! costs at the aggregation point: summed aggregator CPU-seconds (decode +
//! merge fold, both serial on the merging thread) and incast bytes (what
//! actually enters the merge). Trained parameters are bit-identical across
//! plans — that is asserted by the equivalence suites — so the only thing
//! this figure can show is *where the work went*: `homomorphic_sum` never
//! materializes decoded contributions, so for the shared-scale quantizers
//! and the sketch both columns drop by roughly the method's compression
//! ratio. Methods without the capability run the reference under either
//! requested plan (the plan column is the requested one), so their two rows
//! differ only by timing noise.
//!
//! Run: `cargo run --release -p grace-experiments --bin grace-exp -- fig_agg`
//! (`--scale 25` for a quicker pass.)

use crate::report;
use crate::runner::{run_cell, RunnerConfig};
use crate::suite;
use grace_core::AggregationPlan;

/// Gather-side methods whose merge point the plans actually move. The
/// allreduce families (PowerSGD, SketchedSGD, …) sum payloads natively and
/// are unaffected, so sweeping them would only pad the figure.
const METHODS: &[&str] = &["eightbit", "topk", "qsgd", "randomk", "sketchml", "dgc"];

const COLUMNS: [&str; 7] = [
    "method",
    "plan",
    "agg_cpu_s",
    "decode_cpu_s",
    "merge_cpu_s",
    "incast_bytes",
    "quality",
];

/// Prints one table per fig6 benchmark and writes `fig_agg_<benchmark>.csv`.
pub fn run(rc: &RunnerConfig) {
    let mut rc = *rc;
    for bench in suite::fig6_benchmarks() {
        eprintln!("[fig_agg] {} — plans × methods …", bench.id);
        let mut table: Vec<Vec<String>> = Vec::new();
        for id in METHODS {
            for plan in AggregationPlan::ALL {
                rc.agg_plan = plan;
                let res = run_cell(&bench, id, &rc);
                table.push(vec![
                    id.to_string(),
                    plan.to_string(),
                    report::fmt(res.stages.aggregator_cpu_seconds(), 6),
                    report::fmt(res.stages.decompress_seconds, 6),
                    report::fmt(res.stages.aggregate_seconds, 6),
                    format!("{}", res.stages.incast_bytes),
                    report::fmt(res.best_quality, 4),
                ]);
            }
        }
        report::publish(
            &format!(
                "Fig. AGG — {} / {} — aggregator cost per plan",
                bench.paper_model, bench.paper_dataset
            ),
            &format!("fig_agg_{}.csv", bench.id),
            &COLUMNS.map(|c| (c, c)),
            &table,
        );
    }
}
