//! Every table, figure and extension experiment, each a plain `run`
//! function; the `grace-exp` binary maps a name onto one of them.

pub mod ablations;
pub mod extensions;
pub mod fig1;
pub mod fig10;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fig_agg;
pub mod schedules;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod topology;

use crate::report;
use crate::runner::{relative, run_all_compressors, RelativeRow, RunnerConfig};
use crate::suite::Benchmark;

/// What every Fig. 6 panel and Fig. 10 do: run all compressors on one
/// benchmark, print quality against throughput relative to the baseline
/// under a title starting with `figure`, and write it as `csv`. Returns the
/// relative rows, baseline first.
fn throughput_panel(
    figure: &str,
    csv: &str,
    bench: &Benchmark,
    rc: &RunnerConfig,
) -> Vec<RelativeRow> {
    let rows = relative(&run_all_compressors(bench, rc));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                report::fmt(r.relative_throughput, 3),
                report::fmt(r.quality, 4),
            ]
        })
        .collect();
    let quality = (bench.build_task)(rc.seed).quality_name();
    report::publish(
        &format!(
            "{figure} — {} / {} — {quality} vs relative throughput",
            bench.paper_model, bench.paper_dataset
        ),
        csv,
        &[
            ("Method", "method"),
            ("Rel. throughput", "relative_throughput"),
            (quality, "quality"),
        ],
        &table,
    );
    rows
}
