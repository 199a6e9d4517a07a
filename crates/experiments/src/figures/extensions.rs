//! Evaluates the seven **extension** methods (surveyed in Table I but not
//! among the paper's 16 implementations) against their closest core
//! relatives on the ResNet-20 analog — the "rapid prototyping of new
//! methods" workflow the framework exists for (§IV).
//!
//! Run: `cargo run --release -p grace-experiments --bin grace-exp -- extensions`

use crate::report;
use crate::runner::{relative, resolve, run_specs, RunnerConfig};
use crate::suite;

/// Prints the extension-vs-core table and writes `extensions.csv`.
pub fn run(rc: &RunnerConfig) {
    let bench = suite::find("resnet20").expect("registered");
    // Extension methods next to their closest core relatives.
    let pairs: [(&str, &str); 7] = [
        ("variance", "randomk"),
        ("sketchedsgd", "topk"),
        ("threelc", "terngrad"),
        ("qsparselocal", "topk"),
        ("lpcsvrg", "qsgd"),
        ("atomo", "powersgd"),
        ("spectral", "powersgd"),
    ];
    let ids = std::iter::once("baseline").chain(pairs.iter().map(|p| p.0));
    let rel = relative(&run_specs(&bench, ids.map(resolve), rc));
    let mut rows = vec![vec![
        "Baseline".to_string(),
        "-".to_string(),
        report::fmt(rel[0].quality, 4),
        "1.000".to_string(),
        "1.000".to_string(),
    ]];
    for (r, (_, core_id)) in rel.iter().skip(1).zip(pairs) {
        rows.push(vec![
            r.name.clone(),
            resolve(core_id).display.to_string(),
            report::fmt(r.quality, 4),
            report::fmt(r.relative_throughput, 3),
            report::fmt(r.relative_volume, 5),
        ]);
    }
    report::publish(
        "Extension methods on the ResNet-20 analog (10 Gbps, 8 workers)",
        "extensions.csv",
        &[
            ("Method", "method"),
            ("Closest core method", "relative_of"),
            ("Top-1 acc", "accuracy"),
            ("Rel. tput", "relative_throughput"),
            ("Rel. volume", "relative_volume"),
        ],
        &rows,
    );
}
