//! Regenerates the paper's **Table I**: the classification of surveyed
//! gradient-compression methods, restricted (like the paper's
//! "Implementation" column) to the 16 methods implemented in this workspace.
//!
//! Run: `cargo run --release -p grace-experiments --bin grace-exp -- table1`

use crate::report;
use grace_compressors::registry;

/// Prints Table I and writes `table1.csv`.
pub fn run() {
    let specs = registry::all_specs();
    let rows: Vec<Vec<String>> = specs
        .iter()
        .map(|s| {
            vec![
                s.class.to_string(),
                s.display.to_string(),
                s.output_size.to_string(),
                s.nature.to_string(),
                if s.ef_default { "yes" } else { "no" }.to_string(),
                (s.build)(0).strategy().to_string(),
            ]
        })
        .collect();
    report::publish(
        "Table I — classification of implemented gradient compression methods",
        "table1.csv",
        &[
            ("Class", "class"),
            ("Method", "method"),
            ("‖g̃‖₀", "output_size"),
            ("Nature of Q", "nature"),
            ("EF-On", "ef_on"),
            ("Strategy", "strategy"),
        ],
        &rows,
    );
    println!("\n{} methods implemented (paper Table I: 16).", specs.len());
}
