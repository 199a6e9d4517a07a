//! Regenerates the paper's **Figure 9**: absolute training throughput
//! (images/second) for the ResNet-9 / CIFAR-10 analog under TCP versus RDMA
//! transports, for every compressor plus the baseline (the paper's PyTorch
//! experiment).
//!
//! Expected shape (paper §V-E): RDMA is consistently better than TCP, and
//! the compressor ranking is broadly preserved across transports.
//!
//! Run: `cargo run --release -p grace-experiments --bin grace-exp -- fig9`

use crate::report;
use crate::runner::{resolve, run_cell, run_cell_measured_tcp, RunnerConfig};
use crate::suite;
use grace_comm::{NetworkModel, Transport};
use grace_compressors::registry;

/// Prints Fig. 9 and writes `fig9.csv`.
pub fn run(rc: &RunnerConfig) {
    let bench = suite::find("resnet9").expect("resnet9 registered");
    let mut rows = Vec::new();
    for spec in std::iter::once(resolve("baseline")).chain(registry::all_specs()) {
        let label = spec.display;
        let mut cells = vec![label.to_string()];
        for transport in [Transport::Tcp, Transport::Rdma] {
            let rc = RunnerConfig {
                network: NetworkModel::new(10.0, transport),
                ..*rc
            };
            eprintln!("[fig9] {label} over {transport} …");
            let res = run_cell(&bench, spec.id, &rc);
            cells.push(report::fmt(res.throughput, 1));
        }
        // The empirical companion column: the same cell trained for real
        // over localhost TCP sockets (kernel framing cost, analog model
        // scale) next to the α–β modelled paper-scale numbers.
        eprintln!("[fig9] {label} over measured localhost tcp …");
        let measured = run_cell_measured_tcp(&bench, spec.id, rc);
        cells.push(report::fmt(measured, 1));
        rows.push(cells);
    }
    report::publish(
        "Fig. 9 — ResNet-9 analog throughput (images/s): TCP vs RDMA modelled at 10 Gbps, \
         plus measured localhost TCP",
        "fig9.csv",
        &[
            ("Method", "method"),
            ("TCP", "tcp_imgs_per_s"),
            ("RDMA", "rdma_imgs_per_s"),
            ("Measured TCP", "measured_tcp_imgs_per_s"),
        ],
        &rows,
    );
}
