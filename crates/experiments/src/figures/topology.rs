//! Peer-to-peer vs parameter-server aggregation (paper §II footnote 3) —
//! an extension experiment: the same compressors under both topologies on
//! the VGG16 analog.
//!
//! Expected shape: the PS uplink incast (n·b through one link) makes dense
//! baselines much slower than ring all-reduce, while heavily-compressed
//! methods close most of the gap — compression matters *more* on a
//! parameter server.
//!
//! Run: `cargo run --release -p grace-experiments --bin grace-exp -- topology`

use crate::report;
use crate::runner::{resolve, Cell, RunnerConfig};
use crate::suite;
use grace_core::trainer::Topology;

/// The VGG16 cell under `topology`, on half the epoch budget (every method
/// trains twice).
pub(crate) fn run_under(
    topology: Topology,
    compressor_id: &str,
    rc: &RunnerConfig,
) -> grace_core::RunResult {
    let bench = suite::find("vgg16").expect("registered");
    let mut cell = Cell::new(&bench, &resolve(compressor_id), rc);
    cell.cfg.topology = topology;
    cell.cfg.epochs = (cell.cfg.epochs / 2).max(1);
    cell.run()
}

/// Prints the peer-vs-parameter-server table and writes `topology.csv`.
pub fn run(rc: &RunnerConfig) {
    let mut rows = Vec::new();
    for id in ["baseline", "topk", "qsgd", "signsgd"] {
        let label = resolve(id).display;
        eprintln!("[topology] {label} …");
        let peer = run_under(Topology::Peer, id, rc);
        let ps = run_under(Topology::ParameterServer, id, rc);
        rows.push(vec![
            label.to_string(),
            report::fmt(peer.throughput, 1),
            report::fmt(ps.throughput, 1),
            report::fmt(ps.throughput / peer.throughput, 3),
        ]);
    }
    report::publish(
        "Topology extension — VGG16 analog, 8 workers, 10 Gbps TCP",
        "topology.csv",
        &[
            ("Method", "method"),
            ("Peer imgs/s", "peer_tput"),
            ("PS imgs/s", "ps_tput"),
            ("PS / Peer", "ratio"),
        ],
        &rows,
    );
}
