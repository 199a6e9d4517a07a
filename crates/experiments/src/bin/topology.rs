//! Peer-to-peer vs parameter-server aggregation (paper §II footnote 3) —
//! an extension experiment: the same compressors under both topologies on
//! the VGG16 analog.
//!
//! Expected shape: the PS uplink incast (n·b through one link) makes dense
//! baselines much slower than ring all-reduce, while heavily-compressed
//! methods close most of the gap — compression matters *more* on a
//! parameter server.
//!
//! Run: `cargo run --release -p grace-experiments --bin topology`

use grace_compressors::registry;
use grace_core::trainer::{run_simulated, CodecTiming, Topology};
use grace_core::{Compressor, Memory, NoCompression, NoMemory, TrainConfig};
use grace_experiments::report;
use grace_experiments::runner::RunnerConfig;
use grace_experiments::suite;

type Fleet = (Vec<Box<dyn Compressor>>, Vec<Box<dyn Memory>>);

fn run(
    topology: Topology,
    compressor_id: Option<&str>,
    rc: &RunnerConfig,
) -> grace_core::RunResult {
    let bench = suite::find("vgg16").expect("registered");
    let task = (bench.build_task)(rc.seed);
    let mut net = (bench.build_net)(rc.seed);
    let byte_scale = bench.paper_params as f64 / net.param_count() as f64;
    let codec = match compressor_id {
        None => CodecTiming::Free,
        Some(id) => {
            let spec = registry::find(id).expect("registered");
            CodecTiming::Modeled {
                per_op_seconds: 1.0e-4,
                ops_per_tensor: spec.ops_per_tensor,
                ns_per_element: spec.ns_per_element,
                tensor_count: bench.paper_gradient_vectors as usize,
            }
        }
    };
    let cfg = TrainConfig {
        n_workers: rc.n_workers,
        batch_per_worker: bench.batch,
        epochs: ((bench.epochs as u64 * rc.epoch_scale_pct as u64) / 100 / 2).max(1) as usize,
        seed: rc.seed,
        network: rc.network,
        compute: grace_core::ComputeModel::new(bench.paper_sec_per_example),
        codec,
        topology,
        byte_scale,
        evals_per_epoch: 1,
        lr_schedule: None,
        fault: None,
        exchange_threads: None,
        fusion_bytes: grace_experiments::runner::fusion_bytes_for_model(net.param_count()),
        telemetry: None,
        metrics_addr: None,
        health: None,
        backend: grace_core::ExecBackend::Threads,
        agg_plan: grace_core::AggregationPlan::default(),
    };
    let mut opt = bench.opt.build(compressor_id.unwrap_or("baseline"));
    let (mut cs, mut ms): Fleet = match compressor_id {
        None => (
            (0..rc.n_workers)
                .map(|_| Box::new(NoCompression::new()) as Box<dyn Compressor>)
                .collect(),
            (0..rc.n_workers)
                .map(|_| Box::new(NoMemory::new()) as Box<dyn Memory>)
                .collect(),
        ),
        Some(id) => {
            let spec = registry::find(id).expect("registered");
            registry::build_fleet(&spec, rc.n_workers, rc.seed)
        }
    };
    run_simulated(
        &cfg,
        &mut net,
        task.as_ref(),
        opt.as_mut(),
        &mut cs,
        &mut ms,
    )
}

fn main() {
    let rc = RunnerConfig::default();
    let methods: [(&str, Option<&str>); 4] = [
        ("Baseline", None),
        ("Topk(0.01)", Some("topk")),
        ("QSGD(64)", Some("qsgd")),
        ("SignSGD", Some("signsgd")),
    ];
    let mut rows = Vec::new();
    for (label, id) in methods {
        eprintln!("[topology] {label} …");
        let peer = run(Topology::Peer, id, &rc);
        let ps = run(Topology::ParameterServer, id, &rc);
        rows.push(vec![
            label.to_string(),
            report::fmt(peer.throughput, 1),
            report::fmt(ps.throughput, 1),
            report::fmt(ps.throughput / peer.throughput, 3),
        ]);
    }
    report::print_table(
        "Topology extension — VGG16 analog, 8 workers, 10 Gbps TCP",
        &["Method", "Peer imgs/s", "PS imgs/s", "PS / Peer"],
        &rows,
    );
    report::write_csv(
        "topology.csv",
        &["method", "peer_tput", "ps_tput", "ratio"],
        &rows,
    );
}
