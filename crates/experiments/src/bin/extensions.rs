//! Evaluates the five **extension** methods (surveyed in Table I but not
//! among the paper's 16 implementations) against their closest core
//! relatives on the ResNet-20 analog — the "rapid prototyping of new
//! methods" workflow the framework exists for (§IV).
//!
//! Run: `cargo run --release -p grace-experiments --bin extensions`

use grace_compressors::extensions::extension_specs;
use grace_compressors::registry;
use grace_core::trainer::{run_simulated, CodecTiming};
use grace_core::{CompressorSpec, NoCompression, NoMemory, TrainConfig};
use grace_experiments::report;
use grace_experiments::runner::RunnerConfig;
use grace_experiments::suite;

fn run_spec(spec: Option<&CompressorSpec>, rc: &RunnerConfig) -> grace_core::RunResult {
    let bench = suite::find("resnet20").expect("registered");
    let task = (bench.build_task)(rc.seed);
    let mut net = (bench.build_net)(rc.seed);
    let byte_scale = bench.paper_params as f64 / net.param_count() as f64;
    let cfg = TrainConfig {
        n_workers: rc.n_workers,
        batch_per_worker: bench.batch,
        epochs: ((bench.epochs as u64 * rc.epoch_scale_pct as u64) / 100).max(1) as usize,
        seed: rc.seed,
        network: rc.network,
        compute: grace_core::ComputeModel::new(bench.paper_sec_per_example),
        codec: match spec {
            None => CodecTiming::Free,
            Some(s) => CodecTiming::Modeled {
                per_op_seconds: 1.0e-4,
                ops_per_tensor: s.ops_per_tensor,
                ns_per_element: s.ns_per_element,
                tensor_count: bench.paper_gradient_vectors as usize,
            },
        },
        topology: grace_core::trainer::Topology::Peer,
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
    let mut opt = bench.opt.build(spec.map(|s| s.id).unwrap_or("baseline"));
    let (mut cs, mut ms) = match spec {
        None => (
            (0..rc.n_workers)
                .map(|_| Box::new(NoCompression::new()) as Box<dyn grace_core::Compressor>)
                .collect(),
            (0..rc.n_workers)
                .map(|_| Box::new(NoMemory::new()) as Box<dyn grace_core::Memory>)
                .collect(),
        ),
        Some(s) => registry::build_fleet(s, rc.n_workers, rc.seed),
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
    let base = run_spec(None, &rc);
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
    let ext = extension_specs();
    let mut rows = vec![vec![
        "Baseline".to_string(),
        "-".to_string(),
        report::fmt(base.best_quality, 4),
        "1.000".to_string(),
        "1.000".to_string(),
    ]];
    for (ext_id, core_id) in pairs {
        let spec = ext.iter().find(|s| s.id == ext_id).expect("registered");
        eprintln!("[extensions] {} …", spec.display);
        let res = run_spec(Some(spec), &rc);
        let relative = res.throughput / base.throughput;
        let vol = res.bytes_per_worker_per_iter / base.bytes_per_worker_per_iter;
        rows.push(vec![
            spec.display.to_string(),
            registry::find(core_id)
                .map(|s| s.display.to_string())
                .unwrap_or_default(),
            report::fmt(res.best_quality, 4),
            report::fmt(relative, 3),
            report::fmt(vol, 5),
        ]);
    }
    report::print_table(
        "Extension methods on the ResNet-20 analog (10 Gbps, 8 workers)",
        &[
            "Method",
            "Closest core method",
            "Top-1 acc",
            "Rel. tput",
            "Rel. volume",
        ],
        &rows,
    );
    report::write_csv(
        "extensions.csv",
        &[
            "method",
            "relative_of",
            "accuracy",
            "relative_throughput",
            "relative_volume",
        ],
        &rows,
    );
}
