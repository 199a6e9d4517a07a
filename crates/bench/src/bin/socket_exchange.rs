//! Measures the socket transport's framing efficiency and round-trip cost,
//! and records the result to `results/bench_socket_exchange.json`.
//!
//! Four in-process ranks connect through the real localhost-TCP hub and run
//! allgather rounds at three payload sizes spanning the codec's working
//! range (a sparse analog-model bucket, a mid-size bucket, a fused
//! megabyte-class bucket). Two observables per size:
//!
//! * `frame_efficiency` — payload bytes ÷ raw wire bytes written by rank 0,
//!   rendezvous and teardown frames included. Deterministic (the framing
//!   overhead is 17 bytes per request plus a fixed HELLO/LEAVE cost), so CI
//!   gates on it: any regression means the wire format grew.
//! * `wall_ms` — mean wall-clock per allgather round across the cluster,
//!   informational (kernel scheduling makes it noisy).
//!
//! The `fused` rows exchange what the end-to-end benchmark's `sparse-tcp`
//! workload ships in one step — the registry's top-k over resnet50's 68
//! gradient tensors, as real `encode_frame` bytes — once **per tensor** (68
//! allgathers a step, the program before the sealed bucket became the wire
//! unit) and once **per bucket** (one `encode_bucket_into` envelope per
//! bucket of the benchmark's fusion plan: 9 allgathers), at 2, 4 and 8
//! ranks. `calls_per_step` is an exact count (gated for equality) and
//! `frame_efficiency` — the tensors' frame bytes ÷ rank 0's raw wire bytes,
//! so the envelope's own words count as overhead — is deterministic;
//! `wall_ms` is the slowest rank's mean step, informational.
//!
//! Run: `cargo run --release -p grace-bench --bin socket_exchange`

use grace_comm::net::run_socket_local;
use grace_comm::{ClusterIntrospect, ClusterOptions, Collective, GatherFrames};
use grace_compressors::registry;
use grace_core::payload::{encode_bucket_into, encode_frame};
use grace_core::trainer::fusion_plan;
use grace_core::TrainConfig;
use grace_nn::models;
use grace_tensor::Tensor;
use std::time::Instant;

const WORKERS: usize = 4;
const WARMUP: usize = 2;

struct Sample {
    label: String,
    calls_per_step: u64,
    frame_efficiency: f64,
    wall_ms: f64,
}

/// One step of `sparse-tcp`'s wire traffic, both ways: the 68 tensor frames,
/// and the same frames in the 9 envelopes of the benchmark's fusion plan
/// (`fusion_bytes = params·4/8`).
fn resnet50_step() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut net = models::resnet50_analog(48, 8, 1);
    let mut cfg = TrainConfig::new(2, 16, 1, 1);
    cfg.fusion_bytes = net.param_count() * 4 / 8;
    let plan = fusion_plan(&cfg, &mut net);
    let mut topk = (registry::find("topk").expect("topk registered").build)(1);
    let encoded: Vec<_> = net
        .streaming_grad_sizes()
        .iter()
        .enumerate()
        .map(|(t, (name, len))| {
            let grad = (0..*len).map(|i| ((i * 37 + t * 11) % 101) as f32 / 50.0 - 1.0);
            topk.compress(&Tensor::from_vec(grad.collect()), name)
        })
        .collect();
    let per_tensor = encoded
        .iter()
        .map(|(payloads, ctx)| encode_frame(payloads.clone(), &ctx.meta))
        .collect();
    let per_bucket = (0..plan.n_buckets())
        .map(|b| {
            let mut envelope = Vec::new();
            let tensors = encoded[plan.bucket_range(b)].iter();
            encode_bucket_into(
                &mut envelope,
                tensors.map(|(p, ctx)| (&p[..], &ctx.meta[..])),
            );
            envelope
        })
        .collect();
    (per_tensor, per_bucket)
}

/// Exchanges `calls` (one step's allgathers) for `steps` steps at `world`
/// ranks; `payload_bytes` is what one step's payload weighs — the numerator
/// of `frame_efficiency`.
fn measure(
    label: String,
    world: usize,
    calls: &[Vec<u8>],
    payload_bytes: usize,
    steps: usize,
) -> Sample {
    let results = run_socket_local(world, ClusterOptions::default(), None, |c| {
        let mut frames = GatherFrames::new();
        let mut step = || {
            for call in calls {
                c.try_allgather_frames(call.clone(), &mut frames)
                    .expect("fault-free gather");
                assert_eq!(frames.n_slots(), world);
            }
        };
        (0..WARMUP).for_each(|_| step());
        let (start, ops) = (Instant::now(), c.ops_started());
        (0..steps).for_each(|_| step());
        let wall = start.elapsed().as_secs_f64();
        let calls_per_step = (c.ops_started() - ops) / steps as u64;
        c.leave();
        // `leave()` is the stream's last write, so the stats snapshot below
        // covers every frame this rank will ever send.
        (wall, calls_per_step, c.net_stats())
    });
    let wall_ms = results
        .iter()
        .map(|(w, _, _)| w * 1e3 / steps as f64)
        .fold(0.0, f64::max);
    let (_, calls_per_step, stats) = results[0];
    Sample {
        label,
        calls_per_step,
        frame_efficiency: ((WARMUP + steps) * payload_bytes) as f64 / stats.wire_bytes_sent as f64,
        wall_ms,
    }
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cells = [
        ("1KiB", 1 << 10, 64),
        ("64KiB", 64 << 10, 32),
        ("1MiB", 1 << 20, 8),
    ];
    let mut samples = Vec::new();
    for (label, bytes, rounds) in cells {
        let payload = [vec![0x5A_u8; bytes]];
        let s = measure(label.to_string(), WORKERS, &payload, bytes, rounds);
        assert!(
            s.frame_efficiency > 0.9,
            "{label}: framing overhead exploded ({:.4})",
            s.frame_efficiency
        );
        samples.push(s);
    }
    let (per_tensor, per_bucket) = resnet50_step();
    let frame_bytes: usize = per_tensor.iter().map(Vec::len).sum();
    for world in [2, 4, 8] {
        for (unit, calls) in [("tensor", &per_tensor), ("bucket", &per_bucket)] {
            let label = format!("fused/per_{unit}@{world}");
            samples.push(measure(label, world, calls, frame_bytes, 24));
        }
    }
    let mut rows = Vec::new();
    for s in &samples {
        println!(
            "{:>20}  {:3} calls/step  frame efficiency {:.5}  slowest rank {:8.3} ms",
            s.label, s.calls_per_step, s.frame_efficiency, s.wall_ms
        );
        rows.push(format!(
            "    {{\"codec\": \"{}\", \"calls_per_step\": {}, \"frame_efficiency\": {:.5}, \
             \"wall_ms\": {:.3}}}",
            s.label, s.calls_per_step, s.frame_efficiency, s.wall_ms
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"socket_exchange\",\n  \"workers\": {WORKERS},\n  \
         \"host_cpus\": {host_cpus},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join("bench_socket_exchange.json");
    std::fs::write(&path, json).expect("write bench json");
    println!("[written] {} (host_cpus = {host_cpus})", path.display());
}
