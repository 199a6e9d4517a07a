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
//! The `dense` rows time what the end-to-end benchmark's `dense-uds`
//! workload ships in one step — vgg19's gradient as the 8 all-reduces of
//! the benchmark's fusion plan — at 2 ranks over UDS (bodies through
//! shared-memory regions) and over TCP (bodies inline). `calls_per_step`
//! and `frame_efficiency` (logical bytes, so the same on both carriers) are
//! exact; `wall_ms` is the fastest of five alternating runs, and the
//! `dense/uds_over_tcp@2` row's `uds_over_tcp` — TCP's step wall over
//! UDS's — is gated: its baseline of 2.0 at CI's 0.25 tolerance is a floor
//! of 1.5.
//!
//! Run: `cargo run --release -p grace-bench --bin socket_exchange`

use grace_comm::net::{run_socket_local, Endpoint, SocketCluster};
use grace_comm::{ClusterIntrospect, ClusterOptions, Collective, GatherFrames};
use grace_compressors::registry;
use grace_core::payload::{encode_bucket_into, encode_frame};
use grace_core::trainer::fusion_plan;
use grace_core::{TrainConfig, DEFAULT_FUSION_BYTES};
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

/// Element counts of one `dense-uds` step's all-reduces: vgg19's gradient
/// in the buckets of the benchmark's fusion plan (`params·4/8` bytes).
fn vgg19_buckets() -> Vec<usize> {
    let mut net = models::vgg19_analog(96, 10, 1);
    let mut cfg = TrainConfig::new(2, 16, 1, 1);
    cfg.fusion_bytes = (net.param_count() * 4 / 8).clamp(1, DEFAULT_FUSION_BYTES);
    let plan = fusion_plan(&cfg, &mut net);
    let sizes = net.streaming_grad_sizes();
    (0..plan.n_buckets())
        .map(|b| sizes[plan.bucket_range(b)].iter().map(|(_, n)| n).sum())
        .collect()
}

/// Runs `steps` steps (after a warm-up) at `world` ranks on `endpoint`
/// (`None`: TCP): `step` issues one step's collectives over the rank's
/// `init` state, which it reuses as the training loop does;
/// `payload_bytes` is what one step's payload weighs — the numerator of
/// `frame_efficiency`.
fn measure<S>(
    label: String,
    world: usize,
    endpoint: Option<Endpoint>,
    payload_bytes: usize,
    steps: usize,
    init: impl Fn() -> S + Sync,
    step: impl Fn(&SocketCluster, &mut S) + Sync,
) -> Sample {
    let results = run_socket_local(world, ClusterOptions::default(), endpoint, |c| {
        let mut state = init();
        (0..WARMUP).for_each(|_| step(&c, &mut state));
        let (start, ops) = (Instant::now(), c.ops_started());
        (0..steps).for_each(|_| step(&c, &mut state));
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

/// One step's allgathers, `calls`, at `world` ranks over TCP.
fn measure_gathers(
    label: String,
    world: usize,
    calls: &[Vec<u8>],
    payload_bytes: usize,
    steps: usize,
) -> Sample {
    let step = |c: &SocketCluster, frames: &mut GatherFrames| {
        for call in calls {
            c.try_allgather_frames(call.clone(), frames)
                .expect("fault-free gather");
            assert_eq!(frames.n_slots(), world);
        }
    };
    measure(
        label,
        world,
        None,
        payload_bytes,
        steps,
        GatherFrames::new,
        step,
    )
}

/// One dense step — an all-reduce per bucket — at 2 ranks on `endpoint`.
fn measure_dense(label: &str, endpoint: Option<Endpoint>, buckets: &[usize]) -> Sample {
    let init = || buckets.iter().map(|&n| vec![0.5; n]).collect::<Vec<_>>();
    let step = |c: &SocketCluster, bufs: &mut Vec<Vec<f32>>| {
        for buf in bufs.iter_mut() {
            let sum = c.try_allreduce_f32(std::mem::take(buf));
            *buf = sum.expect("fault-free sum").sum;
        }
    };
    let payload = buckets.iter().sum::<usize>() * 4;
    measure(label.to_string(), 2, endpoint, payload, 24, init, step)
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
        let s = measure_gathers(label.to_string(), WORKERS, &payload, bytes, rounds);
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
            samples.push(measure_gathers(label, world, calls, frame_bytes, 24));
        }
    }
    let buckets = vgg19_buckets();
    let (mut uds, mut tcp) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let ep = Some(Endpoint::ephemeral_uds());
        uds.push(measure_dense("dense/uds@2", ep, &buckets));
        tcp.push(measure_dense("dense/tcp@2", None, &buckets));
    }
    let fastest = |runs: Vec<Sample>| {
        runs.into_iter()
            .min_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
            .expect("five runs")
    };
    let (uds, tcp) = (fastest(uds), fastest(tcp));
    let uds_over_tcp = tcp.wall_ms / uds.wall_ms;
    samples.push(uds);
    samples.push(tcp);
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
    println!(
        "{:>20}  {} buckets, TCP step ÷ UDS step {uds_over_tcp:.3}",
        "dense/uds_over_tcp@2",
        buckets.len()
    );
    rows.push(format!(
        "    {{\"codec\": \"dense/uds_over_tcp@2\", \"uds_over_tcp\": {uds_over_tcp:.3}}}"
    ));
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
