//! Measures how much compression the pipelined (bucketed) exchange hides
//! under backprop, and records the result to
//! `results/bench_pipeline_overlap.json`.
//!
//! The workload streams a multi-bucket gradient sequence through
//! `begin_step`/`submit`/`finish` the way the trainer does — one simulated
//! backprop interval between tensors — and compares it with the same
//! session over a single-bucket plan (`one_shot_ms`: nothing seals before
//! backprop ends). Three observables per codec:
//!
//! * `overlap_ratio` — the fraction of per-lane encode time spent on every
//!   bucket except the stream's last, i.e. work that runs while backprop is
//!   still producing later buckets (paper §V-D: overlap, not ratio, turns
//!   compression into wall-clock wins). Must be > 0 on a multi-bucket
//!   stream; the binary exits non-zero otherwise so CI can gate on it.
//! * `exposed_ms` vs `hidden_ms` — the split of the slowest lane's codec
//!   time into the part serialized after backprop and the part hidden
//!   under it.
//! * per-stage p50/p95/p99 (compress / decompress / aggregate) over the
//!   timed rounds.
//!
//! Run: `cargo run --release -p grace-bench --bin pipeline_overlap`

use grace_bench::gradient_of_bytes;
use grace_compressors::registry;
use grace_core::exchange::StageHistograms;
use grace_core::{GradientExchange, PlanBuilder};
use grace_telemetry::Histogram;
use grace_tensor::Tensor;
use std::time::Instant;

const WORKERS: usize = 4;
const TENSORS: usize = 8;
const TENSOR_BYTES: usize = 128 << 10;
const FUSION_BYTES: usize = 256 << 10; // two tensors per bucket → 4 buckets
const WARMUP: usize = 2;
const ITERS: usize = 10;

fn worker_grads(seed: u64) -> Vec<Vec<(String, Tensor)>> {
    (0..WORKERS)
        .map(|w| {
            (0..TENSORS)
                .map(|t| {
                    let g = gradient_of_bytes(TENSOR_BYTES, seed + (w * TENSORS + t) as u64);
                    (format!("layer{t}/weight"), g)
                })
                .collect()
        })
        .collect()
}

struct OverlapSample {
    wall_ms: f64,
    overlap_ratio: f64,
    hidden_ms: f64,
    exposed_ms: f64,
    buckets: usize,
    stages: StageHistograms,
}

/// Streams the workload through sessions fused at `fusion_bytes`.
fn measure(id: &str, fusion_bytes: usize) -> OverlapSample {
    let spec = registry::find(id).expect("compressor registered");
    let grads = worker_grads(29);
    let (mut cs, mut ms) = registry::build_fleet(&spec, WORKERS, 3);
    let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
    let mut builder = PlanBuilder::new(fusion_bytes);
    for (name, t) in &grads[0] {
        builder.push(name, t.len());
    }
    let plan = builder.finish();
    let run_round = |engine: &mut GradientExchange<'_>| {
        let mut session = engine.begin_step(&plan);
        for (w, stream) in grads.iter().enumerate() {
            for (name, t) in stream {
                session.submit(w, name, t);
            }
        }
        session.finish()
    };
    for _ in 0..WARMUP {
        std::hint::black_box(run_round(&mut engine));
    }
    engine.reset_stage_stats();
    let mut overlap_sum = 0.0;
    let mut hidden_sum = 0.0;
    let mut exposed_sum = 0.0;
    let mut buckets = 0;
    let start = Instant::now();
    for _ in 0..ITERS {
        let (out, report) = run_round(&mut engine);
        overlap_sum += report.overlap_ratio();
        let hidden = report.max_hidden_encode_seconds();
        hidden_sum += hidden;
        exposed_sum += report.max_compress_seconds() - hidden;
        buckets = report.buckets.len();
        std::hint::black_box(out);
    }
    OverlapSample {
        wall_ms: start.elapsed().as_secs_f64() * 1e3 / ITERS as f64,
        overlap_ratio: overlap_sum / ITERS as f64,
        hidden_ms: hidden_sum * 1e3 / ITERS as f64,
        exposed_ms: exposed_sum * 1e3 / ITERS as f64,
        buckets,
        stages: engine.stage_stats().clone(),
    }
}

/// `{"p50_us": ..., "p95_us": ..., "p99_us": ...}` for one stage histogram.
fn stage_json(h: &Histogram) -> String {
    let us = |q: f64| h.percentile(q) as f64 / 1e3;
    format!(
        "{{\"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}}}",
        us(0.50),
        us(0.95),
        us(0.99)
    )
}

fn stages_json(s: &StageHistograms) -> String {
    format!(
        "{{\"compress\": {}, \"decompress\": {}, \"aggregate\": {}}}",
        stage_json(&s.compress),
        stage_json(&s.decompress),
        stage_json(&s.aggregate)
    )
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    for id in ["qsgd", "topk", "powersgd"] {
        let one_shot_ms = measure(id, usize::MAX).wall_ms;
        let s = measure(id, FUSION_BYTES);
        println!(
            "{id:>10}  one-shot {:8.3} ms  pipelined {:8.3} ms  overlap {:.2}  \
             hidden {:.3} ms  exposed {:.3} ms  ({} buckets)",
            one_shot_ms, s.wall_ms, s.overlap_ratio, s.hidden_ms, s.exposed_ms, s.buckets
        );
        assert!(
            s.overlap_ratio > 0.0,
            "{id}: multi-bucket stream must hide some encode work"
        );
        assert!(s.buckets > 1, "{id}: workload must span several buckets");
        rows.push(format!(
            "    {{\"codec\": \"{id}\", \"one_shot_ms\": {:.3}, \"pipelined_ms\": {:.3}, \
             \"overlap_ratio\": {:.4}, \"hidden_ms\": {:.4}, \"exposed_ms\": {:.4}, \
             \"buckets\": {}, \"stages\": {}}}",
            one_shot_ms,
            s.wall_ms,
            s.overlap_ratio,
            s.hidden_ms,
            s.exposed_ms,
            s.buckets,
            stages_json(&s.stages)
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"pipeline_overlap\",\n  \"workers\": {WORKERS},\n  \
         \"tensors_per_worker\": {TENSORS},\n  \"tensor_bytes\": {TENSOR_BYTES},\n  \
         \"fusion_bytes\": {FUSION_BYTES},\n  \"host_cpus\": {host_cpus},\n  \
         \"iters\": {ITERS},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join("bench_pipeline_overlap.json");
    std::fs::write(&path, json).expect("write bench json");
    println!("[written] {} (host_cpus = {host_cpus})", path.display());
}
