//! Measures what each aggregation plan costs at the gather-side merge
//! point, and records the result to `results/bench_agg_strategies.json`.
//!
//! For each codec with the `HomomorphicAggregate` capability the workload
//! compresses one large gradient per worker once, then times the merge
//! alone — the aggregator's steady-state loop — under the reference
//! `decode_then_merge` plan and under `homomorphic_sum` (the row's
//! `best_plan`). Two observables per codec:
//!
//! * `incast_reduction` — reference incast bytes over homomorphic incast
//!   bytes. Deterministic: decoded merges absorb `workers × dense f32`,
//!   the homomorphic fold absorbs only compressed wire bytes, so for the
//!   shared-scale quantizers this is roughly the compression ratio.
//! * `agg_cpu_speedup` — reference merge wall-clock over homomorphic merge
//!   wall-clock (host-dependent; the committed baseline gates it loosely
//!   via `incast_reduction`, which cannot drift with machine load).
//!
//! The merged bits are asserted identical across plans every iteration, so
//! this binary doubles as a smoke test of the plan-equivalence contract.
//!
//! Run: `cargo run --release -p grace-bench --bin agg_strategies`

use grace_bench::gradient_of_bytes;
use grace_compressors::registry;
use grace_core::exchange::decode_gathered;
use grace_core::{AggMerger, AggregationPlan, EncodedTensor};
use std::time::Instant;

const WORKERS: usize = 4;
const TENSOR_BYTES: usize = 512 << 10;
const WARMUP: usize = 3;
const ITERS: usize = 20;

const BEST_PLAN: AggregationPlan = AggregationPlan::HomomorphicSum;

struct Sample {
    reference_ms: f64,
    best_ms: f64,
    incast_reduction: f64,
    agg_cpu_speedup: f64,
}

fn measure(id: &str) -> Sample {
    let spec = registry::find(id)
        .or_else(|| {
            grace_compressors::extensions::extension_specs()
                .into_iter()
                .find(|s| s.id == id)
        })
        .expect("compressor registered");
    let parts: Vec<EncodedTensor> = (0..WORKERS)
        .map(|w| {
            let mut c = (spec.build)(100 + w as u64);
            let g = gradient_of_bytes(TENSOR_BYTES, 29 + w as u64);
            let (payloads, ctx) = c.compress(&g, "g");
            EncodedTensor { payloads, ctx }
        })
        .collect();

    let mut c = (spec.build)(100);
    assert!(
        c.homomorphic().is_some(),
        "{id}: no HomomorphicAggregate capability"
    );
    let expect = decode_gathered(c.as_mut(), &parts);

    let mut time_plan = |plan: AggregationPlan| {
        let mut merger = AggMerger::new(plan);
        for _ in 0..WARMUP {
            std::hint::black_box(merger.merge_gathered(c.as_mut(), &parts));
        }
        let mut incast = 0u64;
        let start = Instant::now();
        for _ in 0..ITERS {
            let (out, stats) = merger.merge_gathered(c.as_mut(), &parts);
            incast = stats.incast_bytes;
            assert_eq!(
                out.as_slice(),
                expect.as_slice(),
                "{id}: {plan} diverged from the reference merge"
            );
            std::hint::black_box(out);
        }
        let ms = start.elapsed().as_secs_f64() * 1e3 / ITERS as f64;
        (ms, incast)
    };

    let (reference_ms, reference_incast) = time_plan(AggregationPlan::DecodeThenMerge);
    let (best_ms, best_incast) = time_plan(BEST_PLAN);

    Sample {
        reference_ms,
        best_ms,
        incast_reduction: reference_incast as f64 / best_incast.max(1) as f64,
        agg_cpu_speedup: reference_ms / best_ms.max(1e-9),
    }
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    for id in ["eightbit", "lpcsvrg", "sketchml"] {
        let s = measure(id);
        println!(
            "{id:>10}  reference {:8.3} ms  {} {:8.3} ms  incast_reduction {:6.2}x  \
             cpu_speedup {:5.2}x",
            s.reference_ms, BEST_PLAN, s.best_ms, s.incast_reduction, s.agg_cpu_speedup
        );
        assert!(
            s.incast_reduction >= 1.0,
            "{id}: the homomorphic fold must never inflate incast"
        );
        rows.push(format!(
            "    {{\"codec\": \"{id}\", \"best_plan\": \"{}\", \"reference_ms\": {:.4}, \
             \"best_ms\": {:.4}, \"incast_reduction\": {:.4}, \"agg_cpu_speedup\": {:.4}}}",
            BEST_PLAN, s.reference_ms, s.best_ms, s.incast_reduction, s.agg_cpu_speedup
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"agg_strategies\",\n  \"workers\": {WORKERS},\n  \
         \"tensor_bytes\": {TENSOR_BYTES},\n  \"host_cpus\": {host_cpus},\n  \
         \"iters\": {ITERS},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join("bench_agg_strategies.json");
    std::fs::write(&path, json).expect("write bench json");
    println!("[written] {} (host_cpus = {host_cpus})", path.display());
}
