//! Regenerates the paper's **Figure 8**: the combined `compress` plus
//! `decompress` latency for every method, measured in isolation over a range
//! of input sizes (the paper uses 1 MB / 10 MB / 100 MB tensors, 30
//! repetitions each, shown as violins; we report min / median / max).
//!
//! Expected shape (paper §V-D): overheads are non-negligible and highly
//! method-dependent — Random-k's index generation and 8-bit's bin search are
//! expensive, threshold methods pay for selection scans, SketchML pays for
//! sketch construction.
//!
//! Run: `cargo run --release -p grace-experiments --bin grace-exp -- fig8 [--large]`
//! (`--large` includes the 100 MB input size).

use crate::report;
use grace_compressors::registry;
use grace_tensor::rng::seeded;
use grace_tensor::stats::percentile;
use grace_tensor::{Shape, Tensor};
use rand::Rng;
use std::time::Instant;

const REPS: usize = 30;

fn gradient_of_bytes(bytes: usize, seed: u64) -> Tensor {
    let elems = bytes / 4;
    let mut rng = seeded(seed);
    let data: Vec<f32> = (0..elems)
        .map(|_| {
            let u: f32 = rng.gen_range(-1.0f32..1.0);
            u * u * u * 0.01
        })
        .collect();
    // A wide matrix so PowerSGD factorizes rather than passing through.
    let cols = 1024.min(elems.max(1));
    let rows = (elems / cols).max(1);
    Tensor::new(data[..rows * cols].to_vec(), Shape::matrix(rows, cols))
}

/// Prints Fig. 8 and writes `fig8.csv`; `large` adds the 100 MB input size.
pub fn run(large: bool) {
    let mut sizes: Vec<(usize, &str)> = vec![(1 << 20, "1MB"), (10 << 20, "10MB")];
    if large {
        sizes.push((100 << 20, "100MB"));
    }
    let mut rows = Vec::new();
    for spec in registry::all_specs() {
        for &(bytes, label) in &sizes {
            eprintln!("[fig8] {} @ {label} …", spec.display);
            let g = gradient_of_bytes(bytes, 11);
            let mut c = (spec.build)(3);
            let mut samples = Vec::with_capacity(REPS);
            for _ in 0..REPS {
                let t0 = Instant::now();
                let (payloads, ctx) = c.compress(&g, "bench/w");
                let out = c.decompress(&payloads, &ctx);
                samples.push(t0.elapsed().as_secs_f64());
                std::hint::black_box(out);
            }
            rows.push(vec![
                spec.display.to_string(),
                label.to_string(),
                report::fmt(percentile(&samples, 0.0) * 1e3, 3),
                report::fmt(percentile(&samples, 50.0) * 1e3, 3),
                report::fmt(percentile(&samples, 100.0) * 1e3, 3),
            ]);
        }
    }
    report::publish(
        "Fig. 8 — compress+decompress latency (ms), 30 reps per cell",
        "fig8.csv",
        &[
            ("Method", "method"),
            ("Input", "input"),
            ("min", "min_ms"),
            ("median", "median_ms"),
            ("max", "max_ms"),
        ],
        &rows,
    );
}
