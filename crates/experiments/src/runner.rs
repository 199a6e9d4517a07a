//! Runs one (benchmark × compressor) cell of the evaluation grid.

use crate::suite::Benchmark;
use grace_comm::NetworkModel;
use grace_compressors::registry;
use grace_core::trainer::run_simulated;
use grace_core::{Compressor, Memory, NoCompression, NoMemory, RunResult, TrainConfig};

/// One compressor + error-feedback memory per worker.
type Fleet = (Vec<Box<dyn Compressor>>, Vec<Box<dyn Memory>>);

/// Experiment-wide knobs shared by the figure binaries.
#[derive(Debug, Clone, Copy)]
pub struct RunnerConfig {
    /// Number of data-parallel workers (paper: 8).
    pub n_workers: usize,
    /// Network model (paper default: 10 Gbps TCP).
    pub network: NetworkModel,
    /// Master seed.
    pub seed: u64,
    /// Epoch multiplier in percent (100 = benchmark default). The
    /// `GRACE_SCALE` environment variable overrides this for quicker or more
    /// thorough runs.
    pub epoch_scale_pct: u32,
    /// Aggregation plan for the gathered merge. Bit-transparent — it moves
    /// aggregator CPU and incast bytes, never the trained parameters — so
    /// every figure except `fig_agg` (which sweeps it) keeps the reference
    /// plan.
    pub agg_plan: grace_core::AggregationPlan,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            n_workers: 8,
            network: NetworkModel::paper_default(),
            seed: 42,
            epoch_scale_pct: scale_from_env(),
            agg_plan: grace_core::AggregationPlan::default(),
        }
    }
}

/// Reads `GRACE_SCALE` (percent) from the environment, defaulting to 100.
pub fn scale_from_env() -> u32 {
    std::env::var("GRACE_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(100)
}

/// Fusion buckets the model-scaled threshold aims for per step.
const TARGET_FUSION_BUCKETS: usize = 8;

/// Fusion threshold for a model of `param_count` parameters: it scales with
/// the model so the stream splits into roughly [`TARGET_FUSION_BUCKETS`]
/// buckets. The analog models are orders of magnitude smaller than the
/// paper's — under the global 2 MiB default every one of them fused into a
/// single bucket, so nothing could be sealed early and the fig7 CSVs all
/// reported `overlap_ratio = 0`. Capped at [`grace_core::DEFAULT_FUSION_BYTES`]
/// so paper-sized models keep the stock threshold.
pub fn fusion_bytes_for_model(param_count: usize) -> usize {
    (param_count * 4 / TARGET_FUSION_BUCKETS).clamp(1, grace_core::DEFAULT_FUSION_BYTES)
}

/// Runs one benchmark with one compressor (`None` = the no-compression
/// baseline) and returns the trainer's summary.
pub fn run_cell(bench: &Benchmark, compressor_id: Option<&str>, rc: &RunnerConfig) -> RunResult {
    let task = (bench.build_task)(rc.seed);
    let mut net = (bench.build_net)(rc.seed);
    let epochs = ((bench.epochs as u64 * rc.epoch_scale_pct as u64) / 100).max(1) as usize;
    // The simulated clock runs at *paper scale*: compute is the paper's
    // per-example time, byte counts are scaled by paper/analog parameter
    // ratio, and codec cost follows each method's calibrated op model. This
    // makes simulated times directly comparable to the paper's figures.
    let byte_scale = bench.paper_params as f64 / net.param_count() as f64;
    let codec = match compressor_id {
        None => grace_core::trainer::CodecTiming::Free,
        Some(id) => {
            let spec = registry::find(id).unwrap_or_else(|| panic!("unknown compressor id '{id}'"));
            grace_core::trainer::CodecTiming::Modeled {
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
        epochs,
        seed: rc.seed,
        network: rc.network,
        compute: grace_core::ComputeModel::new(bench.paper_sec_per_example),
        codec,
        topology: grace_core::trainer::Topology::Peer,
        byte_scale,
        evals_per_epoch: 1,
        lr_schedule: None,
        fault: None,
        exchange_threads: None,
        fusion_bytes: fusion_bytes_for_model(net.param_count()),
        // Cells inherit the process-wide GRACE_TELEMETRY choice so one env
        // var covers a whole sweep, and likewise GRACE_METRICS_ADDR for the
        // live endpoint.
        telemetry: None,
        metrics_addr: None,
        health: None,
        backend: grace_core::ExecBackend::Threads,
        agg_plan: rc.agg_plan,
    };
    let (mut compressors, mut memories): Fleet = match compressor_id {
        None => (
            (0..rc.n_workers)
                .map(|_| Box::new(NoCompression::new()) as Box<dyn Compressor>)
                .collect(),
            (0..rc.n_workers)
                .map(|_| Box::new(NoMemory::new()) as Box<dyn Memory>)
                .collect(),
        ),
        Some(id) => {
            let spec = registry::find(id).unwrap_or_else(|| panic!("unknown compressor id '{id}'"));
            registry::build_fleet(&spec, rc.n_workers, rc.seed)
        }
    };
    let mut opt = bench.opt.build(compressor_id.unwrap_or("baseline"));
    run_simulated(
        &cfg,
        &mut net,
        task.as_ref(),
        opt.as_mut(),
        &mut compressors,
        &mut memories,
    )
}

/// Trains one benchmark cell for real over localhost TCP sockets and
/// returns measured throughput in images/s — the empirical companion to the
/// α–β *modelled* TCP column of fig9. The analog models are small, so this
/// measures framing + kernel socket cost on the real exchange path, not
/// paper-scale bandwidth; the interesting signal is the per-method ordering.
///
/// One epoch is enough for a stable rate and keeps the full fig9 sweep
/// cheap; the trained bits are asserted bit-identical to the threaded
/// backend elsewhere (`tests/transport_equivalence.rs`), so this function
/// only times.
pub fn run_cell_measured_tcp(
    bench: &Benchmark,
    compressor_id: Option<&str>,
    rc: &RunnerConfig,
) -> f64 {
    use grace_core::trainer::steps_per_epoch;
    let task = (bench.build_task)(rc.seed);
    let mut cfg = TrainConfig::new(rc.n_workers, bench.batch, 1, rc.seed);
    cfg.codec = grace_core::trainer::CodecTiming::Free;
    cfg.backend = grace_core::ExecBackend::SocketTcp;
    let spec = compressor_id
        .map(|id| registry::find(id).unwrap_or_else(|| panic!("unknown compressor id '{id}'")));
    let start = std::time::Instant::now();
    let result = grace_core::process::run_cluster(&cfg, task.as_ref(), |rank| {
        let net = (bench.build_net)(rc.seed);
        let opt = bench.opt.build(compressor_id.unwrap_or("baseline"));
        let (compressor, memory) = match &spec {
            None => (
                Box::new(NoCompression::new()) as Box<dyn Compressor>,
                Box::new(NoMemory::new()) as Box<dyn Memory>,
            ),
            Some(spec) => {
                let (mut cs, mut ms) = registry::build_fleet(spec, rc.n_workers, rc.seed);
                (cs.swap_remove(rank), ms.swap_remove(rank))
            }
        };
        (net, opt, compressor, memory)
    });
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        result.survivors, rc.n_workers,
        "measured run must be fault-free"
    );
    let steps = steps_per_epoch(task.train_len(), rc.n_workers, bench.batch);
    let images = (cfg.epochs * steps * bench.batch * rc.n_workers) as f64;
    images / elapsed.max(1e-9)
}

/// Runs the baseline plus every registered compressor on one benchmark,
/// returning `(display_name, result)` rows; the baseline row comes first.
pub fn run_all_compressors(bench: &Benchmark, rc: &RunnerConfig) -> Vec<(String, RunResult)> {
    let mut rows = Vec::new();
    let base = run_cell(bench, None, rc);
    rows.push(("Baseline".to_string(), base));
    for spec in registry::all_specs() {
        let res = run_cell(bench, Some(spec.id), rc);
        rows.push((spec.display.to_string(), res));
    }
    rows
}

/// Relative throughput / volume helpers against the baseline row.
pub fn relative(rows: &[(String, RunResult)]) -> Vec<RelativeRow> {
    assert!(!rows.is_empty(), "need at least the baseline row");
    let base = &rows[0].1;
    rows.iter()
        .map(|(name, r)| RelativeRow {
            name: name.clone(),
            quality: r.best_quality,
            relative_throughput: r.throughput / base.throughput,
            relative_volume: r.bytes_per_worker_per_iter / base.bytes_per_worker_per_iter,
            sim_seconds: r.sim_seconds,
            compress_seconds: r.stages.compress_seconds,
            decompress_seconds: r.stages.decompress_seconds,
            aggregate_seconds: r.stages.aggregate_seconds,
            compress_tail: StageTail::of(&r.stage_hists.compress),
            decompress_tail: StageTail::of(&r.stage_hists.decompress),
            aggregate_tail: StageTail::of(&r.stage_hists.aggregate),
            overlap_ratio: r.overlap_ratio,
        })
        .collect()
}

/// Latency tail (p50/p95/p99) of one exchange stage's per-step wall-clock,
/// in microseconds — summed means hide straggler skew; these don't.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTail {
    /// Median per-step latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile per-step latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile per-step latency, microseconds.
    pub p99_us: f64,
}

impl StageTail {
    fn of(h: &grace_telemetry::Histogram) -> Self {
        let us = |q: f64| h.percentile(q) as f64 / 1e3;
        StageTail {
            p50_us: us(0.50),
            p95_us: us(0.95),
            p99_us: us(0.99),
        }
    }
}

/// One normalized row of a Fig. 6 / Fig. 7-style plot.
#[derive(Debug, Clone)]
pub struct RelativeRow {
    /// Compressor display name.
    pub name: String,
    /// Best quality witnessed (paper's reporting rule).
    pub quality: f64,
    /// Throughput normalized to the baseline.
    pub relative_throughput: f64,
    /// Mean per-iteration data volume normalized to the baseline.
    pub relative_volume: f64,
    /// Total simulated seconds.
    pub sim_seconds: f64,
    /// Measured encode wall-clock summed over the run (exchange engine,
    /// slowest lane per step).
    pub compress_seconds: f64,
    /// Measured decode wall-clock summed over the run.
    pub decompress_seconds: f64,
    /// Measured `Agg` wall-clock summed over the run (allgather methods).
    pub aggregate_seconds: f64,
    /// Per-step compress latency tail over the run.
    pub compress_tail: StageTail,
    /// Per-step decompress latency tail over the run.
    pub decompress_tail: StageTail,
    /// Per-step aggregate latency tail over the run.
    pub aggregate_tail: StageTail,
    /// Fraction of per-lane encode time hidden under backprop by the
    /// pipelined exchange (0 when the stream fuses into a single bucket).
    pub overlap_ratio: f64,
}

impl RelativeRow {
    /// Total measured codec + aggregation wall-clock for this row.
    pub fn codec_seconds(&self) -> f64 {
        self.compress_seconds + self.decompress_seconds + self.aggregate_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    fn quick_rc() -> RunnerConfig {
        RunnerConfig {
            n_workers: 2,
            network: NetworkModel::paper_default(),
            seed: 7,
            epoch_scale_pct: 20,
            agg_plan: grace_core::AggregationPlan::default(),
        }
    }

    #[test]
    fn baseline_cell_runs_and_converges_reasonably() {
        let bench = suite::find("resnet20").unwrap();
        let res = run_cell(&bench, None, &quick_rc());
        assert!(res.best_quality > 0.4, "accuracy {}", res.best_quality);
        assert!(res.sim_seconds > 0.0);
        assert_eq!(res.compressor, "Baseline");
    }

    #[test]
    fn topk_cell_reduces_volume() {
        let bench = suite::find("resnet20").unwrap();
        let rc = quick_rc();
        let base = run_cell(&bench, None, &rc);
        let topk = run_cell(&bench, Some("topk"), &rc);
        assert!(
            topk.bytes_per_worker_per_iter < 0.1 * base.bytes_per_worker_per_iter,
            "topk volume {} vs baseline {}",
            topk.bytes_per_worker_per_iter,
            base.bytes_per_worker_per_iter
        );
    }

    /// The refactor's acceptance bar: on a fig6 cell, the homomorphic fold
    /// must cut both aggregator decompress CPU and incast bytes by at least
    /// EightBit's measured compression ratio relative to the reference
    /// decode-then-merge plan — while training the same parameters.
    #[test]
    fn homomorphic_sum_beats_decode_then_merge_by_the_compression_ratio() {
        let bench = suite::find("resnet20").unwrap();
        let mut rc = quick_rc();
        rc.agg_plan = grace_core::AggregationPlan::DecodeThenMerge;
        let reference = run_cell(&bench, Some("eightbit"), &rc);
        rc.agg_plan = grace_core::AggregationPlan::HomomorphicSum;
        let hom = run_cell(&bench, Some("eightbit"), &rc);

        assert_eq!(
            reference.best_quality, hom.best_quality,
            "plans must train identical models"
        );
        let ratio = reference.uncompressed_bytes_per_iter / reference.bytes_per_worker_per_iter;
        assert!(ratio > 2.0, "eightbit should compress >2x, got {ratio}");
        assert!(
            (hom.stages.incast_bytes as f64) * ratio <= reference.stages.incast_bytes as f64,
            "incast reduction below the compression ratio ({ratio:.2}): {} vs {}",
            hom.stages.incast_bytes,
            reference.stages.incast_bytes
        );
        assert!(reference.stages.decompress_cpu_seconds > 0.0);
        assert_eq!(
            hom.stages.decompress_cpu_seconds, 0.0,
            "the codebook-space fold must skip decode entirely"
        );
        assert!(hom.stages.aggregate_cpu_seconds > 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown compressor id")]
    fn unknown_compressor_panics() {
        let bench = suite::find("resnet20").unwrap();
        let _ = run_cell(&bench, Some("bogus"), &quick_rc());
    }

    #[test]
    fn relative_rows_normalize_to_baseline() {
        let bench = suite::find("lstm").unwrap();
        let rc = quick_rc();
        let rows = vec![
            ("Baseline".to_string(), run_cell(&bench, None, &rc)),
            (
                "Topk(0.01)".to_string(),
                run_cell(&bench, Some("topk"), &rc),
            ),
        ];
        let rel = relative(&rows);
        assert!((rel[0].relative_throughput - 1.0).abs() < 1e-9);
        assert!((rel[0].relative_volume - 1.0).abs() < 1e-9);
        assert!(rel[1].relative_volume < 1.0);
    }
}
