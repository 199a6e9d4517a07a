//! Runs one (benchmark × compressor) cell of the evaluation grid.

use crate::suite::Benchmark;
use grace_comm::NetworkModel;
use grace_compressors::registry;
use grace_core::trainer::{run_simulated, CodecTiming};
use grace_core::{
    Compressor, CompressorSpec, Fleet, Memory, NoMemory, ResidualMemory, RunResult, TrainConfig,
};
use grace_nn::data::Task;
use grace_nn::network::Network;
use grace_nn::optim::Optimizer;

/// Experiment-wide knobs shared by the experiments.
#[derive(Debug, Clone, Copy)]
pub struct RunnerConfig {
    /// Number of data-parallel workers (paper: 8).
    pub n_workers: usize,
    /// Network model (paper default: 10 Gbps TCP).
    pub network: NetworkModel,
    /// Master seed.
    pub seed: u64,
    /// Epoch multiplier in percent (100 = benchmark default); `grace-exp
    /// --scale` sets it for quicker or more thorough runs.
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
            epoch_scale_pct: 100,
            agg_plan: grace_core::AggregationPlan::default(),
        }
    }
}

/// Fusion buckets a cell's model-scaled threshold aims for per step.
const TARGET_FUSION_BUCKETS: usize = 8;

/// Looks `id` up through the one registry look-up (`"baseline"`, the 16 core
/// methods, the extensions); panics on an id the registry does not know.
pub fn resolve(id: &str) -> CompressorSpec {
    registry::resolve(id).unwrap_or_else(|| panic!("unknown compressor id '{id}'"))
}

/// One paper-scale cell, built and ready to [`run`](Cell::run) — the single
/// place the evaluation's common ground is written down. An experiment that
/// varies something else (topology, schedule, fleet) sets that field on the
/// built cell and nothing more.
pub struct Cell {
    /// The run's configuration.
    pub cfg: TrainConfig,
    /// The model replica.
    pub net: Network,
    /// The synthetic dataset.
    pub task: Box<dyn Task>,
    /// The optimizer the benchmark's policy assigns to the compressor.
    pub opt: Box<dyn Optimizer>,
    /// One compressor + error-feedback memory per worker.
    pub fleet: Fleet,
}

impl Cell {
    /// Builds the cell for one benchmark and one compressor spec.
    ///
    /// The simulated clock runs at *paper scale*: compute is the paper's
    /// per-example time, byte counts are scaled by the paper/analog parameter
    /// ratio, and codec cost follows the spec's calibrated op model (zero
    /// for the baseline). This makes simulated times directly comparable to
    /// the paper's figures. Telemetry and the live metrics endpoint stay
    /// inherited from the process-wide environment, so one variable covers a
    /// whole sweep.
    pub fn new(bench: &Benchmark, spec: &CompressorSpec, rc: &RunnerConfig) -> Cell {
        let mut net = (bench.build_net)(rc.seed);
        let epochs = ((bench.epochs as u64 * rc.epoch_scale_pct as u64) / 100).max(1) as usize;
        let mut cfg = TrainConfig::new(rc.n_workers, bench.batch, epochs, rc.seed);
        cfg.network = rc.network;
        cfg.compute = grace_core::ComputeModel::new(bench.paper_sec_per_example);
        cfg.codec = CodecTiming::Modeled {
            per_op_seconds: 1.0e-4,
            ops_per_tensor: spec.ops_per_tensor,
            ns_per_element: spec.ns_per_element,
            tensor_count: bench.paper_gradient_vectors as usize,
        };
        cfg.byte_scale = bench.paper_params as f64 / net.param_count() as f64;
        // The fusion threshold scales with the model so the stream splits
        // into roughly `TARGET_FUSION_BUCKETS` buckets. The analog models are
        // orders of magnitude smaller than the paper's — under the global
        // 2 MiB default every one of them fused into a single bucket, so
        // nothing could be sealed early and the fig7 CSVs all reported
        // `overlap_ratio = 0`. Capped at the default so paper-sized models
        // keep the stock threshold.
        cfg.fusion_bytes = (net.param_count() * 4 / TARGET_FUSION_BUCKETS)
            .clamp(1, grace_core::DEFAULT_FUSION_BYTES);
        cfg.backend = grace_core::ExecBackend::Threads;
        cfg.agg_plan = rc.agg_plan;
        Cell {
            cfg,
            net,
            task: (bench.build_task)(rc.seed),
            opt: bench.opt.build(spec.id),
            fleet: registry::build_fleet(spec, rc.n_workers, rc.seed),
        }
    }

    /// Trains the cell on the simulator and returns the trainer's summary.
    pub fn run(mut self) -> RunResult {
        let (compressors, memories) = &mut self.fleet;
        run_simulated(
            &self.cfg,
            &mut self.net,
            self.task.as_ref(),
            self.opt.as_mut(),
            compressors,
            memories,
        )
    }
}

/// A hand-built fleet for cells that vary the compressor's parameters:
/// worker `w` compresses with `build(w)`, with error feedback iff `ef`.
pub(crate) fn custom_fleet(
    n_workers: usize,
    ef: bool,
    build: impl Fn(usize) -> Box<dyn Compressor>,
) -> Fleet {
    let memory = |_| -> Box<dyn Memory> {
        if ef {
            Box::new(ResidualMemory::new())
        } else {
            Box::new(NoMemory::new())
        }
    };
    (
        (0..n_workers).map(build).collect(),
        (0..n_workers).map(memory).collect(),
    )
}

/// Runs one benchmark with one compressor id (`"baseline"` = no
/// compression) and returns the trainer's summary.
pub fn run_cell(bench: &Benchmark, compressor_id: &str, rc: &RunnerConfig) -> RunResult {
    Cell::new(bench, &resolve(compressor_id), rc).run()
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
pub fn run_cell_measured_tcp(bench: &Benchmark, compressor_id: &str, rc: &RunnerConfig) -> f64 {
    use grace_core::trainer::steps_per_epoch;
    let task = (bench.build_task)(rc.seed);
    let mut cfg = TrainConfig::new(rc.n_workers, bench.batch, 1, rc.seed);
    cfg.codec = CodecTiming::Free;
    cfg.backend = grace_core::ExecBackend::SocketTcp;
    let spec = resolve(compressor_id);
    let start = std::time::Instant::now();
    let result = grace_core::process::run_cluster(&cfg, task.as_ref(), |rank| {
        let (mut cs, mut ms) = registry::build_fleet(&spec, rc.n_workers, rc.seed);
        (
            (bench.build_net)(rc.seed),
            bench.opt.build(spec.id),
            cs.swap_remove(rank),
            ms.swap_remove(rank),
        )
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

/// Runs `specs` in order on one benchmark, returning `(display_name,
/// result)` rows.
pub fn run_specs(
    bench: &Benchmark,
    specs: impl IntoIterator<Item = CompressorSpec>,
    rc: &RunnerConfig,
) -> Vec<(String, RunResult)> {
    let run = |spec: CompressorSpec| {
        eprintln!("[{}] {} …", bench.id, spec.display);
        (spec.display.to_string(), Cell::new(bench, &spec, rc).run())
    };
    specs.into_iter().map(run).collect()
}

/// Runs the baseline plus every registered compressor on one benchmark; the
/// baseline row — what [`relative`] normalizes to — comes first.
pub fn run_all_compressors(bench: &Benchmark, rc: &RunnerConfig) -> Vec<(String, RunResult)> {
    let baseline = std::iter::once(resolve("baseline"));
    run_specs(bench, baseline.chain(registry::all_specs()), rc)
}

/// One row normalized to the baseline row — a point of Figs. 6, 7 and 10.
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
}

/// Normalizes `rows` to their first row, the baseline.
pub fn relative(rows: &[(String, RunResult)]) -> Vec<RelativeRow> {
    let base = &rows.first().expect("need at least the baseline row").1;
    rows.iter()
        .map(|(name, r)| RelativeRow {
            name: name.clone(),
            quality: r.best_quality,
            relative_throughput: r.throughput / base.throughput,
            relative_volume: r.bytes_per_worker_per_iter / base.bytes_per_worker_per_iter,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    fn quick_rc() -> RunnerConfig {
        RunnerConfig {
            n_workers: 2,
            seed: 7,
            epoch_scale_pct: 20,
            ..RunnerConfig::default()
        }
    }

    #[test]
    fn baseline_cell_runs_and_converges_reasonably() {
        let bench = suite::find("resnet20").unwrap();
        let res = run_cell(&bench, "baseline", &quick_rc());
        assert!(res.best_quality > 0.4, "accuracy {}", res.best_quality);
        assert!(res.sim_seconds > 0.0);
        assert_eq!(res.compressor, "Baseline");
    }

    #[test]
    fn topk_cell_reduces_volume() {
        let bench = suite::find("resnet20").unwrap();
        let rc = quick_rc();
        let base = run_cell(&bench, "baseline", &rc);
        let topk = run_cell(&bench, "topk", &rc);
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
        let reference = run_cell(&bench, "eightbit", &rc);
        rc.agg_plan = grace_core::AggregationPlan::HomomorphicSum;
        let hom = run_cell(&bench, "eightbit", &rc);

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
        assert!(reference.stages.decompress_seconds > 0.0);
        assert_eq!(
            hom.stages.decompress_seconds, 0.0,
            "the codebook-space fold must skip decode entirely"
        );
        assert!(hom.stages.aggregate_seconds > 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown compressor id")]
    fn unknown_compressor_panics() {
        let bench = suite::find("resnet20").unwrap();
        let _ = run_cell(&bench, "bogus", &quick_rc());
    }

    #[test]
    fn relative_rows_normalize_to_baseline() {
        let bench = suite::find("lstm").unwrap();
        let rows = run_specs(&bench, [resolve("baseline"), resolve("topk")], &quick_rc());
        let rel = relative(&rows);
        assert!((rel[0].relative_throughput - 1.0).abs() < 1e-9);
        assert!((rel[0].relative_volume - 1.0).abs() < 1e-9);
        assert!(rel[1].relative_volume < 1.0);
    }

    /// Bit patterns of `(best_quality, sim_seconds, bytes_per_worker_per_iter)`
    /// recorded at the commit before the four hand-copied cells became one:
    /// `run_cell` itself, and what the `topology`, `ablations` and
    /// `extensions` binaries each did with their own `TrainConfig` literal.
    #[test]
    fn unified_cell_reproduces_the_four_pre_merge_code_paths() {
        use crate::figures::{ablations, topology};
        use grace_core::trainer::Topology;
        let rc = quick_rc();
        let bits = |r: RunResult| {
            [r.best_quality, r.sim_seconds, r.bytes_per_worker_per_iter].map(f64::to_bits)
        };
        let resnet20 = suite::find("resnet20").unwrap();
        assert_eq!(
            bits(run_cell(&resnet20, "baseline", &rc)),
            [0x3fed800000000000, 0x3fd9a3146a17c948, 0x41058a8000000000]
        );
        assert_eq!(
            bits(run_cell(&resnet20, "topk", &rc)),
            [0x3fe8400000000000, 0x3ff282846af50238, 0x40ad600000000000]
        );

        // topology: parameter server, half the epoch budget.
        assert_eq!(
            bits(topology::run_under(Topology::ParameterServer, "qsgd", &rc)),
            [0x3fd5e83714a7bee8, 0x4015ba5b0026bc55, 0x4120177600000000]
        );
        // ablations: a hand-built Top-k(0.001) fleet without error feedback,
        // on the full epoch budget so the step-decay milestone fires.
        let full = RunnerConfig {
            epoch_scale_pct: 100,
            ..rc
        };
        let topk_0001 = |_| Box::new(grace_compressors::TopK::new(0.001)) as Box<dyn Compressor>;
        let res = ablations::run_custom(&full, false, topk_0001);
        assert_eq!(res.final_quality.to_bits(), 0x3fec000000000000);
        assert_eq!(
            bits(res),
            [0x3fec400000000000, 0x401bbf55aa14d03e, 0x4083400000000000]
        );
        // extensions: a spec from outside the core 16.
        assert_eq!(
            bits(run_cell(&resnet20, "atomo", &rc)),
            [0x3fcd000000000000, 0x4001706088c4a2f6, 0x40cb6f199999999a]
        );
    }
}
