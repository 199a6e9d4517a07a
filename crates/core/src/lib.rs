//! GRACE — the unified compressed-communication framework (paper §IV).
//!
//! This crate is the Rust instantiation of the paper's primary contribution:
//! a single programming API under which every gradient-compression method can
//! be implemented, plus the distributed training loop (Algorithm 1) that
//! drives compression, communication, memory (error feedback) and the
//! optimizer update.
//!
//! The moving pieces, mirroring the paper's API table:
//!
//! | Paper API | Here |
//! |---|---|
//! | `compress` / `decompress` | [`Compressor::compress`] / [`Compressor::decompress`] |
//! | `memory_compensate` φ | [`Memory::compensate`] |
//! | `memory_update` ψ | [`Memory::update`] |
//! | `aggregate` Agg | [`Compressor::fold_gathered`] |
//! | communication strategy | [`CommStrategy`] (`Allreduce` / `Allgather` / `Broadcast`) |
//! | `quantize`/`sparsify`/`pack` helpers | re-exported from `grace-tensor` |
//!
//! The training loop comes in two execution modes that produce **identical**
//! results: [`trainer::run_simulated`] (single-threaded, deterministic, with
//! an analytic simulated clock) and [`threaded::run_threaded`] (one OS thread
//! per worker over real collectives from `grace-comm`).
//!
//! # Example
//!
//! ```
//! use grace_core::{CommStrategy, Compressor, NoCompression};
//! use grace_tensor::Tensor;
//!
//! let mut c = NoCompression::new();
//! let g = Tensor::from_vec(vec![1.0, -2.0, 3.0]);
//! let (payloads, ctx) = c.compress(&g, "layer0/w");
//! let restored = c.decompress(&payloads, &ctx);
//! assert_eq!(restored.as_slice(), g.as_slice());
//! assert_eq!(c.strategy(), CommStrategy::Allreduce);
//! ```

pub mod aggregation;
pub mod bucket;
pub mod compressor;
pub mod exchange;
pub mod health;
pub mod memory;
pub mod payload;
pub mod process;
pub mod registry;
pub mod replicated;
pub mod threaded;
pub mod trainer;

pub use aggregation::{
    effective_plan, AggMerger, AggregationPlan, FoldScratch, HomomorphicAggregate, MergeStats,
};
pub use bucket::{BucketPlan, PlanBuilder, DEFAULT_FUSION_BYTES};
pub use compressor::{CommStrategy, Compressor, Context, Fleet, NoCompression};
pub use exchange::{
    BucketReport, BucketedExchange, EncodedTensor, ExchangeReport, GradientExchange, StageTotals,
    WorkerLane,
};
pub use health::{AnomalyEvent, AnomalyKind, HealthConfig, HealthMonitor, StepObservation};
pub use memory::{Memory, NoMemory, ResidualMemory};
pub use payload::{Payload, PayloadError, PayloadList, PayloadReader, PayloadView};
pub use process::{param_checksum, run_cluster, RankResult};
pub use registry::{CompressorClass, CompressorSpec, Nature, OutputSize};
pub use trainer::{ComputeModel, EvalPoint, ExecBackend, RunResult, Topology, TrainConfig};
