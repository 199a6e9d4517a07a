//! The shared gradient-exchange engine: one implementation of Algorithm 1's
//! compress → memory-update → exchange → aggregate sequence for every
//! execution mode.
//!
//! [`GradientExchange`] owns the per-worker fleet (one [`Compressor`] + one
//! [`Memory`] per worker) and exposes the sequence as one per-step session:
//! [`GradientExchange::begin_step`] → [`BucketedExchange::submit`] per
//! gradient → `finish` (or `finish_over` on a rank of a real cluster)
//! returning the aggregated tensors plus a structured
//! [`ExchangeReport`]: wire bytes per fused bucket, per-stage
//! compress/decompress/aggregate timings and element counts. Aggregation
//! *structure* — not just ratio — determines end-to-end behaviour (THC;
//! "Beyond Throughput and Compression Ratios"), so the fused bucket is a
//! first-class type here ([`BucketReport`]) rather than a loose byte tally.
//! An unfused step is the same session over a single-bucket plan
//! (`PlanBuilder::new(usize::MAX)`).
//!
//! # One replica, *k* of *n* lanes
//!
//! A process holds the lanes of the ranks it computes for. With all `n`
//! lanes and no peers ([`GradientExchange::from_fleet`]) it is the
//! simulator and a session ends with [`BucketedExchange::finish`]; with one
//! lane over a collective (`for_rank`) it is a real rank and the session
//! ends with `finish_over`. Both endings run one bucket walk and one
//! per-bucket arm: each held lane's contribution is built as a rank builds
//! it — the bucket's `F32` payloads fused into one buffer, or a
//! [`payload::encode_bucket_into`] envelope around its tensors' frames —
//! and the contributions meet either in rank order across the held lanes or
//! through exactly **one collective per bucket**, so the per-message
//! latency is paid per fused bucket on the real backends exactly as the
//! simulated clock charges it. The simulator runs the ranks' wire format,
//! and the tail after the meet is the same code.
//!
//! # One gradient buffer per parameter
//!
//! A warm step allocates no gradient-sized buffer and copies no lone
//! gradient. [`BucketedExchange::submit_owned`] lends the encode the
//! parameter's own gradient buffer. On `Allreduce`, the baseline moves it
//! into its payload ([`Compressor::compress_owned`]). A lone bucket lends
//! that buffer to the meet, a multi-tensor bucket fuses into a per-bucket
//! buffer the stager keeps, and the sum comes back in the buffer that was
//! sent. The mean is split back, and each decode moves its payload's buffer
//! into the aggregate ([`Compressor::decompress_owned`]). On `Allgather`,
//! the last lane keeps the buffer once its encode is done with it, and
//! that buffer is the tensor's merge accumulator
//! ([`AggMerger::merge_frames_into`]); a codec whose fold writes in place
//! ([`Compressor::fold_gathered`]) leaves the mean in it. Once the
//! optimizer has read the aggregates, the step driver returns each to its
//! parameter, where the next backward pass writes over it.
//!
//! # Determinism
//!
//! Each lane encodes on the submitting thread in plan order (submissions
//! must arrive in plan order), every randomized method owns a per-worker
//! seeded RNG, and contributions merge in rank order, so the outcome is
//! bit-identical at any fusion threshold and under either aggregation plan —
//! asserted by `tests/exchange_equivalence.rs` and
//! `tests/pipeline_equivalence.rs`.
//!
//! # Telemetry
//!
//! Every stage duration flows through one accounting path:
//! [`grace_telemetry::StageTimer`]. The timer's return value builds the
//! [`ExchangeReport`] (so reports exist at every telemetry level), feeds the
//! engine's per-run [`StageHistograms`] (p50/p95/p99 for benches and
//! experiment rows), and — when `GRACE_TELEMETRY=trace` — retains the same
//! interval as a timeline span: per-lane `compress`/`decode_own` spans on
//! `Track::Lane(rank)` (straggler skew is visible as ragged lane tracks) and
//! whole-stage `encode`/`decompress`/`aggregate` spans on the stage tracks.
//! Because report timings and trace spans come from the same clock reads,
//! they can never disagree.

use crate::aggregation::{AggMerger, AggregationPlan, MergeStats};
use crate::bucket::BucketPlan;
use crate::compressor::{mean_of, CommStrategy, Compressor, Context};
use crate::memory::Memory;
use crate::payload::{self, Payload, PayloadError};
use grace_comm::{
    ClusterError, ClusterIntrospect, Collective, FaultyCollective, GatherFrames, Reduction,
    TrafficCounter, WorkerHandle,
};
use grace_telemetry::{
    enabled, metrics, recorder, trace, Histogram, HistogramHandle, Level, Stage, StageTimer, Track,
};
use grace_tensor::{pool, Shape, Tensor};
use std::ops::Range;

const NS_PER_SEC: f64 = 1e9;

/// One worker's compressed tensor, ready for the wire: payloads plus the
/// decompression context whose scalar metadata travels with them.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedTensor {
    /// Compressed payload list.
    pub payloads: Vec<Payload>,
    /// Decompression context (shape + transmitted scalar metadata).
    pub ctx: Context,
}

impl EncodedTensor {
    /// Transmitted bytes: payload bytes plus context scalars (4 bytes each).
    pub fn wire_bytes(&self) -> usize {
        wire_bytes(&self.payloads, &self.ctx)
    }
}

/// Wire bytes of one worker's compressed tensor: payloads + context scalars.
pub fn wire_bytes(payloads: &[Payload], ctx: &Context) -> usize {
    payload::total_bytes(payloads) + ctx.meta_bytes()
}

/// Accounting for one fused collective buffer.
///
/// Horovod fuses gradient tensors into large buckets before the collective,
/// so per-message latency (α) is paid per bucket, not per tensor; the
/// trainer charges one collective per bucket, and a rank of a real cluster
/// issues exactly one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BucketReport {
    /// Gradient tensors fused into this bucket.
    pub tensors: usize,
    /// Gradient elements across the fused tensors.
    pub elements: usize,
    /// Bytes the collective moves for this bucket: summed over its tensors,
    /// the largest contribution the engine holds (the ring drains at its
    /// largest member; `Allreduce` buffers are the same size on every
    /// worker). A rank, holding one lane, reports its own.
    pub wire_bytes: usize,
}

/// Structured outcome of one exchange step.
#[derive(Debug, Clone, Default)]
pub struct ExchangeReport {
    /// Fused-bucket accounting (one entry per fusion bucket).
    pub buckets: Vec<BucketReport>,
    /// Wall-clock seconds each worker spent in compress + own-decompress
    /// (the memory-update decode), indexed by rank.
    pub compress_seconds: Vec<f64>,
    /// Wall-clock seconds spent decompressing for aggregation.
    pub decompress_seconds: f64,
    /// Wall-clock seconds spent in `Agg` proper.
    pub aggregate_seconds: f64,
    /// Bytes of representation that entered the aggregation merge point:
    /// `n × dense` when contributions decode before merging, the sum of
    /// compressed wire sizes under
    /// [`AggregationPlan::HomomorphicSum`](crate::AggregationPlan) and
    /// `Allreduce` (payloads merge while compressed).
    pub incast_bytes: u64,
    /// Payload bytes each worker generated this step, indexed by rank.
    pub payload_bytes: Vec<u64>,
    /// Per-rank encode seconds spent on fusion buckets sealed *before* the
    /// stream's final bucket — work the pipelined session performed while
    /// backprop was still producing gradients, i.e. hidden under compute.
    pub hidden_encode_seconds: Vec<f64>,
}

impl ExchangeReport {
    /// Total bytes the collective moves (sum over fused buckets).
    pub fn wire_bytes(&self) -> usize {
        self.buckets.iter().map(|b| b.wire_bytes).sum()
    }

    /// Gradient elements exchanged this step.
    pub fn elements(&self) -> usize {
        self.buckets.iter().map(|b| b.elements).sum()
    }

    /// Slowest worker's compress time — what the step costs when workers
    /// run concurrently.
    pub fn max_compress_seconds(&self) -> f64 {
        self.compress_seconds.iter().fold(0.0f64, |a, &b| a.max(b))
    }

    /// Payload bytes generated across all workers this step.
    pub fn total_payload_bytes(&self) -> u64 {
        self.payload_bytes.iter().sum()
    }

    /// Fraction of encode work hidden under backprop: Σ hidden encode
    /// seconds over Σ compress seconds across ranks. Zero for
    /// single-bucket streams (nothing seals early).
    pub fn overlap_ratio(&self) -> f64 {
        let total: f64 = self.compress_seconds.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let hidden: f64 = self.hidden_encode_seconds.iter().sum();
        (hidden / total).clamp(0.0, 1.0)
    }

    /// Slowest rank's hidden encode time.
    pub fn max_hidden_encode_seconds(&self) -> f64 {
        self.hidden_encode_seconds
            .iter()
            .fold(0.0f64, |a, &b| a.max(b))
    }

    /// Total CPU seconds the aggregator spent on this step's merge:
    /// contribution decode plus the `Agg` fold, both serial on the merging
    /// thread — the "aggregator CPU" axis of the plan-comparison figure.
    pub fn aggregator_cpu_seconds(&self) -> f64 {
        self.decompress_seconds + self.aggregate_seconds
    }
}

/// Per-stage wall-clock totals accumulated over a whole run — the breakdown
/// the experiment runner reports next to the simulated clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTotals {
    /// Σ over steps of the slowest lane's compress + own-decompress time.
    pub compress_seconds: f64,
    /// Σ aggregation decompress time.
    pub decompress_seconds: f64,
    /// Σ `Agg` time.
    pub aggregate_seconds: f64,
    /// Σ bytes entering the aggregation merge point.
    pub incast_bytes: u64,
}

impl StageTotals {
    /// Folds one step's report into the totals.
    pub fn add(&mut self, report: &ExchangeReport) {
        self.compress_seconds += report.max_compress_seconds();
        self.decompress_seconds += report.decompress_seconds;
        self.aggregate_seconds += report.aggregate_seconds;
        self.incast_bytes += report.incast_bytes;
    }

    /// Σ aggregator CPU seconds (decode + merge fold).
    pub fn aggregator_cpu_seconds(&self) -> f64 {
        self.decompress_seconds + self.aggregate_seconds
    }
}

/// Per-stage latency distributions over a run, in nanoseconds per step —
/// the tails ([`Histogram::percentile`]) that per-run means hide.
///
/// The engine records into these unconditionally (they are plain per-run
/// state, like [`ExchangeReport`]); the global telemetry registry
/// additionally aggregates when the telemetry level allows.
#[derive(Debug, Clone, Default)]
pub struct StageHistograms {
    /// Slowest lane's compress + own-decode time per step (the concurrent
    /// cost, matching [`StageTotals::compress_seconds`] semantics).
    pub compress: Histogram,
    /// Aggregation decompress time per step.
    pub decompress: Histogram,
    /// `Agg` time per step.
    pub aggregate: Histogram,
}

impl StageHistograms {
    /// Folds another run's distributions into this one.
    pub fn merge(&mut self, other: &StageHistograms) {
        self.compress.merge(&other.compress);
        self.decompress.merge(&other.decompress);
        self.aggregate.merge(&other.aggregate);
    }
}

/// Global-registry metric handles the engine records through (resolved once
/// at construction; recording is gated on the telemetry level internally).
struct EngineMetrics {
    compress: HistogramHandle,
    decompress: HistogramHandle,
    aggregate: HistogramHandle,
    wire_bytes: HistogramHandle,
    ratio_x100: HistogramHandle,
    incast_bytes: HistogramHandle,
    /// Sealed-but-unaggregated fusion buckets across lanes (pipelined
    /// session queue depth).
    in_flight: metrics::Gauge,
    /// Last pipelined step's [`ExchangeReport::overlap_ratio`].
    overlap: metrics::Gauge,
}

impl EngineMetrics {
    fn resolve() -> Self {
        EngineMetrics {
            compress: metrics::histogram("exchange.compress_ns"),
            decompress: metrics::histogram("exchange.decompress_ns"),
            aggregate: metrics::histogram("exchange.aggregate_ns"),
            wire_bytes: metrics::histogram("exchange.wire_bytes_per_step"),
            ratio_x100: metrics::histogram("exchange.compression_ratio_x100"),
            incast_bytes: metrics::histogram("exchange.incast_bytes_per_step"),
            in_flight: metrics::gauge("exchange.buckets_in_flight"),
            overlap: metrics::gauge("exchange.overlap_ratio"),
        }
    }
}

/// Every `QUALITY_SAMPLE_PERIOD`-th encode on a lane measures the
/// compression approximation error from tensors the hot path already has
/// in hand (the compensated gradient and its own-decode), so sampling
/// never adds a decompress.
const QUALITY_SAMPLE_PERIOD: u32 = 16;

/// Fusion buckets get dedicated `quality.bucket{b}.*` series up to this
/// many buckets; higher bucket indices clamp onto the last series.
const QUALITY_BUCKETS: usize = 8;

/// Static name tables so per-bucket quality events carry `&'static str`
/// names (a [`grace_telemetry::trace::TraceEvent`] requirement — the
/// flight recorder retains these instants without allocating).
const QB_ERR: [&str; QUALITY_BUCKETS] = [
    "quality.bucket0.approx_error_ppm",
    "quality.bucket1.approx_error_ppm",
    "quality.bucket2.approx_error_ppm",
    "quality.bucket3.approx_error_ppm",
    "quality.bucket4.approx_error_ppm",
    "quality.bucket5.approx_error_ppm",
    "quality.bucket6.approx_error_ppm",
    "quality.bucket7.approx_error_ppm",
];
const QB_RATIO: [&str; QUALITY_BUCKETS] = [
    "quality.bucket0.ratio_x100",
    "quality.bucket1.ratio_x100",
    "quality.bucket2.ratio_x100",
    "quality.bucket3.ratio_x100",
    "quality.bucket4.ratio_x100",
    "quality.bucket5.ratio_x100",
    "quality.bucket6.ratio_x100",
    "quality.bucket7.ratio_x100",
];

/// Per-layer compression-quality sensors (the `quality.*` series): the
/// signal set the ROADMAP's adaptive control plane consumes, and what the
/// flight recorder retains as `buckets`-track instants so a post-mortem
/// bundle shows the quality trend leading into a trip.
///
/// Pure observation — gauges gate on the telemetry level internally and
/// the instants gate on trace/recorder state, so recording here can never
/// perturb the update math (bit-equivalence holds with sensors on or off).
struct QualitySensors {
    /// Latest sampled per-bucket relative approximation error
    /// ‖φ − Q⁻¹(Q(φ))‖/‖φ‖ in parts-per-million.
    err: [metrics::Gauge; QUALITY_BUCKETS],
    /// Latest effective per-bucket compression ratio ×100 (dense f32
    /// bytes over wire bytes).
    ratio: [metrics::Gauge; QUALITY_BUCKETS],
    /// Fleet-mean stored-residual L2 norm (error-feedback pressure).
    residual: metrics::Gauge,
}

impl QualitySensors {
    fn resolve() -> Self {
        QualitySensors {
            err: std::array::from_fn(|b| metrics::gauge(QB_ERR[b])),
            ratio: std::array::from_fn(|b| metrics::gauge(QB_RATIO[b])),
            residual: metrics::gauge("quality.residual_norm"),
        }
    }

    /// Records a sampled relative approximation error for `bucket`.
    fn record_error(&self, bucket: usize, rel_err: f64) {
        let b = bucket.min(QUALITY_BUCKETS - 1);
        let ppm = (rel_err * 1e6).round();
        self.err[b].set(ppm);
        trace::instant_args(
            QB_ERR[b],
            Track::Bucket,
            Some(("bucket", bucket as u64)),
            Some(("ppm", ppm as u64)),
        );
    }

    /// Records the effective compression ratio of one drained bucket.
    fn record_ratio(&self, bucket: usize, elements: usize, wire_bytes: usize) {
        if wire_bytes == 0 || elements == 0 {
            return;
        }
        let b = bucket.min(QUALITY_BUCKETS - 1);
        let r100 = (elements as u64 * 4).saturating_mul(100) / wire_bytes as u64;
        self.ratio[b].set(r100 as f64);
        trace::instant_args(
            QB_RATIO[b],
            Track::Bucket,
            Some(("bucket", bucket as u64)),
            Some(("ratio_x100", r100)),
        );
    }

    /// Records the fleet's mean stored-residual norm.
    fn record_residual(&self, norm: f64) {
        self.residual.set(norm);
    }
}

/// One worker's private compression lane: its compressor, its (optional)
/// error-feedback memory, and its codec-time accumulator.
///
/// The engine owns one lane per rank the process computes for: all of them
/// in the simulator, one on a rank of a real cluster.
pub struct WorkerLane<'a> {
    rank: usize,
    compressor: &'a mut dyn Compressor,
    memory: Option<&'a mut dyn Memory>,
    codec_ns: u64,
    /// Per-lane encode-time distribution in the global registry
    /// (`exchange.encode_ns.lane{rank}`) — straggler skew across lanes.
    encode_hist: HistogramHandle,
    /// Encodes observed since lane construction (drives quality sampling).
    sample_tick: u32,
    /// Most recent sampled relative approximation error, pending pull by
    /// the caller that knows which fusion bucket the tensor belongs to.
    last_rel_err: Option<f64>,
    /// Sampled relative error distribution (`quality.approx_error_ppm`).
    err_hist: HistogramHandle,
    /// Sampled per-layer residual norm ‖φ − Q⁻¹(Q(φ))‖ ×1e6
    /// (`quality.layer_residual_x1e6`) — exactly the residual the memory
    /// stores for that layer.
    layer_residual_hist: HistogramHandle,
}

impl<'a> WorkerLane<'a> {
    /// Creates a lane. `memory: None` skips compensate/update entirely.
    pub fn new(
        rank: usize,
        compressor: &'a mut dyn Compressor,
        memory: Option<&'a mut dyn Memory>,
    ) -> Self {
        WorkerLane {
            rank,
            compressor,
            memory,
            codec_ns: 0,
            encode_hist: metrics::histogram(&format!("exchange.encode_ns.lane{rank}")),
            sample_tick: 0,
            last_rel_err: None,
            err_hist: metrics::histogram("quality.approx_error_ppm"),
            layer_residual_hist: metrics::histogram("quality.layer_residual_x1e6"),
        }
    }

    /// Direct access to the compressor (gathered peer contributions
    /// decompress with it).
    pub fn compressor_mut(&mut self) -> &mut dyn Compressor {
        self.compressor
    }

    /// Accumulated compress + own-decompress wall seconds.
    pub fn codec_seconds(&self) -> f64 {
        self.codec_ns as f64 / NS_PER_SEC
    }

    /// The lane memory's stored-residual L2 norm
    /// ([`Memory::residual_norm`]); `None` without an active memory.
    pub fn residual_norm(&self) -> Option<f64> {
        self.memory.as_ref().and_then(|m| m.residual_norm())
    }

    fn observe(&mut self, ns: u64) {
        self.codec_ns += ns;
        self.encode_hist.record(ns);
    }

    /// Quality sampling (paper §V: compression behaviour must be observed
    /// per method and per layer to be tuned). Every
    /// [`QUALITY_SAMPLE_PERIOD`]-th encode measures ‖φ − Q⁻¹(Q(φ))‖ from
    /// the two tensors the encode path already produced — no extra
    /// decompress, no allocation, read-only over both slices, so the
    /// update math is untouched at every telemetry level.
    fn sample_quality(&mut self, reference: &Tensor, decoded: &Tensor) {
        self.sample_tick = self.sample_tick.wrapping_add(1);
        if !self.sample_tick.is_multiple_of(QUALITY_SAMPLE_PERIOD) {
            return;
        }
        if !enabled(Level::Metrics) && !recorder::active() {
            return;
        }
        let mut err_sq = 0.0f64;
        let mut ref_sq = 0.0f64;
        for (&a, &b) in reference.as_slice().iter().zip(decoded.as_slice()) {
            let e = f64::from(a) - f64::from(b);
            err_sq += e * e;
            ref_sq += f64::from(a) * f64::from(a);
        }
        let abs = err_sq.sqrt();
        self.layer_residual_hist.record((abs * 1e6) as u64);
        let rel = if ref_sq > 0.0 {
            abs / ref_sq.sqrt()
        } else {
            0.0
        };
        self.err_hist.record((rel * 1e6) as u64);
        self.last_rel_err = Some(rel);
    }

    /// Takes the most recent sampled relative approximation error. Callers
    /// that know the tensor→bucket mapping pull this right after an encode
    /// and attribute it to the covering fusion bucket.
    fn take_quality_error(&mut self) -> Option<f64> {
        self.last_rel_err.take()
    }

    /// Algorithm 1 lines 5–7 for one tensor into a fresh payload list:
    /// compress and — for an active memory — compensate first, then
    /// decompress the lane's own payload to update the residual.
    pub fn encode(&mut self, name: &str, grad: &Tensor) -> EncodedTensor {
        self.encode_grad(name, Grad::Borrowed(grad))
    }

    /// Algorithm 1 lines 5–7 for one tensor: compensate, compress, and
    /// decompress the lane's own payload to update the residual — the first
    /// and last only for an *active* memory, since an inactive one's
    /// compensate is the identity and its update a no-op. A lent gradient
    /// goes to [`Compressor::compress_owned`] when nothing reads it after.
    /// Only compress/decompress are timed (compensate and the memory update
    /// are elementwise bookkeeping).
    fn encode_grad(&mut self, name: &str, grad: Grad<'_>) -> EncodedTensor {
        let lane = Track::Lane(self.rank);
        let compensated = match self.memory.as_mut() {
            Some(mem) if mem.is_active() => Some(mem.compensate(name, grad.tensor())),
            _ => None,
        };
        let t0 = StageTimer::start();
        let (payloads, ctx) = match (&compensated, grad) {
            (Some(input), _) | (None, Grad::Borrowed(input)) => {
                self.compressor.compress(input, name)
            }
            (None, Grad::Lent(input)) => self.compressor.compress_owned(input, name),
        };
        let mut ns = t0.finish("compress", lane);
        if let (Some(mem), Some(compensated)) = (self.memory.as_mut(), &compensated) {
            let t1 = StageTimer::start();
            let own = self.compressor.decompress(&payloads, &ctx);
            ns += t1.finish("decode_own", lane);
            mem.update(name, compensated, &own);
            self.sample_quality(compensated, &own);
        }
        self.observe(ns);
        EncodedTensor { payloads, ctx }
    }
}

/// A submitted gradient: borrowed, or lent so the codec may take its buffer.
enum Grad<'g> {
    Borrowed(&'g Tensor),
    Lent(&'g mut Tensor),
}

impl Grad<'_> {
    fn tensor(&self) -> &Tensor {
        match self {
            Grad::Borrowed(t) => t,
            Grad::Lent(t) => t,
        }
    }
}

/// Divides an `Allreduce`'s elementwise sum by its contributor count — the
/// mean of Algorithm 1 lines 8–9, over the survivors when membership has
/// degraded. A lone contributor's sum is returned as it is (`x / 1.0` is
/// `x` for every value arithmetic makes), and a count of `2ᵏ` multiplies by
/// the exact `2⁻ᵏ`, which rounds every `f32` as the division does.
///
/// # Panics
///
/// Panics if `contributors` is zero.
pub fn average_sum(mut sum: Vec<f32>, contributors: usize) -> Payload {
    assert!(contributors > 0, "mean over zero contributors");
    if contributors == 1 {
        return Payload::F32(sum);
    }
    let (denom, len) = (contributors as f32, sum.len());
    let recip = contributors.is_power_of_two().then(|| 1.0 / denom);
    pool::split_rows(&mut sum, len, 16, len, |_, part| match recip {
        Some(r) => part.iter_mut().for_each(|v| *v *= r),
        None => part.iter_mut().for_each(|v| *v /= denom),
    });
    Payload::F32(sum)
}

/// Decompresses every gathered contribution in rank order and takes their
/// [`mean_of`] — `Allgather` semantics, Algorithm 1 lines 11–13, written the
/// long way: the oracle every merge plan's fold is held to.
///
/// # Panics
///
/// Panics if `parts` is empty.
pub fn decode_gathered(compressor: &mut dyn Compressor, parts: &[EncodedTensor]) -> Tensor {
    assert!(!parts.is_empty(), "cannot aggregate zero contributions");
    let decoded: Vec<Tensor> = parts
        .iter()
        .map(|e| compressor.decompress(&e.payloads, &e.ctx))
        .collect();
    mean_of(decoded)
}

/// Per-lane state of the pipelined session. Every vector is a pool that
/// persists across steps on the engine, so the steady-state submit path
/// allocates nothing once the plan's shapes have been seen.
struct LaneStager {
    /// Plan-indexed encode outputs.
    encoded: Vec<EncodedTensor>,
    /// Per-bucket fusion buffers of multi-tensor `Allreduce` buckets.
    fused: Vec<Vec<f32>>,
    /// Plan-indexed gradient buffers kept once encoded, each the
    /// `Allgather` merge accumulator of its tensor.
    kept: Vec<Vec<f32>>,
    /// Tensors encoded so far this step — the next plan slot.
    submitted: usize,
    /// Encode nanoseconds attributed to each bucket this step.
    bucket_ns: Vec<u64>,
    /// Payload bytes generated per bucket this step.
    bucket_bytes: Vec<u64>,
    /// Largest sampled relative approximation error observed per bucket
    /// this step (−1 when no encode in the bucket was sampled).
    bucket_err: Vec<f64>,
    /// Wall window opened at the open bucket's first encode; spans the
    /// interleaved backprop on the `buckets` track when it closes.
    window: Option<StageTimer>,
    /// `codec_seconds` snapshot taken at `begin_step`.
    codec_before: f64,
}

impl LaneStager {
    fn new() -> Self {
        LaneStager {
            encoded: Vec::new(),
            fused: Vec::new(),
            kept: Vec::new(),
            submitted: 0,
            bucket_ns: Vec::new(),
            bucket_bytes: Vec::new(),
            bucket_err: Vec::new(),
            window: None,
            codec_before: 0.0,
        }
    }

    /// Sizes every pool for `plan` and clears per-step state, reusing
    /// existing capacity (the stager is new when the plan is).
    fn reset(&mut self, plan: &BucketPlan, codec_before: f64) {
        self.encoded
            .resize_with(plan.n_tensors(), || EncodedTensor {
                payloads: Vec::new(),
                ctx: Context::shape_only(Shape::scalar()),
            });
        self.fused.resize_with(plan.n_buckets(), Vec::new);
        self.kept.resize_with(plan.n_tensors(), Vec::new);
        self.bucket_ns.clear();
        self.bucket_ns.resize(plan.n_buckets(), 0);
        self.bucket_bytes.clear();
        self.bucket_bytes.resize(plan.n_buckets(), 0);
        self.bucket_err.clear();
        self.bucket_err.resize(plan.n_buckets(), -1.0);
        self.submitted = 0;
        self.window = None;
        self.codec_before = codec_before;
    }

    /// Encodes `grad` into the next plan slot — the only place a `bucket`
    /// window opens: attributes time, bytes and sampled error to the
    /// covering bucket and emits a `buckets`-track span when the bucket's
    /// last tensor encodes. With `keep`, a lent gradient's buffer is taken
    /// once the encode is done with it. Returns whether this call completed
    /// a bucket.
    fn encode(
        &mut self,
        lane: &mut WorkerLane<'_>,
        plan: &BucketPlan,
        grad: Grad<'_>,
        keep: bool,
    ) -> bool {
        let idx = self.submitted;
        let b = plan.bucket_of(idx);
        if self.window.is_none() {
            self.window = Some(StageTimer::start());
        }
        let before_ns = lane.codec_ns;
        let slot = &mut self.encoded[idx];
        match grad {
            Grad::Lent(grad) if keep => {
                *slot = lane.encode_grad(plan.name(idx), Grad::Lent(&mut *grad));
                let taken = std::mem::replace(grad, Tensor::from_vec(Vec::new()));
                self.kept[idx] = taken.into_vec();
            }
            grad => *slot = lane.encode_grad(plan.name(idx), grad),
        }
        self.bucket_ns[b] += lane.codec_ns - before_ns;
        self.bucket_bytes[b] += slot.wire_bytes() as u64;
        if let Some(e) = lane.take_quality_error() {
            if e > self.bucket_err[b] {
                self.bucket_err[b] = e;
            }
        }
        self.submitted += 1;
        let sealed = self.submitted == plan.bucket_range(b).end;
        if sealed {
            if let Some(w) = self.window.take() {
                w.finish_with("bucket", Track::Bucket, "bucket", b as u64);
            }
        }
        sealed
    }

    /// This lane's contribution to `Allreduce` bucket `b` (plan slots
    /// `range`): its `F32` payloads, in plan order, as one buffer. A `lone`
    /// bucket (one payload) lends the encode's own buffer; several are
    /// copied into the bucket's pooled buffer. [`unfuse`](Self::unfuse)
    /// takes the buffer back.
    fn fuse(&mut self, b: usize, range: Range<usize>, lone: bool) -> Vec<f32> {
        if lone {
            return match self.encoded[range.start].payloads.pop() {
                Some(Payload::F32(v)) => v,
                other => panic!("expected an f32 payload, got {other:?}"),
            };
        }
        let mut fused = std::mem::take(&mut self.fused[b]);
        fused.clear();
        let payloads = self.encoded[range].iter().flat_map(|e| &e.payloads);
        // Sized exactly on the first step: grown by doubling, the pooled
        // buffer would stay up to 2× too large.
        fused.reserve_exact(payloads.clone().map(|p| p.as_f32().len()).sum());
        for p in payloads {
            fused.extend_from_slice(p.as_f32());
        }
        fused
    }

    /// Returns the buffer [`fuse`](Self::fuse) lent for bucket `b` to where
    /// it came from.
    fn unfuse(&mut self, b: usize, range: Range<usize>, lone: bool, buffer: Vec<f32>) {
        if lone {
            self.encoded[range.start]
                .payloads
                .push(Payload::F32(buffer));
        } else {
            self.fused[b] = buffer;
        }
    }

    /// Payload bytes this lane generated this step.
    fn step_bytes(&self) -> u64 {
        self.bucket_bytes.iter().sum()
    }

    /// Encode seconds spent on every bucket except the stream's last — work
    /// performed while backprop was still producing later buckets.
    fn hidden_seconds(&self) -> f64 {
        match self.bucket_ns.split_last() {
            Some((_, rest)) => rest.iter().sum::<u64>() as f64 / NS_PER_SEC,
            None => 0.0,
        }
    }
}

/// Cross-step pipelined-session state owned by the engine; pools persist so
/// steady-state steps allocate nothing on the submit path.
#[derive(Default)]
struct PipelineState {
    plan: Option<BucketPlan>,
    stagers: Vec<LaneStager>,
    /// Sealed-but-unaggregated bucket instances across lanes (the queue
    /// depth mirrored into the `exchange.buckets_in_flight` gauge).
    in_flight: u64,
}

/// Stage-time and incast accumulators one exchange step's aggregation path
/// folds into (one instance per step, shared across its tensor groups).
#[derive(Debug, Default, Clone, Copy)]
struct AggAccum {
    decompress_ns: u64,
    aggregate_ns: u64,
    incast_bytes: u64,
}

impl AggAccum {
    fn add_merge(&mut self, stats: &MergeStats) {
        self.decompress_ns += stats.decode_cpu_ns;
        self.aggregate_ns += stats.merge_ns;
        self.incast_bytes += stats.incast_bytes;
    }
}

/// Where a sealed bucket's contributions meet: in rank order across the
/// engine's own lanes, or through one collective call when the engine's one
/// lane is a rank of a cluster.
enum Meet<'c, C> {
    Lanes,
    Over(&'c FaultyCollective<C>),
}

impl<C: ClusterIntrospect> Meet<'_, C> {
    /// Sums the held lanes' fused buffers, in rank order, with the peers'.
    /// The sum comes back in the first lane's place — the buffer it sent,
    /// on every transport that can return it — and the other lanes' buffers
    /// are only read. Returns the contributor count.
    fn allreduce(&self, fused: &mut [Vec<f32>]) -> Result<usize, ClusterError> {
        let (first, rest) = fused.split_first_mut().expect("an engine holds a lane");
        let own = std::mem::take(first);
        let reduction = match self {
            Meet::Lanes => Reduction::sum_in_rank_order(own, rest.iter()),
            Meet::Over(comm) => comm.try_allreduce_f32(own)?,
        };
        *first = reduction.sum;
        Ok(reduction.contributors)
    }

    /// Gathers the held lanes' envelopes, in rank order, with the peers'.
    fn allgather(
        &self,
        mut envelopes: impl Iterator<Item = Vec<u8>>,
        frames: &mut GatherFrames,
    ) -> Result<(), ClusterError> {
        match self {
            Meet::Lanes => {
                let envelopes: Vec<Vec<u8>> = envelopes.collect();
                frames.fill(envelopes.iter().map(|e| Some(&e[..])));
                Ok(())
            }
            Meet::Over(comm) => {
                let own = envelopes.next().expect("an engine holds a lane");
                comm.try_allgather_frames(own, frames)
            }
        }
    }

    /// Counts the contributions a merge rejected against this rank, and
    /// turns a merge that kept none into the rank's typed error. Held lanes'
    /// envelopes never leave the process, so the lanes meet rejects none.
    fn settle(&self, rejected: usize, failure: Option<PayloadError>) -> Result<(), ClusterError> {
        let Meet::Over(comm) = self else {
            assert_eq!(rejected, 0, "a held lane's envelope was rejected");
            return Ok(());
        };
        let rank = comm.rank();
        for _ in 0..rejected {
            comm.stats().record_detected(rank);
        }
        failure.map_or(Ok(()), |e| {
            Err(ClusterError::Corrupted {
                rank,
                // The collective this bucket has just issued.
                op: comm.inner().ops_started() - 1,
                detail: e.to_string(),
            })
        })
    }
}

/// The engine: owns the lanes this process computes for and performs whole
/// exchange steps.
///
/// Construction borrows the fleet, so callers keep ownership of their
/// compressor/memory boxes across runs.
pub struct GradientExchange<'a> {
    /// Contiguous world ranks, ascending.
    lanes: Vec<WorkerLane<'a>>,
    strategy: CommStrategy,
    /// The byte ledger of sessions that end locally; a collective ending
    /// leaves accounting to the transport's own counter.
    traffic: TrafficCounter,
    stage_hists: StageHistograms,
    metrics: EngineMetrics,
    quality: QualitySensors,
    pipeline: PipelineState,
    merger: AggMerger,
    /// Pooled gather buffer of the `Allgather` meet: the ranks' bucket
    /// envelopes land as sub-ranges of one backing allocation the per-tensor
    /// merges borrow from.
    frames: GatherFrames,
}

impl<'a> GradientExchange<'a> {
    /// Builds the engine over one compressor + one memory per worker.
    ///
    /// # Panics
    ///
    /// Panics if the fleet is empty or the slice lengths differ.
    pub fn from_fleet(
        compressors: &'a mut [Box<dyn Compressor>],
        memories: &'a mut [Box<dyn Memory>],
    ) -> Self {
        assert_eq!(
            compressors.len(),
            memories.len(),
            "fleet sizes must match: {} compressors vs {} memories",
            compressors.len(),
            memories.len()
        );
        let lanes = compressors
            .iter_mut()
            .zip(memories.iter_mut())
            .enumerate()
            .map(|(rank, (c, m))| WorkerLane::new(rank, c.as_mut(), Some(m.as_mut())));
        Self::from_lanes(lanes.collect())
    }

    /// Builds the engine over compressors only: memory-less lanes that
    /// compress what is submitted, with no compensate/update step.
    ///
    /// # Panics
    ///
    /// Panics if `compressors` is empty.
    pub fn from_compressors(compressors: &'a mut [Box<dyn Compressor>]) -> Self {
        let lanes = compressors
            .iter_mut()
            .enumerate()
            .map(|(rank, c)| WorkerLane::new(rank, c.as_mut(), None));
        Self::from_lanes(lanes.collect())
    }

    /// Builds the engine of one rank of a real cluster: a single lane that
    /// keeps its *world* rank (lane track, `submit`'s `worker` argument);
    /// the peers' contributions arrive through
    /// [`BucketedExchange::finish_over`].
    pub(crate) fn for_rank(
        rank: usize,
        compressor: &'a mut dyn Compressor,
        memory: &'a mut dyn Memory,
    ) -> Self {
        Self::from_lanes(vec![WorkerLane::new(rank, compressor, Some(memory))])
    }

    fn from_lanes(lanes: Vec<WorkerLane<'a>>) -> Self {
        assert!(!lanes.is_empty(), "need at least one worker");
        // All lanes must share worker 0's strategy.
        let strategy = lanes[0].compressor.strategy();
        let n = lanes.len();
        GradientExchange {
            lanes,
            strategy,
            traffic: TrafficCounter::new(n),
            stage_hists: StageHistograms::default(),
            metrics: EngineMetrics::resolve(),
            quality: QualitySensors::resolve(),
            pipeline: PipelineState::default(),
            merger: AggMerger::new(AggregationPlan::default()),
            frames: GatherFrames::new(),
        }
    }

    /// Selects the aggregation plan for `Allgather` merges (downgraded per
    /// method by [`crate::effective_plan`]); both plans are bit-identical on
    /// the aggregated output, so this only moves CPU and incast bytes
    /// around.
    pub fn with_aggregation(mut self, plan: AggregationPlan) -> Self {
        self.merger.set_plan(plan);
        self
    }

    /// The world ranks this engine holds lanes for.
    pub(crate) fn ranks(&self) -> std::ops::Range<usize> {
        let first = self.lanes[0].rank;
        first..first + self.lanes.len()
    }

    /// Number of worker lanes.
    pub fn n_workers(&self) -> usize {
        self.lanes.len()
    }

    /// The fleet's communication strategy (taken from worker 0; all lanes
    /// must share it).
    pub fn strategy(&self) -> CommStrategy {
        self.strategy
    }

    /// Worker 0's compressor display name.
    pub fn compressor_name(&self) -> String {
        self.lanes[0].compressor.name()
    }

    /// The per-rank byte/message accounting every exchange step feeds
    /// (one fused-bucket message per worker per step).
    pub fn traffic(&self) -> &TrafficCounter {
        &self.traffic
    }

    /// Per-stage latency distributions accumulated over this engine's
    /// lifetime (one sample per exchange step).
    pub fn stage_stats(&self) -> &StageHistograms {
        &self.stage_hists
    }

    /// Mean stored-residual L2 norm across lanes with active error-feedback
    /// memory — the health monitor's per-step error-feedback signal.
    /// `None` when no lane keeps residual state.
    pub fn residual_norm(&self) -> Option<f64> {
        let mut sum = 0.0f64;
        let mut active = 0usize;
        for lane in &self.lanes {
            if let Some(norm) = lane.residual_norm() {
                sum += norm;
                active += 1;
            }
        }
        if active > 0 {
            Some(sum / active as f64)
        } else {
            None
        }
    }

    /// Clears the per-run stage distributions (e.g. after bench warmup).
    pub fn reset_stage_stats(&mut self) {
        self.stage_hists = StageHistograms::default();
    }

    /// The one aggregation arm behind both session endings, for sealed
    /// bucket `b` (plan slots `range`) of every held lane's stager, lanes in
    /// rank order. Each lane's contribution is built exactly as a rank
    /// builds it, the contributions [`Meet`], and the tail is shared.
    ///
    /// The bucket's wire bytes are, summed over its tensors, the largest
    /// held contribution: the ring drains at its largest member, and a rank
    /// holding one lane charges its own.
    fn aggregate_bucket<C: ClusterIntrospect>(
        &mut self,
        meet: &Meet<'_, C>,
        stagers: &mut [LaneStager],
        (b, range): (usize, Range<usize>),
        bucket: &mut BucketReport,
        acc: &mut AggAccum,
    ) -> Result<Vec<Tensor>, ClusterError> {
        bucket.wire_bytes += range
            .clone()
            .filter_map(|t| stagers.iter().map(|s| s.encoded[t].wire_bytes()).max())
            .sum::<usize>();
        match self.strategy {
            CommStrategy::Allreduce => self.allreduce_bucket(meet, stagers, (b, range), acc),
            // `Broadcast` has no collective of its own.
            _ => self.allgather_bucket(meet, stagers, range, acc),
        }
    }

    /// `Allreduce` over a bucket: each lane's `F32` payloads fuse into one
    /// buffer, the buffers are summed while compressed and averaged in place
    /// (the contributor count is the degraded-membership denominator), and
    /// the mean is split back by length over lane 0's payloads, whose
    /// buffers each decode moves into its aggregate.
    fn allreduce_bucket<C: ClusterIntrospect>(
        &mut self,
        meet: &Meet<'_, C>,
        stagers: &mut [LaneStager],
        (b, range): (usize, Range<usize>),
        acc: &mut AggAccum,
    ) -> Result<Vec<Tensor>, ClusterError> {
        let held = stagers.iter().flat_map(|s| &s.encoded[range.clone()]);
        let wire: usize = held.map(EncodedTensor::wire_bytes).sum();
        let lone = matches!(&stagers[0].encoded[range.clone()], [e] if e.payloads.len() == 1);
        let mut fused: Vec<Vec<f32>> = stagers
            .iter_mut()
            .map(|s| s.fuse(b, range.clone(), lone))
            .collect();
        let contributors = meet.allreduce(&mut fused)?;
        // Payloads merge while compressed: every contributor's bucket enters
        // the merge point, a held lane's size standing in for a peer's.
        acc.incast_bytes += (wire * contributors / stagers.len()) as u64;
        let mut fused = fused.into_iter();
        // The transports guarantee the sum has the request's length.
        let sum = fused.next().expect("an engine holds a lane");
        let Payload::F32(mean) = average_sum(sum, contributors) else {
            unreachable!("a mean is f32")
        };
        if !lone {
            // Back over lane 0's payloads' own buffers: no second allocation.
            let mut rest = &mean[..];
            let own = stagers[0].encoded[range.clone()].iter_mut();
            for p in own.flat_map(|e| &mut e.payloads) {
                if let Payload::F32(v) = p {
                    let (head, tail) = rest.split_at(v.len());
                    v.copy_from_slice(head);
                    rest = tail;
                }
            }
        }
        for (s, buffer) in stagers.iter_mut().zip(std::iter::once(mean).chain(fused)) {
            s.unfuse(b, range.clone(), lone, buffer);
        }
        let lane0 = &mut *self.lanes[0].compressor;
        let decode = |e: &mut EncodedTensor| {
            let t0 = StageTimer::start();
            let out = lane0.decompress_owned(std::mem::take(&mut e.payloads), &e.ctx);
            acc.decompress_ns += t0.finish("decompress", Track::Stage(Stage::Decompress));
            out
        };
        Ok(stagers[0].encoded[range].iter_mut().map(decode).collect())
    }

    /// `Allgather` over a bucket: each lane's encodes travel as one envelope
    /// ([`payload::encode_bucket_into`]), the envelopes meet, and tensor *t*
    /// merges the *t*-th frame of every present slot in rank order. A slot
    /// whose envelope is wrong is one rejected contribution — to every
    /// tensor of the bucket, on every receiver alike; a damaged frame inside
    /// a sound envelope costs only its own tensor that contribution. Each
    /// tensor merges into the gradient buffer the last lane kept for it.
    fn allgather_bucket<C: ClusterIntrospect>(
        &mut self,
        meet: &Meet<'_, C>,
        stagers: &mut [LaneStager],
        range: Range<usize>,
        acc: &mut AggAccum,
    ) -> Result<Vec<Tensor>, ClusterError> {
        let envelopes = stagers.iter_mut().map(|s| {
            let lane = &mut s.encoded[range.clone()];
            let mut envelope = Vec::new();
            let tensors = lane.iter().map(|e| (&e.payloads[..], &e.ctx.meta[..]));
            payload::encode_bucket_into(&mut envelope, tensors);
            // The payloads are in the envelope; the merge needs only the
            // shapes, and the slots hold nothing past the step.
            lane.iter_mut().for_each(|e| e.payloads.clear());
            envelope
        });
        meet.allgather(envelopes, &mut self.frames)?;
        // Every lane encoded the same plan slots; the last lane's hold the
        // shapes and the buffers it kept.
        let LaneStager { encoded, kept, .. } = stagers.last_mut().expect("an engine holds a lane");
        let shapes = encoded[range.clone()].iter().map(|e| &e.ctx.shape);
        let mut kept = kept[range].iter_mut().map(std::mem::take);
        let frames = &self.frames;
        let mut rejected = 0;
        let mut bad_envelope = None;
        let mut slots: Vec<payload::BucketFrames<'_>> = (0..frames.n_slots())
            .filter_map(|r| frames.slot(r))
            .filter_map(|slot| match payload::split_bucket(slot, shapes.len()) {
                Ok(tensor_frames) => Some(tensor_frames),
                Err(e) => {
                    rejected += 1;
                    bad_envelope = Some(e);
                    None
                }
            })
            .collect();
        let lane0 = &mut *self.lanes[0].compressor;
        let mut merged = Vec::with_capacity(shapes.len());
        let mut failure = None;
        for shape in shapes {
            let parts = slots
                .iter_mut()
                .map(|s| s.next().expect("split_bucket checked the count"));
            let into = kept.next().unwrap_or_default();
            match self.merger.merge_frames_into(lane0, parts, shape, into) {
                Ok((out, stats, bad_frames)) => {
                    acc.add_merge(&stats);
                    rejected += bad_frames;
                    merged.push(out);
                }
                Err(no_survivor) => {
                    rejected += slots.len();
                    // With no sound envelope at all, that is the story.
                    let envelope = bad_envelope.take().filter(|_| slots.is_empty());
                    failure = Some(envelope.unwrap_or(no_survivor));
                    break;
                }
            }
        }
        meet.settle(rejected, failure)?;
        Ok(merged)
    }

    /// Opens a pipelined exchange session for one step.
    ///
    /// Gradients stream in through [`BucketedExchange::submit`] while the
    /// caller's backprop is still running; each lane compensates and
    /// compresses submissions eagerly as fusion buckets fill, so the encode
    /// of bucket *k* hides under the backward pass that produces bucket
    /// *k + 1*. [`BucketedExchange::finish`] (or `finish_over` on a rank of a
    /// real cluster) aggregates bucket by bucket and returns the aggregated
    /// tensors **in plan order** plus the step report.
    ///
    /// `plan` is the step's bucket layout — build it once from the streaming
    /// order with [`crate::PlanBuilder`]; boundaries depend only on dense
    /// byte sizes, so every worker derives the identical plan and the
    /// session stays bit-identical at any fusion threshold. The engine
    /// caches the plan and its pools across steps, so steady-state submits
    /// allocate nothing.
    ///
    /// An unfinished previous session (e.g. dropped mid-step after a worker
    /// fault) is discarded here; its pools are reset, not leaked.
    pub fn begin_step(&mut self, plan: &BucketPlan) -> BucketedExchange<'_, 'a> {
        let n = self.lanes.len();
        let pipe = &mut self.pipeline;
        if pipe.plan.as_ref() != Some(plan) {
            pipe.plan = Some(plan.clone());
            // No slot or buffer of another layout carries over.
            pipe.stagers.clear();
        }
        if pipe.stagers.len() != n {
            pipe.stagers.clear();
            pipe.stagers.resize_with(n, LaneStager::new);
        }
        pipe.in_flight = 0;
        let PipelineState { plan, stagers, .. } = pipe;
        let plan = plan.as_ref().expect("plan installed above");
        for (stager, lane) in stagers.iter_mut().zip(&self.lanes) {
            stager.reset(plan, lane.codec_seconds());
        }
        self.metrics.in_flight.set(0.0);
        BucketedExchange { engine: self }
    }

    fn pipeline_submit(&mut self, worker: usize, name: &str, grad: Grad<'_>) {
        let pipe = &mut self.pipeline;
        let plan = pipe.plan.as_ref().expect("open session always has a plan");
        let slot = worker.wrapping_sub(self.lanes[0].rank);
        assert!(slot < self.lanes.len(), "worker rank out of range");
        let stager = &mut pipe.stagers[slot];
        let len = grad.tensor().len();
        assert!(
            plan.matches(stager.submitted, name, len),
            "submission '{name}' ({len} elements) does not match the bucket plan"
        );
        // The last lane keeps its lent buffers as the gathered merge's
        // accumulators: the simulator's lanes share one network, so the
        // lanes before it leave each buffer for the next backward pass.
        let keep = self.strategy != CommStrategy::Allreduce && slot + 1 == self.lanes.len();
        if stager.encode(&mut self.lanes[slot], plan, grad, keep) {
            pipe.in_flight += 1;
            self.metrics.in_flight.set(pipe.in_flight as f64);
        }
    }

    /// The one bucket walk behind both session endings: checks the streams
    /// are complete (and a collective meet's engine holds one lane), hands
    /// each sealed bucket to [`aggregate_bucket`](Self::aggregate_bucket),
    /// then feeds the quality sensors and builds the step report. The
    /// session state is taken off the engine for the walk and its pools
    /// returned at the end; a collective's error abandons the step and the
    /// next `begin_step` rebuilds them.
    fn pipeline_finish<C: ClusterIntrospect>(
        &mut self,
        meet: Meet<'_, C>,
    ) -> Result<(Vec<(String, Tensor)>, ExchangeReport), ClusterError> {
        let mut pipe = std::mem::take(&mut self.pipeline);
        let plan = pipe.plan.as_ref().expect("open session always has a plan");
        for (rank, stager) in pipe.stagers.iter().enumerate() {
            assert_eq!(
                stager.submitted,
                plan.n_tensors(),
                "worker {rank} submitted {} of {} tensors",
                stager.submitted,
                plan.n_tensors()
            );
        }
        let n = self.lanes.len();
        if let Meet::Over(_) = meet {
            assert_eq!(n, 1, "a rank holds one lane");
        }

        let mut aggregated = Vec::with_capacity(plan.n_tensors());
        let mut buckets = Vec::with_capacity(plan.n_buckets());
        let mut acc = AggAccum::default();
        for b in 0..plan.n_buckets() {
            let range = plan.bucket_range(b);
            let mut bucket = BucketReport {
                tensors: range.len(),
                elements: plan.bucket_elements(b),
                wire_bytes: 0,
            };
            let slots = (b, range.clone());
            let aggs =
                self.aggregate_bucket(&meet, &mut pipe.stagers, slots, &mut bucket, &mut acc)?;
            debug_assert_eq!(aggs.len(), range.len(), "one aggregate per tensor");
            aggregated.extend(
                range
                    .zip(aggs)
                    .map(|(idx, agg)| (plan.name(idx).to_string(), agg)),
            );
            let bucket_err = pipe
                .stagers
                .iter()
                .map(|s| s.bucket_err[b])
                .fold(-1.0f64, f64::max);
            if bucket_err >= 0.0 {
                self.quality.record_error(b, bucket_err);
            }
            self.quality
                .record_ratio(b, bucket.elements, bucket.wire_bytes);
            buckets.push(bucket);
            pipe.in_flight = pipe.in_flight.saturating_sub(n as u64);
            self.metrics.in_flight.set(pipe.in_flight as f64);
        }

        let stagers = &pipe.stagers;
        let report = ExchangeReport {
            buckets,
            compress_seconds: self
                .lanes
                .iter()
                .zip(stagers)
                .map(|(lane, s)| lane.codec_seconds() - s.codec_before)
                .collect(),
            decompress_seconds: acc.decompress_ns as f64 / NS_PER_SEC,
            aggregate_seconds: acc.aggregate_ns as f64 / NS_PER_SEC,
            incast_bytes: acc.incast_bytes,
            payload_bytes: stagers.iter().map(LaneStager::step_bytes).collect(),
            hidden_encode_seconds: stagers.iter().map(LaneStager::hidden_seconds).collect(),
        };
        self.metrics.overlap.set(report.overlap_ratio());
        self.observe_step(&report, acc.decompress_ns, acc.aggregate_ns);
        if let Meet::Lanes = meet {
            // A collective leaves accounting to the transport's own counter.
            self.record_traffic(&report);
        }
        self.pipeline = pipe; // return the pools to the engine
        Ok((aggregated, report))
    }

    /// Feeds one step's stage durations into the per-run distributions and
    /// (level permitting) the global metrics registry — the same numbers the
    /// [`ExchangeReport`] carries, so the two can never disagree.
    fn observe_step(&mut self, report: &ExchangeReport, decompress_ns: u64, aggregate_ns: u64) {
        let compress_ns = (report.max_compress_seconds() * NS_PER_SEC) as u64;
        self.stage_hists.compress.record(compress_ns);
        self.stage_hists.decompress.record(decompress_ns);
        self.stage_hists.aggregate.record(aggregate_ns);
        self.metrics.compress.record(compress_ns);
        self.metrics.decompress.record(decompress_ns);
        self.metrics.aggregate.record(aggregate_ns);
        let wire = report.wire_bytes() as u64;
        self.metrics.wire_bytes.record(wire);
        self.metrics.incast_bytes.record(report.incast_bytes);
        // Dense f32 bytes over wire bytes, ×100 (integer-valued metric).
        let raw = (report.elements() * 4) as u64;
        if let Some(ratio) = raw.saturating_mul(100).checked_div(wire) {
            self.metrics.ratio_x100.record(ratio);
        }
        // Error-feedback pressure: the adaptive control plane's third
        // quality signal, next to per-bucket error and ratio. A full-model
        // norm per lane, so only computed when the gauge is live.
        if enabled(Level::Metrics) {
            if let Some(norm) = self.residual_norm() {
                self.quality.record_residual(norm);
            }
        }
    }

    /// Routes the step's per-rank bytes/messages into the shared
    /// [`TrafficCounter`] (which mirrors into the global telemetry
    /// counters), asserting the two accounting paths agree: the counter
    /// delta must equal the payload bytes the report claims were generated.
    fn record_traffic(&self, report: &ExchangeReport) {
        let before = self.traffic.total_bytes();
        let messages = report.buckets.len() as u64;
        for (rank, &bytes) in report.payload_bytes.iter().enumerate() {
            self.traffic.record_bucketed(rank, bytes, messages);
        }
        self.traffic.record_aggregation(
            report.incast_bytes,
            (report.aggregator_cpu_seconds() * NS_PER_SEC) as u64,
        );
        debug_assert_eq!(
            self.traffic.total_bytes() - before,
            report.total_payload_bytes(),
            "traffic-counter delta diverged from the exchange report"
        );
    }
}

/// One step of the pipelined tensor-fusion exchange (paper §V-D: overlap,
/// not ratio, converts compression into wall-clock wins).
///
/// Obtained from [`GradientExchange::begin_step`]; holds the engine mutably
/// for the step. Call [`submit`](Self::submit) from inside the backward
/// pass — e.g. as the sink of `Network::forward_backward_streaming` — and
/// [`finish`](Self::finish) (or `finish_over`) once every worker's stream is
/// complete. Dropping the session without finishing abandons the step; the
/// next `begin_step` resets the pools.
pub struct BucketedExchange<'s, 'a> {
    engine: &'s mut GradientExchange<'a>,
}

impl<'a> BucketedExchange<'_, 'a> {
    /// Streams one gradient from `worker` (a world rank this engine holds a
    /// lane for) into the session and encodes it on the spot. Each worker
    /// submits in plan order; workers may interleave freely.
    ///
    /// # Panics
    ///
    /// Panics if the `(name, len)` pair is not the worker's next plan slot
    /// or `worker` is out of range.
    pub fn submit(&mut self, worker: usize, name: &str, grad: &Tensor) {
        self.engine
            .pipeline_submit(worker, name, Grad::Borrowed(grad));
    }

    /// [`submit`](Self::submit) of a gradient buffer the session may take
    /// ([`Compressor::compress_owned`]), leaving `grad` empty — the sink of
    /// a streaming backward pass, whose aggregates go back to the
    /// parameters.
    pub fn submit_owned(&mut self, worker: usize, name: &str, grad: &mut Tensor) {
        self.engine.pipeline_submit(worker, name, Grad::Lent(grad));
    }

    /// Aggregates every fusion bucket under the fleet's [`CommStrategy`]
    /// and returns the aggregated tensors in plan order plus the step
    /// report.
    ///
    /// # Panics
    ///
    /// Panics if any worker's stream is incomplete.
    pub fn finish(self) -> (Vec<(String, Tensor)>, ExchangeReport) {
        // The lanes meet calls no collective, so any transport type will do.
        let walked = self.engine.pipeline_finish(Meet::<WorkerHandle>::Lanes);
        walked.unwrap_or_else(|e| unreachable!("the lanes meet cannot fail: {e}"))
    }

    /// The collective ending of a session on a rank of a real
    /// cluster: the same bucket walk as [`finish`](Self::finish), with each
    /// bucket's peer contributions exchanged through `comm` — exactly one
    /// collective per fusion bucket.
    ///
    /// # Errors
    ///
    /// The first [`ClusterError`] a collective returns (this rank dropped,
    /// a peer timed out, every gathered frame was corrupt); the step is
    /// abandoned and the engine stays usable.
    pub(crate) fn finish_over<C: ClusterIntrospect>(
        self,
        comm: &FaultyCollective<C>,
    ) -> Result<(Vec<(String, Tensor)>, ExchangeReport), ClusterError> {
        self.engine.pipeline_finish(Meet::Over(comm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::{Gathered, NoCompression};
    use crate::memory::{NoMemory, ResidualMemory};
    use grace_comm::FaultPlan;
    use grace_tensor::Shape;

    type Fleet = (Vec<Box<dyn Compressor>>, Vec<Box<dyn Memory>>);

    fn fleet(n: usize) -> Fleet {
        (
            (0..n)
                .map(|_| Box::new(NoCompression::new()) as Box<dyn Compressor>)
                .collect(),
            (0..n)
                .map(|_| Box::new(NoMemory::new()) as Box<dyn Memory>)
                .collect(),
        )
    }

    fn grads(n: usize, scale: f32) -> Vec<Vec<(String, Tensor)>> {
        (0..n)
            .map(|w| {
                vec![
                    (
                        "a".to_string(),
                        Tensor::new(vec![w as f32 * scale, 1.0, -1.0, 2.0], Shape::matrix(2, 2)),
                    ),
                    ("b".to_string(), Tensor::from_vec(vec![0.5, w as f32])),
                ]
            })
            .collect()
    }

    fn plan_for(grads: &[(String, Tensor)], fusion_bytes: usize) -> BucketPlan {
        let mut b = crate::bucket::PlanBuilder::new(fusion_bytes);
        for (name, t) in grads {
            b.push(name, t.len());
        }
        b.finish()
    }

    fn submit_all(session: &mut BucketedExchange<'_, '_>, inputs: &[Vec<(String, Tensor)>]) {
        for (w, list) in inputs.iter().enumerate() {
            for (name, g) in list {
                session.submit(w, name, g);
            }
        }
    }

    /// One session over `inputs`, submitted in plan order.
    fn run_step(
        engine: &mut GradientExchange<'_>,
        fusion_bytes: usize,
        inputs: &[Vec<(String, Tensor)>],
    ) -> (Vec<(String, Tensor)>, ExchangeReport) {
        let plan = plan_for(&inputs[0], fusion_bytes);
        let mut session = engine.begin_step(&plan);
        submit_all(&mut session, inputs);
        session.finish()
    }

    #[test]
    fn baseline_exchange_averages_and_accounts_bytes() {
        let (mut cs, mut ms) = fleet(2);
        let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
        let (agg, report) = run_step(&mut engine, usize::MAX, &grads(2, 2.0));
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].0, "a");
        // Mean of worker grads: first element (0 + 2)/2 = 1.
        assert_eq!(agg[0].1.as_slice(), &[1.0, 1.0, -1.0, 2.0]);
        assert_eq!(agg[1].1.as_slice(), &[0.5, 0.5]);
        // 6 f32 elements per worker → 24 payload bytes each.
        assert_eq!(report.payload_bytes, vec![24, 24]);
        assert_eq!(report.total_payload_bytes(), 48);
        // Allreduce bucket carries one worker's dense payload.
        assert_eq!(report.wire_bytes(), 24);
        assert_eq!(report.elements(), 6);
        assert_eq!(report.buckets.len(), 1);
        assert_eq!(report.buckets[0].tensors, 2);
        // Reports feed the traffic counter: one bucket message per worker.
        assert_eq!(engine.traffic().total_bytes(), 48);
        assert_eq!(engine.traffic().messages(0), 1);
    }

    #[test]
    fn residual_memory_updates_inside_lane() {
        let mut comp = NoCompression::new();
        let mut mem = ResidualMemory::new();
        let mut lane = WorkerLane::new(0, &mut comp, Some(&mut mem));
        let g = Tensor::from_vec(vec![1.0, -2.0]);
        let enc = lane.encode("w", &g);
        assert_eq!(enc.wire_bytes(), 8);
        // Lossless codec leaves a zero residual.
        assert_eq!(mem.residual("w").unwrap().norm_inf(), 0.0);
    }

    #[test]
    fn average_sum_divides_by_contributors() {
        let p = average_sum(vec![3.0, 6.0], 3);
        assert_eq!(p.as_f32(), &[1.0, 2.0]);
    }

    /// A lone contributor's mean is its sum, in the same allocation: no
    /// `÷ 1` pass runs, and none could move a bit — `x / 1.0` is `x` for
    /// ±0, subnormals, ±∞ and every quiet-NaN payload.
    #[test]
    fn a_lone_mean_is_its_sum_untouched() {
        let values = [
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x807F_FFFF),
            f32::MIN_POSITIVE,
            -3.5,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7FC0_0000),
            f32::from_bits(0xFFC0_1234),
            f32::from_bits(0x7FFF_FFFF),
        ];
        let x1 = |v: f32| std::hint::black_box(v) / std::hint::black_box(1.0f32);
        for v in values {
            assert_eq!(x1(v).to_bits(), v.to_bits(), "{v:?} / 1.0");
        }
        let sum = values.to_vec();
        let at = sum.as_ptr();
        let Payload::F32(mean) = average_sum(sum, 1) else {
            unreachable!("a mean is f32")
        };
        assert_eq!(mean.as_ptr(), at, "the same allocation");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&mean), bits(&values));
    }

    /// A power-of-two count multiplies by its reciprocal; every bit is the
    /// division's. Each of the 256 exponents with 64 random mantissas and
    /// both signs (so every normal binade, the subnormals whose quotient
    /// rounds, ±0, ±∞ and NaNs of many payloads), plus the subnormal and
    /// NaN edges, at n = 2, 4 and 8.
    #[test]
    fn a_power_of_two_mean_keeps_the_divisions_bits() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut mantissa = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 41) as u32
        };
        let mut values = Vec::new();
        for exponent in 0..256u32 {
            for sign in [0, 1u32 << 31] {
                values.extend([0, 1, 0x7F_FFFF].map(|m| f32::from_bits(sign | exponent << 23 | m)));
                values.extend((0..64).map(|_| f32::from_bits(sign | exponent << 23 | mantissa())));
            }
        }
        values.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
        values.extend(
            [
                0x7FC0_0001,
                0xFFC1_2345,
                0x7F80_0001,
                0xFFBF_FFFF,
                3,
                0x8000_0007,
            ]
            .map(f32::from_bits),
        );
        for n in [2usize, 4, 8] {
            let divided: Vec<u32> = values
                .iter()
                .map(|&v| (std::hint::black_box(v) / std::hint::black_box(n as f32)).to_bits())
                .collect();
            let Payload::F32(mean) = average_sum(values.clone(), n) else {
                unreachable!("a mean is f32")
            };
            let got: Vec<u32> = mean.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, divided, "n = {n}");
        }
    }

    #[test]
    fn decode_gathered_means_parts() {
        let mut comp = NoCompression::new();
        let parts: Vec<EncodedTensor> = [[1.0f32, 2.0], [3.0, 4.0]]
            .iter()
            .map(|v| EncodedTensor {
                payloads: vec![Payload::F32(v.to_vec())],
                ctx: Context::shape_only(Shape::vector(2)),
            })
            .collect();
        let agg = decode_gathered(&mut comp, &parts);
        assert_eq!(agg.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "worker rank out of range")]
    fn out_of_range_worker_panics() {
        let (mut cs, mut ms) = fleet(2);
        let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
        let _ = run_step(&mut engine, usize::MAX, &grads(3, 1.0));
    }

    #[test]
    #[should_panic(expected = "fleet sizes must match")]
    fn mismatched_fleet_panics() {
        let (mut cs, _) = fleet(2);
        let (_, mut ms) = fleet(3);
        let _ = GradientExchange::from_fleet(&mut cs, &mut ms);
    }

    #[test]
    #[should_panic(expected = "does not match the bucket plan")]
    fn out_of_order_submission_panics() {
        let inputs = grads(1, 1.0);
        let plan = plan_for(&inputs[0], usize::MAX);
        let (mut cs, mut ms) = fleet(1);
        let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
        let mut session = engine.begin_step(&plan);
        let (name, g) = &inputs[0][1];
        session.submit(0, name, g);
    }

    #[test]
    fn session_pools_persist_and_overlap_is_reported() {
        let (mut cs, mut ms) = fleet(2);
        let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
        let inputs = grads(2, 1.0);
        let plan = plan_for(&inputs[0], 1); // two buckets → bucket 0 is hidden
        for _ in 0..3 {
            let mut session = engine.begin_step(&plan);
            submit_all(&mut session, &inputs);
            let (agg, report) = session.finish();
            assert_eq!(agg.len(), 2);
            assert_eq!(report.buckets.len(), 2);
            assert!(
                report.overlap_ratio() > 0.0,
                "bucket 0's encode must count as hidden"
            );
            assert!(report.overlap_ratio() <= 1.0);
            assert!(report.max_hidden_encode_seconds() > 0.0);
        }
        // Per-bucket message accounting: 3 steps × 2 buckets.
        assert_eq!(engine.traffic().messages(0), 6);
    }

    #[test]
    #[should_panic(expected = "does not match the bucket plan")]
    fn mismatched_submission_panics() {
        let inputs = grads(1, 1.0);
        let plan = plan_for(&inputs[0], usize::MAX);
        let (mut cs, mut ms) = fleet(1);
        let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
        let mut session = engine.begin_step(&plan);
        session.submit(0, "unknown", &Tensor::from_vec(vec![1.0]));
    }

    #[test]
    #[should_panic(expected = "submitted 1 of 2 tensors")]
    fn incomplete_stream_panics_at_finish() {
        let inputs = grads(1, 1.0);
        let plan = plan_for(&inputs[0], usize::MAX);
        let (mut cs, mut ms) = fleet(1);
        let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
        let mut session = engine.begin_step(&plan);
        let (name, g) = &inputs[0][0];
        session.submit(0, name, g);
        let _ = session.finish();
    }

    /// `residual_norm` walks every stored residual tensor; with telemetry
    /// off (this binary's level) and no monitor asking, nothing reads it.
    #[test]
    fn residual_norm_is_not_computed_when_nothing_reads_it() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        struct Counting(Arc<AtomicUsize>);
        impl Memory for Counting {
            fn compensate(&mut self, _name: &str, grad: &Tensor) -> Tensor {
                grad.clone()
            }
            fn update(&mut self, _name: &str, _compensated: &Tensor, _decoded: &Tensor) {}
            fn residual_norm(&self) -> Option<f64> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Some(0.0)
            }
        }

        assert!(!enabled(Level::Metrics), "unit tests run at Level::Off");
        let calls = Arc::new(AtomicUsize::new(0));
        let (mut cs, _) = fleet(2);
        let mut ms: Vec<Box<dyn Memory>> = (0..2)
            .map(|_| Box::new(Counting(Arc::clone(&calls))) as Box<dyn Memory>)
            .collect();
        let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
        let _ = run_step(&mut engine, 1, &grads(2, 1.0));
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    /// A collective ending that fails mid-walk abandons only that step: the
    /// next `begin_step` starts clean on the same engine, and a fault-free
    /// step over the survivors equals a fresh engine's bit for bit.
    #[test]
    fn failed_collective_finish_leaves_the_engine_reusable() {
        use grace_comm::{ClusterOptions, FaultPlan, FaultStats, ThreadedCluster};
        use std::sync::Arc;

        let inputs = grads(2, 3.0);
        let plan = plan_for(&inputs[0], 1);
        let stream = |session: &mut BucketedExchange<'_, '_>, rank: usize| {
            for (name, g) in &inputs[rank] {
                session.submit(rank, name, g);
            }
        };
        // Rank 1 drops at its second collective: "a" has already aggregated.
        let faults = Arc::new(FaultPlan::empty().with_drop(1, 1));
        let stats = FaultStats::new(2);
        let outs = ThreadedCluster::run_with(2, ClusterOptions::default(), |endpoint| {
            let rank = endpoint.rank();
            let comm = FaultyCollective::new(endpoint, Arc::clone(&faults), stats.clone());
            let (mut c, mut m) = (NoCompression::new(), NoMemory::new());
            let mut engine = GradientExchange::for_rank(rank, &mut c, &mut m);
            let mut session = engine.begin_step(&plan);
            stream(&mut session, rank);
            let faulted = session.finish_over(&comm).map(|(agg, _)| agg);
            // Same engine, next step: the survivor alone over the
            // collective, the dropped rank with no peers at all.
            let mut session = engine.begin_step(&plan);
            stream(&mut session, rank);
            let next = match faulted {
                Ok(_) => session.finish_over(&comm).expect("survivor runs alone").0,
                Err(_) => session.finish().0,
            };
            (faulted, next)
        });
        assert_eq!(
            outs[1].0.as_ref().unwrap_err(),
            &ClusterError::Dropped { rank: 1, op: 1 }
        );
        let survivor = outs[0].0.as_ref().expect("rank 0 survives");
        assert_eq!(
            survivor[0].1.as_slice(),
            &[1.5, 1.0, -1.0, 2.0],
            "mean of both"
        );
        assert_eq!(
            survivor[1].1.as_slice(),
            &[0.5, 0.0],
            "rescaled to the survivor"
        );
        for (rank, (_, next)) in outs.iter().enumerate() {
            let (mut c, mut m) = (NoCompression::new(), NoMemory::new());
            let mut fresh = GradientExchange::for_rank(rank, &mut c, &mut m);
            let mut session = fresh.begin_step(&plan);
            stream(&mut session, rank);
            let (want, _) = session.finish();
            for ((na, ta), (nb, tb)) in want.iter().zip(next) {
                assert_eq!(na, nb);
                assert_eq!(ta.as_slice(), tb.as_slice(), "rank {rank}: '{na}' diverged");
            }
        }
    }

    /// Two ranks run one step of `inputs` over the board under `faults`;
    /// returns each rank's `finish_over` outcome, its endpoint's op count and
    /// the shared fault counters.
    #[allow(clippy::type_complexity)]
    fn collective_step(
        gathered: bool,
        fusion_bytes: usize,
        faults: grace_comm::FaultPlan,
    ) -> (
        Vec<(Result<Vec<(String, Tensor)>, ClusterError>, u64)>,
        grace_comm::FaultSummary,
    ) {
        use grace_comm::{ClusterOptions, FaultStats, ThreadedCluster};
        use std::sync::Arc;

        let inputs = grads(2, 3.0);
        let plan = plan_for(&inputs[0], fusion_bytes);
        let faults = Arc::new(faults);
        let stats = FaultStats::new(2);
        let outs = ThreadedCluster::run_with(2, ClusterOptions::default(), |endpoint| {
            let rank = endpoint.rank();
            let comm = FaultyCollective::new(endpoint, Arc::clone(&faults), stats.clone());
            let mut c: Box<dyn Compressor> = if gathered {
                Box::new(Gathered::default())
            } else {
                Box::new(NoCompression::new())
            };
            let mut m = NoMemory::new();
            let mut engine = GradientExchange::for_rank(rank, c.as_mut(), &mut m);
            let mut session = engine.begin_step(&plan);
            for (name, g) in &inputs[rank] {
                session.submit(rank, name, g);
            }
            let out = session.finish_over(&comm).map(|(agg, _)| agg);
            (out, comm.inner().ops_started())
        });
        (outs, stats.summary())
    }

    /// One collective per sealed bucket, whatever the strategy and however
    /// many tensors the bucket holds — and the same bits as the local ending
    /// over the whole fleet.
    #[test]
    fn collective_ending_issues_one_op_per_bucket_and_matches_the_local_one() {
        let inputs = grads(2, 3.0);
        for gathered in [false, true] {
            for (fusion_bytes, n_buckets) in [(1, 2), (usize::MAX, 1)] {
                let (mut cs, mut ms) = fleet(2);
                if gathered {
                    for c in &mut cs {
                        *c = Box::new(Gathered::default());
                    }
                }
                let mut local = GradientExchange::from_fleet(&mut cs, &mut ms);
                let (want, _) = run_step(&mut local, fusion_bytes, &inputs);
                let (outs, _) = collective_step(gathered, fusion_bytes, FaultPlan::empty());
                for (rank, (got, ops)) in outs.into_iter().enumerate() {
                    assert_eq!(
                        ops, n_buckets,
                        "rank {rank}, gathered {gathered}: ops ≠ buckets"
                    );
                    assert_eq!(got.expect("fault-free"), want, "rank {rank}");
                }
            }
        }
    }

    /// A bucket's wire bytes are, summed over its tensors, the largest
    /// contribution the engine holds: Σₜ maxₗ under `finish`, and each
    /// rank's own bytes under `finish_over`, where it holds one lane.
    #[test]
    fn wire_bytes_sum_the_largest_held_contribution_per_tensor() {
        use grace_comm::{FaultStats, ThreadedCluster};
        use std::sync::Arc;

        /// A gathered method shipping a gradient's nonzeros and their
        /// indices, so payload sizes differ with each lane's data.
        struct Nonzeros;
        impl Compressor for Nonzeros {
            fn name(&self) -> String {
                "Nonzeros".to_string()
            }
            fn compress(&mut self, t: &Tensor, _name: &str) -> (Vec<Payload>, Context) {
                let nonzero = t.as_slice().iter().enumerate().filter(|(_, v)| **v != 0.0);
                let (idx, vals) = nonzero.map(|(i, v)| (i as u32, *v)).unzip();
                let ctx = Context::shape_only(t.shape().clone());
                (vec![Payload::U32(idx), Payload::F32(vals)], ctx)
            }
            fn decompress(&mut self, p: &[Payload], ctx: &Context) -> Tensor {
                let mut out = Tensor::zeros(ctx.shape.clone());
                for (&i, &v) in p[0].as_u32().iter().zip(p[1].as_f32()) {
                    out.as_mut_slice()[i as usize] = v;
                }
                out
            }
        }

        let tensor = |name: &str, v: &[f32]| (name.to_string(), Tensor::from_vec(v.to_vec()));
        // 8 bytes per nonzero: 'a' ships 24 and 8 bytes, 'b' 8 and 16.
        let inputs = vec![
            vec![tensor("a", &[1.0, 2.0, 3.0, 0.0]), tensor("b", &[5.0, 0.0])],
            vec![tensor("a", &[0.0, 0.0, 4.0, 0.0]), tensor("b", &[6.0, 7.0])],
        ];
        let mut cs: Vec<Box<dyn Compressor>> = vec![Box::new(Nonzeros), Box::new(Nonzeros)];
        let mut local = GradientExchange::from_compressors(&mut cs);
        let (want, report) = run_step(&mut local, usize::MAX, &inputs);
        assert_eq!(report.wire_bytes(), 24 + 16);

        let plan = plan_for(&inputs[0], usize::MAX);
        let faults = Arc::new(FaultPlan::empty());
        let stats = FaultStats::new(2);
        let outs = ThreadedCluster::run(2, |endpoint| {
            let rank = endpoint.rank();
            let comm = FaultyCollective::new(endpoint, Arc::clone(&faults), stats.clone());
            let (mut c, mut m) = (Nonzeros, NoMemory::new());
            let mut engine = GradientExchange::for_rank(rank, &mut c, &mut m);
            let mut session = engine.begin_step(&plan);
            for (name, g) in &inputs[rank] {
                session.submit(rank, name, g);
            }
            let (agg, report) = session.finish_over(&comm).expect("fault-free");
            (agg, report.wire_bytes())
        });
        assert_eq!(outs[0], (want.clone(), 24 + 8));
        assert_eq!(outs[1], (want, 8 + 16));
    }

    /// Where a flipped bit lands decides what it costs: inside one tensor's
    /// frame, that tensor loses the sender's contribution and its bucket
    /// mates do not; in the envelope, the whole rank-bucket is rejected — by
    /// every receiver alike, one detection each; with no sound envelope left
    /// the step is a typed `Corrupted` error.
    #[test]
    fn a_flipped_frame_costs_one_tensor_a_flipped_envelope_the_rank_bucket() {
        let inputs = grads(2, 3.0);
        let frame_a = {
            let (payloads, ctx) = NoCompression::new().compress(&inputs[0][0].1, "a");
            payload::encode_frame(payloads, &ctx.meta).len() as u64
        };
        let both = [1.5, 1.0, -1.0, 2.0];
        let (a1, b1) = (inputs[1][0].1.as_slice(), inputs[1][1].1.as_slice());
        let run = |plan: FaultPlan| collective_step(true, usize::MAX, plan);

        // Envelope: u32 n ‖ u32 len ‖ frame a ‖ u32 len ‖ frame b. Ten bytes
        // into frame b is its first payload's data.
        let in_frame_b = 8 * (4 + 4 + frame_a + 4 + 10);
        let (outs, faults) = run(FaultPlan::empty().with_bit_flip(0, 0, in_frame_b));
        for (got, _) in outs {
            let got = got.expect("rank 1's frames survive");
            assert_eq!(got[0].1.as_slice(), &both, "'a' keeps both contributions");
            assert_eq!(got[1].1.as_slice(), b1, "'b' is rank 1's alone");
        }
        assert_eq!(faults.injected_corruptions, vec![1, 0]);
        assert_eq!(faults.detected_corruptions, vec![1, 1]);

        // Bit 0 is the count word, bit 8·(8 + frame a) tensor b's length.
        for in_envelope in [0, 8 * (4 + 4 + frame_a)] {
            let (outs, faults) = run(FaultPlan::empty().with_bit_flip(0, 0, in_envelope));
            for (got, _) in outs {
                let got = got.expect("rank 1's envelope survives");
                assert_eq!(got[0].1.as_slice(), a1, "bit {in_envelope}");
                assert_eq!(got[1].1.as_slice(), b1, "bit {in_envelope}");
            }
            assert_eq!(faults.detected_corruptions, vec![1, 1], "one per receiver");
        }

        let all_bad = FaultPlan::empty()
            .with_bit_flip(0, 0, 0)
            .with_bit_flip(1, 0, 1);
        let (outs, faults) = run(all_bad);
        for (rank, (got, _)) in outs.into_iter().enumerate() {
            match got {
                Err(ClusterError::Corrupted {
                    rank: r,
                    op,
                    detail,
                }) => {
                    assert_eq!((r, op), (rank, 0));
                    assert!(detail.contains("the plan has 2"), "{detail}");
                }
                other => panic!("rank {rank}: expected Corrupted, got {other:?}"),
            }
        }
        assert_eq!(faults.detected_corruptions, vec![2, 2]);
    }

    /// Lent gradients never show through: an engine whose lane 0 lends each
    /// step the last step's aggregates, overwritten with the new gradient
    /// where the length still fits — as a parameter's buffer is — and that
    /// finishes a step on one plan and then runs steps on a differently
    /// shaped one (the same names at other sizes, one more tensor, another
    /// order) gives every step the bits of a fresh engine fed borrowed
    /// gradients — at either fusion extreme, over one lane and over three.
    #[test]
    fn lent_buffers_never_leak_across_plans_lanes_or_steps() {
        let tensor = |name: &str, len: usize, seed: usize| {
            let values = (0..len).map(|i| ((seed * 31 + i * 7) % 23) as f32 * 0.25 - 2.0);
            (name.to_string(), Tensor::from_vec(values.collect()))
        };
        // Step 0 streams plan A, every later step plan B.
        let stream = |step: usize, seed: usize| match step {
            0 => vec![tensor("a", 4, seed), tensor("b", 2, seed + 1)],
            _ => vec![
                tensor("b", 5, seed),
                tensor("c", 1, seed + 1),
                tensor("a", 3, seed + 2),
            ],
        };
        for lanes in [1, 3] {
            for fusion_bytes in [1, usize::MAX] {
                let (mut cs, mut ms) = fleet(lanes);
                let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
                let mut held: Vec<(String, Tensor)> = Vec::new();
                for step in 0..4 {
                    let inputs: Vec<_> = (0..lanes)
                        .map(|w| stream(step, 10 * step + 3 * w))
                        .collect();
                    let (mut fresh_cs, mut fresh_ms) = fleet(lanes);
                    let mut fresh = GradientExchange::from_fleet(&mut fresh_cs, &mut fresh_ms);
                    let (want, _) = run_step(&mut fresh, fusion_bytes, &inputs);
                    let plan = plan_for(&inputs[0], fusion_bytes);
                    let mut session = engine.begin_step(&plan);
                    for (w, list) in inputs.iter().enumerate() {
                        for (name, g) in list {
                            let mut lent = match held.iter().position(|(n, _)| n == name) {
                                Some(at) if w == 0 && held[at].1.len() == g.len() => {
                                    let mut buffer = held.swap_remove(at).1;
                                    buffer.as_mut_slice().copy_from_slice(g.as_slice());
                                    buffer
                                }
                                _ => g.clone(),
                            };
                            session.submit_owned(w, name, &mut lent);
                            assert!(lent.is_empty(), "the baseline takes the buffer");
                        }
                    }
                    let (got, _) = session.finish();
                    assert_eq!(
                        got, want,
                        "{lanes} lanes, fusion {fusion_bytes}, step {step}"
                    );
                    held = got;
                }
            }
        }
    }

    /// A lone bucket's lent buffer is the one its aggregate comes back in,
    /// at one lane and at two; a gathered method's slots are empty after
    /// the step — its payloads went into the envelopes — and the gradient
    /// lane 0 was lent stays where it was, while the last lane keeps its
    /// buffer as the merge accumulator.
    #[test]
    fn a_lone_lent_buffer_comes_back_as_its_aggregate() {
        for lanes in [1, 2] {
            let (mut cs, mut ms) = fleet(lanes);
            let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
            let inputs = grads(lanes, 1.0);
            let plan = plan_for(&inputs[0], 1);
            let mut session = engine.begin_step(&plan);
            let mut lent_at = Vec::new();
            for (w, list) in inputs.iter().enumerate() {
                for (name, g) in list {
                    let mut lent = g.clone();
                    lent_at.push(lent.as_slice().as_ptr());
                    session.submit_owned(w, name, &mut lent);
                }
            }
            let (agg, _) = session.finish();
            let at: Vec<_> = agg.iter().map(|(_, t)| t.as_slice().as_ptr()).collect();
            assert_eq!(at, lent_at[..agg.len()], "{lanes} lanes");
        }
        let (_, mut ms) = fleet(2);
        let mut cs: Vec<Box<dyn Compressor>> =
            vec![Box::new(Gathered::default()), Box::new(Gathered::default())];
        let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
        let inputs = grads(2, 1.0);
        let mut session = engine.begin_step(&plan_for(&inputs[0], 1));
        for (w, list) in inputs.iter().enumerate() {
            for (name, g) in list {
                let mut lent = g.clone();
                session.submit_owned(w, name, &mut lent);
                if w == 0 {
                    assert_eq!(&lent, g, "a borrowing codec leaves the gradient");
                } else {
                    assert!(lent.is_empty(), "the last lane keeps the buffer");
                }
            }
        }
        let _ = session.finish();
        for stager in &engine.pipeline.stagers {
            assert!(stager.encoded.iter().all(|e| e.payloads.is_empty()));
        }
    }

    #[test]
    fn dropped_session_is_discarded_by_next_begin() {
        let inputs = grads(2, 1.0);
        let plan = plan_for(&inputs[0], usize::MAX);
        let (mut cs, mut ms) = fleet(2);
        let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
        {
            let mut session = engine.begin_step(&plan);
            let (name, g) = &inputs[0][0];
            session.submit(0, name, g);
            // Dropped mid-step (e.g. a worker fault unwound the loop).
        }
        let mut session = engine.begin_step(&plan);
        submit_all(&mut session, &inputs);
        let (agg, _) = session.finish();
        assert_eq!(agg.len(), 2);
    }
}
