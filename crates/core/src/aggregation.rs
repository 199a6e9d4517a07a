//! Pluggable aggregation strategies for the gather-side `Agg` merge.
//!
//! GRACE's Algorithm 1 fixes aggregation to decompress → `Agg` at the gather
//! point, so every `Allgather` method pays dense-tensor CPU and incast bytes
//! at the aggregator even when the encoding is sum-compatible (THC makes the
//! case for aggregating directly on compressed payloads; SparCML for sparse
//! index/value streams). This module turns that hard-coded path into an
//! [`AggregationPlan`] with two interchangeable strategies:
//!
//! * [`AggregationPlan::DecodeThenMerge`] — the paper's behaviour, kept as
//!   the reference: decode every contribution, then run the method's `Agg`.
//! * [`AggregationPlan::HomomorphicSum`] — never materialize per-worker
//!   dense tensors at all: compressors advertising the
//!   [`HomomorphicAggregate`] capability fold each *encoded* contribution
//!   straight into the accumulator (codebook-space accumulation with a
//!   shared-scale exchange for uniform quantizers, linear scatter-add for
//!   sketches). Incast bytes at the merge point drop from `n × dense` to
//!   the sum of the compressed wire sizes.
//!
//! # The bit-equivalence contract
//!
//! Changing *on what representation* `Agg` runs must never change trained
//! bits. f32 addition is commutative but not associative, so a homomorphic
//! fold adds contributions in **rank order** with the first contribution
//! *assigned* (not added onto zero — `0.0 + (-0.0)` is `+0.0` while
//! assignment preserves `-0.0`) and scales by the same `1/n` multiply the
//! reference `mean_of` applies, using the exact per-element float
//! expression of the method's `decompress`; that makes it bit-identical to
//! decode-then-merge by construction. A method without the capability —
//! including any whose `Agg` is data-dependent — runs the reference path
//! ([`effective_plan`]).
//!
//! `Allreduce` methods (Baseline, PowerSGD, SketchedSGD, Spectral) are
//! *natively* homomorphic: their dense buffers, low-rank factors and linear
//! sketches are summed while compressed by [`crate::exchange::mean_payloads`]
//! before a single decode. Every plan therefore leaves them untouched.

use crate::compressor::Compressor;
use crate::exchange::EncodedTensor;
use crate::payload::{self, PayloadError, PayloadView};
use grace_telemetry::{Stage, StageTimer, Track};
use grace_tensor::{Shape, Tensor};

pub use crate::compressor::Context;
pub use crate::payload::{Payload, PayloadList};

/// How the engine merges gathered contributions into the aggregated tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggregationPlan {
    /// Decode every contribution, then run the method's `Agg` on lane 0 —
    /// the reference path the other plan must match bit-for-bit.
    #[default]
    DecodeThenMerge,
    /// Fold *encoded* contributions directly into the accumulator via
    /// [`HomomorphicAggregate`]; methods without the capability run
    /// [`DecodeThenMerge`](Self::DecodeThenMerge).
    HomomorphicSum,
}

impl AggregationPlan {
    /// Both plans, reference first.
    pub const ALL: [AggregationPlan; 2] = [
        AggregationPlan::DecodeThenMerge,
        AggregationPlan::HomomorphicSum,
    ];
}

impl std::fmt::Display for AggregationPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregationPlan::DecodeThenMerge => write!(f, "decode_then_merge"),
            AggregationPlan::HomomorphicSum => write!(f, "homomorphic_sum"),
        }
    }
}

/// Reusable scratch pools for [`HomomorphicAggregate::fold_encoded`]: once
/// warm, folds unpack into these instead of allocating per contribution.
#[derive(Debug, Default)]
pub struct FoldScratch {
    /// Primary code stream (quantizer codes, sketch bucket codes).
    pub codes: Vec<u32>,
    /// Secondary stream (sparse index deltas).
    pub aux: Vec<u32>,
}

impl FoldScratch {
    /// Empty scratch; pools grow on first use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Capability trait for compressors whose encoded form is sum-compatible:
/// the aggregator folds each worker's payloads straight into a dense
/// accumulator without materializing per-worker tensors.
///
/// # Contract
///
/// `fold_encoded(p_w, acc, first=w==0)` over workers in rank order followed
/// by `finish_mean(acc, n)` must produce **bit-identical** output to
/// decoding every contribution and running the method's `Agg`
/// ([`crate::compressor::mean_of`] elementwise: assign worker 0, `+=` the
/// rest, multiply by `1/n`). In particular:
///
/// * When `first` is true, `acc` contents are unspecified; the fold must
///   *assign* every element (dense codebooks) or zero-fill then scatter
///   (sparse streams whose decode starts from a zero tensor).
/// * Per-element values must use the exact float expression of the method's
///   `decompress` — same table lookups, same multiply order.
pub trait HomomorphicAggregate {
    /// Folds one worker's encoded contribution into `acc`.
    ///
    /// The contribution arrives as a [`PayloadList`] so the same fold body
    /// serves both owned payloads (in-process engine) and zero-copy frame
    /// views (socket transport) — implementations read through
    /// [`crate::payload::PayloadView`] accessors and never materialize a
    /// `Vec<u8>` body.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `acc.len()` differs from the context
    /// shape or payloads are malformed.
    fn fold_encoded(
        &mut self,
        payloads: PayloadList<'_>,
        ctx: &Context,
        acc: &mut [f32],
        first: bool,
        scratch: &mut FoldScratch,
    );

    /// Turns the accumulated sum into the mean over `contributors`. The
    /// default multiplies by `1.0 / contributors`, matching
    /// [`crate::compressor::mean_of`] bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `contributors` is zero (division yields `inf` scale — the
    /// default asserts instead).
    fn finish_mean(&mut self, acc: &mut [f32], contributors: usize) {
        assert!(contributors > 0, "mean over zero contributors");
        let inv = 1.0 / contributors as f32;
        for v in acc.iter_mut() {
            *v *= inv;
        }
    }
}

/// Resolves the plan a compressor actually runs under:
/// [`AggregationPlan::HomomorphicSum`] without the [`HomomorphicAggregate`]
/// capability runs the reference [`AggregationPlan::DecodeThenMerge`].
pub fn effective_plan(
    requested: AggregationPlan,
    compressor: &mut dyn Compressor,
) -> AggregationPlan {
    if requested == AggregationPlan::HomomorphicSum && compressor.homomorphic().is_none() {
        AggregationPlan::DecodeThenMerge
    } else {
        requested
    }
}

/// Merge-point accounting for one tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeStats {
    /// The plan that actually ran (after [`effective_plan`]).
    pub plan: AggregationPlan,
    /// Bytes of the representation entering the merge point: `n × dense`
    /// for the reference plan, the sum of compressed wire sizes for
    /// [`AggregationPlan::HomomorphicSum`].
    pub incast_bytes: u64,
    /// Nanoseconds spent decompressing contributions, serially on the
    /// merging thread (zero under [`AggregationPlan::HomomorphicSum`] —
    /// nothing decodes).
    pub decode_cpu_ns: u64,
    /// Nanoseconds spent in the merge fold itself.
    pub merge_ns: u64,
}

const DECOMPRESS: Track = Track::Stage(Stage::Decompress);
const AGGREGATE: Track = Track::Stage(Stage::Aggregate);

/// The pooled merge component: owns the fold scratch so repeated merges
/// allocate nothing beyond the output tensor. One lives on every exchange
/// engine.
#[derive(Debug)]
pub struct AggMerger {
    plan: AggregationPlan,
    scratch: FoldScratch,
}

impl AggMerger {
    /// Creates a merger for `plan`.
    pub fn new(plan: AggregationPlan) -> Self {
        AggMerger {
            plan,
            scratch: FoldScratch::new(),
        }
    }

    /// Replaces the requested plan.
    pub fn set_plan(&mut self, plan: AggregationPlan) {
        self.plan = plan;
    }

    /// Merges gathered encoded contributions under the requested plan
    /// (downgraded per method), in rank order — the one `Allgather` merge
    /// behind both session endings, also driven directly by the reference
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn merge_gathered(
        &mut self,
        compressor: &mut dyn Compressor,
        parts: &[EncodedTensor],
    ) -> (Tensor, MergeStats) {
        assert!(!parts.is_empty(), "cannot aggregate zero contributions");
        let plan = effective_plan(self.plan, compressor);
        let n = parts.len() as u64;
        let dense_bytes = n * (parts[0].ctx.shape.len() * 4) as u64;
        // Stage time flows through `StageTimer`, so every backend's merge
        // leaves the same `decompress`/`aggregate` spans on the stage tracks.
        if plan == AggregationPlan::HomomorphicSum {
            let mut out = Tensor::zeros(parts[0].ctx.shape.clone());
            let t0 = StageTimer::start();
            let incast_bytes = self.fold_homomorphic_into(compressor, parts, &mut out);
            let merge_ns = t0.finish("aggregate", AGGREGATE);
            let stats = MergeStats {
                plan,
                incast_bytes,
                decode_cpu_ns: 0,
                merge_ns,
            };
            return (out, stats);
        }
        let t0 = StageTimer::start();
        let decoded: Vec<Tensor> = parts
            .iter()
            .map(|e| compressor.decompress(&e.payloads, &e.ctx))
            .collect();
        let decode_cpu_ns = t0.finish("decompress", DECOMPRESS);
        let t1 = StageTimer::start();
        let out = compressor.aggregate(decoded);
        let merge_ns = t1.finish("aggregate", AGGREGATE);
        let stats = MergeStats {
            plan,
            incast_bytes: dense_bytes,
            decode_cpu_ns,
            merge_ns,
        };
        (out, stats)
    }

    /// Folds encoded contributions into `out` via the compressor's
    /// [`HomomorphicAggregate`] capability. `out` is resized to the context
    /// shape reusing its buffer, so pooled callers passing the same tensor
    /// every step allocate nothing once warm. Returns the encoded incast
    /// bytes that entered the merge.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the compressor does not advertise
    /// [`HomomorphicAggregate`].
    pub fn fold_homomorphic_into(
        &mut self,
        compressor: &mut dyn Compressor,
        parts: &[EncodedTensor],
        out: &mut Tensor,
    ) -> u64 {
        assert!(!parts.is_empty(), "cannot aggregate zero contributions");
        let incast_bytes: u64 = parts.iter().map(|p| p.wire_bytes() as u64).sum();
        out.reset_for(&parts[0].ctx.shape);
        let h = compressor
            .homomorphic()
            .expect("compressor does not support HomomorphicSum");
        let acc = out.as_mut_slice();
        for (w, part) in parts.iter().enumerate() {
            h.fold_encoded(
                PayloadList::Owned(&part.payloads),
                &part.ctx,
                acc,
                w == 0,
                &mut self.scratch,
            );
        }
        h.finish_mean(acc, parts.len());
        incast_bytes
    }

    /// Merges one tensor's gathered frames ([`payload::encode_frame`] bytes,
    /// one per live rank, in rank order) under the requested plan — the
    /// rank-side `Allgather` merge of every real backend. A frame that fails
    /// its CRC or is malformed is a rejected contribution: the sender's
    /// bytes were damaged before deposit, so every receiver rejects the
    /// identical frame and the mean over the survivors is the same rescaled
    /// estimate on all of them. Returns the merged tensor, its stats and the
    /// number of rejected frames.
    ///
    /// [`AggregationPlan::HomomorphicSum`] folds each frame's payloads
    /// through zero-copy views, bit-identical to the owned
    /// [`fold_homomorphic_into`](Self::fold_homomorphic_into) (same rank
    /// order, same fold body, same `1/n` scale); the reference plan
    /// materializes the survivors and runs [`merge_gathered`](Self::merge_gathered).
    ///
    /// # Errors
    ///
    /// The last rejection when no frame survived.
    pub fn merge_frames<'f>(
        &mut self,
        compressor: &mut dyn Compressor,
        frames: impl Iterator<Item = &'f [u8]>,
        shape: &Shape,
    ) -> Result<(Tensor, MergeStats, usize), PayloadError> {
        let plan = effective_plan(self.plan, compressor);
        let mut rejected = 0usize;
        let mut last_error = PayloadError::Malformed("no live contributions".to_string());
        // A frame is rejected before any of its elements fold, so it never
        // contaminates the accumulator.
        let survivors = frames.filter_map(|bytes| match payload::decode_frame(bytes) {
            Ok(frame) => Some(frame),
            Err(e) => {
                rejected += 1;
                last_error = e;
                None
            }
        });
        let mut ctx = Context::with_meta(shape.clone(), Vec::new());
        if plan != AggregationPlan::HomomorphicSum {
            let parts: Vec<EncodedTensor> = survivors
                .map(|frame| {
                    frame.read_meta_into(&mut ctx.meta);
                    EncodedTensor {
                        payloads: frame.payloads().iter().map(|v| v.to_payload()).collect(),
                        ctx: ctx.clone(),
                    }
                })
                .collect();
            if parts.is_empty() {
                return Err(last_error);
            }
            let (out, stats) = self.merge_gathered(compressor, &parts);
            return Ok((out, stats, rejected));
        }
        let h = compressor
            .homomorphic()
            .expect("effective plan checked the capability");
        let mut out = Tensor::zeros(shape.clone());
        let mut contributors = 0usize;
        let mut incast_bytes = 0u64;
        let t0 = StageTimer::start();
        for frame in survivors {
            frame.read_meta_into(&mut ctx.meta);
            let views = frame.payloads();
            incast_bytes += (views.iter().map(PayloadView::encoded_bytes).sum::<usize>()
                + ctx.meta_bytes()) as u64;
            h.fold_encoded(
                PayloadList::Views(views),
                &ctx,
                out.as_mut_slice(),
                contributors == 0,
                &mut self.scratch,
            );
            contributors += 1;
        }
        if contributors == 0 {
            return Err(last_error);
        }
        h.finish_mean(out.as_mut_slice(), contributors);
        let merge_ns = t0.finish("aggregate", AGGREGATE);
        let stats = MergeStats {
            plan,
            incast_bytes,
            decode_cpu_ns: 0,
            merge_ns,
        };
        Ok((out, stats, rejected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_the_reference() {
        // `TrainConfig::new` and `RunnerConfig::default` take their plan
        // from `default()`; both plans are bit-transparent, so only this
        // assertion notices the `#[default]` moving.
        assert_eq!(AggregationPlan::default(), AggregationPlan::DecodeThenMerge);
        assert_eq!(AggregationPlan::ALL[0], AggregationPlan::default());
        assert_eq!(
            AggregationPlan::HomomorphicSum.to_string(),
            "homomorphic_sum"
        );
    }
}
