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
//!   the reference: decode every contribution and run the method's `Agg`,
//!   folded contribution by contribution into one accumulator
//!   ([`Compressor::fold_gathered`]).
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
//! *natively* homomorphic: the exchange sums their dense buffers, low-rank
//! factors and linear sketches while compressed, one fused buffer per
//! bucket, before a single decode. Every plan therefore leaves them
//! untouched.

use crate::compressor::Compressor;
use crate::exchange::EncodedTensor;
use crate::payload::{self, PayloadError, PayloadView};
use grace_telemetry::{Stage, StageTimer, Track};
use grace_tensor::simd::Fold;
use grace_tensor::{Shape, Tensor};

pub use crate::compressor::Context;
pub use crate::payload::{Payload, PayloadList};

/// How the engine merges gathered contributions into the aggregated tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggregationPlan {
    /// Decode every contribution into one accumulator through the method's
    /// `Agg` ([`Compressor::fold_gathered`]) on lane 0 — the reference path
    /// the other plan must match bit-for-bit.
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
    /// Nanoseconds of the reference fold's first pass, which decodes the
    /// first contribution into the accumulator, serially on the merging
    /// thread (zero under [`AggregationPlan::HomomorphicSum`] — nothing
    /// decodes).
    pub decode_cpu_ns: u64,
    /// Nanoseconds of the rest of the fold: every later contribution folded
    /// onto the sum, and the `1/n` scale.
    pub merge_ns: u64,
}

const DECOMPRESS: Track = Track::Stage(Stage::Decompress);
const AGGREGATE: Track = Track::Stage(Stage::Aggregate);

/// The pooled merge component: owns the fold scratch and the contexts
/// gathered frames are read into, so repeated merges allocate nothing
/// beyond the output tensor. One lives on every exchange engine.
#[derive(Debug)]
pub struct AggMerger {
    plan: AggregationPlan,
    scratch: FoldScratch,
    /// The frame being folded and the one checked ahead of it.
    contexts: [Context; 2],
}

impl AggMerger {
    /// Creates a merger for `plan`.
    pub fn new(plan: AggregationPlan) -> Self {
        AggMerger {
            plan,
            scratch: FoldScratch::new(),
            contexts: std::array::from_fn(|_| Context::shape_only(Shape::scalar())),
        }
    }

    /// Replaces the requested plan.
    pub fn set_plan(&mut self, plan: AggregationPlan) {
        self.plan = plan;
    }

    /// Merges gathered encoded contributions under the requested plan
    /// (downgraded per method), in rank order — the owned twin of
    /// [`merge_frames`](Self::merge_frames), also driven directly by the
    /// reference tests. The reference plan folds every contribution into one
    /// accumulator through [`Compressor::fold_gathered`]; the first pass is
    /// the `decompress` stage, the rest the `aggregate` stage.
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
        let mut fold = ReferenceFold::new(Vec::new());
        let last = parts.len() - 1;
        for (i, part) in parts.iter().enumerate() {
            let payloads = PayloadList::Owned(&part.payloads);
            fold.next(compressor, payloads, &part.ctx, i == last);
        }
        let (out, decode_cpu_ns, merge_ns) = fold.finish(&parts[0].ctx.shape);
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
    /// `Allgather` merge of every exchange session. A frame that fails its
    /// CRC, is malformed, or carries a contribution
    /// [`Compressor::check_gathered`] rejects is a rejected contribution:
    /// the sender's bytes were damaged before deposit, so every receiver
    /// rejects the identical frame and the mean over the survivors is the
    /// same rescaled estimate on all of them. Returns the merged tensor, its
    /// stats and the number of rejected frames.
    ///
    /// Both plans fold each surviving frame's payloads through zero-copy
    /// views into one accumulator, bit-identical to
    /// [`merge_gathered`](Self::merge_gathered) over the survivors (same rank
    /// order, same fold body, same `1/n` scale). Frames are checked one
    /// ahead of the fold, so a frame is rejected before any of its elements
    /// fold and the reference plan knows which survivor is the last.
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
        self.merge_frames_into(compressor, frames, shape, Vec::new())
    }

    /// [`merge_frames`](Self::merge_frames) into a buffer the caller lends —
    /// on the engine's `Allgather` walk, the parameter's own gradient buffer
    /// once its lane has encoded it. The merge overwrites `acc` (the first
    /// fold assigns) and returns it as the merged tensor, so a codec whose
    /// fold writes in place ([`Compressor::fold_gathered`]) allocates no
    /// output; one that moves a decoded tensor in drops it.
    ///
    /// # Errors
    ///
    /// As [`merge_frames`](Self::merge_frames).
    pub fn merge_frames_into<'f>(
        &mut self,
        compressor: &mut dyn Compressor,
        mut frames: impl Iterator<Item = &'f [u8]>,
        shape: &Shape,
        mut acc: Vec<f32>,
    ) -> Result<(Tensor, MergeStats, usize), PayloadError> {
        let plan = effective_plan(self.plan, compressor);
        let mut rejected = 0usize;
        let mut last_error = None;
        // The next surviving frame, its context scalars read into `ctx`.
        let mut survivor = |compressor: &dyn Compressor, ctx: &mut Context| {
            for bytes in frames.by_ref() {
                let checked = payload::decode_frame(bytes).and_then(|frame| {
                    frame.read_meta_into(&mut ctx.meta);
                    compressor.check_gathered(PayloadList::Views(frame.payloads()), ctx)?;
                    Ok(frame)
                });
                match checked {
                    Ok(frame) => return Some(frame),
                    Err(e) => {
                        rejected += 1;
                        last_error = Some(e);
                    }
                }
            }
            None
        };
        let [mut ctx, mut next_ctx] = self.contexts.each_mut();
        for c in [&mut ctx, &mut next_ctx] {
            c.shape.clone_from(shape);
        }
        let mut next = survivor(compressor, next_ctx);
        let mut contributors = 0usize;
        let (out, stats) = if plan == AggregationPlan::HomomorphicSum {
            acc.clear();
            acc.resize(shape.len(), 0.0);
            let mut out = Tensor::new(acc, shape.clone());
            let mut incast_bytes = 0u64;
            let t0 = StageTimer::start();
            while let Some(frame) = next {
                std::mem::swap(&mut ctx, &mut next_ctx);
                next = survivor(compressor, next_ctx);
                let views = frame.payloads();
                incast_bytes += (views.iter().map(PayloadView::encoded_bytes).sum::<usize>()
                    + ctx.meta_bytes()) as u64;
                compressor
                    .homomorphic()
                    .expect("effective plan checked the capability")
                    .fold_encoded(
                        PayloadList::Views(views),
                        ctx,
                        out.as_mut_slice(),
                        contributors == 0,
                        &mut self.scratch,
                    );
                contributors += 1;
            }
            if contributors > 0 {
                let h = compressor.homomorphic().expect("capability checked");
                h.finish_mean(out.as_mut_slice(), contributors);
            }
            let merge_ns = t0.finish("aggregate", AGGREGATE);
            let stats = MergeStats {
                plan,
                incast_bytes,
                decode_cpu_ns: 0,
                merge_ns,
            };
            (out, stats)
        } else {
            let mut fold = ReferenceFold::new(acc);
            while let Some(frame) = next {
                std::mem::swap(&mut ctx, &mut next_ctx);
                next = survivor(compressor, next_ctx);
                let views = PayloadList::Views(frame.payloads());
                fold.next(compressor, views, ctx, next.is_none());
                contributors += 1;
            }
            let (out, decode_cpu_ns, merge_ns) = fold.finish(shape);
            let stats = MergeStats {
                plan,
                incast_bytes: (contributors * shape.len() * 4) as u64,
                decode_cpu_ns,
                merge_ns,
            };
            (out, stats)
        };
        if contributors == 0 {
            let none = || PayloadError::Malformed("no live contributions".to_string());
            return Err(last_error.unwrap_or_else(none));
        }
        Ok((out, stats, rejected))
    }
}

/// The reference plan's merge in progress: every contribution folds, in
/// rank order, into one accumulator through [`Compressor::fold_gathered`].
/// The first pass assigns, the others add, and the last of `n ≥ 2` also
/// multiplies by `1/n` — [`crate::compressor::mean_of`] element by element,
/// in one pass per contribution. The accumulator starts as the buffer the
/// caller lends, whose contents the first pass never reads.
struct ReferenceFold {
    acc: Vec<f32>,
    folded: usize,
    decode_ns: u64,
    /// Times every pass after the first, which decodes onto the sum.
    rest: Option<StageTimer>,
}

impl ReferenceFold {
    fn new(acc: Vec<f32>) -> Self {
        ReferenceFold {
            acc,
            folded: 0,
            decode_ns: 0,
            rest: None,
        }
    }

    /// Folds the next contribution; `last` says whether it is the last.
    fn next(
        &mut self,
        compressor: &mut dyn Compressor,
        payloads: PayloadList<'_>,
        ctx: &Context,
        last: bool,
    ) {
        let fold = match (self.folded, last) {
            (0, _) => Fold::Assign,
            (_, false) => Fold::Add,
            (i, true) => Fold::AddScale(1.0 / (i + 1) as f32),
        };
        let t0 = (self.folded == 0).then(StageTimer::start);
        compressor.fold_gathered(payloads, ctx, &mut self.acc, fold);
        if let Some(t0) = t0 {
            self.decode_ns = t0.finish("decompress", DECOMPRESS);
            self.rest = Some(StageTimer::start());
        }
        self.folded += 1;
    }

    /// The mean over the folded contributions as a tensor of `shape`, with
    /// the `decompress` and `aggregate` nanoseconds. Nothing folded yields
    /// an empty tensor, which no caller returns.
    fn finish(mut self, shape: &Shape) -> (Tensor, u64, u64) {
        let Some(rest) = self.rest else {
            return (Tensor::from_vec(Vec::new()), 0, 0);
        };
        if self.folded == 1 {
            // `mean_of` scales a lone contribution by `1/1` too, which
            // quiets a signalling NaN; the opaque factor keeps the multiply.
            let one = std::hint::black_box(1.0f32);
            self.acc.iter_mut().for_each(|v| *v *= one);
        }
        let merge_ns = rest.finish("aggregate", AGGREGATE);
        (
            Tensor::new(self.acc, shape.clone()),
            self.decode_ns,
            merge_ns,
        )
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
