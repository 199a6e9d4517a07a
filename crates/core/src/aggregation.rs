//! Pluggable aggregation strategies for the gather-side `Agg` merge.
//!
//! GRACE's Algorithm 1 fixes aggregation to decompress → `Agg` at the gather
//! point, so every `Allgather` method pays dense-tensor CPU and incast bytes
//! at the aggregator even when the encoding is sum-compatible (THC makes the
//! case for aggregating directly on compressed payloads; SparCML for sparse
//! index/value streams). This module turns that hard-coded path into an
//! [`AggregationPlan`] with three interchangeable strategies:
//!
//! * [`AggregationPlan::DecodeThenMerge`] — today's behaviour, kept as the
//!   reference: decode every contribution, then run the method's `Agg`.
//! * [`AggregationPlan::ShardedMerge`] — reduce-scatter-style merge: each
//!   merge shard owns a slice of the element space and folds every
//!   worker's decoded slice in rank order, then the slices concatenate
//!   (they already live in one buffer, so "concatenate" is free).
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
//! Changing *where* and *on what representation* `Agg` runs must never
//! change trained bits. f32 addition is commutative but not associative, so
//! every strategy folds contributions in **rank order** with the first
//! contribution *assigned* (not added onto zero — `0.0 + (-0.0)` is `+0.0`
//! while assignment preserves `-0.0`) and scales by the same `1/n` multiply
//! the reference `mean_of` applies. Homomorphic folds use the exact
//! per-element float expression of the method's `decompress`, which makes
//! them bit-identical to decode-then-merge by construction. The per-method
//! gate is [`AggAlgebra`]: anything data-dependent (threshold re-selection
//! in `Agg`) keeps the reference path via the downgrade chain in
//! [`effective_plan`].
//!
//! `Allreduce` methods (Baseline, PowerSGD, SketchedSGD, Spectral) are
//! *natively* homomorphic: their dense buffers, low-rank factors and linear
//! sketches are summed while compressed by [`crate::exchange::mean_payloads`]
//! before a single decode. Every plan therefore leaves them untouched.

use std::time::Instant;

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
    /// the reference path every other plan must match bit-for-bit.
    #[default]
    DecodeThenMerge,
    /// Fold decoded contributions shard-by-shard over the element space
    /// (rank order within each shard). Requires
    /// [`AggAlgebra::MeanElementwise`].
    ShardedMerge,
    /// Fold *encoded* contributions directly into the accumulator via
    /// [`HomomorphicAggregate`]; falls back down the chain for methods
    /// without the capability.
    HomomorphicSum,
}

impl AggregationPlan {
    /// Every plan, in downgrade-chain order.
    pub const ALL: [AggregationPlan; 3] = [
        AggregationPlan::DecodeThenMerge,
        AggregationPlan::ShardedMerge,
        AggregationPlan::HomomorphicSum,
    ];

    /// Parses a plan name (the [`Display`](std::fmt::Display) form or a
    /// short alias).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "decode_then_merge" | "decode" | "reference" => Some(AggregationPlan::DecodeThenMerge),
            "sharded_merge" | "sharded" => Some(AggregationPlan::ShardedMerge),
            "homomorphic_sum" | "homomorphic" => Some(AggregationPlan::HomomorphicSum),
            _ => None,
        }
    }
}

impl std::fmt::Display for AggregationPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregationPlan::DecodeThenMerge => write!(f, "decode_then_merge"),
            AggregationPlan::ShardedMerge => write!(f, "sharded_merge"),
            AggregationPlan::HomomorphicSum => write!(f, "homomorphic_sum"),
        }
    }
}

impl std::str::FromStr for AggregationPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s).ok_or_else(|| {
            format!("unknown aggregation plan '{s}' (decode_then_merge | sharded_merge | homomorphic_sum)")
        })
    }
}

/// The associativity/commutativity audit of a method's `Agg`, declared by
/// the compressor itself ([`Compressor::agg_algebra`]) — the machine-readable
/// opt-out list the conformance suite checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggAlgebra {
    /// `Agg` is the elementwise mean (the [`crate::compressor::mean_of`]
    /// default): folding per-element in rank order is exact at any shard
    /// grain, so [`AggregationPlan::ShardedMerge`] applies.
    #[default]
    MeanElementwise,
    /// `Agg` inspects the whole tensor set (threshold re-selection, ranking,
    /// any data-dependent reduction). Only the reference
    /// [`AggregationPlan::DecodeThenMerge`] preserves its semantics.
    DataDependent,
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

/// Resolves the plan a compressor actually runs under — the downgrade
/// chain: [`AggregationPlan::HomomorphicSum`] without the
/// [`HomomorphicAggregate`] capability degrades to
/// [`AggregationPlan::ShardedMerge`]; that (and only that) degrades to the
/// reference when the method's [`AggAlgebra`] is data-dependent.
pub fn effective_plan(
    requested: AggregationPlan,
    compressor: &mut dyn Compressor,
) -> AggregationPlan {
    match requested {
        AggregationPlan::DecodeThenMerge => AggregationPlan::DecodeThenMerge,
        AggregationPlan::ShardedMerge => match compressor.agg_algebra() {
            AggAlgebra::MeanElementwise => AggregationPlan::ShardedMerge,
            AggAlgebra::DataDependent => AggregationPlan::DecodeThenMerge,
        },
        AggregationPlan::HomomorphicSum => {
            if compressor.homomorphic().is_some() {
                AggregationPlan::HomomorphicSum
            } else {
                effective_plan(AggregationPlan::ShardedMerge, compressor)
            }
        }
    }
}

/// Merge-point accounting for one tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeStats {
    /// The plan that actually ran (after the downgrade chain).
    pub plan: AggregationPlan,
    /// Bytes of the representation entering the merge point: `n × dense`
    /// for decoded merges, the sum of compressed wire sizes for
    /// [`AggregationPlan::HomomorphicSum`].
    pub incast_bytes: u64,
    /// CPU nanoseconds spent decompressing contributions (zero under
    /// [`AggregationPlan::HomomorphicSum`] — nothing decodes).
    pub decode_cpu_ns: u64,
    /// CPU nanoseconds spent in the merge fold itself, summed over shards.
    pub merge_cpu_ns: u64,
    /// Wall nanoseconds of the merge fold (equals
    /// [`merge_cpu_ns`](Self::merge_cpu_ns) on serial folds).
    pub merge_wall_ns: u64,
}

const DECOMPRESS: Track = Track::Stage(Stage::Decompress);
const AGGREGATE: Track = Track::Stage(Stage::Aggregate);

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Serial-or-sharded rank-order fold of `rest` into `acc`, then the `1/n`
/// scale. Per element the arithmetic is identical at every shard count:
/// contributions add in rank order and the scale is one multiply. Returns
/// CPU nanoseconds summed over shards.
fn fold_shards(acc: &mut [f32], rest: &[&[f32]], inv: f32, shards: usize) -> u64 {
    for src in rest {
        assert_eq!(src.len(), acc.len(), "sharded merge shape mismatch");
    }
    let len = acc.len();
    let shards = shards.clamp(1, len.max(1));
    if shards <= 1 {
        let t0 = Instant::now();
        for src in rest {
            for (a, b) in acc.iter_mut().zip(*src) {
                *a += *b;
            }
        }
        for a in acc.iter_mut() {
            *a *= inv;
        }
        return elapsed_ns(t0);
    }
    let chunk = len.div_ceil(shards);
    std::thread::scope(|scope| {
        let handles: Vec<_> = acc
            .chunks_mut(chunk)
            .enumerate()
            .map(|(k, dst)| {
                let off = k * chunk;
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let width = dst.len();
                    for src in rest {
                        for (a, b) in dst.iter_mut().zip(&src[off..off + width]) {
                            *a += *b;
                        }
                    }
                    for a in dst.iter_mut() {
                        *a *= inv;
                    }
                    elapsed_ns(t0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard fold thread panicked"))
            .sum()
    })
}

/// Sharded elementwise mean consuming the decoded parts, reusing
/// `parts[0]`'s buffer as the accumulator exactly like
/// [`crate::compressor::mean_of`] (move-assign the first contribution, add
/// the rest in rank order, scale by `1/n`). Returns the mean and the CPU
/// nanoseconds summed over shards.
///
/// # Panics
///
/// Panics if `parts` is empty or shapes mismatch.
pub fn sharded_mean_in_place(mut parts: Vec<Tensor>, shards: usize) -> (Tensor, u64) {
    assert!(!parts.is_empty(), "cannot aggregate zero tensors");
    let inv = 1.0 / parts.len() as f32;
    let (first, rest) = parts.split_at_mut(1);
    let rest: Vec<&[f32]> = rest.iter().map(Tensor::as_slice).collect();
    let cpu_ns = fold_shards(first[0].as_mut_slice(), &rest, inv, shards);
    (parts.swap_remove(0), cpu_ns)
}

/// Pooled variant of [`sharded_mean_in_place`]: writes the mean into `out`
/// (copy-assign the first contribution, fold the rest), leaving `parts`
/// untouched. With `shards <= 1` the steady state performs **zero**
/// allocations once `out` has capacity — the path the counting-allocator
/// suite fences. Returns merge CPU nanoseconds.
///
/// # Panics
///
/// Panics if `parts` is empty or shapes mismatch.
pub fn sharded_mean_into(parts: &[Tensor], out: &mut Tensor, shards: usize) -> u64 {
    assert!(!parts.is_empty(), "cannot aggregate zero tensors");
    out.copy_from(&parts[0]);
    let inv = 1.0 / parts.len() as f32;
    if shards <= 1 {
        let t0 = Instant::now();
        let acc = out.as_mut_slice();
        for p in &parts[1..] {
            let src = p.as_slice();
            assert_eq!(src.len(), acc.len(), "sharded merge shape mismatch");
            for (a, b) in acc.iter_mut().zip(src) {
                *a += *b;
            }
        }
        for a in acc.iter_mut() {
            *a *= inv;
        }
        elapsed_ns(t0)
    } else {
        let rest: Vec<&[f32]> = parts[1..].iter().map(Tensor::as_slice).collect();
        fold_shards(out.as_mut_slice(), &rest, inv, shards)
    }
}

/// The pooled merge component: owns the fold scratch (and the shard width)
/// so repeated merges allocate nothing beyond the output tensor. One lives
/// on every exchange engine.
#[derive(Debug)]
pub struct AggMerger {
    plan: AggregationPlan,
    shards: usize,
    scratch: FoldScratch,
}

impl AggMerger {
    /// Creates a merger for `plan` with a serial (single-shard) fold.
    pub fn new(plan: AggregationPlan) -> Self {
        AggMerger {
            plan,
            shards: 1,
            scratch: FoldScratch::new(),
        }
    }

    /// Replaces the requested plan.
    pub fn set_plan(&mut self, plan: AggregationPlan) {
        self.plan = plan;
    }

    /// Sets the shard width of decoded merges.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn set_shards(&mut self, shards: usize) {
        assert!(shards > 0, "need at least one merge shard");
        self.shards = shards;
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
                merge_cpu_ns: merge_ns,
                merge_wall_ns: merge_ns,
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
        let (out, shard_cpu_ns) = if plan == AggregationPlan::ShardedMerge {
            let (out, cpu_ns) = sharded_mean_in_place(decoded, self.shards);
            (out, Some(cpu_ns))
        } else {
            (compressor.aggregate(decoded), None)
        };
        let merge_wall_ns = t1.finish("aggregate", AGGREGATE);
        let stats = MergeStats {
            plan,
            incast_bytes: dense_bytes,
            decode_cpu_ns,
            // The method's own `Agg` runs serially (CPU == wall); the
            // sharded fold reports per-shard CPU.
            merge_cpu_ns: shard_cpu_ns.unwrap_or(merge_wall_ns),
            merge_wall_ns,
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
    /// order, same fold body, same `1/n` scale); the decoded plans
    /// materialize the survivors and run [`merge_gathered`](Self::merge_gathered).
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
            merge_cpu_ns: merge_ns,
            merge_wall_ns: merge_ns,
        };
        Ok((out, stats, rejected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::mean_of;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn parts() -> Vec<Tensor> {
        vec![
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0]),
            Tensor::from_vec(vec![-1.0, 0.5, 2.0, -4.0, 0.0]),
            Tensor::from_vec(vec![0.25, -2.0, 1.0, 8.0, -5.0]),
        ]
    }

    #[test]
    fn plan_parsing_round_trips() {
        for plan in AggregationPlan::ALL {
            assert_eq!(AggregationPlan::parse(&plan.to_string()), Some(plan));
        }
        assert_eq!(
            AggregationPlan::parse("HOMOMORPHIC"),
            Some(AggregationPlan::HomomorphicSum)
        );
        assert_eq!(AggregationPlan::parse("nope"), None);
        // `TrainConfig::new` and `RunnerConfig::default` take their plan
        // from `default()`; every plan is bit-transparent, so only this
        // assertion notices the `#[default]` moving.
        assert_eq!(AggregationPlan::default(), AggregationPlan::DecodeThenMerge);
    }

    #[test]
    fn sharded_mean_matches_mean_of_at_any_shard_count() {
        let reference = mean_of(parts());
        for shards in [1, 2, 3, 5, 64] {
            let (sharded, _) = sharded_mean_in_place(parts(), shards);
            assert_eq!(bits(&sharded), bits(&reference), "shards={shards}");
            let mut pooled = Tensor::zeros(Shape::vector(5));
            sharded_mean_into(&parts(), &mut pooled, shards);
            assert_eq!(bits(&pooled), bits(&reference), "pooled shards={shards}");
        }
    }

    #[test]
    fn sharded_mean_preserves_negative_zero_in_rank_zero() {
        // mean_of *moves* worker 0 in as the accumulator, so a -0.0 it
        // decoded stays -0.0 (0.0 + -0.0 would flip it to +0.0). The fold
        // must behave identically.
        let p = vec![
            Tensor::from_vec(vec![-0.0, 1.0]),
            Tensor::from_vec(vec![0.0, 1.0]),
        ];
        let reference = mean_of(p.clone());
        let (sharded, _) = sharded_mean_in_place(p.clone(), 2);
        assert_eq!(bits(&sharded), bits(&reference));
        let mut pooled = Tensor::zeros(Shape::vector(2));
        sharded_mean_into(&p, &mut pooled, 1);
        assert_eq!(bits(&pooled), bits(&reference));
    }

    #[test]
    #[should_panic(expected = "zero tensors")]
    fn sharded_mean_rejects_empty() {
        let _ = sharded_mean_in_place(Vec::new(), 2);
    }
}
