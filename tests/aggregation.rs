//! Aggregation-plan conformance suite: the audit of which methods may fold
//! encoded contributions, and the proof that doing so never moves a bit.
//!
//! Both pluggable plans ([`grace::core::AggregationPlan`]) must produce
//! **bit-identical** merges for every registered and extension method, for
//! any gathered contribution set. Worker *permutation* is only
//! approximately invariant (f32 addition is commutative but not
//! associative), and that tolerance is asserted too. The capability table
//! is machine-readable: a method advertising
//! [`grace::core::HomomorphicAggregate`] must appear in `HOMOMORPHIC` below,
//! and every other method — including one whose `Agg` is data-dependent —
//! runs the reference plan.
//!
//! Gradients come from seeded proptest strategies, so failures replay.

use grace::compressors::extensions::extension_specs;
use grace::compressors::registry;
use grace::core::exchange::decode_gathered;
use grace::core::{
    AggMerger, AggregationPlan, CommStrategy, Compressor, CompressorSpec, Context, EncodedTensor,
    Payload, PayloadList,
};
use grace::tensor::simd::Fold;
use grace::tensor::Tensor;
use proptest::prelude::*;

const N_WORKERS: usize = 3;

/// Methods advertising the [`grace::core::HomomorphicAggregate`] capability:
/// codebook-space accumulation for the shared-scale quantizers, linear
/// scatter-add for the sketch. (The `Allreduce` families — Baseline,
/// PowerSGD, SketchedSGD, Spectral — are *natively* homomorphic: the
/// exchange sums their payloads while compressed, and they never reach the
/// gather-side merge.)
const HOMOMORPHIC: &[&str] = &["eightbit", "lpcsvrg", "threelc", "sketchml"];

fn all_specs() -> Vec<CompressorSpec> {
    let mut specs = registry::all_specs();
    specs.extend(extension_specs());
    specs
}

/// Compresses one deterministic gradient per worker with per-worker-seeded
/// compressor instances — the same fleet shape the engine drives.
fn gather(spec: &CompressorSpec, data: &[f32]) -> Vec<EncodedTensor> {
    (0..N_WORKERS)
        .map(|w| {
            let mut c = (spec.build)(100 + w as u64);
            let per_worker: Vec<f32> = data
                .iter()
                .enumerate()
                .map(|(i, &v)| v + (w as f32) * 0.13 * ((i % 7) as f32 - 3.0))
                .collect();
            let (payloads, ctx) = c.compress(&Tensor::from_vec(per_worker), "t/w");
            EncodedTensor { payloads, ctx }
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn gradient_values() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, 8..160)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole contract: for every registered + extension method, every
    /// plan's merge is bit-identical to the reference decode-then-`Agg`.
    #[test]
    fn every_plan_is_bit_identical_to_the_reference(data in gradient_values()) {
        for spec in all_specs() {
            let parts = gather(&spec, &data);
            let mut reference_c = (spec.build)(100);
            let expect = decode_gathered(reference_c.as_mut(), &parts);
            for plan in AggregationPlan::ALL {
                let mut c = (spec.build)(100);
                let mut merger = AggMerger::new(plan);
                let (got, stats) = merger.merge_gathered(c.as_mut(), &parts);
                prop_assert_eq!(
                    bits(&got),
                    bits(&expect),
                    "{} under {} (ran as {})",
                    spec.id,
                    plan,
                    stats.plan
                );
            }
        }
    }

    /// Worker permutation is *approximately* invariant (f32 addition
    /// commutes but does not associate): reversing the gathered rank order
    /// moves the mean by at most a few ulps per contribution.
    #[test]
    fn worker_permutation_shifts_the_mean_by_ulps_only(data in gradient_values()) {
        for spec in all_specs() {
            let parts = gather(&spec, &data);
            let reversed: Vec<EncodedTensor> = parts.iter().rev().cloned().collect();
            let mut c = (spec.build)(100);
            let mut merger = AggMerger::new(AggregationPlan::default());
            let (fwd, _) = merger.merge_gathered(c.as_mut(), &parts);
            let (rev, _) = merger.merge_gathered(c.as_mut(), &reversed);
            let scale = fwd.norm_inf().max(1.0);
            for (a, b) in fwd.as_slice().iter().zip(rev.as_slice()) {
                prop_assert!(
                    (a - b).abs() <= 1e-4 * scale,
                    "{}: permutation moved {} -> {}",
                    spec.id,
                    a,
                    b
                );
            }
        }
    }
}

/// The machine-readable audit: the homomorphic capability set must match
/// the documented table exactly, and only gathered merges may fold.
#[test]
fn algebra_audit_matches_the_opt_out_list() {
    for spec in all_specs() {
        let mut c = (spec.build)(1);
        let homomorphic = c.homomorphic().is_some();
        assert_eq!(
            homomorphic,
            HOMOMORPHIC.contains(&spec.id),
            "'{}' homomorphic capability disagrees with HOMOMORPHIC",
            spec.id
        );
        if homomorphic {
            assert_eq!(
                c.strategy(),
                CommStrategy::Allgather,
                "'{}' fold capability only applies to gathered merges",
                spec.id
            );
        }
    }
}

/// A synthetic method whose `Agg` keeps the largest decoded magnitude — not
/// the mean, so no encoded-space fold reproduces it and it must never be
/// folded while encoded.
struct DataDependentAgg;

impl Compressor for DataDependentAgg {
    fn name(&self) -> String {
        "data-dependent".to_string()
    }

    fn strategy(&self) -> CommStrategy {
        CommStrategy::Allgather
    }

    fn compress(&mut self, tensor: &Tensor, _name: &str) -> (Vec<Payload>, Context) {
        (
            vec![Payload::F32(tensor.as_slice().to_vec())],
            Context::shape_only(tensor.shape().clone()),
        )
    }

    fn decompress(&mut self, payloads: &[Payload], ctx: &Context) -> Tensor {
        Tensor::new(payloads[0].as_f32().to_vec(), ctx.shape.clone())
    }

    fn fold_gathered(
        &mut self,
        payloads: PayloadList<'_>,
        ctx: &Context,
        acc: &mut Vec<f32>,
        fold: Fold,
    ) {
        // Keep only the largest-magnitude contribution per element — a
        // data-dependent reduction no encoded-space fold reproduces.
        let PayloadList::Owned(payloads) = payloads else {
            unreachable!("merge_gathered passes owned payloads")
        };
        let decoded = self.decompress(payloads, ctx).into_vec();
        if fold == Fold::Assign {
            *acc = decoded;
            return;
        }
        for (a, b) in acc.iter_mut().zip(decoded) {
            if b.abs() > a.abs() {
                *a = b;
            }
        }
    }
}

/// The one downgrade: a method without the fold capability runs the
/// reference under `HomomorphicSum` — and for a data-dependent `Agg` the
/// merge output proves the method's own `Agg` actually ran.
#[test]
fn downgrade_chain_respects_capability_and_algebra() {
    use grace::core::effective_plan;

    // A mean-elementwise method without the fold capability.
    let topk = registry::find("topk").unwrap();
    let mut c = (topk.build)(1);
    assert_eq!(
        effective_plan(AggregationPlan::HomomorphicSum, c.as_mut()),
        AggregationPlan::DecodeThenMerge
    );

    // A capable method runs the requested plan unchanged.
    let eightbit = registry::find("eightbit").unwrap();
    let mut c = (eightbit.build)(1);
    assert_eq!(
        effective_plan(AggregationPlan::HomomorphicSum, c.as_mut()),
        AggregationPlan::HomomorphicSum
    );

    // Data-dependent `Agg`: the fold plan degrades to the reference, and
    // the merge truly runs the method's own `Agg`.
    let mut dd = DataDependentAgg;
    assert_eq!(
        effective_plan(AggregationPlan::HomomorphicSum, &mut dd),
        AggregationPlan::DecodeThenMerge
    );
    let parts: Vec<EncodedTensor> = [[1.0f32, -5.0], [-3.0, 2.0]]
        .iter()
        .map(|v| {
            let (payloads, ctx) = dd.compress(&Tensor::from_vec(v.to_vec()), "t");
            EncodedTensor { payloads, ctx }
        })
        .collect();
    for plan in AggregationPlan::ALL {
        let mut merger = AggMerger::new(plan);
        let (out, stats) = merger.merge_gathered(&mut dd, &parts);
        assert_eq!(stats.plan, AggregationPlan::DecodeThenMerge, "{plan}");
        assert_eq!(out.as_slice(), &[-3.0, -5.0], "{plan}");
    }
}

/// Incast accounting: decoded merges absorb `n × dense` bytes; the
/// homomorphic fold absorbs only the compressed wire bytes — the reduction
/// the plan exists to buy.
#[test]
fn homomorphic_fold_shrinks_incast_bytes() {
    let spec = registry::find("eightbit").unwrap();
    let data: Vec<f32> = (0..4096)
        .map(|i| ((i * 37) % 101) as f32 / 50.0 - 1.0)
        .collect();
    let parts = gather(&spec, &data);
    let dense: u64 = (N_WORKERS * data.len() * 4) as u64;
    let wire: u64 = parts.iter().map(|p| p.wire_bytes() as u64).sum();

    let mut c = (spec.build)(100);
    let mut reference = AggMerger::new(AggregationPlan::DecodeThenMerge);
    let (_, ref_stats) = reference.merge_gathered(c.as_mut(), &parts);
    assert_eq!(ref_stats.incast_bytes, dense);
    assert!(ref_stats.decode_cpu_ns > 0);

    let mut homomorphic = AggMerger::new(AggregationPlan::HomomorphicSum);
    let (_, hom_stats) = homomorphic.merge_gathered(c.as_mut(), &parts);
    assert_eq!(hom_stats.incast_bytes, wire);
    assert_eq!(hom_stats.decode_cpu_ns, 0, "nothing decodes under the fold");
    // 8-bit codes: ~4x fewer bytes enter the merge than dense f32.
    assert!(
        hom_stats.incast_bytes * 3 < ref_stats.incast_bytes,
        "expected ≥3x incast reduction: {} vs {}",
        hom_stats.incast_bytes,
        ref_stats.incast_bytes
    );
}

/// Gathered frames are bytes a peer wrote. A frame that passes its CRC yet
/// breaks the layout (or fails the CRC) must be a rejected contribution
/// under every plan — never a panic on the receiving rank — and the
/// well-formed peers must still merge exactly as if the bad rank had left.
#[test]
fn hostile_frames_are_rejected_contributions_under_every_plan() {
    use grace::core::payload::{encode, encode_frame};
    use grace::core::PayloadError;
    use grace::tensor::pack::crc32;

    // Re-seals a hand-edited body with a valid trailer, so only the parser
    // stands between the bytes and the fold.
    let seal = |mut body: Vec<u8>| {
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    };
    let four_floats = encode(&[Payload::F32(vec![1.0; 4])]);
    let mut flipped = encode(&[Payload::F32(Vec::new())]);
    *flipped.last_mut().unwrap() ^= 0xff;
    // A QSGD-shaped frame (sign bitmap, level stream, norm) whose level
    // header does not describe its body.
    let lying_levels = |bits: u32, len: usize| {
        encode(&[
            Payload::packed(&[0; 96], 1),
            Payload::Packed {
                data: vec![0; len],
                bits,
                count: 96,
            },
            Payload::F32(vec![1.0]),
        ])
    };
    let hostile: [(&str, Vec<u8>); 7] = [
        ("empty list", encode(&[])),
        ("nine payloads", encode(&vec![Payload::Bytes(vec![0]); 9])),
        (
            "u32 trailer",
            encode(&[Payload::Bytes(vec![1]), Payload::U32(vec![7])]),
        ),
        (
            "truncated body",
            seal(four_floats[..four_floats.len() - 6].to_vec()),
        ),
        ("3 bytes for 96 7-bit codes", lying_levels(7, 3)),
        ("zero-width codes", lying_levels(0, 84)),
        ("flipped crc", flipped),
    ];
    let data: Vec<f32> = (0..96)
        .map(|i| ((i * 37) % 101) as f32 / 50.0 - 1.0)
        .collect();
    // One method with the fold capability (zero-copy path), two without —
    // `qsgd` unpacks both of its payloads.
    for id in ["eightbit", "topk", "qsgd"] {
        let spec = registry::find(id).unwrap();
        let parts = gather(&spec, &data);
        let shape = parts[0].ctx.shape.clone();
        let frame = |p: &EncodedTensor| encode_frame(p.payloads.clone(), &p.ctx.meta);
        let survivors = [parts[0].clone(), parts[2].clone()];
        for plan in AggregationPlan::ALL {
            let mut c = (spec.build)(100);
            let mut merger = AggMerger::new(plan);
            let (expect, expect_stats) = merger.merge_gathered(c.as_mut(), &survivors);
            for (what, bad) in &hostile {
                let gathered = [frame(&parts[0]), bad.clone(), frame(&parts[2])];
                let (got, stats, rejected) = merger
                    .merge_frames(c.as_mut(), gathered.iter().map(Vec::as_slice), &shape)
                    .unwrap_or_else(|e| panic!("{id} under {plan}, {what}: {e}"));
                assert_eq!(rejected, 1, "{id} under {plan}, {what}");
                assert_eq!(bits(&got), bits(&expect), "{id} under {plan}, {what}");
                assert_eq!(
                    (stats.plan, stats.incast_bytes),
                    (expect_stats.plan, expect_stats.incast_bytes),
                    "{id} under {plan}, {what}"
                );
            }
            let all_bad = hostile.iter().map(|(_, bad)| bad.as_slice());
            assert!(
                matches!(
                    merger.merge_frames(c.as_mut(), all_bad, &shape),
                    Err(PayloadError::ChecksumMismatch { .. })
                ),
                "{id} under {plan}: the last rejection is the typed error"
            );
            let none = std::iter::empty::<&[u8]>();
            assert!(merger.merge_frames(c.as_mut(), none, &shape).is_err());
        }
    }
}

/// The reference plan's one-accumulator fold against the long way round —
/// decode every contribution, then `mean_of` — for all 25 codecs at 1, 2
/// and 3 contributors, with a CRC-rejected frame after the first survivor:
/// in the middle, or for a lone survivor last, so the fold cannot take the
/// last frame for the last survivor and must still scale by `1/n` once.
#[test]
fn the_fold_matches_the_decode_gathered_oracle() {
    use grace::core::payload::encode_frame;

    let data: Vec<f32> = (0..300)
        .map(|i| ((i * 37) % 101) as f32 / 50.0 - 1.0)
        .collect();
    let baseline = registry::resolve("baseline").unwrap();
    let specs: Vec<CompressorSpec> = std::iter::once(baseline).chain(all_specs()).collect();
    assert_eq!(specs.len(), 25);
    for spec in specs {
        let parts = gather(&spec, &data);
        let shape = parts[0].ctx.shape.clone();
        let frame = |p: &EncodedTensor| encode_frame(p.payloads.clone(), &p.ctx.meta);
        let mut rejected = frame(&parts[1]);
        *rejected.last_mut().unwrap() ^= 0x10;
        for n in 1..=N_WORKERS {
            let expect = bits(&decode_gathered((spec.build)(100).as_mut(), &parts[..n]));
            let mut frames: Vec<Vec<u8>> = parts[..n].iter().map(frame).collect();
            frames.insert(1, rejected.clone());
            for plan in AggregationPlan::ALL {
                let what = format!("{} under {plan}, {n} contributors", spec.id);
                let mut merger = AggMerger::new(plan);
                let gathered = frames.iter().map(Vec::as_slice);
                let (got, _, bad) = merger
                    .merge_frames((spec.build)(100).as_mut(), gathered, &shape)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!((bits(&got), bad), (expect.clone(), 1), "{what}");
                let (owned, _) = merger.merge_gathered((spec.build)(100).as_mut(), &parts[..n]);
                assert_eq!(bits(&owned), expect, "{what}, owned");
            }
        }
    }
}

/// A QSGD frame that passes its CRC but whose views the level decode cannot
/// take — the wrong width, the wrong count, a missing payload or norm — is
/// a rejected contribution like a CRC failure, under every plan: the
/// survivors merge as if that rank had left.
#[test]
fn malformed_qsgd_frames_are_rejected_contributions() {
    use grace::core::payload::encode_frame;
    use grace::core::PayloadError;

    let spec = registry::find("qsgd").unwrap();
    let data: Vec<f32> = (0..96)
        .map(|i| ((i * 37) % 101) as f32 / 50.0 - 1.0)
        .collect();
    let parts = gather(&spec, &data);
    let shape = parts[0].ctx.shape.clone();
    let frame = |p: &EncodedTensor| encode_frame(p.payloads.clone(), &p.ctx.meta);
    let (signs, levels, norm) = (&parts[1].payloads[0], &parts[1].payloads[1], 0.5f32);
    let packed = |bits: u32, count: usize| Payload::Packed {
        data: vec![0; (count * bits as usize).div_ceil(8)],
        bits,
        count: count as u32,
    };
    let malformed: [(&str, Vec<u8>); 6] = [
        (
            "6-bit levels",
            encode_frame(vec![signs.clone(), packed(6, 96)], &[norm]),
        ),
        (
            "2-bit signs",
            encode_frame(vec![packed(2, 96), levels.clone()], &[norm]),
        ),
        (
            "95 codes",
            encode_frame(vec![packed(1, 95), packed(7, 95)], &[norm]),
        ),
        ("one payload", encode_frame(vec![signs.clone()], &[norm])),
        ("no norm", encode_frame(parts[1].payloads.clone(), &[])),
        (
            "f32 levels",
            encode_frame(vec![signs.clone(), Payload::F32(vec![0.0; 96])], &[norm]),
        ),
    ];
    for plan in AggregationPlan::ALL {
        let mut c = (spec.build)(100);
        let mut merger = AggMerger::new(plan);
        let survivors = [parts[0].clone(), parts[2].clone()];
        let (expect, _) = merger.merge_gathered(c.as_mut(), &survivors);
        for (what, bad) in &malformed {
            let gathered = [frame(&parts[0]), bad.clone(), frame(&parts[2])];
            let (got, _, rejected) = merger
                .merge_frames(c.as_mut(), gathered.iter().map(Vec::as_slice), &shape)
                .unwrap_or_else(|e| panic!("{plan}, {what}: {e}"));
            assert_eq!((bits(&got), rejected), (bits(&expect), 1), "{plan}, {what}");
            let alone = std::iter::once(bad.as_slice());
            assert!(
                matches!(
                    merger.merge_frames(c.as_mut(), alone, &shape),
                    Err(PayloadError::Malformed(_))
                ),
                "{plan}, {what}"
            );
        }
    }
}

/// The sparse formats' frames too: a CRC-valid frame whose index list
/// reaches past the tensor, whose value and index counts differ, which
/// lacks a payload, carries a stray scalar or repeats an index (the decode
/// keeps the last value there, a scatter-add would add both) is one
/// rejected contribution —
/// folded nowhere, counted once — for top-k, random-k, threshold-v, DGC and
/// Qsparse under every plan, and alone it is the merge's typed error.
#[test]
fn malformed_sparse_frames_are_rejected_contributions() {
    use grace::core::payload::encode_frame;
    use grace::core::PayloadError;

    let data: Vec<f32> = (0..96)
        .map(|i| ((i * 37) % 101) as f32 / 50.0 - 1.0)
        .collect();
    for id in ["topk", "randomk", "thresholdv", "dgc", "qsparselocal"] {
        let spec = registry::resolve(id).unwrap();
        let parts = gather(&spec, &data);
        let shape = parts[0].ctx.shape.clone();
        let frame = |p: &EncodedTensor| encode_frame(p.payloads.clone(), &p.ctx.meta);
        let (payloads, meta) = (&parts[1].payloads, &parts[1].ctx.meta);
        let at = payloads
            .iter()
            .position(|p| matches!(p, Payload::U32(_)))
            .expect("an index list");
        let with_indices = |indices: Vec<u32>| {
            let mut p = payloads.clone();
            p[at] = Payload::U32(indices);
            encode_frame(p, meta)
        };
        let n = payloads[at].as_u32().len();
        let mut beyond = payloads[at].as_u32().to_vec();
        beyond[n / 2] = 96;
        let mut stray = meta.clone();
        stray.push(1.0);
        // Two entries at the first selected index, each stream otherwise
        // sound at that length.
        let twice = |p: &Payload| match p {
            Payload::F32(v) => Payload::F32(vec![v[0]; 2]),
            Payload::U32(v) => Payload::U32(vec![v[0]; 2]),
            Payload::Packed { bits, .. } => Payload::Packed {
                data: vec![0; (2 * *bits as usize).div_ceil(8)],
                bits: *bits,
                count: 2,
            },
            other => panic!("{id}: unexpected payload {other:?}"),
        };
        let repeated = encode_frame(payloads.iter().map(twice).collect(), meta);
        let malformed: [(&str, Vec<u8>); 5] = [
            ("an index past the end", with_indices(beyond)),
            ("a repeated index", repeated),
            (
                "one index short",
                with_indices(payloads[at].as_u32()[1..].to_vec()),
            ),
            (
                "a payload short",
                encode_frame(payloads[1..].to_vec(), meta),
            ),
            ("a stray scalar", encode_frame(payloads.clone(), &stray)),
        ];
        for plan in AggregationPlan::ALL {
            let mut c = (spec.build)(100);
            let mut merger = AggMerger::new(plan);
            let survivors = [parts[0].clone(), parts[2].clone()];
            let (expect, _) = merger.merge_gathered(c.as_mut(), &survivors);
            for (what, bad) in &malformed {
                let gathered = [frame(&parts[0]), bad.clone(), frame(&parts[2])];
                let (got, _, rejected) = merger
                    .merge_frames(c.as_mut(), gathered.iter().map(Vec::as_slice), &shape)
                    .unwrap_or_else(|e| panic!("{id}, {plan}, {what}: {e}"));
                assert_eq!(
                    (bits(&got), rejected),
                    (bits(&expect), 1),
                    "{id}, {plan}, {what}"
                );
                let alone = std::iter::once(bad.as_slice());
                assert!(
                    matches!(
                        merger.merge_frames(c.as_mut(), alone, &shape),
                        Err(PayloadError::Malformed(_))
                    ),
                    "{id}, {plan}, {what}"
                );
            }
        }
    }
}

/// The sparse formats fold straight from their streams, adding only where a
/// contribution selects, yet keep the dense fold's bits: the `+0.0` a
/// contribution adds where it selects nothing turns an earlier `−0.0` into
/// `+0.0`, a NaN stays the accumulator's, and ±∞ meet as NaN. Every order
/// of three of four hand-made contributions — one selects no `−0.0`, so
/// the adding passes after it stay sparse — at 1, 2 and 3 contributors,
/// owned and framed, against `decode_gathered` for the four codecs on the
/// format.
#[test]
fn the_sparse_fold_keeps_signed_zeros_nans_and_infinities() {
    use grace::core::payload::encode_frame;

    let (inf, nan) = (f32::INFINITY, f32::NAN);
    let sparse = |indices: &[u32], values: &[f32]| EncodedTensor {
        payloads: vec![
            Payload::F32(values.to_vec()),
            Payload::U32(indices.to_vec()),
        ],
        ctx: Context::shape_only(grace::tensor::Shape::vector(9)),
    };
    // Position 0: −0.0 from the first, nothing from the second; 7: −0.0
    // from three; 2: +∞ then −∞; 1, 4 and 7: one NaN beside other values.
    let contributions = [
        sparse(&[0, 1, 2, 3, 5, 7], &[-0.0, nan, inf, -0.0, 1.0, -0.0]),
        sparse(&[1, 2, 4, 5, 7, 8], &[2.0, -inf, -nan, -0.0, -0.0, 0.0]),
        sparse(&[0, 3, 6, 7], &[-0.0, -0.0, -inf, -0.0]),
        sparse(&[1, 3, 7, 8], &[inf, 3.0, nan, -2.0]),
    ];
    let mut orders = Vec::new();
    for a in 0..4 {
        for b in (0..4).filter(|&b| b != a) {
            for c in (0..4).filter(|&c| c != a && c != b) {
                orders.push([a, b, c]);
            }
        }
    }
    for id in ["topk", "randomk", "thresholdv", "dgc"] {
        let spec = registry::resolve(id).unwrap();
        for order in &orders {
            for n in 1..=3 {
                let parts: Vec<EncodedTensor> = order[..n]
                    .iter()
                    .map(|&c| contributions[c].clone())
                    .collect();
                let what = format!("{id}, contributions {:?}", &order[..n]);
                let expect = bits(&decode_gathered((spec.build)(100).as_mut(), &parts));
                let mut merger = AggMerger::new(AggregationPlan::DecodeThenMerge);
                let mut c = (spec.build)(100);
                let (owned, _) = merger.merge_gathered(c.as_mut(), &parts);
                assert_eq!(bits(&owned), expect, "{what}, owned");
                let frames: Vec<Vec<u8>> = parts
                    .iter()
                    .map(|p| encode_frame(p.payloads.clone(), &p.ctx.meta))
                    .collect();
                let shape = &parts[0].ctx.shape;
                let gathered = frames.iter().map(Vec::as_slice);
                let (framed, _, _) = merger.merge_frames(c.as_mut(), gathered, shape).unwrap();
                assert_eq!(bits(&framed), expect, "{what}, framed");
            }
        }
    }
}

/// The wire unit of a gathered collective is a bucket envelope around the
/// tensors' frames, and it too is bytes a peer wrote. A receiver splits
/// every slot against its *own* plan's tensor count and merges tensor `t`
/// over the `t`-th frame of the slots that split — so a wrong envelope
/// rejects that rank for the whole bucket, a damaged frame inside a sound
/// envelope rejects it for that one tensor, and neither can panic or size an
/// allocation. (`exchange.rs`'s unit tests pin the engine's side of this:
/// one detection per rejection, `ClusterError::Corrupted` when nothing is
/// left.)
#[test]
fn hostile_bucket_envelopes_are_rejected_rank_buckets_under_every_plan() {
    use grace::core::payload::{encode_bucket_into, encode_frame, split_bucket};
    use grace::core::PayloadError;

    /// What a receiving rank does with one gathered bucket of `shapes.len()`
    /// tensors: the merged tensors, and how many slots failed to split.
    fn receive(
        merger: &mut AggMerger,
        c: &mut dyn Compressor,
        slots: &[Vec<u8>],
        shapes: &[grace::tensor::Shape],
    ) -> Result<(Vec<(Tensor, usize)>, usize), PayloadError> {
        let mut bad_envelope = None;
        let mut sound: Vec<_> = slots
            .iter()
            .filter_map(|slot| {
                split_bucket(slot, shapes.len())
                    .map_err(|e| bad_envelope = Some(e))
                    .ok()
            })
            .collect();
        let rejected = slots.len() - sound.len();
        if let (true, Some(e)) = (sound.is_empty(), bad_envelope) {
            return Err(e);
        }
        let mut out = Vec::new();
        for shape in shapes {
            let frames = sound.iter_mut().map(|s| s.next().unwrap());
            let (t, _, bad_frames) = merger.merge_frames(c, frames, shape)?;
            out.push((t, bad_frames));
        }
        assert!(sound.iter_mut().all(|s| s.next().is_none()));
        Ok((out, rejected))
    }

    let data_a: Vec<f32> = (0..96)
        .map(|i| ((i * 37) % 101) as f32 / 50.0 - 1.0)
        .collect();
    let data_b: Vec<f32> = (0..40)
        .map(|i| ((i * 53) % 89) as f32 / 40.0 - 1.0)
        .collect();
    for id in ["eightbit", "topk", "qsgd"] {
        let spec = registry::find(id).unwrap();
        let (a, b) = (gather(&spec, &data_a), gather(&spec, &data_b));
        let shapes = [a[0].ctx.shape.clone(), b[0].ctx.shape.clone()];
        let bucket_of = |tensors: &[&EncodedTensor]| {
            let mut out = Vec::new();
            let parts = tensors.iter().map(|e| (&e.payloads[..], &e.ctx.meta[..]));
            encode_bucket_into(&mut out, parts);
            out
        };
        let envelope = |w: usize| bucket_of(&[&a[w], &b[w]]);
        // The frames inside are exactly what `encode_frame` always wrote.
        let good = envelope(1);
        let frames: Vec<&[u8]> = split_bucket(&good, 2).unwrap().collect();
        let frame_a = encode_frame(a[1].payloads.clone(), &a[1].ctx.meta);
        let frame_b = encode_frame(b[1].payloads.clone(), &b[1].ctx.meta);
        assert_eq!(frames, [&frame_a[..], &frame_b[..]], "{id}");
        assert_eq!(good.len(), 4 + 4 + frame_a.len() + 4 + frame_b.len());

        let with_len = |at: usize, len: u32| {
            let mut bad = good.clone();
            bad[at..at + 4].copy_from_slice(&len.to_le_bytes());
            bad
        };
        let one_tensor = bucket_of(&[&a[1]]);
        let three_tensors = bucket_of(&[&a[1], &b[1], &a[1]]);
        let second_len = 8 + frame_a.len();
        let hostile: [(&str, Vec<u8>); 11] = [
            ("empty slot", Vec::new()),
            ("half a count word", vec![2, 0]),
            ("n = 0", vec![0; 4]),
            ("n = 0 before the frames", with_len(0, 0)),
            ("one tensor for a plan of two", one_tensor),
            ("three tensors for a plan of two", three_tensors),
            (
                "len one past the end",
                with_len(second_len, frame_b.len() as u32 + 1),
            ),
            ("len = u32::MAX", with_len(4, u32::MAX)),
            (
                "first len short by one",
                with_len(4, frame_a.len() as u32 - 1),
            ),
            ("cut inside the last frame", good[..good.len() - 3].to_vec()),
            ("trailing byte", [&good[..], &[0]].concat()),
        ];
        let mut broken_b = good.clone();
        *broken_b.last_mut().unwrap() ^= 0x01;

        for plan in AggregationPlan::ALL {
            let mut c = (spec.build)(100);
            let mut merger = AggMerger::new(plan);
            let mut want =
                |parts: &[EncodedTensor]| bits(&merger.merge_gathered(c.as_mut(), parts).0);
            let all = [want(&a), want(&b)];
            let without_1 = [
                want(&[a[0].clone(), a[2].clone()]),
                want(&[b[0].clone(), b[2].clone()]),
            ];
            let what_of = |what: &str| format!("{id} under {plan}, {what}");

            let clean = [envelope(0), good.clone(), envelope(2)];
            let (got, rejected) = receive(&mut merger, c.as_mut(), &clean, &shapes).unwrap();
            assert_eq!(rejected, 0);
            for (t, (tensor, bad_frames)) in got.iter().enumerate() {
                assert_eq!((bits(tensor), *bad_frames), (all[t].clone(), 0), "{id}");
            }

            for (what, bad) in &hostile {
                assert!(
                    matches!(split_bucket(bad, 2), Err(PayloadError::Malformed(_))),
                    "{}",
                    what_of(what)
                );
                let slots = [envelope(0), bad.clone(), envelope(2)];
                let (got, rejected) = receive(&mut merger, c.as_mut(), &slots, &shapes)
                    .unwrap_or_else(|e| panic!("{}: {e}", what_of(what)));
                assert_eq!(rejected, 1, "{}", what_of(what));
                for (t, (tensor, bad_frames)) in got.iter().enumerate() {
                    assert_eq!(*bad_frames, 0, "{}", what_of(what));
                    assert_eq!(bits(tensor), without_1[t], "{}", what_of(what));
                }
            }

            // A sound envelope around one damaged frame: only that tensor
            // loses the contribution.
            let slots = [envelope(0), broken_b.clone(), envelope(2)];
            let (got, rejected) = receive(&mut merger, c.as_mut(), &slots, &shapes).unwrap();
            assert_eq!(rejected, 0, "{}", what_of("broken frame b"));
            assert_eq!((bits(&got[0].0), got[0].1), (all[0].clone(), 0));
            assert_eq!((bits(&got[1].0), got[1].1), (without_1[1].clone(), 1));

            // Nothing left: the typed error of the last rejection.
            let all_bad: Vec<Vec<u8>> = hostile.iter().map(|(_, bad)| bad.clone()).collect();
            assert!(matches!(
                receive(&mut merger, c.as_mut(), &all_bad, &shapes),
                Err(PayloadError::Malformed(_))
            ));
            let every_b_broken = vec![broken_b.clone(); 3];
            assert!(matches!(
                receive(&mut merger, c.as_mut(), &every_b_broken, &shapes),
                Err(PayloadError::ChecksumMismatch { .. })
            ));
        }
    }
}
