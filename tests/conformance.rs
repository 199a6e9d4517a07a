//! Compressor conformance suite.
//!
//! Every method in the registry — the paper's 16 plus the extensions — must
//! satisfy the API contract the trainer and the threaded runtime rely on:
//!
//! 1. `decompress(compress(g))` preserves the gradient's shape and yields
//!    finite values;
//! 2. a second compress/decompress round-trip (through a fresh same-seed
//!    instance) is well-formed, and for methods whose output lies on their
//!    own quantization/selection grid it is a fixed point;
//! 3. two fresh instances built from the same seed are bit-reproducible —
//!    the property that lets threaded replicas agree with the simulator;
//! 4. each method's payload list survives the checksummed wire codec
//!    (`encode_frame` → `decode_frame`) byte-exactly, including the trailing
//!    meta payload a gathered contribution ships.
//!
//! Gradients are drawn from a seeded proptest strategy, so failures replay
//! deterministically.

use grace::compressors::extensions::extension_specs;
use grace::compressors::registry;
use grace::core::payload::{decode_frame, encode_frame, Payload};
use grace::core::CompressorSpec;
use grace::tensor::Tensor;
use proptest::prelude::*;

/// The paper's 16 registry methods plus the extension methods.
fn conformance_specs() -> Vec<CompressorSpec> {
    let mut specs = registry::all_specs();
    specs.extend(extension_specs());
    specs
}

/// Methods whose decompressed output is a fixed point of its own
/// compression: the reconstruction already lies on the method's
/// quantization grid / support set, so a fresh same-seed second round-trip
/// must reproduce it (within float round-off).
const IDEMPOTENT: &[&str] = &[
    "signsgd",
    "efsignsgd",
    "topk",
    "randomk",
    "eightbit",
    "terngrad",
    "inceptionn",
];

fn gradient() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, 4..160)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn round_trip_preserves_shape_and_finiteness_for_every_method(
        data in gradient(),
        seed in 0u64..500,
    ) {
        let g = Tensor::from_vec(data);
        for spec in conformance_specs() {
            let mut c = (spec.build)(seed);
            let (payloads, ctx) = c.compress(&g, "layer/w");
            let d1 = c.decompress(&payloads, &ctx);
            prop_assert_eq!(d1.shape(), g.shape(), "{}: shape", spec.id);
            prop_assert!(d1.is_finite(), "{}: first round non-finite", spec.id);

            // Second round-trip through a fresh same-seed instance.
            let mut c2 = (spec.build)(seed);
            let (p2, ctx2) = c2.compress(&d1, "layer/w");
            let d2 = c2.decompress(&p2, &ctx2);
            prop_assert_eq!(d2.shape(), g.shape(), "{}: shape (round 2)", spec.id);
            prop_assert!(d2.is_finite(), "{}: second round non-finite", spec.id);

            if IDEMPOTENT.contains(&spec.id) {
                let err = d2.sub(&d1).norm_inf();
                prop_assert!(
                    err <= 1e-4,
                    "{}: second round-trip not a fixed point (err {})",
                    spec.id,
                    err
                );
            }
        }
    }

    #[test]
    fn same_seed_fresh_instances_are_bit_reproducible(
        data in gradient(),
        seed in 0u64..500,
    ) {
        let g = Tensor::from_vec(data);
        for spec in conformance_specs() {
            let mut a = (spec.build)(seed);
            let mut b = (spec.build)(seed);
            let (pa, ctx_a) = a.compress(&g, "layer/w");
            let (pb, ctx_b) = b.compress(&g, "layer/w");
            prop_assert_eq!(&pa, &pb, "{}: payloads diverged", spec.id);
            prop_assert_eq!(&ctx_a.meta, &ctx_b.meta, "{}: meta diverged", spec.id);
            let da = a.decompress(&pa, &ctx_a);
            let db = b.decompress(&pb, &ctx_b);
            prop_assert_eq!(
                da.as_slice(),
                db.as_slice(),
                "{}: decompressed bits diverged",
                spec.id
            );
        }
    }

    #[test]
    fn every_methods_payloads_survive_the_checksummed_wire_codec(
        data in gradient(),
        seed in 0u64..500,
    ) {
        let g = Tensor::from_vec(data);
        for spec in conformance_specs() {
            let mut c = (spec.build)(seed);
            let (payloads, ctx) = c.compress(&g, "layer/w");
            // The exact on-wire shape of a gathered contribution.
            let bytes = encode_frame(payloads.clone(), &ctx.meta);
            let frame = decode_frame(&bytes);
            prop_assert!(frame.is_ok(), "{}: {:?}", spec.id, frame.err());
            let frame = frame.unwrap();
            let back: Vec<Payload> = frame.payloads().iter().map(|v| v.to_payload()).collect();
            prop_assert_eq!(back, payloads, "{}: wire round-trip", spec.id);
            let mut meta = Vec::new();
            frame.read_meta_into(&mut meta);
            prop_assert_eq!(meta, ctx.meta, "{}: meta round-trip", spec.id);
        }
    }
}
