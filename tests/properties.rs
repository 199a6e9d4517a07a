//! Property-based tests spanning crates: invariants that must hold for
//! arbitrary gradients, payloads and configurations.

use grace::compressors::registry;
use grace::core::exchange::mean_payloads;
use grace::core::payload::{decode, encode, total_bytes, Payload};
use grace::core::{Compressor, Context, EncodedTensor};
use grace::tensor::pack::{pack_bits, unpack_bits};
use grace::tensor::select::{desparsify, sparsify, top_k_indices};
use grace::tensor::{Shape, Tensor};
use proptest::prelude::*;

fn small_gradient() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_compressor_preserves_shape_and_finiteness(
        data in small_gradient(),
        seed in 0u64..1000,
    ) {
        let g = Tensor::from_vec(data);
        for spec in registry::all_specs() {
            let mut c = (spec.build)(seed);
            let (payloads, ctx) = c.compress(&g, "p/w");
            let out = c.decompress(&payloads, &ctx);
            prop_assert_eq!(out.shape(), g.shape(), "{}", spec.id);
            prop_assert!(out.is_finite(), "{}: non-finite", spec.id);
            // Wire accounting is consistent: encode() length bounds the
            // logical payload bytes (framing only adds).
            let encoded = encode(&payloads);
            prop_assert!(encoded.len() >= total_bytes(&payloads), "{}", spec.id);
        }
    }

    #[test]
    fn payload_codec_roundtrips(
        f32s in proptest::collection::vec(-1e6f32..1e6, 0..50),
        u32s in proptest::collection::vec(0u32..u32::MAX, 0..50),
        bytes in proptest::collection::vec(0u8..255, 0..50),
        words in proptest::collection::vec(0u32..128, 0..50),
    ) {
        let list = vec![
            Payload::F32(f32s),
            Payload::U32(u32s),
            Payload::Bytes(bytes),
            Payload::packed(&words, 7),
        ];
        prop_assert_eq!(decode(&encode(&list)), list);
    }

    #[test]
    fn bitpack_roundtrips_any_width(
        bits in 1u32..=32,
        count in 0usize..100,
        seed in 0u64..10_000,
    ) {
        let mask = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
        let values: Vec<u32> = (0..count)
            .map(|i| (seed.wrapping_mul(i as u64 + 1) as u32) & mask)
            .collect();
        prop_assert_eq!(unpack_bits(&pack_bits(&values, bits), bits, count), values);
    }

    #[test]
    fn sparsify_roundtrip_preserves_selected_and_zeros_rest(
        data in small_gradient(),
        k_frac in 0.0f64..1.0,
    ) {
        let g = Tensor::from_vec(data);
        let k = ((g.len() as f64 * k_frac) as usize).min(g.len());
        let idx = top_k_indices(g.as_slice(), k);
        let sel = sparsify(&g, idx.clone());
        let dense = desparsify(&sel);
        for (i, v) in dense.as_slice().iter().enumerate() {
            if idx.contains(&(i as u32)) {
                prop_assert_eq!(*v, g[i]);
            } else {
                prop_assert_eq!(*v, 0.0);
            }
        }
    }

    #[test]
    fn topk_reconstruction_never_increases_error_with_larger_k(
        data in proptest::collection::vec(-10.0f32..10.0, 4..100),
    ) {
        use grace::compressors::TopK;
        let g = Tensor::from_vec(data);
        let err = |ratio: f64| {
            let mut c = TopK::new(ratio);
            let (p, ctx) = c.compress(&g, "w");
            c.decompress(&p, &ctx).sub(&g).norm2()
        };
        let coarse = err(0.25);
        let fine = err(0.75);
        prop_assert!(fine <= coarse + 1e-4, "fine {fine} > coarse {coarse}");
    }

    #[test]
    fn mean_payloads_is_elementwise_average(
        a in proptest::collection::vec(-100.0f32..100.0, 1..40),
        scale in -3.0f32..3.0,
    ) {
        let b: Vec<f32> = a.iter().map(|v| v * scale).collect();
        let ctx = Context::shape_only(Shape::vector(a.len()));
        let per_worker = [&a, &b].map(|v| EncodedTensor {
            payloads: vec![Payload::F32(v.clone())],
            ctx: ctx.clone(),
        });
        let mean = mean_payloads(&per_worker);
        let m = mean[0].as_f32();
        for i in 0..a.len() {
            let expect = (a[i] + b[i]) / 2.0;
            prop_assert!((m[i] - expect).abs() <= expect.abs() * 1e-5 + 1e-5);
        }
    }

    #[test]
    fn quantizer_error_bounded_by_norm(
        data in proptest::collection::vec(-5.0f32..5.0, 1..150),
        seed in 0u64..100,
    ) {
        // Unbiased quantizers satisfy E‖x−Q(x)‖² ≤ Ω‖x‖² (§III); a single
        // draw must at least stay within a loose deterministic envelope.
        let g = Tensor::from_vec(data);
        for id in ["qsgd", "terngrad", "natural", "eightbit"] {
            let spec = registry::find(id).unwrap();
            let mut c = (spec.build)(seed);
            let (p, ctx) = c.compress(&g, "w");
            let out = c.decompress(&p, &ctx);
            let err = out.sub(&g).norm2();
            let bound = match id {
                // TernGrad's variance scales with √d·‖g‖∞.
                "terngrad" => g.norm_inf() * (g.len() as f32).sqrt() + 1e-6,
                _ => 1.5 * g.norm2() + 1e-6,
            };
            prop_assert!(err <= bound, "{id}: err {err} > bound {bound}");
        }
    }

    #[test]
    fn error_feedback_conserves_mass(
        data in proptest::collection::vec(-1.0f32..1.0, 8..100),
    ) {
        use grace::compressors::TopK;
        use grace::core::{Memory, ResidualMemory};
        // Invariant: decompressed + residual == compensated, exactly.
        let g = Tensor::from_vec(data);
        let mut c = TopK::new(0.1);
        let mut mem = ResidualMemory::new();
        for _ in 0..3 {
            let comp = mem.compensate("w", &g);
            let (p, ctx) = c.compress(&comp, "w");
            let dec = c.decompress(&p, &ctx);
            mem.update("w", &comp, &dec);
            let residual = mem.residual("w").unwrap();
            let recon = dec.add(residual);
            prop_assert!(recon.sub(&comp).norm_inf() < 1e-6);
        }
    }
}
