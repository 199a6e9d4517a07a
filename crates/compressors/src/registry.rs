//! The compressor registry: one [`CompressorSpec`] per implemented method,
//! carrying the paper's Table-I metadata (class, `‖g̃‖₀`, nature of Q,
//! EF-On) and per-worker builders with the paper's default parameters.
//!
//! Default parameters follow the labels of the paper's Fig. 8:
//! `QSGD(64)`, `Topk(0.01)`, `Randk(0.01)`, `DGC(0.01)`, `SketchML(64)`,
//! `Adaptive(0.01)`, `Thresh(0.01)`, and PowerSGD at rank 4.

use crate::{
    AdaptiveThreshold, Dgc, EfSignSgd, EightBit, Inceptionn, Natural, OneBit, PowerSgd, Qsgd,
    RandomK, SignSgd, Signum, SketchMl, TernGrad, ThresholdV, TopK,
};
use grace_core::{
    Compressor, CompressorClass, CompressorSpec, Memory, Nature, NoCompression, NoMemory,
    OutputSize, ResidualMemory,
};

fn ef_memory() -> Box<dyn Memory> {
    Box::new(ResidualMemory::new())
}

fn no_memory() -> Box<dyn Memory> {
    Box::new(NoMemory::new())
}

/// One registry row (core or extension): metadata, codec cost model
/// `(ops_per_tensor, ns_per_element)`, builder, and the memory `ef_default`
/// pairs it with.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spec(
    id: &'static str,
    display: &'static str,
    class: CompressorClass,
    output_size: OutputSize,
    nature: Nature,
    ef_default: bool,
    codec_cost: (f64, f64),
    build: impl Fn(u64) -> Box<dyn Compressor> + Send + Sync + 'static,
) -> CompressorSpec {
    CompressorSpec {
        id,
        display,
        class,
        output_size,
        nature,
        ef_default,
        ops_per_tensor: codec_cost.0,
        ns_per_element: codec_cost.1,
        build: Box::new(build),
        build_memory: if ef_default {
            Box::new(ef_memory)
        } else {
            Box::new(no_memory)
        },
    }
}

/// All 16 implemented methods, in Table-I order.
pub fn all_specs() -> Vec<CompressorSpec> {
    use CompressorClass::*;
    use Nature::*;
    use OutputSize::*;
    vec![
        // --- Quantization ---
        spec(
            "eightbit",
            "8-bit",
            Quantization,
            Full,
            Deterministic,
            true,
            (8.0, 6.0),
            |_| Box::new(EightBit::new()),
        ),
        spec(
            "onebit",
            "1-bit SGD",
            Quantization,
            Full,
            Deterministic,
            true,
            (6.0, 3.0),
            |_| Box::new(OneBit::new()),
        ),
        spec(
            "signsgd",
            "SignSGD",
            Quantization,
            Full,
            Deterministic,
            false,
            (2.0, 1.5),
            |_| Box::new(SignSgd::new()),
        ),
        spec(
            "signum",
            "SIGNUM",
            Quantization,
            Full,
            Deterministic,
            false,
            (3.0, 2.0),
            |_| Box::new(Signum::new()),
        ),
        spec(
            "qsgd",
            "QSGD(64)",
            Quantization,
            Full,
            Random,
            false,
            (5.0, 4.0),
            |seed| Box::new(Qsgd::new(64, seed)),
        ),
        spec(
            "natural",
            "Natural",
            Quantization,
            Full,
            Random,
            true,
            (4.0, 3.0),
            |seed| Box::new(Natural::new(seed)),
        ),
        spec(
            "terngrad",
            "TernGrad",
            Quantization,
            Full,
            Random,
            false,
            (5.0, 3.0),
            |seed| Box::new(TernGrad::new(seed)),
        ),
        spec(
            "efsignsgd",
            "EFsignSGD",
            Quantization,
            Full,
            Deterministic,
            true,
            (3.0, 2.0),
            |_| Box::new(EfSignSgd::new()),
        ),
        spec(
            "inceptionn",
            "INCEPTIONN",
            Quantization,
            Full,
            Deterministic,
            false,
            (6.0, 6.0),
            |_| Box::new(Inceptionn::new()),
        ),
        // --- Sparsification ---
        spec(
            "randomk",
            "Randk(0.01)",
            Sparsification,
            K,
            Random,
            true,
            (2.0, 1.5),
            |seed| Box::new(RandomK::new(0.01, seed)),
        ),
        spec(
            "topk",
            "Topk(0.01)",
            Sparsification,
            K,
            Deterministic,
            true,
            (4.0, 4.0),
            |_| Box::new(TopK::new(0.01)),
        ),
        spec(
            "thresholdv",
            "Thresh(0.01)",
            Sparsification,
            Adaptive,
            Deterministic,
            true,
            (4.0, 5.0),
            |_| Box::new(ThresholdV::new(0.01)),
        ),
        spec(
            "dgc",
            "DGC(0.01)",
            Sparsification,
            Adaptive,
            Deterministic,
            false,
            (10.0, 8.0),
            |seed| Box::new(Dgc::new(0.01, seed)),
        ),
        // --- Hybrid ---
        spec(
            "adaptive",
            "Adaptive(0.01)",
            Hybrid,
            Adaptive,
            Deterministic,
            true,
            (10.0, 8.0),
            |_| Box::new(AdaptiveThreshold::new(0.01)),
        ),
        spec(
            "sketchml",
            "SketchML(64)",
            Hybrid,
            Adaptive,
            Random,
            true,
            (12.0, 25.0),
            |_| Box::new(SketchMl::new(64)),
        ),
        // --- Low rank ---
        spec(
            "powersgd",
            "PowerSGD(4)",
            LowRank,
            LowRankFactors,
            Deterministic,
            true,
            (6.0, 2.0),
            |_| Box::new(PowerSgd::new(4)),
        ),
    ]
}

/// Looks up one spec by its stable id.
pub fn find(id: &str) -> Option<CompressorSpec> {
    all_specs().into_iter().find(|s| s.id == id)
}

/// Answers every compressor id a run can name: `"baseline"` (no
/// compression, no memory, a codec that costs nothing), then the 16 core
/// methods, then the extension methods.
///
/// The baseline spec is built on the spot and is deliberately not a member
/// of [`all_specs`]: it is the thing Table I's methods are compared
/// against, not one of them (its `class` is a placeholder nothing prints).
pub fn resolve(id: &str) -> Option<CompressorSpec> {
    if id == "baseline" {
        return Some(spec(
            "baseline",
            "Baseline",
            CompressorClass::Quantization,
            OutputSize::Full,
            Nature::Deterministic,
            false,
            (0.0, 0.0),
            |_| Box::new(NoCompression::new()),
        ));
    }
    find(id).or_else(|| {
        crate::extensions::extension_specs()
            .into_iter()
            .find(|s| s.id == id)
    })
}

/// Builds a fleet of `n` per-worker compressor instances (worker `i` gets
/// seed `base_seed + i` derived streams) plus their paired memories.
pub fn build_fleet(spec: &CompressorSpec, n_workers: usize, base_seed: u64) -> grace_core::Fleet {
    let compressors = (0..n_workers)
        .map(|w| (spec.build)(grace_tensor::rng::substream(base_seed, w as u64).gen_seed()))
        .collect();
    let memories = (0..n_workers).map(|_| (spec.build_memory)()).collect();
    (compressors, memories)
}

/// Extension trait: derive a fresh `u64` seed from an RNG.
trait GenSeed {
    fn gen_seed(self) -> u64;
}

impl GenSeed for rand::rngs::StdRng {
    fn gen_seed(mut self) -> u64 {
        rand::Rng::gen(&mut self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::gradient;

    #[test]
    fn sixteen_methods_registered() {
        let specs = all_specs();
        assert_eq!(specs.len(), 16, "Table I lists 16 implemented methods");
        let mut ids: Vec<&str> = specs.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 16, "ids must be unique");
    }

    #[test]
    fn class_census_matches_table_one() {
        let specs = all_specs();
        let count = |c: CompressorClass| specs.iter().filter(|s| s.class == c).count();
        assert_eq!(count(CompressorClass::Quantization), 9);
        assert_eq!(count(CompressorClass::Sparsification), 4);
        assert_eq!(count(CompressorClass::Hybrid), 2);
        assert_eq!(count(CompressorClass::LowRank), 1);
    }

    #[test]
    fn every_method_roundtrips_every_shape() {
        for spec in all_specs() {
            for (len, shape) in [
                (60usize, grace_tensor::Shape::matrix(10, 6)),
                (7, grace_tensor::Shape::vector(7)),
                (24, grace_tensor::Shape::new(vec![2, 3, 4])),
            ] {
                let mut c = (spec.build)(13);
                let g = gradient(len, 17).reshape(shape.clone());
                let (payloads, ctx) = c.compress(&g, "layer/w");
                let out = c.decompress(&payloads, &ctx);
                assert_eq!(out.shape(), &shape, "{}: shape not preserved", spec.id);
                assert!(out.is_finite(), "{}: non-finite output", spec.id);
            }
        }
    }

    #[test]
    fn every_method_shrinks_large_gradients() {
        // All methods must transmit (much) less than raw float32 on a large
        // gradient-like tensor.
        for spec in all_specs() {
            let mut c = (spec.build)(5);
            // A realistic layer gradient: matrix-shaped, small magnitudes
            // (~1e-3). Fixed-threshold methods (Thresh) are volume-adaptive
            // in the input scale — the pitfall the paper notes in §III-B —
            // and PowerSGD only factorizes genuine matrices.
            let mut g = gradient(20_000, 23).reshape(grace_tensor::Shape::matrix(200, 100));
            g.scale(0.003);
            let (payloads, ctx) = c.compress(&g, "layer/w");
            let bytes = grace_core::payload::total_bytes(&payloads) + ctx.meta_bytes();
            assert!(
                bytes < 20_000 * 4,
                "{}: {bytes} bytes not smaller than raw {}",
                spec.id,
                20_000 * 4
            );
        }
    }

    #[test]
    fn ef_default_pairs_with_residual_memory() {
        for spec in all_specs() {
            let mem = (spec.build_memory)();
            assert_eq!(
                mem.is_active(),
                spec.ef_default,
                "{}: memory pairing inconsistent",
                spec.id
            );
        }
    }

    #[test]
    fn find_and_fleet() {
        let spec = find("topk").expect("topk registered");
        assert_eq!(spec.display, "Topk(0.01)");
        let (cs, ms) = build_fleet(&spec, 4, 99);
        assert_eq!(cs.len(), 4);
        assert_eq!(ms.len(), 4);
        assert!(find("nonexistent").is_none());
    }

    #[test]
    fn resolve_answers_every_id_a_run_can_name() {
        let mut ids: Vec<&str> = all_specs().iter().map(|s| s.id).collect();
        assert!(!ids.contains(&"baseline"), "baseline is not a Table I row");
        ids.extend(crate::extensions::extension_specs().iter().map(|s| s.id));
        ids.push("baseline");
        for id in ids {
            assert_eq!(resolve(id).map(|s| s.id), Some(id));
        }
        assert!(resolve("bogus").is_none());

        let baseline = resolve("baseline").unwrap();
        assert_eq!(
            (baseline.ops_per_tensor, baseline.ns_per_element),
            (0.0, 0.0)
        );
        let (cs, ms) = build_fleet(&baseline, 2, 1);
        assert_eq!(cs[1].name(), "Baseline");
        assert!(!ms[1].is_active());
    }

    #[test]
    fn fleet_randomized_methods_get_distinct_streams() {
        let spec = find("randomk").expect("registered");
        let (mut cs, _) = build_fleet(&spec, 2, 7);
        let g = gradient(1000, 3);
        let (p0, _) = cs[0].compress(&g, "w");
        let (p1, _) = cs[1].compress(&g, "w");
        assert_ne!(
            p0[1].as_u32(),
            p1[1].as_u32(),
            "workers must sample different random indices"
        );
    }

    #[test]
    fn strategies_are_declared() {
        use grace_core::CommStrategy;
        for spec in all_specs() {
            let c = (spec.build)(0);
            let strat = c.strategy();
            if spec.id == "powersgd" {
                assert_eq!(strat, CommStrategy::Allreduce);
            } else {
                assert_eq!(strat, CommStrategy::Allgather, "{}", spec.id);
            }
        }
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use grace_tensor::Tensor;

    fn all_including_extensions() -> Vec<CompressorSpec> {
        let mut specs = all_specs();
        specs.extend(crate::extensions::extension_specs());
        specs
    }

    #[test]
    fn every_method_handles_all_zero_tensors() {
        for spec in all_including_extensions() {
            let mut c = (spec.build)(1);
            let g = Tensor::from_vec(vec![0.0; 64]);
            let (p, ctx) = c.compress(&g, "w");
            let out = c.decompress(&p, &ctx);
            assert_eq!(out.shape(), g.shape(), "{}", spec.id);
            assert!(out.is_finite(), "{}", spec.id);
            // Pure sign methods decode zero inputs to ±1 by design; every
            // magnitude-carrying method must keep zeros at zero.
            if !["signsgd", "signum"].contains(&spec.id) {
                assert_eq!(out.norm_inf(), 0.0, "{}: zeros must stay zeros", spec.id);
            }
        }
    }

    #[test]
    fn every_method_handles_single_element_tensors() {
        for spec in all_including_extensions() {
            let mut c = (spec.build)(2);
            for v in [1.5f32, -2.0, 0.0] {
                let g = Tensor::from_vec(vec![v]);
                let (p, ctx) = c.compress(&g, "w");
                let out = c.decompress(&p, &ctx);
                assert_eq!(out.len(), 1, "{}", spec.id);
                assert!(out.is_finite(), "{}", spec.id);
            }
        }
    }

    #[test]
    fn every_method_handles_constant_tensors() {
        // Constant tensors are degenerate for norm-based scaling (all
        // elements tie at the max) and for quantile bucketing.
        for spec in all_including_extensions() {
            let mut c = (spec.build)(3);
            let g = Tensor::from_vec(vec![0.25; 33]);
            let (p, ctx) = c.compress(&g, "w");
            let out = c.decompress(&p, &ctx);
            assert!(out.is_finite(), "{}", spec.id);
            // Reconstruction must keep the right sign everywhere it is
            // non-zero.
            for v in out.as_slice() {
                assert!(*v >= 0.0, "{}: sign flipped on constant input", spec.id);
            }
        }
    }

    #[test]
    fn compress_is_repeatable_for_deterministic_methods() {
        use crate::testutil::gradient;
        for spec in all_including_extensions() {
            if spec.nature != Nature::Deterministic {
                continue;
            }
            // Skip methods with internal evolving state (momentum/low-rank
            // warm starts change outputs across calls by design).
            if ["signum", "dgc", "powersgd"].contains(&spec.id) {
                continue;
            }
            let g = gradient(128, 9);
            let mut c = (spec.build)(4);
            let (p1, _) = c.compress(&g, "w");
            let (p2, _) = c.compress(&g, "w");
            assert_eq!(p1, p2, "{}: deterministic method not repeatable", spec.id);
        }
    }
}
